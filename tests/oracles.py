"""Reference implementations the tests hold the library to.

The scalar hybrid rules score one (ambiguity, novelty) pair with scalar
ranks (``rank``, the scalar form of ``core.rank_all``), written from the
definitions rather than from the vectorised code.  The brute-force hybrid
search scores every point of the full grid in the documented grid order:
HUQ by its former three-region rule, each ambiguity threshold included,
HUQ-2 with ``score_hybrid_batch``.  The dense
eigensolver stands in for RDE's Lanczos top-k solve.  The csv-module
score-table reader and writer go row by row in Python, on UTF-8 text
whatever the locale: the writer gives the bytes ``write_scores_csv`` must
write, and the reader gives every row of an exported table in file order,
so tests of what ``score`` writes check its rows, and the scores of its
container, there.
The kernel-PCA projection is the out-of-place expression
``RdeModel.transform`` evaluated before it centred in place, and
the dense kernel PCA is RDE's fit on the full train kernel, as it ran
before it built and read one triangle through symmetric BLAS.  The
Mahalanobis forms invert each ridged covariance and contract it with a
3-operand einsum, as MD, RDE and DDU did before they held Cholesky
whiteners.  The FastMCD search ranks each concentration step with the
scorers' per-row einsum ``_sq_dists``, as ``fast_mcd`` did before it took
one BLAS product.  The masked sigmoid evaluates each sign's branch on a
boolean selection, as ``synth._sigmoid`` did before it took one
``np.where``.  The whole-tensor passes draw, scale, shift and link all
(n, T, C) stochastic passes at once, as ``synth.generate`` did before it
filled them in row blocks.  The whole-array split sampler is
``synth._sample_split`` as it was before it measured each row's distance
to one centroid at a time: it holds the (n, C, d) difference array.  The
naive NUQ scorer loops over train rows and coordinates in Python floats.
The curve readers ``curve_auc_on`` and ``curve_value_on`` take a curve's
coverages as an explicit array, as ``curve_auc`` and ``curve_value_at``
did when a curve carried its own coverage array.
"""
import csv
import itertools
import math
import warnings

import numpy as np
from scipy.linalg import eigh
from scipy.spatial.distance import cdist

from abstain.core import seeded_rng
from abstain.density import (MCD_FRACTION, MCD_DET_TOL, MCD_MAX_CSTEPS, MCD_RESTARTS,
                             _ridge_lambda, _sq_dists, _top_eigenpairs, _whitener)
from abstain.hybrid import (
    ALPHA_GRID,
    C_GRID,
    DELTA_MIN_QUANTILES,
    HybridConfig,
    score_hybrid_batch,
)
from abstain.rejection import build_curve, curve_auc, multiclass_losses

# the ambiguity thresholds of the three-region HUQ grid: no threshold can change
# a validation removal order, so the library's two-region rule has none; the
# brute-force search tries them all
DELTA_MAX_QUANTILES = (0.00, 0.50, 0.70, 0.80, 0.90, 0.95)


def rank(u: float, table: np.ndarray) -> int:
    """1-based rank of ``u`` over a sorted score table.

    Counts the table entries strictly below ``u`` and adds one, so tied
    values share the smallest rank and out-of-table values still rank
    sensibly (below the minimum -> 1, above the maximum -> len + 1).
    """
    table = np.asarray(table, dtype=float)
    if table.size == 0:
        raise ValueError("empty rank table")
    u = float(u)
    if not np.isfinite(u):
        raise ValueError("rank input must be finite")
    return int(np.searchsorted(table, u, side="left")) + 1


def score_huq(u_ambiguity: float, u_novelty: float, config: HybridConfig) -> float:
    """Two-region rule on the novelty threshold, one instance."""
    base = config.case_offset
    if u_novelty <= config.delta_min:
        return float(rank(u_ambiguity, config.table_ambiguity) + base)
    mixed = (1.0 - config.alpha) * rank(u_novelty, config.table_novelty) + config.alpha * rank(
        u_ambiguity, config.table_ambiguity
    )
    return float(mixed + 2 * base)


def score_huq2(u_ambiguity: float, u_novelty: float, config: HybridConfig) -> float:
    """Smooth product form over squared ranks, one instance."""
    n = config.n_validation
    r_a = rank(u_ambiguity, config.table_ambiguity)
    r_e = rank(u_novelty, config.table_novelty)
    lever_a = 1.0 - r_a / (config.c * n)
    lever_e = 1.0 - r_e / (config.c * n)
    return float(
        (1.0 - config.alpha) * r_e * r_e * lever_a + config.alpha * r_a * r_a * lever_e
    )


def score_three_region_huq(u_a, u_e, alpha, delta_min, delta_max, table_a, table_id, table_e):
    """HUQ's three-region rule, as the library scored it before it kept two
    regions: a low-novelty unit (u_e <= delta_min) whose ambiguity is at most
    delta_max scores its ambiguity rank inside ``table_id``, the sorted
    ambiguity scores of the low-novelty held-out rows; any other low-novelty
    unit its rank over ``table_a`` plus N + 2; a high-novelty unit the mix
    of both ranks plus 2 (N + 2)."""
    base = len(table_a) + 2
    r_a = np.searchsorted(table_a, u_a, side="left") + 1.0
    r_e = np.searchsorted(table_e, u_e, side="left") + 1.0
    out = (1.0 - alpha) * r_e + alpha * r_a + 2 * base
    low = u_e <= delta_min
    out[low] = r_a[low] + base
    plain = low & (u_a <= delta_max)
    out[plain] = np.searchsorted(table_id, u_a[plain], side="left") + 1.0
    return out


def brute_force_hybrid_objectives(validation, u_a, u_e, variant):
    """Every point of the full grid, alpha outermost, then the novelty
    threshold, then the ambiguity threshold (or c), as (the area of its one
    full risk curve, its hyperparameters, its validation scores).  HUQ
    points are scored by the three-region rule, each ambiguity threshold
    of DELTA_MAX_QUANTILES included: 1,008 of them."""
    u_a, u_e = np.asarray(u_a, dtype=float), np.asarray(u_e, dtype=float)
    losses = multiclass_losses(validation.probs, validation.labels)
    table_a, table_e = np.sort(u_a), np.sort(u_e)
    points = []
    for alpha in ALPHA_GRID:
        if variant == "huq":
            for q_min in DELTA_MIN_QUANTILES:
                dmin = float(np.quantile(u_e, q_min, method="lower"))
                for q_max in DELTA_MAX_QUANTILES:
                    dmax = float(np.quantile(u_a, q_max, method="lower"))
                    scores = score_three_region_huq(u_a, u_e, alpha, dmin, dmax, table_a,
                                                    np.sort(u_a[u_e <= dmin]), table_e)
                    points.append(({"alpha": alpha, "delta_min": dmin, "delta_max": dmax, "c": 1.0}, scores))
        else:
            for c in C_GRID:
                config = HybridConfig(table_a, table_e, alpha, float(table_e[-1]), float(c), 0.0)
                points.append(({"alpha": alpha, "delta_min": float(table_e[-1]), "c": float(c)},
                               score_hybrid_batch(u_a, u_e, config, "huq2")))
    return [(curve_auc(build_curve(scores, losses, "risk"), "full"), point, scores) for point, scores in points]


def brute_force_fit_hybrid(validation, u_a, u_e, variant):
    """The rc_auc grid search done the slow way: the first strictly
    better point of :func:`brute_force_hybrid_objectives` wins."""
    best = None
    for searched in brute_force_hybrid_objectives(validation, u_a, u_e, variant):
        if best is None or searched[0] < best[0]:
            best = searched
    return best


def curve_value_on(coverages, values, coverage: float) -> float:
    """The value of the curve ``values`` at ``coverage``, interpolated
    over the decreasing ``coverages`` it carries."""
    return float(np.interp(float(coverage), coverages[::-1], values[::-1]))


def curve_auc_on(coverages, values, span: str) -> float:
    """The area under the curve ``values`` over the decreasing
    ``coverages`` it carries, normalized by its coverage span; "first_50"
    keeps coverages in [0.5, 1] with a point interpolated at 0.5."""
    cov = coverages[::-1].copy()
    val = values[::-1].copy()
    if cov.size == 1:
        return float(val[0])
    if span == "first_50" and cov[0] < 0.5:
        v_at = np.interp(0.5, cov, val)
        keep = cov >= 0.5
        cov = np.concatenate(([0.5], cov[keep]))
        val = np.concatenate(([v_at], val[keep]))
    width = cov[-1] - cov[0]
    if width <= 0.0:
        return float(val[-1])
    return float(np.trapezoid(val, cov) / width)


def dense_top_eigenpairs(A, k, **_):
    """The k largest eigenpairs of a symmetric matrix or linear operator
    from a full dense LAPACK solve, ascending like ``eigsh``; solver
    options are ignored.  An operator is expanded column by column."""
    n = A.shape[0]
    return eigh(A @ np.eye(n), subset_by_index=(n - k, n - 1))


EMPTY_LABEL = -1   # the label csv_read_scores gives an instance-level row's empty label field


def csv_read_scores(path):
    """(instance, label, method, score) arrays of a score table read with
    the csv module, EMPTY_LABEL for an empty label field; a blank or
    wrong-width row is a ValueError."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["instance", "label", "method", "score"]:
            raise ValueError("missing score-table header")
        body = list(reader)
    if any(len(row) != 4 for row in body):
        raise ValueError("malformed row")
    instance, label, method, score = (list(column) for column in zip(*body)) if body else ([],) * 4
    labels = np.array([int(v) if v != "" else EMPTY_LABEL for v in label], dtype=int)
    return (np.array([int(v) for v in instance], dtype=int), labels, np.array(method, dtype=str),
            np.array([float(v) for v in score], dtype=float))


def csv_write_scores(path, scores):
    """The score table of ``{method: scores}`` written row by row with the
    csv module: ``(n,)`` arrays get an empty label field, ``(n, L)``
    arrays one row per pair, instance-major, scores as ``repr``, encoded
    as UTF-8 whatever the locale."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["instance", "label", "method", "score"])
        for method, values in scores.items():
            values = np.asarray(values, dtype=float)
            if values.ndim == 2:
                instances, labels = np.indices(values.shape).reshape(2, -1).tolist()
            else:
                instances, labels = range(len(values)), itertools.repeat("")
            w.writerows(zip(instances, labels, itertools.repeat(method),
                            map(repr, values.ravel().tolist())))


def kernel_pca_transform(model, E):
    """Centred RBF kernel rows of ``E`` against the RDE model's support,
    projected on its dual vectors, in one out-of-place expression.  The
    squared distances take the Gram form |e|^2 - 2 e.s + |s|^2, clamped at 0."""
    E = np.atleast_2d(np.asarray(E, dtype=float))
    S = model.support
    sq = np.square(E).sum(axis=1)[:, None] - 2.0 * (E @ S.T) + np.square(S).sum(axis=1)[None, :]
    K = np.exp(-model.gamma * np.maximum(sq, 0.0))
    Kc = K - model.col_means[None, :] - K.mean(axis=1, keepdims=True) + model.grand_mean
    return Kc @ model.dual_vectors


def dense_kernel_pca(X, gamma, k):
    """``density._kernel_pca`` on the full n x n train kernel: one ``cdist``
    array, exponentiated and double-centred in place with numpy means, and
    the train projections as one dense product."""
    Kc = cdist(X, X, "sqeuclidean")
    np.exp(np.multiply(Kc, -gamma, out=Kc), out=Kc)
    col = Kc.mean(axis=0)
    grand = float(Kc.mean())
    Kc -= col[None, :]
    Kc -= col[:, None]
    Kc += grand
    evals, evecs = _top_eigenpairs(Kc, k)
    dual = evecs / np.sqrt(evals)[None, :]
    return dual, col, grand, Kc @ dual


def ridged_inverse(cov):
    """Symmetrised inverse and log-determinant of cov + lambda*I with the
    density scorers' ridge, by LU."""
    reg = cov + _ridge_lambda(cov) * np.eye(cov.shape[0])
    prec = np.linalg.inv(reg)
    return (prec + prec.T) / 2.0, np.linalg.slogdet(reg)[1]


def mahalanobis_sq(X, centroids, covs):
    """(n, C) squared Mahalanobis distances of the rows of ``X`` to each
    centroid under one shared ``(d, d)`` covariance or one per centroid,
    each ridged and inverted."""
    covs = np.broadcast_to(covs, (len(centroids),) + covs.shape[-2:])
    precisions = np.array([ridged_inverse(cov)[0] for cov in covs])
    diffs = centroids[None] - X[:, None]
    return np.einsum("ncd,cde,nce->nc", diffs, precisions, diffs)


def einsum_fast_mcd(Z, fraction=MCD_FRACTION, rng=None):
    """``density.fast_mcd`` with each C-step's distances from ``_sq_dists``."""
    Z = np.asarray(Z, dtype=float)
    n, p = Z.shape
    if not 0.5 <= fraction <= 1.0:
        raise ValueError("subset fraction must lie in [0.5, 1]")
    Z = Z[np.lexsort(Z.T[::-1])]
    h = max(int(np.ceil(fraction * n)), int(np.ceil((n + p + 1) / 2)))
    h = min(h, n)
    if h >= n or h < p + 1:
        return Z.mean(axis=0), np.cov(Z, rowvar=False, ddof=1).reshape(p, p)
    if rng is None:
        rng = seeded_rng(0)

    def _stats(idx):
        pts = Z[idx]
        return pts.mean(axis=0), np.cov(pts, rowvar=False, ddof=1).reshape(p, p)

    def _concentrate(idx):
        mu, cov = _stats(idx)
        det = float(np.linalg.det(cov))
        for _ in range(MCD_MAX_CSTEPS):
            dist = _sq_dists(Z, mu[None], _whitener(cov)[0])[:, 0]
            idx = np.argsort(dist, kind="stable")[:h]
            mu, cov = _stats(idx)
            det_new = float(np.linalg.det(cov))
            if abs(det_new - det) < MCD_DET_TOL:
                det = det_new
                break
            det = det_new
        return det, mu, cov

    overall = Z.mean(axis=0)
    starts = [np.argsort(((Z - overall) ** 2).sum(axis=1), kind="stable")[:h]]
    for _ in range(MCD_RESTARTS - 1):
        starts.append(rng.choice(n, size=h, replace=False))
    best = None
    for idx in starts:
        det, mu, cov = _concentrate(np.asarray(idx))
        if best is None or det < best[0]:
            best = (det, mu, cov)
    mu, cov = best[1:]
    if not np.linalg.slogdet(cov)[0] > 0.0:
        warnings.warn("degenerate MCD covariance; ridge applied", RuntimeWarning)
    return mu, cov


def naive_nuq(e, X, labels, C, h):
    """NUQ's score of the query ``e`` against the train rows ``X`` with
    class ids ``labels`` < ``C`` at bandwidth ``h``, one Python float at a
    time, from the kernel estimate's formula."""
    n, d = X.shape
    weights = []
    for i in range(n):
        s = 0.0
        for k in range(d):
            s += (X[i][k] - e[k]) ** 2
        weights.append(math.exp(-s / (2 * h * h)))
    wsum = sum(weights)
    dens = wsum / (n * (2 * math.pi) ** (d / 2) * h ** d)
    if dens < 1e-300:
        return float("inf")
    worst = 0.0
    for c in range(C):
        pc = sum(w for w, l in zip(weights, labels) if l == c) / wsum
        worst = max(worst, pc * (1 - pc))
    tau2 = (h ** d / (2 * math.sqrt(math.pi))) / n * worst / dens
    return 2 * math.sqrt(2 / math.pi) * math.sqrt(tau2)


def masked_sigmoid(z):
    """Logistic function of each entry: 1 / (1 + exp(-z)) where z >= 0,
    exp(z) / (1 + exp(z)) elsewhere, each on its own boolean selection."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def whole_tensor_passes(logits, link, spec, rng):
    """The (n, T, C) stochastic passes of ``logits`` from one normal draw of
    the whole tensor, scaled by ``spec.mc_noise``, shifted by the logits and
    linked in one call each."""
    noise = rng.standard_normal((len(logits), spec.mc_passes, logits.shape[1]))
    noise *= spec.mc_noise
    noise += logits[:, None, :]
    return link(noise)


def sample_split_whole_array(spec, n, with_ood, centroids, ood_center, rng):
    """``synth._sample_split`` with every row's centroid distances taken
    from one (n, C, d) difference array."""
    C, d = centroids.shape
    n_ood = int(np.floor(spec.ood_fraction * n)) if with_ood else 0
    n_id = n - n_ood
    y = rng.permutation(np.arange(n_id) % C)
    X = centroids[y] + rng.standard_normal((n_id, d))
    dists = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
    order = np.argsort(dists, axis=1)
    margin = dists[np.arange(n_id), order[:, 1]] - dists[np.arange(n_id), order[:, 0]]
    in_band = margin < spec.spacing / 2.0
    flip = in_band & (rng.random(n_id) < spec.overlap)
    competing = np.where(order[:, 0] != y, order[:, 0], order[:, 1])
    y = np.where(flip, competing, y)
    if n_ood:
        y_ood = rng.integers(0, C, size=n_ood)
        X_ood = ood_center[None, :] + rng.standard_normal((n_ood, d))
        X = np.vstack([X, X_ood])
        y = np.concatenate([y, y_ood])
        flip = np.concatenate([flip, np.zeros(n_ood, dtype=bool)])
    ood = np.zeros(n, dtype=bool)
    ood[n_id:] = True
    perm = rng.permutation(n)
    return X[perm], y[perm], ood[perm], flip[perm]
