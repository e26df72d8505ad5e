"""Reference implementations the tests hold the library to.

The scalar hybrid rules score one (ambiguity, novelty) pair with scalar
ranks, written from the definitions rather than from the vectorised
code.  The brute-force hybrid search builds every grid config and scores
it with ``score_hybrid_batch`` in the documented grid order.  The dense
eigensolver stands in for RDE's Lanczos top-k solve.  The csv-module
score-table reader and writer go row by row in Python, as
``read_scores_csv`` and ``write_scores_csv`` did before they worked on
whole columns.  The kernel-PCA projection is the out-of-place expression
``KernelPcaBasis.transform`` evaluated before it centred in place.  The
Mahalanobis forms invert each ridged covariance and contract it with a
3-operand einsum, as MD, RDE and DDU did before they held Cholesky
whiteners.
"""
import csv
import itertools

import numpy as np
from scipy.linalg import eigh
from scipy.spatial.distance import cdist

from abstain.core import rank
from abstain.density import _ridge_lambda
from abstain.hybrid import (
    ALPHA_GRID,
    C_GRID,
    DELTA_MAX_QUANTILES,
    DELTA_MIN_QUANTILES,
    HybridConfig,
    score_hybrid_batch,
)
from abstain.rejection import build_curve, curve_auc, multiclass_losses


def score_huq(u_ambiguity: float, u_novelty: float, config: HybridConfig) -> float:
    """Three-region rule on the novelty threshold, one instance."""
    base = config.case_offset
    if u_novelty <= config.delta_min:
        if u_ambiguity <= config.delta_max:
            return float(rank(u_ambiguity, config.table_ambiguity_id))
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


def brute_force_fit_hybrid(validation, u_a, u_e, variant):
    """The rc_auc grid search done the slow way: alpha outermost, then
    the novelty threshold, then the ambiguity threshold (or c); the
    first strictly better config wins."""
    u_a, u_e = np.asarray(u_a, dtype=float), np.asarray(u_e, dtype=float)
    n = len(u_a)
    losses = multiclass_losses(validation.probs, validation.labels)
    table_a, table_e = np.sort(u_a), np.sort(u_e)
    configs = []
    for alpha in ALPHA_GRID:
        if variant == "huq":
            for q_min in DELTA_MIN_QUANTILES:
                dmin = float(np.quantile(u_e, q_min, method="lower"))
                for q_max in DELTA_MAX_QUANTILES:
                    dmax = float(np.quantile(u_a, q_max, method="lower"))
                    configs.append(HybridConfig("huq", alpha, dmin, dmax, 1, n, table_a,
                                                np.sort(u_a[u_e <= dmin]), table_e))
        else:
            for c in C_GRID:
                configs.append(HybridConfig("huq2", alpha, float(table_e[-1]), float(table_a[-1]),
                                            c, n, table_a, table_a, table_e))
    best = None
    for cfg in configs:
        val = curve_auc(build_curve(score_hybrid_batch(u_a, u_e, cfg), losses, "risk"), "full")
        if best is None or val < best[0]:
            best = (val, cfg)
    return best[1]


def dense_top_eigenpairs(A, k, **_):
    """The k largest eigenpairs of a symmetric matrix or linear operator
    from a full dense LAPACK solve, ascending like ``eigsh``; solver
    options are ignored.  An operator is expanded column by column."""
    n = A.shape[0]
    return eigh(A @ np.eye(n), subset_by_index=(n - k, n - 1))


def csv_read_scores(path):
    """(instance, label, method, score) arrays of a score table read with
    the csv module; a blank or wrong-width row is a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["instance", "label", "method", "score"]:
            raise ValueError("missing score-table header")
        body = list(reader)
    if any(len(row) != 4 for row in body):
        raise ValueError("malformed row")
    instance, label, method, score = (list(column) for column in zip(*body)) if body else ([],) * 4
    labels = np.array([int(v) if v != "" else -1 for v in label], dtype=int)
    return (np.array([int(v) for v in instance], dtype=int), labels, np.array(method, dtype=str),
            np.array([float(v) for v in score], dtype=float))


def csv_write_scores(path, scores):
    """The score table of ``{method: scores}`` written row by row with the
    csv module: ``(n,)`` arrays get an empty label field, ``(n, L)``
    arrays one row per pair, instance-major, scores as ``repr``."""
    with open(path, "w", newline="") as fh:
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


def kernel_pca_transform(basis, E):
    """Centred RBF kernel rows of ``E`` against the basis support,
    projected on the dual vectors, in one out-of-place expression."""
    E = np.atleast_2d(np.asarray(E, dtype=float))
    K = np.exp(-basis.gamma * cdist(E, basis.support, "sqeuclidean"))
    Kc = K - basis.col_means[None, :] - K.mean(axis=1, keepdims=True) + basis.grand_mean
    return Kc @ basis.dual_vectors


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
