"""Embedding-space scorers: Mahalanobis distance, its robust kernel-PCA
variant, a per-class Gaussian mixture density, and a nonparametric
kernel estimator of the label-noise rate.

Fitters consume the train split only.  Scorers take an ``(n, d)`` batch
of embeddings and return ``(n,)`` scores, higher = more uncertain; a
single ``(d,)`` embedding gives a float.  They see at most
``core.BLOCK_ROWS`` rows at a time, so RDE's and NUQ's kernel rows
against the train sample stay bounded.
"""
from __future__ import annotations

import mmap
import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from .core import LabeledSplit, batched, seeded_rng

RIDGE_SCALE = 1e-6        # ridge = RIDGE_SCALE * trace/d, floor below
RIDGE_FLOOR = 1e-12
MIN_PER_CLASS = 2         # rows each fitted class needs, for a covariance
MCD_FRACTION = 0.75       # share of rows in each MCD subset
MCD_DET_TOL = 1e-9
MCD_MAX_CSTEPS = 100
MCD_RESTARTS = 20
DENSITY_UNDERFLOW = 1e-300
KERNEL_BLOCK_ROWS = 32    # train-kernel rows built at once by RDE's fit


def _ridge_lambda(cov: np.ndarray) -> float:
    d = cov.shape[0]
    lam = RIDGE_SCALE * float(np.trace(cov)) / d
    return max(lam, RIDGE_FLOOR)


def _whitener(cov: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse Cholesky factor W of cov + lambda*I with the scale-aware
    ridge, so |W x|^2 = x^T (cov + lambda*I)^-1 x, and the log-determinant
    of cov + lambda*I from the same factor."""
    reg = cov + _ridge_lambda(cov) * np.eye(cov.shape[0])
    try:
        L = np.linalg.cholesky(reg)
    except np.linalg.LinAlgError as exc:
        raise ValueError("covariance not positive definite after regularization") from exc
    return np.linalg.inv(L), 2.0 * float(np.log(np.diag(L)).sum())


def _sq_dists(X: np.ndarray, centroids: np.ndarray, W: np.ndarray) -> np.ndarray:
    """(n, C) squared Mahalanobis distances |W (x - mu)|^2 of each row x of
    X to each centroid mu, under one (d, d) whitener or one per centroid.
    einsum sums each row on its own, with no BLAS, so a row scores the
    same bits alone as inside any batch."""
    diffs = X[:, None] - centroids[None]
    white = np.einsum("ncd,ed->nce" if W.ndim == 2 else "ncd,ced->nce", diffs, W)
    return np.square(white, out=white).sum(axis=2)


def _check_batch(E: np.ndarray, d: int) -> None:
    if E.ndim != 2 or E.shape[1] != d:
        raise ValueError("embedding dimension mismatch with fitted model")


def _require_embeddings(split: LabeledSplit) -> np.ndarray:
    if split.embeddings is None:
        raise ValueError("split has no embeddings")
    return split.embeddings


def _class_partition(split: LabeledSplit):
    """Indices per class id 0..C-1; errors name a class under MIN_PER_CLASS rows.

    Multilabel splits have no mutually exclusive classes, so they fit a
    single shared component over all embeddings.
    """
    X = _require_embeddings(split)
    if split.task != "multiclass":
        if X.shape[0] < MIN_PER_CLASS:
            raise ValueError(f"shared component has {X.shape[0]} train embeddings, need >= {MIN_PER_CLASS}")
        return X, [np.arange(X.shape[0])]
    C = split.n_classes
    groups = []
    for c in range(C):
        idx = np.flatnonzero(split.labels == c)
        if idx.size == 0:
            raise ValueError(f"class {c} absent from train split")
        if idx.size < MIN_PER_CLASS:
            raise ValueError(f"class {c} has {idx.size} train embeddings, need >= {MIN_PER_CLASS}")
        groups.append(idx)
    return X, groups


# ---------------------------------------------------------------- Mahalanobis

@dataclass(frozen=True)
class MdModel:
    centroids: np.ndarray     # (C, d)
    covariance: np.ndarray    # (d, d) pooled within-class, denominator n - C
    whitener: np.ndarray      # (d, d) inverse Cholesky factor of the ridged covariance


def fit_md(train: LabeledSplit) -> MdModel:
    """Class centroids plus one shared within-class covariance."""
    X, groups = _class_partition(train)
    n, d = X.shape
    C = len(groups)
    centroids = np.empty((C, d))
    scatter = np.zeros((d, d))
    for c, idx in enumerate(groups):
        pts = X[idx]
        centroids[c] = pts.mean(axis=0)
        diff = pts - centroids[c]
        scatter += diff.T @ diff
    pooled = scatter / (n - C)
    return MdModel(centroids, pooled, _whitener(pooled)[0])


@batched(1)
def score_md(E, model: MdModel) -> np.ndarray:
    """Smallest squared Mahalanobis distance to any class centroid."""
    _check_batch(E, model.centroids.shape[1])
    return _sq_dists(E, model.centroids, model.whitener).min(axis=1)


# ------------------------------------------------------------ robust variant

@dataclass(frozen=True)
class KernelPcaBasis:
    """RBF kernel principal components fit on the train embeddings."""

    support: np.ndarray       # (n, d)
    gamma: float
    dual_vectors: np.ndarray  # (n, k): eigvec / sqrt(eigval)
    col_means: np.ndarray     # (n,) train-kernel column means
    grand_mean: float

    def transform(self, E: np.ndarray) -> np.ndarray:
        E = np.atleast_2d(np.asarray(E, dtype=float))
        K = scipy.spatial.distance.cdist(E, self.support, "sqeuclidean")
        np.exp(np.multiply(K, -self.gamma, out=K), out=K)
        row = K.mean(axis=1, keepdims=True)
        K -= self.col_means[None, :]
        K -= row
        K += self.grand_mean
        return K @ self.dual_vectors


def fast_mcd(Z: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-covariance-determinant location and scatter over subsets of
    an MCD_FRACTION share of the rows; ``rng`` draws the random restarts.

    Concentration steps: from a candidate subset, take the ``h`` points
    with the smallest Mahalanobis distance under the subset statistics
    and repeat; the determinant never increases.  Several restarts keep
    the search out of poor local minima.  Rows are canonicalised by
    lexicographic sort first, so the result ignores record order.
    """
    Z = np.asarray(Z, dtype=float)
    n, p = Z.shape
    Z = Z[np.lexsort(Z.T[::-1])]
    h = max(int(np.ceil(MCD_FRACTION * n)), int(np.ceil((n + p + 1) / 2)))
    h = min(h, n)
    if h >= n or h < p + 1:
        return Z.mean(axis=0), np.cov(Z, rowvar=False, ddof=1).reshape(p, p)

    def _stats(idx):
        pts = Z[idx]
        mu = pts.mean(axis=0)
        cov = np.cov(pts, rowvar=False, ddof=1).reshape(p, p)
        return mu, cov

    def _concentrate(idx):
        mu, cov = _stats(idx)
        det = float(np.linalg.det(cov))
        for _ in range(MCD_MAX_CSTEPS):
            # one BLAS product: only the ranking is used, and no batch is scored
            white = (Z - mu) @ _whitener(cov)[0].T
            dist = np.square(white, out=white).sum(axis=1)
            idx = np.argsort(dist, kind="stable")[:h]
            mu, cov = _stats(idx)
            det_new = float(np.linalg.det(cov))
            if abs(det_new - det) < MCD_DET_TOL:
                det = det_new
                break
            det = det_new
        return det, mu, cov

    # one deterministic start (closest to the overall mean) + random restarts
    overall = Z.mean(axis=0)
    first = np.argsort(((Z - overall) ** 2).sum(axis=1), kind="stable")[:h]
    starts = [first]
    for _ in range(MCD_RESTARTS - 1):
        starts.append(rng.choice(n, size=h, replace=False))
    best = None
    for idx in starts:
        det, mu, cov = _concentrate(np.asarray(idx))
        if best is None or det < best[0]:
            best = (det, mu, cov)
    det, mu, cov = best
    if det <= 0.0 or not np.isfinite(det):
        warnings.warn("degenerate MCD covariance; ridge applied", RuntimeWarning)
    return mu, cov


def _kernel_buffer(n: int) -> np.ndarray:
    """A zeroed (n, n) float64 array on an anonymous mapping of small
    pages: only the pages written are committed, so a triangle costs half
    the matrix.  numpy's own large arrays may take 2 MB pages, each of
    which spans dozens of kernel rows at n in the thousands."""
    buf = mmap.mmap(-1, n * n * 8)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):
        buf.madvise(mmap.MADV_NOHUGEPAGE)
    return np.frombuffer(buf, dtype=np.float64).reshape(n, n)


def _top_eigenpairs(Kc: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k largest eigenpairs of the symmetric matrix whose lower
    triangle ``Kc`` holds, descending, each eigenvector's largest-magnitude
    entry positive; eigenvalues below 1e-10 of the largest are dropped."""
    n = Kc.shape[0]
    # Lanczos from a seeded start (a centred kernel maps the ones vector
    # to zero); Kc.T is Kc as a Fortran array, so BLAS dsymv reads its
    # upper triangle, Kc's lower one, with no copy
    solver_rng = seeded_rng(0)
    v0 = solver_rng.uniform(-1.0, 1.0, n)
    op = scipy.sparse.linalg.LinearOperator(
        (n, n), matvec=lambda v: scipy.linalg.blas.dsymv(1.0, Kc.T, v.ravel()), dtype=Kc.dtype)
    try:
        evals, evecs = scipy.sparse.linalg.eigsh(op, k, which="LA", v0=v0, rng=solver_rng)
    except scipy.sparse.linalg.ArpackError as exc:
        raise ValueError(f"RDE kernel eigensolve failed: {exc}") from exc
    evals, evecs = evals[::-1], evecs[:, ::-1]   # ARPACK returns ascending order
    # the solver's signs are arbitrary: make each largest-magnitude entry positive
    evecs *= np.sign(evecs[np.abs(evecs).argmax(axis=0), np.arange(evecs.shape[1])])
    keep = evals > max(1e-12, 1e-10 * float(evals.max()))
    if not np.all(keep):
        warnings.warn(f"kernel spectrum collapsed; using {int(keep.sum())} components", RuntimeWarning)
        evals, evecs = evals[keep], evecs[:, keep]
    return evals, evecs


def _kernel_pca(X: np.ndarray, gamma: float, k: int) -> tuple[KernelPcaBasis, np.ndarray]:
    """Top-k kernel principal components of the train rows X and the
    rows' own (n, k) projections on them.

    Only the lower triangle of the double-centred train kernel is built,
    in blocks of KERNEL_BLOCK_ROWS rows whose distances and prefix sums
    share one buffer, and read: the products go
    through symmetric BLAS (dsymv, dsymm), and the upper triangle stays
    uncommitted memory (see ``_kernel_buffer``).  Each column sum adds
    its terms from row 0 down, one at a time, as numpy's column mean of
    the full matrix does: the components amplify a last-bit change of
    the means to about 1e-12 of the scores, and this keeps their bits."""
    n = X.shape[0]
    Kc = _kernel_buffer(n)
    blocks = [(a, min(a + KERNEL_BLOCK_ROWS, n)) for a in range(0, n, KERNEL_BLOCK_ROWS)]
    sums = np.empty(n)
    scratch = np.empty(KERNEL_BLOCK_ROWS * n)
    for a, b in blocks:
        block = scratch[:(b - a) * b].reshape(b - a, b)
        scipy.spatial.distance.cdist(X[a:b], X[:b], "sqeuclidean", out=block)
        rows = Kc[a:b, :b]
        np.exp(np.multiply(block, -gamma, out=block), out=rows)
        # row i holds the first i + 1 terms of column i, and the next term
        # of every column before it
        sums[a:b] = np.cumsum(rows, axis=1, out=block)[np.arange(b - a), np.arange(a, b)]
        for r, i in enumerate(range(a, b)):
            sums[:i] += rows[r, :i]
    col = sums / n
    grand = float(col.mean())
    for a, b in blocks:
        block = Kc[a:b, :b]
        block -= col[None, :b]
        block -= col[a:b, None]
        block += grand
    evals, evecs = _top_eigenpairs(Kc, k)
    # dsymm reads a Fortran operand in place (f2py copies a C-ordered one);
    # the basis keeps C-ordered dual vectors, which its transform reads
    dual = np.divide(evecs, np.sqrt(evals)[None, :], out=np.empty(evecs.shape, order="F"))
    del evecs
    projections = scipy.linalg.blas.dsymm(1.0, Kc.T, dual)
    return KernelPcaBasis(X, gamma, np.ascontiguousarray(dual), col, grand), projections


@dataclass(frozen=True)
class RdeModel:
    basis: KernelPcaBasis
    centroids: np.ndarray      # (C, k) robust locations in component space
    whiteners: np.ndarray      # (C, k, k) inverse Cholesky factors of the ridged MCD scatters


def fit_rde(train: LabeledSplit) -> RdeModel:
    """Global kernel PCA, then per-class robust statistics.

    The RBF width comes from the median pairwise distance heuristic.  It
    keeps min(64, smallest class count - 2) components, fewer if the
    spectrum collapses; FastMCD's restarts draw from one fixed stream.
    Inputs are canonicalised by row sort so record order cannot change
    the fit.
    """
    X, groups = _class_partition(train)
    comp = np.empty(X.shape[0], dtype=np.int64)
    for c, idx in enumerate(groups):
        comp[idx] = c
    order = np.lexsort(X.T[::-1])
    X, comp = X[order], comp[order]
    k = min(64, min(len(g) for g in groups) - 2)
    if k < 1:
        raise ValueError("need at least one kernel component; classes too small")

    med = train.median_pairwise_distance
    if med <= 0.0:
        warnings.warn("median pairwise distance is zero; unit kernel width used", RuntimeWarning)
        med = 1.0
    gamma = 1.0 / (2.0 * med * med)

    basis, Z = _kernel_pca(X, gamma, k)
    k = basis.dual_vectors.shape[1]   # fewer if the spectrum collapsed

    rng = seeded_rng(0)
    C = len(groups)
    centroids = np.empty((C, k))
    whiteners = np.empty((C, k, k))
    for c in range(C):
        centroids[c], cov = fast_mcd(Z[comp == c], rng)
        whiteners[c], _ = _whitener(cov)
    return RdeModel(basis, centroids, whiteners)


@batched(1)
def score_rde(E, model: RdeModel) -> np.ndarray:
    """Smallest robust Mahalanobis distance in kernel component space."""
    _check_batch(E, model.basis.support.shape[1])
    return _sq_dists(model.basis.transform(E), model.centroids, model.whiteners).min(axis=1)


# ----------------------------------------------------------- density mixture

@dataclass(frozen=True)
class DduModel:
    centroids: np.ndarray     # (C, d)
    whiteners: np.ndarray     # (C, d, d) inverse Cholesky factors of ridged per-class covs
    log_dets: np.ndarray      # (C,) log det of the ridged covariances
    log_priors: np.ndarray    # (C,) log empirical class frequencies


def fit_ddu(train: LabeledSplit) -> DduModel:
    """Per-class Gaussian fit with empirical-frequency priors."""
    X, groups = _class_partition(train)
    n, d = X.shape
    C = len(groups)
    centroids = np.empty((C, d))
    whiteners = np.empty((C, d, d))
    log_dets = np.empty(C)
    log_priors = np.empty(C)
    for c, idx in enumerate(groups):
        pts = X[idx]
        centroids[c] = pts.mean(axis=0)
        cov = np.cov(pts, rowvar=False, ddof=1).reshape(d, d)
        whiteners[c], log_dets[c] = _whitener(cov)
        log_priors[c] = np.log(idx.size / n)
    return DduModel(centroids, whiteners, log_dets, log_priors)


@batched(1)
def score_ddu(E, model: DduModel) -> np.ndarray:
    """Negative log of the prior-weighted Gaussian mixture density."""
    d = model.centroids.shape[1]
    _check_batch(E, d)
    quad = _sq_dists(E, model.centroids, model.whiteners)
    log_comp = model.log_priors - 0.5 * (d * np.log(2.0 * np.pi) + model.log_dets + quad)
    return -scipy.special.logsumexp(log_comp, axis=1)


# ------------------------------------------------------- kernel noise scorer

@dataclass(frozen=True)
class NuqModel:
    embeddings: np.ndarray      # (n, d) train points kept verbatim
    label_matrix: np.ndarray    # (n, C) one-hot rows (bit rows if multilabel)
    bandwidth: float


def fit_nuq(train: LabeledSplit) -> NuqModel:
    """Store the train sample; the kernel bandwidth is the median
    pairwise distance / sqrt(2)."""
    X = _require_embeddings(train)
    n = X.shape[0]
    if n < 2:
        raise ValueError("kernel fit needs at least two train embeddings")
    med = train.median_pairwise_distance
    if med <= 0.0:
        raise ValueError("degenerate train sample: median pairwise distance is zero")
    h = med / np.sqrt(2.0)
    if train.task == "multiclass":
        C = train.n_classes
        Y = np.zeros((n, C))
        Y[np.arange(n), train.labels] = 1.0
    else:
        Y = train.labels.astype(float)
    return NuqModel(X, Y, h)


@batched(1)
def score_nuq(E, model: NuqModel) -> np.ndarray:
    """Kernel estimate of the pointwise label-noise rate, scaled.

    Kernel-weighted class frequencies give per-class Bernoulli variances
    p(1-p); the worst one, divided by the kernel density estimate and
    the sample size (times the bandwidth constant), is the squared
    spread of the noise estimate.  The score is 2 sqrt(2/pi) times that
    spread.  Where the density estimate underflows the score is +inf
    with a warning, keeping far-away points maximally uncertain.
    """
    n, d = model.embeddings.shape
    _check_batch(E, d)
    h2 = model.bandwidth * model.bandwidth
    w = scipy.spatial.distance.cdist(E, model.embeddings, "sqeuclidean")
    np.exp(np.divide(np.negative(w, out=w), 2.0 * h2, out=w), out=w)
    wsum = w.sum(axis=1)
    density = wsum / (n * (2.0 * np.pi) ** (d / 2.0) * model.bandwidth**d)
    underflow = density < DENSITY_UNDERFLOW
    if np.any(underflow):
        warnings.warn("density underflow: embedding far outside the train support", RuntimeWarning)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_class = (w @ model.label_matrix) / wsum[:, None]
        sig2_max = (p_class * (1.0 - p_class)).max(axis=1)
        tau2 = model.bandwidth**d / (2.0 * np.sqrt(np.pi)) / n * sig2_max / density
        out = 2.0 * np.sqrt(2.0 / np.pi) * np.sqrt(tau2)
    out[underflow] = np.inf
    return out
