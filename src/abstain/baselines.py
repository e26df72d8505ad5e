"""Output-probability scorers: softmax response, per-label ambiguity,
top-two margin, predictive entropy, and a Beta-mixture posterior over
the maximum class probability.

Scorers take an ``(n, C)`` batch of probability rows and return ``(n,)``
scores; a single ``(C,)`` row gives a float.  The per-label ambiguity
keeps one score per sigmoid output, ``(n, L)`` in and out.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy

from .core import LabeledSplit, batched, validate_probs

PROB_CLAMP = 1e-6      # keeps Beta densities and their logs finite
SHAPE_CAP = 1e4        # Beta shape bound when a group has no spread
MLE_TOL = 1e-8
MLE_MAX_ITER = 200


@batched(1)
def score_sr(p) -> np.ndarray:
    """1 - max class probability."""
    p = validate_probs(p, normalized=True)
    return 1.0 - p.max(axis=1)


def score_mp(p) -> np.ndarray:
    """Per-label ambiguity 1 - max(p, 1 - p) of independent sigmoid
    outputs, in their shape: ``(n, L)`` gives ``(n, L)``."""
    p = validate_probs(p, normalized=False)
    return 1.0 - np.maximum(p, 1.0 - p)


@batched(1)
def score_delta(p) -> np.ndarray:
    """1 - (top probability - second probability); 0 iff a hard one-hot."""
    p = validate_probs(p, normalized=True)
    top2 = np.partition(p, -2, axis=1)[:, -2:]
    return 1.0 - (top2[:, 1] - top2[:, 0])


@batched(1)
def score_entropy(p) -> np.ndarray:
    """Shannon entropy in nats, with 0 * log 0 = 0."""
    p = validate_probs(p, normalized=True)
    return -scipy.special.xlogy(p, p).sum(axis=1)


@dataclass(frozen=True)
class BetaModel:
    """Two Beta densities over the max class probability plus priors."""

    alpha_correct: float
    gamma_correct: float
    alpha_incorrect: float
    gamma_incorrect: float
    prior_correct: float
    prior_incorrect: float

    def __post_init__(self):
        for name in ("alpha_correct", "gamma_correct", "alpha_incorrect", "gamma_incorrect"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if abs(self.prior_correct + self.prior_incorrect - 1.0) > 1e-9:
            raise ValueError("priors must sum to 1")
        if self.prior_correct < 0.0 or self.prior_incorrect < 0.0:
            raise ValueError("negative prior")


def _grid_mle(m1: float, m2: float) -> tuple[float, float]:
    """Coarse-to-fine likelihood grid; the crash pad when Newton stalls.
    Each pass refines one step around the grid's best pair, then spans a
    factor of two around each shape on its own grid."""

    def best_on(grid_a, grid_g):
        ll = (np.add.outer((grid_a - 1.0) * m1, (grid_g - 1.0) * m2)
              - scipy.special.betaln(grid_a[:, None], grid_g[None, :]))
        ia, ig = np.unravel_index(np.argmax(ll), ll.shape)
        return float(grid_a[ia]), float(grid_g[ig])

    def around(x, factor, num):
        return np.geomspace(max(x / factor, 1e-3), min(x * factor, SHAPE_CAP), num)

    grid_a = grid_g = np.geomspace(1e-2, SHAPE_CAP, 200)
    for _ in range(3):
        a, g = best_on(grid_a, grid_g)
        a, g = best_on(around(a, grid_a[1] / grid_a[0], 60), around(g, grid_g[1] / grid_g[0], 60))
        grid_a, grid_g = around(a, 2, 200), around(g, 2, 200)
    return a, g


def _fit_beta_group(x: np.ndarray) -> tuple[float, float]:
    """Max-likelihood Beta shapes for one sample.

    Newton iterations on the digamma stationarity conditions, started
    from method-of-moments.  Degenerate (zero-spread) samples cap the
    shapes at SHAPE_CAP with the sample mean preserved.
    """
    x = np.clip(np.asarray(x, dtype=float), PROB_CLAMP, 1.0 - PROB_CLAMP)
    mean = float(x.mean())
    var = float(x.var(ddof=1)) if x.size > 1 else 0.0
    if var < 1e-12:
        scale = SHAPE_CAP / max(mean, 1.0 - mean)
        warnings.warn("beta shapes capped: group has no spread", RuntimeWarning)
        return mean * scale, (1.0 - mean) * scale
    m1 = float(np.log(x).mean())
    m2 = float(np.log1p(-x).mean())
    common = mean * (1.0 - mean) / var - 1.0
    a = max(mean * common, 1e-3)
    g = max((1.0 - mean) * common, 1e-3)
    converged = False
    for _ in range(MLE_MAX_ITER):
        tri_ab = scipy.special.polygamma(1, a + g)
        f1 = scipy.special.digamma(a) - scipy.special.digamma(a + g) - m1
        f2 = scipy.special.digamma(g) - scipy.special.digamma(a + g) - m2
        j11 = scipy.special.polygamma(1, a) - tri_ab
        j22 = scipy.special.polygamma(1, g) - tri_ab
        det = j11 * j22 - tri_ab * tri_ab
        if not np.isfinite(det) or abs(det) < 1e-300:
            break
        da = -(j22 * f1 + tri_ab * f2) / det
        dg = -(tri_ab * f1 + j11 * f2) / det
        step = 1.0
        while (a + step * da <= 0.0 or g + step * dg <= 0.0) and step > 1e-8:
            step *= 0.5
        a_new, g_new = a + step * da, g + step * dg
        if a_new > 10.0 * SHAPE_CAP or g_new > 10.0 * SHAPE_CAP:
            break
        moved = max(abs(a_new - a), abs(g_new - g))
        a, g = a_new, g_new
        if moved < MLE_TOL:
            converged = True
            break
    if not converged:
        a, g = _grid_mle(m1, m2)
    if a > SHAPE_CAP or g > SHAPE_CAP:
        shrink = SHAPE_CAP / max(a, g)
        a, g = a * shrink, g * shrink
        warnings.warn("beta shapes capped at 1e4", RuntimeWarning)
    return float(a), float(g)


def fit_beta(validation: LabeledSplit) -> BetaModel:
    """Fit the correctness mixture on held-out max probabilities.

    The observable is the max softmax probability per instance; group
    membership is whether the argmax matched the label.  Priors are the
    empirical group frequencies.
    """
    if validation.task != "multiclass":
        raise ValueError("beta fitting is defined for multiclass splits")
    probs = validation.probs
    maxprob = probs.max(axis=1)
    correct = probs.argmax(axis=1) == validation.labels
    n_c = int(correct.sum())
    n_i = int((~correct).sum())
    if n_c < 2 or n_i < 2:
        raise ValueError(
            f"degenerate validation split: {n_c} correct / {n_i} incorrect, need >= 2 each"
        )
    a_c, g_c = _fit_beta_group(maxprob[correct])
    a_i, g_i = _fit_beta_group(maxprob[~correct])
    n = n_c + n_i
    return BetaModel(a_c, g_c, a_i, g_i, n_c / n, n_i / n)


@batched(1)
def score_beta(p, model: BetaModel) -> np.ndarray:
    """1 - posterior probability of correctness given the max probability."""
    p = validate_probs(p, normalized=True)
    x = np.clip(p.max(axis=1), PROB_CLAMP, 1.0 - PROB_CLAMP)
    lx, l1x = np.log(x), np.log1p(-x)
    log_c = (model.alpha_correct - 1.0) * lx + (model.gamma_correct - 1.0) * l1x - scipy.special.betaln(
        model.alpha_correct, model.gamma_correct
    )
    log_i = (model.alpha_incorrect - 1.0) * lx + (model.gamma_incorrect - 1.0) * l1x - scipy.special.betaln(
        model.alpha_incorrect, model.gamma_incorrect
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        num = np.log(model.prior_correct) + log_c
        other = np.log(model.prior_incorrect) + log_i
        out = 1.0 - np.exp(num - np.logaddexp(num, other))
    out[np.isneginf(other)] = 0.0
    out[np.isneginf(num)] = 1.0
    return out
