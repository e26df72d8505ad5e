"""Rank-space combinators pairing an ambiguity scorer with a novelty
scorer.

Raw scores from different families live on incompatible scales, so both
inputs are reduced to ranks over held-out score tables before mixing.
Two variants are provided: a two-region rule that routes each instance
by a threshold on the novelty score, and a smooth product form whose
squared ranks are damped by the complementary rank.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import LabeledSplit, rank_all
from .rejection import multiclass_losses, rejection_order, risk_aucs

ALPHA_GRID = tuple(i / 20.0 for i in range(21))
DELTA_MIN_QUANTILES = (0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 1.00)
C_GRID = (1, 2, 3)
MIN_CALIBRATION = 20

VARIANTS = ("huq", "huq2")


@dataclass(frozen=True)
class HybridConfig:
    """Fitted hyperparameters, the held-out rank tables, and the objective
    the calibration reached.  The variant is not stored: each registry key
    names its own.  HUQ reads delta_min, HUQ-2 reads c."""

    table_ambiguity: np.ndarray = field(metadata={"dims": "n"})   # sorted held-out ambiguity scores
    table_novelty: np.ndarray = field(metadata={"dims": "n"})     # sorted held-out novelty scores
    alpha: float
    delta_min: float
    c: float
    objective: float   # full-span risk-curve area on the held-out split

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.c not in C_GRID:
            raise ValueError(f"c must be one of {C_GRID}")
        for name in ("table_ambiguity", "table_novelty"):
            t = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, t)
            if t.size and np.any(np.diff(t) < 0):
                raise ValueError(f"{name} must be sorted ascending")
        if self.n_validation < 1 or self.table_novelty.size != self.n_validation:
            raise ValueError("the validation tables must be non-empty and of one length")

    @property
    def n_validation(self) -> int:
        return self.table_ambiguity.size

    @property
    def case_offset(self) -> int:
        # strictly above any reachable rank, so the two regions of the
        # threshold rule can never interleave
        return self.n_validation + 2


def _huq_mix(r_a, r_e, in_dist, alpha: float, base: int) -> np.ndarray:
    """Two-region rule on the novelty threshold, from ranks: low novelty
    (``in_dist``) scores the ambiguity rank plus ``base``, high novelty
    both ranks mixed with weight alpha plus ``2 * base``."""
    out = (1.0 - alpha) * r_e + alpha * r_a + 2 * base
    out[in_dist] = r_a[in_dist] + base
    return out


def _huq2_mix(r_a, r_e, alpha: float, c: float, n: int) -> np.ndarray:
    """Smooth product form over squared ranks, each damped by a linear
    leverage term in the other score's rank: l(u) = 1 - R(u)/(c * N)."""
    lever_a = 1.0 - r_a / (c * n)
    lever_e = 1.0 - r_e / (c * n)
    return (1.0 - alpha) * r_e * r_e * lever_a + alpha * r_a * r_a * lever_e


def _check_inputs(u_a, u_e, variant: str):
    """``u_a`` and ``u_e`` as matching finite 1-D float arrays."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    u_a, u_e = (np.asarray(u, dtype=float) for u in (u_a, u_e))
    if u_a.shape != u_e.shape or u_a.ndim != 1:
        raise ValueError("score arrays must be matching 1-D")
    if not (np.all(np.isfinite(u_a)) and np.all(np.isfinite(u_e))):
        raise ValueError("hybrid inputs must be finite")
    return u_a, u_e


def score_hybrid_batch(u_a, u_e, config: HybridConfig, variant: str) -> np.ndarray:
    """Vectorised scoring of aligned ambiguity/novelty score arrays by the
    rule of ``variant``."""
    u_a, u_e = _check_inputs(u_a, u_e, variant)
    r_a = rank_all(u_a, config.table_ambiguity).astype(float)
    r_e = rank_all(u_e, config.table_novelty).astype(float)
    if variant == "huq2":
        return _huq2_mix(r_a, r_e, config.alpha, config.c, config.n_validation)
    return _huq_mix(r_a, r_e, u_e <= config.delta_min, config.alpha, config.case_offset)


def _calibration_grid(validation: LabeledSplit, u_a_scores, u_e_scores, variant: str):
    """The objective of every grid point of ``variant``, alpha-major, and a
    function from a grid index to that point's config.  Every rank is
    computed once up front, and the mixes of one alpha at a time are
    stacked, which bounds the memory."""
    n = len(validation)
    if n < MIN_CALIBRATION:
        raise ValueError(f"insufficient calibration data: {n} < {MIN_CALIBRATION}")
    if np.shape(u_a_scores) != (n,) or np.shape(u_e_scores) != (n,):
        raise ValueError("score arrays must match the validation split")
    u_a, u_e = _check_inputs(u_a_scores, u_e_scores, variant)
    if validation.task != "multiclass":
        raise ValueError("hybrid calibration needs a multiclass split")

    losses = multiclass_losses(validation.probs, validation.labels)
    table_a, table_e = np.sort(u_a), np.sort(u_e)
    r_a, r_e = rank_all(u_a, table_a).astype(float), rank_all(u_e, table_e).astype(float)
    if variant == "huq2":   # (delta_min, c) of each point: the threshold is unused by the smooth variant
        points = [(float(table_e[-1]), float(c)) for c in C_GRID]

        def mix(alpha, k):
            return _huq2_mix(r_a, r_e, alpha, points[k][1], n)
    else:
        points = [(float(np.quantile(u_e, q, method="lower")), 1.0) for q in DELTA_MIN_QUANTILES]
        in_dist = [u_e <= delta_min for delta_min, _ in points]

        def mix(alpha, k):
            return _huq_mix(r_a, r_e, in_dist[k], alpha, n + 2)

    objectives = np.concatenate([
        risk_aucs(losses[rejection_order(np.stack([mix(alpha, k) for k in range(len(points))]))])
        for alpha in ALPHA_GRID])

    def config(k):
        return HybridConfig(table_a, table_e, ALPHA_GRID[k // len(points)], *points[k % len(points)],
                            float(objectives[k]))
    return objectives, config


def fit_hybrid(validation: LabeledSplit, u_a_scores, u_e_scores, variant: str = "huq2") -> HybridConfig:
    """Grid-search the combinator hyperparameters on held-out scores.

    alpha runs over {0, 0.05, ..., 1}; the novelty threshold over upper
    quantiles of the novelty scores; c over {1, 2, 3} for the smooth
    variant.  Quantiles are order statistics (actual held-out values),
    which keeps every decision a pure rank comparison.  The objective is
    the full-span risk-curve area on the multiclass ``validation`` split
    of the scores :func:`score_hybrid_batch` gives under each config, and
    the config holds the one it reached.  Ties prefer the smallest alpha,
    then the smallest novelty quantile (or c).
    """
    objectives, config = _calibration_grid(validation, u_a_scores, u_e_scores, variant)
    return config(int(np.argmin(objectives)))
