"""Rank-space combinators pairing an ambiguity scorer with a novelty
scorer.

Raw scores from different families live on incompatible scales, so both
inputs are reduced to ranks over held-out score tables before mixing.
Two variants are provided: a three-region rule that routes each
instance by thresholds on the novelty score, and a smooth product form
whose squared ranks are damped by the complementary rank.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

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
    """Fitted hyperparameters plus the held-out rank tables."""

    variant: str
    alpha: float
    delta_min: float
    delta_max: float
    c: int
    n_validation: int
    table_ambiguity: np.ndarray      # sorted held-out ambiguity scores
    table_ambiguity_id: np.ndarray   # same, restricted to low-novelty rows
    table_novelty: np.ndarray        # sorted held-out novelty scores

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.c not in C_GRID:
            raise ValueError(f"c must be one of {C_GRID}")
        for name in ("table_ambiguity", "table_ambiguity_id", "table_novelty"):
            t = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, t)
            if t.size and np.any(np.diff(t) < 0):
                raise ValueError(f"{name} must be sorted ascending")
        if self.n_validation < 1:
            raise ValueError("empty validation table")

    @property
    def case_offset(self) -> int:
        # strictly above any reachable rank, so the three regions of the
        # threshold rule can never interleave
        return self.n_validation + 2


def _huq_mix(r_a, r_e, r_id, in_dist, above_dmax, alpha: float, base: int) -> np.ndarray:
    """Three-region rule on the novelty threshold, from ranks.

    Low novelty (``in_dist``) and low ambiguity: the rank ``r_id`` inside
    the low-novelty table.  Low novelty but high ambiguity: the rank over
    the whole table.  High novelty: both ranks mixed with weight alpha.
    Each region is offset by ``base`` above the previous one.
    """
    ambiguous = in_dist & above_dmax
    plain = in_dist & ~ambiguous
    out = (1.0 - alpha) * r_e + alpha * r_a + 2 * base
    out[ambiguous] = r_a[ambiguous] + base
    out[plain] = r_id[plain]
    return out


def _huq2_mix(r_a, r_e, alpha: float, c: int, n: int) -> np.ndarray:
    """Smooth product form over squared ranks, each damped by a linear
    leverage term in the other score's rank: l(u) = 1 - R(u)/(c * N)."""
    lever_a = 1.0 - r_a / (c * n)
    lever_e = 1.0 - r_e / (c * n)
    return (1.0 - alpha) * r_e * r_e * lever_a + alpha * r_a * r_a * lever_e


def score_hybrid_batch(u_a, u_e, config: HybridConfig) -> np.ndarray:
    """Vectorised scoring of aligned ambiguity/novelty score arrays."""
    u_a = np.asarray(u_a, dtype=float)
    u_e = np.asarray(u_e, dtype=float)
    if u_a.shape != u_e.shape or u_a.ndim != 1:
        raise ValueError("score arrays must be matching 1-D")
    if not (np.all(np.isfinite(u_a)) and np.all(np.isfinite(u_e))):
        raise ValueError("hybrid inputs must be finite")
    r_a = rank_all(u_a, config.table_ambiguity).astype(float)
    r_e = rank_all(u_e, config.table_novelty).astype(float)
    if config.variant == "huq2":
        return _huq2_mix(r_a, r_e, config.alpha, config.c, config.n_validation)
    in_dist = u_e <= config.delta_min
    above_dmax = u_a > config.delta_max
    plain = in_dist & ~above_dmax
    r_id = np.zeros_like(r_a)
    if np.any(plain):
        r_id[plain] = rank_all(u_a[plain], config.table_ambiguity_id)
    return _huq_mix(r_a, r_e, r_id, in_dist, above_dmax, config.alpha, config.case_offset)


def _calibration_grid(validation: LabeledSplit, u_a_scores, u_e_scores, variant: str):
    """The objective of every grid point of ``variant``, alpha-major, and a
    function from a grid index to that point's config.  Every rank is
    computed once up front, and the mixes of one alpha at a time are
    stacked, which bounds the memory."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    u_a, u_e = (np.asarray(u, dtype=float) for u in (u_a_scores, u_e_scores))
    n = len(validation)
    if n < MIN_CALIBRATION:
        raise ValueError(f"insufficient calibration data: {n} < {MIN_CALIBRATION}")
    if u_a.shape != (n,) or u_e.shape != (n,):
        raise ValueError("score arrays must match the validation split")
    if not (np.all(np.isfinite(u_a)) and np.all(np.isfinite(u_e))):
        raise ValueError("hybrid inputs must be finite")
    if validation.task != "multiclass":
        raise ValueError("hybrid calibration needs a multiclass split")

    losses = multiclass_losses(validation.probs, validation.labels)
    table_a, table_e = np.sort(u_a), np.sort(u_e)
    r_a, r_e = rank_all(u_a, table_a).astype(float), rank_all(u_e, table_e).astype(float)
    if variant == "huq2":
        # thresholds and the low-novelty table are unused by the smooth variant
        points = [HybridConfig(variant, 0.0, float(table_e[-1]), float(table_a[-1]), c, n,
                               table_a, table_a, table_e) for c in C_GRID]

        def mix(alpha, k):
            return _huq2_mix(r_a, r_e, alpha, points[k].c, n)
    else:
        # The regions are offset by case_offset, and a low-novelty unit ranks over tables that
        # hold its own score, so its mix is strictly increasing in u_a whatever delta_max is:
        # no delta_max moves a removal order, and the smallest u_a stands for them all.
        dmin_values = [float(np.quantile(u_e, q, method="lower")) for q in DELTA_MIN_QUANTILES]
        in_dist = [u_e <= dmin for dmin in dmin_values]
        points = [HybridConfig(variant, 0.0, dmin, float(table_a[0]), 1, n, table_a,
                               np.sort(u_a[mask]), table_e) for dmin, mask in zip(dmin_values, in_dist)]
        id_ranks = [rank_all(u_a, p.table_ambiguity_id).astype(float) for p in points]
        above_dmax = u_a > table_a[0]

        def mix(alpha, k):
            return _huq_mix(r_a, r_e, id_ranks[k], in_dist[k], above_dmax, alpha, points[k].case_offset)

    objectives = np.concatenate([
        risk_aucs(losses[rejection_order(np.stack([mix(alpha, k) for k in range(len(points))]))])
        for alpha in ALPHA_GRID])
    return objectives, lambda k: replace(points[k % len(points)], alpha=ALPHA_GRID[k // len(points)])


def fit_hybrid(validation: LabeledSplit, u_a_scores, u_e_scores, variant: str = "huq2") -> HybridConfig:
    """Grid-search the combinator hyperparameters on held-out scores.

    alpha runs over {0, 0.05, ..., 1}; the novelty threshold over upper
    quantiles of the novelty scores; c over {1, 2, 3} for the smooth
    variant.  Quantiles are order statistics (actual held-out values),
    which keeps every decision a pure rank comparison.  The ambiguity
    threshold is the smallest held-out ambiguity score: with the regions
    offset, no threshold can change a held-out removal order, so none can
    reach a smaller objective.  The objective is the full-span risk-curve
    area on the multiclass ``validation`` split of the scores
    :func:`score_hybrid_batch` gives under each config.  Ties prefer the
    smallest alpha, then the smallest novelty quantile (or c).
    """
    objectives, config = _calibration_grid(validation, u_a_scores, u_e_scores, variant)
    return config(int(np.argmin(objectives)))
