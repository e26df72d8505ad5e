"""Rank-space combinators pairing an ambiguity scorer with a novelty
scorer.

Raw scores from different families live on incompatible scales, so both
inputs are reduced to ranks over held-out score tables before mixing.
Two variants are provided: a three-region rule that routes each
instance by thresholds on the novelty score, and a smooth product form
whose squared ranks are damped by the complementary rank.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import LabeledSplit, rank_all
from .rejection import multiclass_losses, rejection_order, risk_aucs

ALPHA_GRID = tuple(i / 20.0 for i in range(21))
DELTA_MIN_QUANTILES = (0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 1.00)
DELTA_MAX_QUANTILES = (0.00, 0.50, 0.70, 0.80, 0.90, 0.95)
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
    """The objective of every grid point of ``variant`` in grid order, and
    a function from a grid index to that point's config.  Every rank is
    computed once up front."""
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
        grid = [(alpha, float(table_e[-1]), float(table_a[-1]), c, table_a)
                for alpha, c in product(ALPHA_GRID, C_GRID)]
        mixes = np.stack([_huq2_mix(r_a, r_e, alpha, c, n) for alpha, _, _, c, _ in grid])
        objectives = risk_aucs(losses[rejection_order(mixes)])
    else:
        dmin_values = [float(np.quantile(u_e, q, method="lower")) for q in DELTA_MIN_QUANTILES]
        dmax_values = [float(np.quantile(u_a, q, method="lower")) for q in DELTA_MAX_QUANTILES]
        in_dist = [u_e <= dmin for dmin in dmin_values]
        id_tables = [np.sort(u_a[mask]) for mask in in_dist]
        id_ranks = [rank_all(u_a, table).astype(float) for table in id_tables]
        above_dmax = [u_a > dmax for dmax in dmax_values]
        grid = [(alpha, dmin_values[i], dmax_values[j], 1, id_tables[i]) for alpha, i, j
                in product(ALPHA_GRID, range(len(dmin_values)), range(len(dmax_values)))]

        def order(alpha, i, j):
            return rejection_order(_huq_mix(r_a, r_e, id_ranks[i], in_dist[i], above_dmax[j], alpha, n + 2))

        # The regions are offset by case_offset = n + 2, so a removal order starts with the
        # high-novelty units, ordered by (alpha, delta_min), then the rest, by (delta_min, delta_max).
        n_novel = [n - int(np.count_nonzero(mask)) for mask in in_dist]
        rows = np.empty((len(dmin_values), len(dmax_values), n))
        for i, j in product(range(len(dmin_values)), range(len(dmax_values))):
            rows[i, j, n_novel[i]:] = losses[order(0.0, i, j)[n_novel[i]:]]
        objectives = []
        for alpha in ALPHA_GRID:  # one block of rows per alpha bounds the memory
            for i, m in enumerate(n_novel):
                rows[i, :, :m] = losses[order(alpha, i, 0)[:m]]
            objectives.append(risk_aucs(rows.reshape(-1, n)))
        objectives = np.concatenate(objectives)

    def config(k: int) -> HybridConfig:
        alpha, delta_min, delta_max, c, table_id = grid[k]
        return HybridConfig(variant, alpha, delta_min, delta_max, c, n, table_a, table_id, table_e)

    return objectives, config


def fit_hybrid(validation: LabeledSplit, u_a_scores, u_e_scores, variant: str = "huq2") -> HybridConfig:
    """Grid-search the combinator hyperparameters on held-out scores.

    alpha runs over {0, 0.05, ..., 1}; the novelty threshold over upper
    quantiles of the novelty scores; the ambiguity threshold over
    quantiles of the ambiguity scores; c over {1, 2, 3} for the smooth
    variant.  Quantiles are order statistics (actual held-out values),
    which keeps every decision a pure rank comparison.  The objective is
    the full-span risk-curve area on the multiclass ``validation`` split
    of the scores :func:`score_hybrid_batch` gives under each config.
    Ties prefer the smallest alpha, then the smallest quantile positions
    (then the smallest c).
    """
    objectives, config = _calibration_grid(validation, u_a_scores, u_e_scores, variant)
    return config(int(np.argmin(objectives)))
