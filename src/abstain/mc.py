"""Aggregators for stochastic forward-pass tensors (T passes x C classes).

Rows are per-pass probability vectors from dropout-style resampling.
All three scorers are invariant to the order of the passes.  They take
an ``(n, T, C)`` batch and return ``(n,)`` scores; a single ``(T, C)``
tensor gives a float.
"""
from __future__ import annotations

import numpy as np
import scipy

from .core import batched

BALD_CLAMP = 1e-12


def _as_tensor(t: np.ndarray, min_passes: int = 1) -> np.ndarray:
    if t.dtype == object or t.ndim != 3:
        raise ValueError("MC tensor must be a rectangular (T, C) array")
    if t.shape[2] < 2:
        raise ValueError("MC tensor needs at least two classes")
    if t.shape[1] < min_passes:
        raise ValueError(f"MC tensor needs at least {min_passes} passes")
    if not np.all(np.isfinite(t)) or np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("MC tensor entries must lie in [0, 1]")
    return t


def _identical_passes(t: np.ndarray) -> np.ndarray:
    """Rows whose passes all equal the first one."""
    return (t == t[:, :1]).all(axis=(1, 2))


@batched(2)
def score_smp(t) -> np.ndarray:
    """1 - max entry of the mean probability row."""
    t = _as_tensor(t)
    return 1.0 - t.mean(axis=1).max(axis=1)


@batched(2)
def score_pv(t) -> np.ndarray:
    """Mean over classes of the unbiased across-pass variance."""
    t = _as_tensor(t, min_passes=2)
    out = t.var(axis=1, ddof=1).mean(axis=1)
    # identical passes carry zero disagreement; bypass the variance
    # path so its 1-ulp mean round-off cannot leak through
    out[_identical_passes(t)] = 0.0
    return out


@batched(2)
def score_bald(t) -> np.ndarray:
    """Entropy of the mean row minus the mean per-pass entropy.

    Probabilities are clamped to [1e-12, 1] before the logs; the
    analytic value is non-negative, so tiny negative round-off is
    clipped to zero.
    """
    t = _as_tensor(t)
    tc = np.clip(t, BALD_CLAMP, 1.0)
    mean_row = np.clip(t.mean(axis=1), BALD_CLAMP, 1.0)
    h_mean = -scipy.special.xlogy(mean_row, mean_row).sum(axis=1)
    mean_h = -scipy.special.xlogy(tc, tc).sum(axis=2).mean(axis=1)
    out = np.maximum(h_mean - mean_h, 0.0)
    out[_identical_passes(t)] = 0.0
    return out
