"""Rejection curves and normalized area metrics for selective prediction.

A curve records what happens to a quality metric as the most-uncertain
units are removed one at a time.  Units are instances for multiclass
work and either whole instances or (instance, label) pairs for
multilabel work.  Equal scores are broken by original index, ascending,
so curves are reproducible no matter where the scores came from.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

MODES = ("risk", "accuracy", "f1_micro")
SPANS = ("full", "first_50")

_DEGENERATE_TOL = 1e-15


def coverages(n: int) -> np.ndarray:
    """The coverages (n - k)/n, k = 0 .. n - 1, of a curve over ``n``
    units: index k is the share of units left after removing k."""
    return np.arange(n, 0, -1) / n


def _check_curve(curve) -> np.ndarray:
    curve = np.asarray(curve, dtype=float)
    if curve.ndim != 1 or curve.size == 0:
        raise ValueError("a curve must be a non-empty 1-D array")
    return curve


@dataclass(frozen=True)
class NormalizedAuc:
    """Raw curve area with its random and oracle reference areas."""

    raw_auc: float
    rand_auc: float
    oracle_auc: float
    normalized: float
    span: str
    flag: Optional[str] = None


def rejection_order(scores: np.ndarray) -> np.ndarray:
    """Removal order along the last axis: score descending, ties by index ascending."""
    return np.argsort(-np.asarray(scores, dtype=float), axis=-1, kind="stable")


def _check_scores(scores, n_expected: int) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size != n_expected:
        raise ValueError("scores shape mismatch with per-unit data")
    if scores.size == 0:
        raise ValueError("no units to evaluate")
    if np.any(np.isnan(scores)):
        raise ValueError("NaN score")
    return scores


def _suffix_sums(x):
    """Along the last axis, index k holds the sum left after removing k
    units: the total less the first k terms, in the dtype numpy sums
    ``x`` in (int64 for small ints), so integer counts sum exactly."""
    total = x.sum(axis=-1, keepdims=True)
    out = np.empty(x.shape, dtype=total.dtype)
    out[..., :1] = 0
    np.cumsum(x[..., :-1], axis=-1, dtype=out.dtype, out=out[..., 1:])
    return np.subtract(total, out, out=out)


def _risk_values(errors, totals):
    """Risk left after each removal; errors and totals in removal order."""
    return _suffix_sums(errors) / _suffix_sums(totals)


def _f1_values(tp, fp, fn):
    values = 2.0 * _suffix_sums(tp)
    denom = values + _suffix_sums(fp)
    denom += _suffix_sums(fn)
    # nothing predicted or true positive and no mistakes: vacuously perfect
    vacuous = ~(denom > 0.0)
    denom[vacuous] = 1.0
    values /= denom
    values[vacuous] = 1.0
    return values


def _counts(x) -> np.ndarray:
    """``x`` as an array of integer counts, or else of floats."""
    x = np.asarray(x)
    return x if x.dtype.kind in "iu" else x.astype(float)


def _unit_arrays(data, mode: str):
    """Checked per-unit arrays of ``data`` (see :func:`build_curve`):
    (errors, totals) for risk and accuracy, (tp, fp, fn) for f1_micro.
    Integer counts keep their dtype, anything else becomes float."""
    if mode in ("risk", "accuracy"):
        errors, totals = data if isinstance(data, tuple) else (data, np.ones(len(data), dtype=np.int8))
        errors, totals = _counts(errors), _counts(totals)
        if errors.shape != totals.shape or errors.ndim != 1:
            raise ValueError("errors/totals must be matching 1-D arrays")
        return errors, totals
    if not (isinstance(data, tuple) and len(data) == 3):
        raise ValueError("f1_micro needs a (tp, fp, fn) count triple")
    tp, fp, fn = (_counts(x) for x in data)
    if not (tp.shape == fp.shape == fn.shape) or tp.ndim != 1:
        raise ValueError("tp/fp/fn must be matching 1-D arrays")
    return tp, fp, fn


def build_curve(scores, data, mode: str = "risk") -> np.ndarray:
    """The rejection curve of one score vector: the (n,) metric values
    left after removing k = 0 .. n - 1 units, at :func:`coverages`.

    mode "risk" / "accuracy": ``data`` is a 0/1 loss per unit, or an
    ``(errors, totals)`` pair of label-decision counts per unit.
    mode "f1_micro": ``data`` is a ``(tp, fp, fn)`` count triple per
    unit.  :func:`unit_data` builds both count forms for a multilabel
    split.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    arrays = _unit_arrays(data, mode)
    scores = _check_scores(scores, arrays[0].size)
    order = rejection_order(scores)
    arrays = [x[order] for x in arrays]
    del order   # n indices, not needed by the sums
    if mode == "f1_micro":
        values = _f1_values(*arrays)
    else:
        values = _risk_values(*arrays)
        if mode == "accuracy":
            np.subtract(1.0, values, out=values)
    return values


def curve_value_at(curve, coverage: float) -> float:
    """Linear interpolation of the curve at the requested coverage."""
    val = _check_curve(curve)[::-1]
    coverage = float(coverage)
    if coverage > 1.0 or coverage <= 0.0:
        raise ValueError("coverage must lie in (0, 1]")
    return float(np.interp(coverage, coverages(val.size)[::-1], val))


def curve_auc(curve, span: str = "full") -> float:
    """Trapezoidal area under the curve, normalized by its coverage span.

    "first_50" keeps only coverages in [0.5, 1], interpolating a point
    at exactly 0.5, so truncated and full areas stay comparable.
    """
    if span not in SPANS:
        raise ValueError(f"unknown span {span!r}; expected one of {SPANS}")
    val = _check_curve(curve)[::-1]
    if val.size == 1:
        return float(val[0])
    cov = coverages(val.size)[::-1]
    if span == "first_50" and cov[0] < 0.5:
        v_at = np.interp(0.5, cov, val)
        keep = cov >= 0.5
        cov = np.concatenate(([0.5], cov[keep]))
        val = np.concatenate(([v_at], val[keep]))
    return float(np.trapezoid(val, cov) / (cov[-1] - cov[0]))


def risk_aucs(loss_rows: np.ndarray) -> np.ndarray:
    """Full-span risk-curve areas of (rows, n) 0/1 losses in removal order,
    by the operations of ``curve_auc(build_curve(...), "full")``, bitwise."""
    n = loss_rows.shape[1]
    cov = coverages(n)[::-1]
    values = _risk_values(loss_rows, np.ones(n))[:, ::-1]
    return np.trapezoid(values, cov, axis=1) / (cov[-1] - cov[0])


def oracle_scores(data, mode: str) -> np.ndarray:
    """Scores realising the best possible rejection order.

    Erroneous units go first.  For F1 the false positives outrank the
    false negatives (the value is tie-insensitive between the two; the
    order is pinned for determinism); remaining ties fall back to the
    shared original-index rule.
    """
    arrays = _unit_arrays(data, mode)
    if mode in ("risk", "accuracy"):
        return arrays[0].astype(float)
    _, fp, fn = arrays
    return 2.0 * fp + fn


def normalize_auc(curve, oracle, span: str) -> NormalizedAuc:
    """Area under ``curve`` rescaled between references.

    ``oracle`` is the curve of the same data in :func:`oracle_scores`
    order.  0 means no better than the constant curve at the full-set
    metric (every curve's value at full coverage, and the expectation
    under random rejection); 1 means the oracle order.  When the data
    holds no errors the references coincide and the result is flagged
    degenerate with NaN normalized value.
    """
    raw = curve_auc(curve, span)
    best = curve_auc(oracle, span)
    rand = float(oracle[0])
    if abs(best - rand) < _DEGENERATE_TOL:
        return NormalizedAuc(raw, rand, best, float("nan"), span, "degenerate: no errors")
    return NormalizedAuc(raw, rand, best, (raw - rand) / (best - rand), span, None)


def normalized_auc(scores, data, mode: str = "risk", span: str = "full") -> NormalizedAuc:
    """:func:`normalize_auc` of the rejection curve of ``scores`` on
    ``data`` (see :func:`build_curve`)."""
    oracle = build_curve(oracle_scores(data, mode), data, mode)
    return normalize_auc(build_curve(scores, data, mode), oracle, span)


def multiclass_losses(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """0/1 loss per instance under argmax prediction."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    return (probs.argmax(axis=1) != labels).astype(float)


def unit_data(probs: np.ndarray, labels: np.ndarray, task: str, level: str):
    """(curve mode, per-unit data) pairs that judge rejection on one split.

    A multiclass split is judged by risk on 0/1 losses of its ``(n,)``
    class labels.  A multilabel split, ``(n, L)`` truth bits against
    sigmoid outputs thresholded at 0.5, is judged by accuracy, as
    ``(fp + fn, totals)``, and micro-F1, as ``(tp, fp, fn)``, over label
    decisions counted per unit: per (instance, label) pair, instance-major,
    at ``level`` "label", as int8 0/1 counts, per whole instance at level
    "instance", as int64 counts.  The last pair is the headline one: risk,
    or micro-F1.
    """
    if task == "multiclass":
        if level != "instance":
            raise ValueError("multiclass splits are evaluated per instance")
        return (("risk", multiclass_losses(probs, labels)),)
    if level not in ("instance", "label"):
        raise ValueError(f"unknown level {level!r}; expected 'instance' or 'label'")
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    if probs.shape != labels.shape or probs.ndim != 2:
        raise ValueError("probs/labels must be matching (n, L) arrays")
    pred = probs >= 0.5
    masks = (pred & (labels == 1), pred & (labels == 0), ~pred & (labels == 1))
    if level == "label":
        tp, fp, fn = (mask.reshape(-1).view(np.int8) for mask in masks)
        totals = np.ones(tp.size, dtype=np.int8)
    else:
        tp, fp, fn = (mask.sum(axis=1) for mask in masks)
        totals = np.full(len(probs), probs.shape[1], dtype=np.int64)
    return (("accuracy", (fp + fn, totals)), ("f1_micro", (tp, fp, fn)))
