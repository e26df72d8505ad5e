"""Rejection curves and normalized area metrics for selective prediction.

A curve records what happens to a quality metric as the most-uncertain
units are removed one at a time.  Units are instances for multiclass
work and either whole instances or (instance, label) pairs for
multilabel work.  Equal scores are broken by original index, ascending,
so curves are reproducible no matter where the scores came from.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

MODES = ("risk", "accuracy", "f1_micro")
SPANS = ("full", "first_50")

_DEGENERATE_TOL = 1e-15


@dataclass(frozen=True)
class RejectionCurve:
    """Metric-vs-coverage points, one per removal, coverage decreasing."""

    coverages: np.ndarray
    values: np.ndarray
    mode: str

    def __post_init__(self):
        object.__setattr__(self, "coverages", np.asarray(self.coverages, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.coverages.shape != self.values.shape or self.coverages.ndim != 1:
            raise ValueError("coverages/values must be matching 1-D arrays")
        if self.coverages.size == 0:
            raise ValueError("empty curve")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if abs(self.coverages[0] - 1.0) > 1e-12:
            raise ValueError("curve must start at full coverage")
        if np.any(np.diff(self.coverages) >= 0):
            raise ValueError("coverages must be strictly decreasing")

    def __len__(self) -> int:
        return int(self.coverages.size)


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
    """Removal order: score descending, ties by original index ascending."""
    scores = np.asarray(scores, dtype=float)
    return np.lexsort((np.arange(scores.size), -scores))


def _check_scores(scores, n_expected: int) -> np.ndarray:
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size != n_expected:
        raise ValueError("scores shape mismatch with per-unit data")
    if scores.size == 0:
        raise ValueError("no units to evaluate")
    if np.any(np.isnan(scores)):
        raise ValueError("NaN score")
    return scores


def _risk_values(order, errors, totals):
    err = np.asarray(errors, dtype=float)[order]
    tot = np.asarray(totals, dtype=float)[order]
    # suffix sums: index k holds the remainder after removing k units
    err_left = err.sum() - np.concatenate(([0.0], np.cumsum(err)[:-1]))
    tot_left = tot.sum() - np.concatenate(([0.0], np.cumsum(tot)[:-1]))
    return err_left / tot_left


def _f1_values(order, tp, fp, fn):
    def _suffix(x):
        x = np.asarray(x, dtype=float)[order]
        return x.sum() - np.concatenate(([0.0], np.cumsum(x)[:-1]))

    tp_left, fp_left, fn_left = _suffix(tp), _suffix(fp), _suffix(fn)
    denom = 2.0 * tp_left + fp_left + fn_left
    # nothing predicted or true positive and no mistakes: vacuously perfect
    return np.where(denom > 0.0, 2.0 * tp_left / np.where(denom > 0.0, denom, 1.0), 1.0)


def _f1_masks(pred, truth):
    """True-positive, false-positive and false-negative masks of
    predicted against true 0/1 bits."""
    return (pred == 1) & (truth == 1), (pred == 1) & (truth == 0), (pred == 0) & (truth == 1)


def _unit_arrays(data, mode: str):
    """Checked per-unit float arrays of ``data`` (see :func:`build_curve`):
    (errors, totals) for risk and accuracy, (tp, fp, fn) for f1_micro."""
    if mode in ("risk", "accuracy"):
        errors, totals = data if isinstance(data, tuple) else (data, np.ones(len(data)))
        errors = np.asarray(errors, dtype=float)
        totals = np.asarray(totals, dtype=float)
        if errors.shape != totals.shape or errors.ndim != 1:
            raise ValueError("errors/totals must be matching 1-D arrays")
        return errors, totals
    if not (isinstance(data, tuple) and len(data) in (2, 3)):
        raise ValueError("f1_micro needs (pred, truth) or (tp, fp, fn)")
    if len(data) == 2:
        pred = np.asarray(data[0], dtype=int)
        truth = np.asarray(data[1], dtype=int)
        if pred.shape != truth.shape or pred.ndim != 1:
            raise ValueError("pred/truth must be matching 1-D arrays")
        return tuple(mask.astype(float) for mask in _f1_masks(pred, truth))
    tp, fp, fn = (np.asarray(x, dtype=float) for x in data)
    if not (tp.shape == fp.shape == fn.shape) or tp.ndim != 1:
        raise ValueError("tp/fp/fn must be matching 1-D arrays")
    return tp, fp, fn


def build_curve(scores, data, mode: str = "risk") -> RejectionCurve:
    """Build the rejection curve for one score vector.

    mode "risk" / "accuracy": ``data`` is a 0/1 loss per unit, or an
    ``(errors, totals)`` pair when each unit bundles several label
    decisions (whole multilabel instances).
    mode "f1_micro": ``data`` is ``(predicted_bits, true_bits)`` per
    unit, or a ``(tp, fp, fn)`` count triple.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    arrays = _unit_arrays(data, mode)
    scores = _check_scores(scores, arrays[0].size)
    order = rejection_order(scores)
    if mode == "f1_micro":
        values = _f1_values(order, *arrays)
    else:
        values = _risk_values(order, *arrays)
        if mode == "accuracy":
            values = 1.0 - values
    n = scores.size
    coverages = (n - np.arange(n)) / n
    return RejectionCurve(coverages, values, mode)


def curve_value_at(curve: RejectionCurve, coverage: float) -> float:
    """Linear interpolation of the curve at the requested coverage."""
    cov = curve.coverages[::-1]
    val = curve.values[::-1]
    coverage = float(coverage)
    if coverage > 1.0 or coverage <= 0.0:
        raise ValueError("coverage must lie in (0, 1]")
    return float(np.interp(coverage, cov, val))


def curve_auc(curve: RejectionCurve, span: str = "full") -> float:
    """Trapezoidal area under the curve, normalized by its coverage span.

    "first_50" keeps only coverages in [0.5, 1], interpolating a point
    at exactly 0.5, so truncated and full areas stay comparable.
    """
    if span not in SPANS:
        raise ValueError(f"unknown span {span!r}; expected one of {SPANS}")
    cov = curve.coverages[::-1].copy()
    val = curve.values[::-1].copy()
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


def _full_set_metric(data, mode: str) -> float:
    arrays = _unit_arrays(data, mode)
    if mode in ("risk", "accuracy"):
        risk = float(np.sum(arrays[0]) / np.sum(arrays[1]))
        return risk if mode == "risk" else 1.0 - risk
    tp, fp, fn = (float(np.sum(x)) for x in arrays)
    denom = 2.0 * tp + fp + fn
    return 2.0 * tp / denom if denom > 0.0 else 1.0


def oracle_scores(data, mode: str) -> np.ndarray:
    """Scores realising the best possible rejection order.

    Erroneous units go first.  For F1 the false positives outrank the
    false negatives (the value is tie-insensitive between the two; the
    order is pinned for determinism); remaining ties fall back to the
    shared original-index rule.
    """
    arrays = _unit_arrays(data, mode)
    if mode in ("risk", "accuracy"):
        return arrays[0].copy()
    _, fp, fn = arrays
    return 2.0 * fp + fn


def normalized_auc(scores, data, mode: str = "risk", span: str = "full") -> NormalizedAuc:
    """Area under the rejection curve rescaled between references.

    0 means no better than the constant curve at the full-set metric
    (the expectation under random rejection); 1 means the oracle order.
    When the data holds no errors the references coincide and the result
    is flagged degenerate with NaN normalized value.
    """
    raw = curve_auc(build_curve(scores, data, mode), span)
    oracle = curve_auc(build_curve(oracle_scores(data, mode), data, mode), span)
    rand = _full_set_metric(data, mode)
    if abs(oracle - rand) < _DEGENERATE_TOL:
        return NormalizedAuc(raw, rand, oracle, float("nan"), span, "degenerate: no errors")
    return NormalizedAuc(raw, rand, oracle, (raw - rand) / (oracle - rand), span, None)


def multiclass_losses(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """0/1 loss per instance under argmax prediction."""
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    return (probs.argmax(axis=1) != labels).astype(float)


def multilabel_pair_arrays(probs: np.ndarray, truth: np.ndarray, threshold: float = 0.5):
    """Flattened (instance-major) predicted and true bits per label pair."""
    probs = np.asarray(probs, dtype=float)
    truth = np.asarray(truth, dtype=int)
    if probs.shape != truth.shape:
        raise ValueError("probs/labels shape mismatch")
    pred = (probs >= threshold).astype(int)
    return pred.reshape(-1), truth.reshape(-1)


def instance_f1_counts(probs: np.ndarray, truth: np.ndarray, threshold: float = 0.5):
    """Per-instance (tp, fp, fn) label counts of thresholded (n, L)
    sigmoid outputs against 0/1 truth bits, as float arrays."""
    pred = (np.asarray(probs, dtype=float) >= threshold).astype(int)
    return tuple(mask.sum(axis=1).astype(float) for mask in _f1_masks(pred, np.asarray(truth)))


def label_ambiguity(probs: np.ndarray) -> np.ndarray:
    """Per-pair ambiguity 1 - max(p, 1-p) of sigmoid outputs, same shape."""
    probs = np.asarray(probs, dtype=float)
    return 1.0 - np.maximum(probs, 1.0 - probs)


def labelwise_uncertainty(probs: np.ndarray) -> np.ndarray:
    """Per-pair ambiguity 1 - max(p, 1-p), flattened instance-major."""
    return label_ambiguity(probs).reshape(-1)


def evaluate_labelwise(probs: np.ndarray, truth: np.ndarray) -> Tuple[RejectionCurve, RejectionCurve]:
    """Pool all (instance, label) pairs and reject them individually.

    Returns the accuracy-mode and f1-mode curves over the pooled pairs,
    scored by per-pair ambiguity.
    """
    scores = labelwise_uncertainty(probs)
    pred, true = multilabel_pair_arrays(probs, truth)
    acc = build_curve(scores, (pred != true).astype(float), "accuracy")
    f1 = build_curve(scores, (pred, true), "f1_micro")
    return acc, f1


def evaluate_instancewise_multilabel(
    probs: np.ndarray, truth: np.ndarray, aggregate: str = "mean"
) -> Tuple[RejectionCurve, RejectionCurve]:
    """Reject whole instances scored by aggregated per-label ambiguity.

    The metric is still computed over label pairs, so the curves are
    directly comparable with :func:`evaluate_labelwise` at any shared
    coverage.  ``aggregate`` is "mean" (default) or "max".
    """
    probs = np.asarray(probs, dtype=float)
    truth = np.asarray(truth, dtype=int)
    if probs.shape != truth.shape or probs.ndim != 2:
        raise ValueError("probs/labels must be matching (n, L) arrays")
    per_label = label_ambiguity(probs)
    if aggregate == "mean":
        scores = per_label.mean(axis=1)
    elif aggregate == "max":
        scores = per_label.max(axis=1)
    else:
        raise ValueError(f"unknown aggregate {aggregate!r}; expected 'mean' or 'max'")
    tp, fp, fn = instance_f1_counts(probs, truth)
    totals = np.full(len(probs), probs.shape[1], dtype=float)
    acc = build_curve(scores, (fp + fn, totals), "accuracy")
    f1 = build_curve(scores, (tp, fp, fn), "f1_micro")
    return acc, f1
