"""Shared primitives: dataset container, rank function, seeded RNG,
the batch convention of the scorers, and the checked JSON record loader.

Every scorer in this package follows one convention: higher = more
uncertain.  Scorers whose natural output is a confidence are
complemented or negated at the module boundary, so curves and hybrid
combinators never need per-method sign handling.
"""
from __future__ import annotations

import functools
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Optional

import numpy as np
import scipy

PROB_SUM_TOL = 1e-6
BLOCK_ROWS = 1024   # rows per scorer call: bounds temporaries such as RDE's kernel rows

TASKS = ("multiclass", "multilabel")


def seeded_rng(seed: int) -> np.random.Generator:
    """PCG64 stream for ``seed``; identical seeds give identical draws."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def rank_all(u: np.ndarray, table: np.ndarray) -> np.ndarray:
    """1-based rank of each query value in ``u`` over a sorted score table.

    Counts the table entries strictly below each value and adds one, so
    tied values share the smallest rank and out-of-table values still rank
    sensibly (below the minimum -> 1, above the maximum -> len + 1).
    """
    table = np.asarray(table, dtype=float)
    if table.size == 0:
        raise ValueError("empty rank table")
    u = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(u)):
        raise ValueError("rank input must be finite")
    return np.searchsorted(table, u, side="left") + 1


def record_from_json(cls, raw, what: str):
    """The dataclass ``cls`` built from ``raw``, a parsed JSON object of its
    fields; a ValueError names the first unknown, missing or ill-typed field.
    A float field takes an int, no number field takes a bool, and a
    ``Dict[str, T]`` field takes an object of T values (a dataclass T is a
    nested record)."""
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object of {cls.__name__} fields, "
                         f"not {type(raw).__name__}")
    kinds = typing.get_type_hints(cls)
    values = {}
    for name, value in raw.items():
        if name not in kinds:
            raise ValueError(f"unknown {what} field {name!r}; fields: {', '.join(kinds)}")
        values[name] = _json_value(kinds[name], value, f"{what} field {name!r}")
    missing = [f.name for f in fields(cls)
               if f.name not in raw and f.default is MISSING and f.default_factory is MISSING]
    if missing:
        raise ValueError(f"missing {what} field {missing[0]!r}")
    return cls(**values)


def _json_value(kind, value, label: str):
    """``value`` checked against the field type ``kind``."""
    if is_dataclass(kind):
        return record_from_json(kind, value, label)
    if typing.get_origin(kind) is dict:
        _json_value(dict, value, label)
        return {key: _json_value(typing.get_args(kind)[1], v, f"{label}[{key!r}]")
                for key, v in value.items()}
    accepted = (float, int) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{label} must be {kind.__name__}, not {type(value).__name__}")
    return value


def batched(row_ndim: int):
    """Turn a block scorer into the public scorer.

    The decorated function scores a batch whose rows have ``row_ndim``
    dimensions and returns an ``(n,)`` array.  Larger batches reach it in
    blocks of BLOCK_ROWS rows; a single row is scored as a 1-row batch
    through the same code and returned as a float.  Inputs of any other
    rank go to it unchanged, so its own checks reject them.
    """

    def wrap(score_batch):
        @functools.wraps(score_batch)
        def scorer(x, *args):
            x = np.asarray(x, dtype=float)
            if x.ndim == row_ndim:
                return float(score_batch(x[None], *args)[0])
            if x.ndim != row_ndim + 1 or len(x) <= BLOCK_ROWS:
                return score_batch(x, *args)
            blocks = range(0, len(x), BLOCK_ROWS)
            return np.concatenate([score_batch(x[i:i + BLOCK_ROWS], *args) for i in blocks])

        return scorer

    return wrap


def validate_probs(p, normalized: bool = True) -> np.ndarray:
    """Check one probability vector, or a batch of them as rows; returns
    it as a float array.  A softmax row (``normalized``) needs two
    classes; independent sigmoid outputs may be a single label."""
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] < (2 if normalized else 1):
        raise ValueError("probability vector needs at least two entries" if normalized
                         else "expected a non-empty probability vector or batch")
    if not np.all(np.isfinite(p)):
        raise ValueError("non-finite probability entry")
    if np.any(p < 0.0) or np.any(p > 1.0 + PROB_SUM_TOL):
        raise ValueError("probability entry outside [0, 1]")
    if normalized:
        sums = np.ravel(p.sum(axis=-1))
        bad = np.flatnonzero(np.abs(sums - 1.0) > PROB_SUM_TOL)
        if bad.size:
            raise ValueError(
                f"probabilities sum to {float(sums[bad[0]]):.8f}, expected 1 within {PROB_SUM_TOL}"
            )
    return p


@dataclass
class LabeledSplit:
    """One dataset split held as parallel arrays.

    probs   : (n, C) softmax rows for multiclass, (n, L) independent
              sigmoid entries for multilabel
    labels  : (n,) int class ids, or (n, L) 0/1 bits
    embeddings / mc are optional; mc is (n, T, C) stochastic-pass rows.
    """

    probs: np.ndarray
    labels: np.ndarray
    task: str = "multiclass"
    embeddings: Optional[np.ndarray] = None
    mc: Optional[np.ndarray] = None

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.ndim != 2 or self.probs.shape[1] < 2:
            raise ValueError("probs must be (n, C) with C >= 2")
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        n, width = self.probs.shape
        self.labels = np.asarray(self.labels)
        if self.labels.shape[0] != n:
            raise ValueError("labels/probs row count mismatch")
        if self.task == "multiclass":
            if self.labels.ndim != 1:
                raise ValueError("multiclass labels must be one-dimensional")
            self.labels = self.labels.astype(np.int64)
            if n and (self.labels.min() < 0 or self.labels.max() >= width):
                raise ValueError("class label outside 0..C-1")
        else:
            if self.labels.shape != (n, width):
                raise ValueError("multilabel labels must match probs shape")
            if n and not ((self.labels == 0) | (self.labels == 1)).all():
                raise ValueError("multilabel bits must be 0 or 1")
            self.labels = self.labels.astype(np.int8, copy=False)
        if self.embeddings is not None:
            self.embeddings = np.asarray(self.embeddings, dtype=float)
            if self.embeddings.ndim != 2 or self.embeddings.shape[0] != n:
                raise ValueError("embeddings must be (n, d)")
            if not np.all(np.isfinite(self.embeddings)):
                raise ValueError("non-finite embedding entry")
        if self.mc is not None:
            self.mc = np.asarray(self.mc, dtype=float)
            if self.mc.ndim != 3 or self.mc.shape[0] != n or self.mc.shape[2] != width:
                raise ValueError("mc tensor must be (n, T, C)")

    def __len__(self) -> int:
        return int(self.probs.shape[0])

    @property
    def n_classes(self) -> int:
        return int(self.probs.shape[1])

    @functools.cached_property
    def median_pairwise_distance(self) -> float:
        """Median Euclidean distance over all pairs of embedding rows (0.0
        below two rows), computed once per split: RDE and NUQ both read it.
        Row order cannot change it, since each pair's distance has the same
        bits in either order.  One in-place partition gives ``np.median``'s
        bits: the middle value, or the mean of the two middle values."""
        if self.embeddings is None:
            raise ValueError("split has no embeddings")
        dists = scipy.spatial.distance.pdist(self.embeddings)   # freed before any n x n kernel exists
        if not dists.size:
            return 0.0
        k = dists.size // 2
        dists.partition(k)
        return float(dists[k] if dists.size % 2 else (dists[:k].max() + dists[k]) / 2)
