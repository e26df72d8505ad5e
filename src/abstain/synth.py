"""Deterministic synthetic benchmark generator.

Embeddings come from seeded Gaussian class clusters.  Two controlled
failure modes are injected: instances landing in the boundary band
between clusters get their labels flipped at a configurable rate, and a
displaced cluster with arbitrary labels contaminates the validation and
test splits.  Probabilities come from a linear probe fit on the clean
train split by a numpy limited-memory BFGS, so the displaced cluster
collects confidently wrong predictions rather than honest ones.  The
generator needs numpy alone.

The same spec and seed always produce byte-identical arrays.
"""
from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from typing import Dict

import numpy as np

from .core import BLOCK_ROWS, TASKS, LabeledSplit, record_from_json

_SPLITS = ("train", "validation", "test")


@dataclass(frozen=True)
class SynthSpec:
    seed: int = 7
    task: str = "multiclass"
    n_train: int = 1200
    n_validation: int = 800
    n_test: int = 1200
    n_classes: int = 4
    n_labels: int = 10            # multilabel only
    dim: int = 8
    spacing: float = 4.0          # distance scale between class centroids
    overlap: float = 0.15         # flip rate inside the boundary band
    ood_fraction: float = 0.10    # displaced-cluster share of val/test
    ood_displacement: float = 10.0
    mc_passes: int = 20
    mc_noise: float = 0.5

    def __post_init__(self):
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.task == "multilabel" and self.n_labels < 2:
            raise ValueError("need at least two labels")
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if min(self.n_train, self.n_validation, self.n_test) < self.n_classes:
            raise ValueError("every split needs at least one instance per class")
        if self.n_train < 4 * self.n_classes:
            raise ValueError("train split too small to fit class statistics")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")
        if not 0.0 <= self.ood_fraction <= 0.5:
            raise ValueError("ood fraction must lie in [0, 0.5]")
        if self.spacing <= 0.0 or self.ood_displacement < 0.0:
            raise ValueError("spacing and displacement must be positive")
        if self.mc_passes < 2:
            raise ValueError("need at least two stochastic passes")
        if self.mc_noise < 0.0:
            raise ValueError("mc noise must be non-negative")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "SynthSpec":
        """Spec from a JSON object; a ValueError names any unknown or ill-typed
        field.  Omitted fields keep their defaults."""
        return record_from_json(cls, json.loads(text), "spec")


@dataclass
class SynthDataset:
    spec: SynthSpec
    splits: Dict[str, LabeledSplit]
    ood_flags: Dict[str, np.ndarray]      # True where the instance is displaced
    flipped_flags: Dict[str, np.ndarray]  # True where the label was flipped


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def _softmax(z: np.ndarray) -> np.ndarray:
    e = z - z.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp of -|z| never overflows: 1 / (1 + e) where z >= 0, e / (1 + e) elsewhere
    e = np.abs(z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    p = np.where(z >= 0, 1.0, e)
    e += 1.0
    p /= e
    return p


def _softmax_nll(P: np.ndarray, T: np.ndarray) -> float:
    """Summed negative log-likelihood of one-hot rows ``T``: one term per row."""
    return -np.log(np.clip(P[T == 1.0], 1e-300, None)).sum()


def _sigmoid_nll(P: np.ndarray, T: np.ndarray) -> float:
    """Summed binary cross-entropy of 0/1 entries ``T``: one term per entry."""
    eps = 1e-12
    return -(T * np.log(P + eps) + (1.0 - T) * np.log(1.0 - P + eps)).sum()


def _lbfgs(fun_grad, x0: np.ndarray):
    """Minimise ``fun_grad(x) -> (f, gradient)`` from ``x0`` by limited-memory
    BFGS (Liu & Nocedal 1989; Nocedal & Wright, Alg. 7.4): the two-loop
    recursion over the last 10 pairs (s, y), a pair kept only when s.y > 0,
    and Armijo backtracking from a unit step (the first direction scaled to
    unit length).  Stops at max|g| <= 1e-10, at a step that lowers f by at
    most 1e-12 relative to max(|f_old|, |f_new|, 1), when backtracking finds
    no decrease, or after 500 iterations.  Returns the last iterate and the
    number of iterations taken."""
    x = x0
    f, g = fun_grad(x)
    pairs = deque(maxlen=10)   # (s, y, 1 / s.y), oldest first
    for it in range(500):
        if np.abs(g).max() <= 1e-10:
            return x, it
        q, alphas = g.copy(), []
        for s, y, rho in reversed(pairs):
            alphas.append(rho * (s @ q))
            q -= alphas[-1] * y
        if pairs:
            s, y, rho = pairs[-1]
            q /= rho * (y @ y)   # initial inverse Hessian (s.y / y.y) I
        else:
            q /= np.linalg.norm(g)
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            q += (alpha - rho * (y @ q)) * s
        slope, t = -(g @ q), 1.0
        for _ in range(60):
            x_new = x - t * q
            f_new, g_new = fun_grad(x_new)
            if f_new <= f + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            return x, it
        s, y = x_new - x, g_new - g
        if s @ y > 0:
            pairs.append((s, y, 1.0 / (s @ y)))
        decrease = (f - f_new) / max(abs(f), abs(f_new), 1.0)
        x, f, g = x_new, f_new, g_new
        if decrease <= 1e-12:
            return x, it + 1
    return x, 500


def _fit_probe(X: np.ndarray, targets: np.ndarray, link, nll, scale: int, l2: float = 1e-3):
    """Linear probe ``link(X @ W + b)`` for 0/1 ``targets``, fit by ``_lbfgs``
    on ``nll / scale`` (``scale`` terms) plus an L2 penalty on W, from zeros."""
    d, k = X.shape[1], targets.shape[1]

    def loss_grad(w):
        W = w[: d * k].reshape(d, k)
        P = link(X @ W + w[d * k:])
        loss = nll(P, targets) / scale + 0.5 * l2 * float((W * W).sum())
        G = (P - targets) / scale
        return loss, np.concatenate([(X.T @ G + l2 * W).ravel(), G.sum(axis=0)])

    w = _lbfgs(loss_grad, np.zeros(d * k + k))[0]
    return w[: d * k].reshape(d, k), w[d * k:]


def _sample_split(spec: SynthSpec, n: int, with_ood: bool, centroids, ood_center, rng):
    """Embeddings, class labels, and the two ground-truth flag arrays."""
    C, d = centroids.shape
    n_ood = int(np.floor(spec.ood_fraction * n)) if with_ood else 0
    n_id = n - n_ood
    y = rng.permutation(np.arange(n_id) % C)   # balanced classes
    X = centroids[y] + rng.standard_normal((n_id, d))
    dists = np.stack([np.linalg.norm(X - c, axis=1) for c in centroids], axis=1)   # no (n, C, d) temporary
    order = np.argsort(dists, axis=1)
    margin = dists[np.arange(n_id), order[:, 1]] - dists[np.arange(n_id), order[:, 0]]
    in_band = margin < spec.spacing / 2.0
    flip = in_band & (rng.random(n_id) < spec.overlap)
    competing = np.where(order[:, 0] != y, order[:, 0], order[:, 1])
    y = np.where(flip, competing, y)
    if n_ood:
        y_ood = rng.integers(0, C, size=n_ood)
        X_ood = ood_center[None, :] + rng.standard_normal((n_ood, d))
        X = np.vstack([X, X_ood])
        y = np.concatenate([y, y_ood])
        flip = np.concatenate([flip, np.zeros(n_ood, dtype=bool)])
    ood = np.zeros(n, dtype=bool)
    ood[n_id:] = True
    perm = rng.permutation(n)
    return X[perm], y[perm], ood[perm], flip[perm]


def _label_bits(X, ood, w_true, b_true, overlap: float, rng):
    """Multilabel truth bits drawn from a true sigmoid model, flipped at rate
    ``overlap`` near p = 0.5, and the rows holding a flipped bit."""
    p_true = _sigmoid(X @ w_true + b_true)
    p_true[ood] = 0.5   # displaced rows draw their bits blind: coin flips
    y_bits = (rng.random(p_true.shape) < p_true).astype(np.int8)
    band = np.abs(p_true - 0.5) < 0.15
    flip_bits = band & (rng.random(p_true.shape) < overlap)
    return np.where(flip_bits, 1 - y_bits, y_bits).astype(np.int8), flip_bits.any(axis=1)


def _stochastic_passes(logits: np.ndarray, link, spec: SynthSpec, rng) -> np.ndarray:
    """The (n, T, C) stochastic passes: ``link`` of each row of ``logits``
    plus ``spec.mc_noise`` times standard normal noise, ``spec.mc_passes``
    times.  One float64 tensor is filled in blocks of BLOCK_ROWS rows, each
    drawn, scaled, shifted and linked while it is in cache; the blocks take
    the draws of one (n, T, C) call in its order, so the bits are those of
    the whole-tensor computation."""
    passes = np.empty((len(logits), spec.mc_passes, logits.shape[1]))
    for a in range(0, len(logits), BLOCK_ROWS):
        block = passes[a:a + BLOCK_ROWS]
        rng.standard_normal(out=block)
        block *= spec.mc_noise
        block += logits[a:a + BLOCK_ROWS, None, :]
        block[...] = link(block)
    return passes


def generate(spec: SynthSpec) -> SynthDataset:
    """Build the three splits plus ground-truth contamination flags."""
    g, *split_rngs = (np.random.Generator(np.random.PCG64(ss))
                      for ss in np.random.SeedSequence(spec.seed).spawn(4))
    C, d = spec.n_classes, spec.dim
    centroids = spec.spacing / np.sqrt(2.0) * _unit_rows(g.standard_normal((C, d)))
    ood_center = spec.ood_displacement * _unit_rows(g.standard_normal((1, d)))[0]
    if spec.task == "multilabel":
        w_true = g.standard_normal((d, spec.n_labels)) * (2.0 / np.sqrt(d))
        b_true = g.standard_normal(spec.n_labels) * 0.5

    drawn = {}
    for role, rng in zip(_SPLITS, split_rngs):
        X, y, ood, flip = _sample_split(spec, getattr(spec, f"n_{role}"), role != "train",
                                        centroids, ood_center, rng)
        if spec.task == "multilabel":
            y, flip = _label_bits(X, ood, w_true, b_true, spec.overlap, rng)
        drawn[role] = (rng, X, y, ood, flip)

    X, y = drawn["train"][1:3]
    if spec.task == "multiclass":
        targets, link, nll, scale = np.eye(C)[y], _softmax, _softmax_nll, len(y)
    else:
        targets, link, nll, scale = y.astype(float), _sigmoid, _sigmoid_nll, y.size
    W, b = _fit_probe(X, targets, link, nll, scale)
    splits, ood_flags, flipped = {}, {}, {}
    for role, (rng, X, y, ood, flip) in drawn.items():
        logits = X @ W + b
        passes = _stochastic_passes(logits, link, spec, rng)
        splits[role] = LabeledSplit(link(logits), y, spec.task, X, passes)
        ood_flags[role], flipped[role] = ood, flip
    return SynthDataset(spec, splits, ood_flags, flipped)
