"""Deterministic synthetic benchmark generator.

Embeddings come from seeded Gaussian class clusters.  Two controlled
failure modes are injected: instances landing in the boundary band
between clusters get their labels flipped at a configurable rate, and a
displaced cluster with arbitrary labels contaminates the validation and
test splits.  Probabilities come from a linear probe fit on the clean
train split, so the displaced cluster collects confidently wrong
predictions rather than honest ones.

The same spec and seed always produce byte-identical arrays.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Dict

import numpy as np
import scipy

from .core import LabeledSplit

TASKS = ("multiclass", "multilabel")
_SPLITS = ("train", "validation", "test")
# JSON value types a spec field accepts, by annotation; errors name the first
_JSON_KINDS = {"int": (int,), "float": (float, int), "str": (str,)}


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
        """Spec from a JSON object; a ValueError names any unknown or ill-typed field."""
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError("spec must be a JSON object of SynthSpec fields")
        kinds = {f.name: _JSON_KINDS[f.type] for f in fields(cls)}
        for name, value in raw.items():
            if name not in kinds:
                raise ValueError(f"unknown spec field {name!r}; fields: {', '.join(kinds)}")
            if isinstance(value, bool) or not isinstance(value, kinds[name]):
                raise ValueError(f"spec field {name!r} must be {kinds[name][0].__name__}, "
                                 f"not {type(value).__name__}")
        return cls(**raw)


@dataclass
class SynthDataset:
    spec: SynthSpec
    splits: Dict[str, LabeledSplit]
    ood_flags: Dict[str, np.ndarray]      # True where the instance is displaced
    flipped_flags: Dict[str, np.ndarray]  # True where the label was flipped


def _unit_rows(m: np.ndarray) -> np.ndarray:
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _fit_softmax_probe(X: np.ndarray, y: np.ndarray, C: int, l2: float = 1e-3):
    n, d = X.shape
    onehot = np.zeros((n, C))
    onehot[np.arange(n), y] = 1.0

    def loss_grad(w):
        W = w[: d * C].reshape(d, C)
        b = w[d * C :]
        P = _softmax(X @ W + b)
        nll = -np.log(np.clip(P[np.arange(n), y], 1e-300, None)).mean()
        loss = nll + 0.5 * l2 * float((W * W).sum())
        G = (P - onehot) / n
        gw = X.T @ G + l2 * W
        gb = G.sum(axis=0)
        return loss, np.concatenate([gw.ravel(), gb])

    res = scipy.optimize.minimize(
        loss_grad,
        np.zeros(d * C + C),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-10},
    )
    w = res.x
    return w[: d * C].reshape(d, C), w[d * C :]


def _fit_sigmoid_probes(X: np.ndarray, Y: np.ndarray, l2: float = 1e-3):
    """Independent logistic probes for every label, optimised jointly."""
    n, d = X.shape
    L = Y.shape[1]
    Yf = Y.astype(float)

    def loss_grad(w):
        W = w[: d * L].reshape(d, L)
        b = w[d * L :]
        Z = X @ W + b
        P = _sigmoid(Z)
        eps = 1e-12
        nll = -(Yf * np.log(P + eps) + (1.0 - Yf) * np.log(1.0 - P + eps)).mean()
        loss = nll + 0.5 * l2 * float((W * W).sum())
        G = (P - Yf) / (n * L)
        gw = X.T @ G + l2 * W
        gb = G.sum(axis=0)
        return loss, np.concatenate([gw.ravel(), gb])

    res = scipy.optimize.minimize(
        loss_grad,
        np.zeros(d * L + L),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-10},
    )
    w = res.x
    return w[: d * L].reshape(d, L), w[d * L :]


def _balanced_labels(n: int, C: int, rng: np.random.Generator) -> np.ndarray:
    return rng.permutation(np.arange(n) % C)


def _sample_split(spec: SynthSpec, n: int, with_ood: bool, centroids, ood_center, rng):
    """Embeddings, class labels, and the two ground-truth flag arrays."""
    C, d = centroids.shape
    n_ood = int(np.floor(spec.ood_fraction * n)) if with_ood else 0
    n_id = n - n_ood
    y = _balanced_labels(n_id, C, rng)
    X = centroids[y] + rng.standard_normal((n_id, d))
    dists = np.linalg.norm(X[:, None, :] - centroids[None, :, :], axis=2)
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


def generate(spec: SynthSpec) -> SynthDataset:
    """Build the three splits plus ground-truth contamination flags."""
    root = np.random.SeedSequence(spec.seed)
    ss_global, ss_train, ss_val, ss_test = root.spawn(4)
    g = np.random.Generator(np.random.PCG64(ss_global))
    C, d = spec.n_classes, spec.dim
    centroids = spec.spacing / np.sqrt(2.0) * _unit_rows(g.standard_normal((C, d)))
    ood_center = spec.ood_displacement * _unit_rows(g.standard_normal((1, d)))[0]
    if spec.task == "multilabel":
        w_true = g.standard_normal((d, spec.n_labels)) * (2.0 / np.sqrt(d))
        b_true = g.standard_normal(spec.n_labels) * 0.5

    raw = {}
    seeds = {"train": ss_train, "validation": ss_val, "test": ss_test}
    sizes = {"train": spec.n_train, "validation": spec.n_validation, "test": spec.n_test}
    rngs = {}
    for role in _SPLITS:
        rng = np.random.Generator(np.random.PCG64(seeds[role]))
        rngs[role] = rng
        X, y, ood, flip = _sample_split(
            spec, sizes[role], with_ood=(role != "train"), centroids=centroids,
            ood_center=ood_center, rng=rng,
        )
        raw[role] = (X, y, ood, flip)

    splits: Dict[str, LabeledSplit] = {}
    ood_flags: Dict[str, np.ndarray] = {}
    flipped: Dict[str, np.ndarray] = {}
    if spec.task == "multiclass":
        Xtr, ytr = raw["train"][0], raw["train"][1]
        W, b = _fit_softmax_probe(Xtr, ytr, C)
        for role in _SPLITS:
            X, y, ood, flip = raw[role]
            logits = X @ W + b
            probs = _softmax(logits)
            noise = rngs[role].standard_normal((len(X), spec.mc_passes, C)) * spec.mc_noise
            mc = _softmax(logits[:, None, :] + noise)
            splits[role] = LabeledSplit(probs, y, "multiclass", role, X, mc)
            ood_flags[role] = ood
            flipped[role] = flip
    else:
        bits = {}
        for role in _SPLITS:
            X, _, ood, _ = raw[role]
            rng = rngs[role]
            p_true = _sigmoid(X @ w_true + b_true)
            if ood.any():
                # displaced rows draw their bits blind: coin flips
                p_true[ood] = 0.5
            y_bits = (rng.random(p_true.shape) < p_true).astype(np.int8)
            band = np.abs(p_true - 0.5) < 0.15
            flip_bits = band & (rng.random(p_true.shape) < spec.overlap)
            y_bits = np.where(flip_bits, 1 - y_bits, y_bits).astype(np.int8)
            bits[role] = (X, y_bits, ood, flip_bits.any(axis=1))
        Xtr, Ytr = bits["train"][0], bits["train"][1]
        W, b = _fit_sigmoid_probes(Xtr, Ytr)
        for role in _SPLITS:
            X, Y, ood, flip = bits[role]
            logits = X @ W + b
            probs = _sigmoid(logits)
            noise = rngs[role].standard_normal((len(X), spec.mc_passes, spec.n_labels)) * spec.mc_noise
            mc = _sigmoid(logits[:, None, :] + noise)
            splits[role] = LabeledSplit(probs, Y, "multilabel", role, X, mc)
            ood_flags[role] = ood
            flipped[role] = flip
    return SynthDataset(spec, splits, ood_flags, flipped)
