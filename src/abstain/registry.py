"""The method registry, FITTERS and METHODS, that ``fit``, ``score`` and
``scripts/run_benchmark.py`` dispatch through.  ``score_split`` computes
each base score once per split and reuses it for every hybrid.  Entries
call their scorer or fitter through its module at call time
(``density.score_md``), so a wrapper on the module attribute sees every call.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import baselines, density, hybrid, mc
from .core import LabeledSplit
from .dataio import load_models
from .errors import DataError, FormatError, UsageError

MULTICLASS = ("multiclass",)
MULTILABEL = ("multilabel",)
BOTH = MULTICLASS + MULTILABEL


@dataclass(frozen=True)
class Fitter:
    """The fields of the ``model`` dataclass, in order, are the model's
    schema in the container.  An array field's ``dims`` metadata gives its
    dimension letters, "C d" for a (C, d) array; a field without it is a
    float.  d is the embedding width and L the class or label count; C is
    the class count, or 1 for a multilabel split's shared component; n and
    k are fixed by the first field that holds them."""

    fit: Callable[[LabeledSplit], object]   # split -> fitted model
    model: type                             # class of the model it returns
    split: str                              # role of the split it fits on
    tasks: Tuple[str, ...]


FITTERS: Dict[str, Fitter] = {
    "md": Fitter(lambda split: density.fit_md(split), density.MdModel, "train", BOTH),
    "rde": Fitter(lambda split: density.fit_rde(split), density.RdeModel, "train", BOTH),
    "ddu": Fitter(lambda split: density.fit_ddu(split), density.DduModel, "train", BOTH),
    "nuq": Fitter(lambda split: density.fit_nuq(split), density.NuqModel, "train", BOTH),
    "beta": Fitter(lambda split: baselines.fit_beta(split), baselines.BetaModel, "validation", MULTICLASS),
}


@dataclass(frozen=True)
class Method:
    """A base method scores a batch of one split field with an optional
    fitted model; a hybrid pairs SR with a novelty method and is fitted
    on a calibration split."""

    tasks: Tuple[str, ...]
    score: Optional[Callable[[np.ndarray, object], np.ndarray]] = None
    input: str = "probs"                      # LabeledSplit field holding the batch
    model: Optional[str] = None               # FITTERS key of the model it needs
    hybrid: Optional[Tuple[str, str]] = None  # (variant, novelty method)


# Order is the order of "--methods all" and of the score table.
METHODS: Dict[str, Method] = {
    "SR": Method(MULTICLASS, lambda x, m: baselines.score_sr(x)),
    "Entropy": Method(MULTICLASS, lambda x, m: baselines.score_entropy(x)),
    "Delta": Method(MULTICLASS, lambda x, m: baselines.score_delta(x)),
    "Beta": Method(MULTICLASS, lambda x, m: baselines.score_beta(x, m), model="beta"),
    "SMP": Method(MULTICLASS, lambda x, m: mc.score_smp(x), "mc"),
    "PV": Method(MULTICLASS, lambda x, m: mc.score_pv(x), "mc"),
    "BALD": Method(MULTICLASS, lambda x, m: mc.score_bald(x), "mc"),
    # one score per (instance, label) pair: an (n, L) table
    "MP": Method(MULTILABEL, lambda x, m: baselines.score_mp(x)),
    "MP-mean": Method(MULTILABEL, lambda x, m: baselines.score_mp(x).mean(axis=1)),
    "MP-max": Method(MULTILABEL, lambda x, m: baselines.score_mp(x).max(axis=1)),
    "MD": Method(BOTH, lambda x, m: density.score_md(x, m), "embeddings", "md"),
    "RDE": Method(BOTH, lambda x, m: density.score_rde(x, m), "embeddings", "rde"),
    "DDU": Method(BOTH, lambda x, m: density.score_ddu(x, m), "embeddings", "ddu"),
    "NUQ": Method(BOTH, lambda x, m: density.score_nuq(x, m), "embeddings", "nuq"),
}
METHODS.update({f"{prefix}-{novelty}": Method(MULTICLASS, hybrid=(variant, novelty))
                for prefix, variant in (("HUQ", "huq"), ("HUQ2", "huq2"))
                for novelty in ("MD", "RDE", "DDU")})


def score_split(
    names: Sequence[str],
    target: LabeledSplit,
    models: Dict[str, object],
    calib: Optional[LabeledSplit] = None,
) -> Dict[str, np.ndarray]:
    """Scores of ``target`` for each named method, in the given order.

    Each base score is computed at most once per split: hybrids reuse SR
    and their novelty score on both ``target`` and ``calib``, the split
    their combinator is fitted on.
    """
    cache: Dict[tuple, np.ndarray] = {}

    def base(name: str, split: LabeledSplit) -> np.ndarray:
        key = (name, id(split))
        if key not in cache:
            method = METHODS[name]
            batch = getattr(split, method.input)
            if batch is None:
                raise DataError("split has no embeddings" if method.input == "embeddings"
                                else "split has no stochastic-pass tensor; SMP/PV/BALD unavailable")
            model = None
            if method.model is not None:
                model = models.get(method.model)
                if model is None:
                    raise UsageError(f"method {name} needs a fitted {method.model!r} model; "
                                     f"rerun fit with --methods {method.model}")
            cache[key] = method.score(batch, model)
        return cache[key]

    out = {}
    for name in names:
        pair = METHODS[name].hybrid
        if pair is None:
            out[name] = base(name, target)
            continue
        if calib is None:
            raise UsageError("hybrid methods need --calibrate <split> (typically validation)")
        variant, novelty = pair
        config = hybrid.fit_hybrid(calib, base("SR", calib), base(novelty, calib), variant)
        out[name] = hybrid.score_hybrid_batch(base("SR", target), base(novelty, target), config)
    return out


def method_inputs(names: Iterable[str]) -> Set[str]:
    """LabeledSplit fields the named methods score: a hybrid scores SR and
    its novelty method."""
    inputs = set()
    for name in names:
        pair = METHODS[name].hybrid
        inputs.update(METHODS[base].input for base in (("SR", pair[1]) if pair else (name,)))
    return inputs


def resolve_methods(raw: str, task: str, registry: Dict[str, object] = METHODS) -> List[str]:
    """Names of ``registry`` (METHODS for score, FITTERS for fit) from a
    comma list in any case, or all that serve ``task`` for "all", in
    registry order.  A name unknown, or of another task, is a UsageError."""
    available = [name for name, entry in registry.items() if task in entry.tasks]
    if raw.strip().lower() == "all":
        return available
    lookup = {name.lower(): name for name in registry}
    out = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        name = lookup.get(token.lower())
        if name is None:
            raise UsageError(f"unknown method {token!r} for task {task}; available: {', '.join(available)}")
        if task not in registry[name].tasks:
            raise UsageError(f"method {name} needs a {' or '.join(registry[name].tasks)} manifest")
        if name not in out:
            out.append(name)
    if not out:
        raise UsageError("no methods requested")
    return out


def _load_fitted(path, manifest) -> Dict[str, object]:
    """The models in the container ``path``, each built by its FITTERS
    entry's class from that class's fields, in order, of the shapes their
    dims give for ``manifest``, every value finite (FormatError naming the
    model and the field)."""
    classes = manifest.n_classes if manifest.task == "multiclass" else 1
    schemas = {key: {f.name: f.metadata.get("dims", "") for f in fields(fitter.model)}
               for key, fitter in FITTERS.items()}
    models = {}
    for key, values in load_models(path).items():
        if key not in schemas or list(values) != list(schemas[key]):
            raise FormatError(f"{path}: model {key!r} with fields {list(values)} is none of "
                              + ", ".join(f"{k} {list(s)}" for k, s in schemas.items()))
        sizes = {"d": manifest.dim, "C": classes, "L": manifest.n_classes}
        for name, letters in schemas[key].items():
            dims, shape = letters.split(), values[name].shape
            want = ", ".join(f"{x}={sizes[x]}" if x in sizes else x for x in dims)
            want = f"a float64 array of shape ({want})" if dims else "a float"
            if len(shape) != len(dims) or any(sizes.setdefault(x, m) != m for x, m in zip(dims, shape)):
                raise FormatError(f"{path}: {key} model field {name!r} must be {want}, not of shape {shape}")
            if not np.isfinite(values[name]).all():
                raise FormatError(f"{path}: {key} model field {name!r} holds NaN or infinite values")
        try:
            models[key] = FITTERS[key].model(**values)
        except ValueError as exc:
            raise FormatError(f"{path}: {key} model: {exc}") from exc
    return models
