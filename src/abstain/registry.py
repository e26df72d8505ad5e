"""The method registry, FITTERS and METHODS, that ``fit``, ``score`` and
``scripts/run_benchmark.py`` dispatch through.  ``fit_models`` fits a
hybrid after its novelty model, and ``score_split`` scores a hybrid with
its fitted config; both compute each base score once per split.  Entries
call their scorer or fitter through its module at call time
(``density.score_md``), so a wrapper on the module attribute sees every call.
"""
from __future__ import annotations

import functools
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
NOVELTY = ("MD", "RDE", "DDU")   # the novelty methods a hybrid pairs with SR


@dataclass(frozen=True)
class Fitter:
    """The fields of the ``model`` dataclass, in order, are the model's
    schema in the container.  An array field's ``dims`` metadata gives its
    dimension letters, "C d" for a (C, d) array; a field without it is a
    float.  d is the embedding width and L the class or label count; C is
    the class count, or 1 for a multilabel split's shared component; n and
    k are fixed by the first field that holds them."""

    fit: Callable[[LabeledSplit, Callable[[str], np.ndarray]], object]   # (split, its scores by method) -> model
    model: type                             # class of the model it returns
    split: str                              # role of the split it fits on
    tasks: Tuple[str, ...]
    after: Optional[str] = None             # FITTERS key of the model whose scores it is fitted on


def _hybrid_fitter(variant: str, novelty: str) -> Fitter:
    return Fitter(lambda split, scores: hybrid.fit_hybrid(split, scores("SR"), scores(novelty), variant),
                  hybrid.HybridConfig, "validation", MULTICLASS, novelty.lower())


FITTERS: Dict[str, Fitter] = {
    "md": Fitter(lambda split, scores: density.fit_md(split), density.MdModel, "train", BOTH),
    "rde": Fitter(lambda split, scores: density.fit_rde(split), density.RdeModel, "train", BOTH),
    "ddu": Fitter(lambda split, scores: density.fit_ddu(split), density.DduModel, "train", BOTH),
    "nuq": Fitter(lambda split, scores: density.fit_nuq(split), density.NuqModel, "train", BOTH),
    "beta": Fitter(lambda split, scores: baselines.fit_beta(split), baselines.BetaModel, "validation", MULTICLASS),
}
FITTERS.update({f"{variant}-{novelty.lower()}": _hybrid_fitter(variant, novelty)
                for variant in hybrid.VARIANTS for novelty in NOVELTY})


@dataclass(frozen=True)
class Method:
    """A base method scores a batch of one split field with an optional
    fitted model; a hybrid pairs SR with a novelty method under the
    config that ``fit`` fitted for it."""

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
METHODS.update({f"{variant.upper()}-{novelty}": Method(MULTICLASS, model=f"{variant}-{novelty.lower()}",
                                                       hybrid=(variant, novelty))
                for variant in hybrid.VARIANTS for novelty in NOVELTY})


def split_scores(split: LabeledSplit, models: Dict[str, object]) -> Callable[[str], np.ndarray]:
    """A function from a METHODS name to the scores of ``split`` by that
    method, each computed once, with the models ``models`` holds when the
    name is first asked for."""
    @functools.cache
    def scores(name: str) -> np.ndarray:
        method = METHODS[name]
        batch = getattr(split, method.input)   # a hybrid's, the probs, is never None
        if batch is None:
            raise DataError("split has no embeddings" if method.input == "embeddings"
                            else "split has no stochastic-pass tensor; SMP/PV/BALD unavailable")
        model = None
        if method.model is not None:
            model = models.get(method.model)
            if model is None:
                raise UsageError(f"method {name} needs a fitted {method.model!r} model; "
                                 f"rerun fit with --methods {method.model}")
        if method.hybrid:
            variant, novelty = method.hybrid
            return hybrid.score_hybrid_batch(scores("SR"), scores(novelty), model, variant)
        return method.score(batch, model)
    return scores


def score_split(names: Sequence[str], target: LabeledSplit, models: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Scores of ``target`` for each named method, in the given order:
    hybrids reuse SR and their novelty score."""
    scores = split_scores(target, models)
    return {name: scores(name) for name in names}


def fit_models(names: Sequence[str], splits: Dict[str, LabeledSplit]) -> Dict[str, object]:
    """The models of the FITTERS ``names``, in the given order, each fitted
    on its split of ``splits``.  They are fitted in registry order, so a
    hybrid after its novelty model, whose scores of each split are computed
    once; a hybrid whose novelty model is not among ``names`` is a UsageError."""
    for key in names:
        after = FITTERS[key].after
        if after is not None and after not in names:
            raise UsageError(f"{key} is fitted on the scores of {after}; add {after} to --methods")
    models: Dict[str, object] = {}
    scores = {role: split_scores(split, models) for role, split in splits.items()}
    for key in (key for key in FITTERS if key in names):
        models[key] = FITTERS[key].fit(splits[FITTERS[key].split], scores[FITTERS[key].split])
    return {key: models[key] for key in names}


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
