"""Command-line pipeline: generate a benchmark, fit scorers, score a
split, evaluate rejection curves, and render a report.

``fit`` and ``score`` dispatch through one method registry, FITTERS and
METHODS, which ``scripts/run_benchmark.py`` uses too.  ``score`` computes
each base score once per split, as one batch, and reuses it for every
hybrid.  Registry entries call their scorer or fitter through its module
at call time (``density.score_md``), so a wrapper installed on the module
attribute sees every call.  Exit codes: 0 success, 1 usage errors,
2 data errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from . import baselines, density, hybrid, mc, rejection, report, synth
from .core import LabeledSplit
from .dataio import (
    DataError,
    FormatError,
    load_manifest,
    load_models,
    load_splits,
    read_scores_csv,
    save_dataset,
    save_models,
    write_curve_csvs,
    write_scores_csv,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


MULTICLASS = ("multiclass",)
MULTILABEL = ("multilabel",)
BOTH = MULTICLASS + MULTILABEL


@dataclass(frozen=True)
class Fitter:
    """``fields``, the model's schema in the container, gives its fields in
    order as dimension letters: "" is a float, "C d" a (C, d) array.  d is
    the embedding width and L the class or label count; C is the class
    count, or 1 for a multilabel split's shared component; n and k are
    fixed by the first field that holds them."""

    fit: Callable[[LabeledSplit], object]   # split -> fitted model
    model: type                             # class of the model it returns
    split: str                              # role of the split it fits on
    tasks: Tuple[str, ...]
    fields: Dict[str, str]


FITTERS: Dict[str, Fitter] = {
    "md": Fitter(lambda split: density.fit_md(split), density.MdModel, "train", BOTH,
                 {"centroids": "C d", "whitener": "d d"}),
    "rde": Fitter(lambda split: density.fit_rde(split), density.RdeModel, "train", BOTH,
                  {"support": "n d", "gamma": "", "dual_vectors": "n k", "col_means": "n",
                   "grand_mean": "", "centroids": "C k", "whiteners": "C k k"}),
    "ddu": Fitter(lambda split: density.fit_ddu(split), density.DduModel, "train", BOTH,
                  {"centroids": "C d", "whiteners": "C d d", "log_dets": "C", "log_priors": "C"}),
    "nuq": Fitter(lambda split: density.fit_nuq(split), density.NuqModel, "train", BOTH,
                  {"embeddings": "n d", "label_matrix": "n L", "bandwidth": ""}),
    "beta": Fitter(lambda split: baselines.fit_beta(split), baselines.BetaModel, "validation", MULTICLASS,
                   dict.fromkeys(("alpha_correct", "gamma_correct", "alpha_incorrect",
                                  "gamma_incorrect", "prior_correct", "prior_incorrect"), "")),
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


def resolve_methods(raw: str, task: str) -> List[str]:
    """Registry names from a comma list, or all that serve ``task`` for
    "all", in registry order."""
    available = [name for name, method in METHODS.items() if task in method.tasks]
    if raw.strip().lower() == "all":
        return available
    lookup = {name.lower(): name for name in available}
    out = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        name = lookup.get(token.lower())
        if name is None:
            raise UsageError(
                f"unknown method {token!r} for task {task}; available: {', '.join(available)}"
            )
        if name not in out:
            out.append(name)
    if not out:
        raise UsageError("no methods requested")
    return out


def _cmd_gen_synth(args) -> int:
    if args.spec:
        spec = synth.SynthSpec.from_json(Path(args.spec).read_text())
    else:
        spec = synth.SynthSpec()
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    dataset = synth.generate(spec)
    manifest_path = save_dataset(dataset, args.out)
    print(manifest_path)
    return 0


def _cmd_fit(args) -> int:
    manifest = load_manifest(args.manifest)
    if args.methods is None:
        requested = [key for key, fitter in FITTERS.items() if manifest.task in fitter.tasks]
    else:
        tokens = (m.strip().lower() for m in args.methods.split(","))
        requested = list(dict.fromkeys(m for m in tokens if m))
    for m in requested:
        if m not in FITTERS:
            raise UsageError(f"unknown fit method {m!r}; available: {', '.join(FITTERS)}")
        if manifest.task not in FITTERS[m].tasks:
            raise UsageError(f"{m} fitting needs a {' or '.join(FITTERS[m].tasks)} manifest")
    if not requested:
        raise UsageError("no methods requested")
    splits = load_splits(manifest, Path(args.manifest).parent,   # no fitter reads the passes
                         {FITTERS[m].split: ("embeddings",) for m in requested})
    save_models(args.out, {m: vars(FITTERS[m].fit(splits[FITTERS[m].split])) for m in requested})
    print(args.out)
    return 0


def _load_fitted(path, manifest) -> Dict[str, object]:
    """The models in the container ``path``, each built by its FITTERS
    entry's class from that Fitter's fields, in order, of the shapes it
    gives for ``manifest``, every value finite (FormatError naming the
    model and the field)."""
    classes = manifest.n_classes if manifest.task == "multiclass" else 1
    models = {}
    for key, values in load_models(path).items():
        fitter = FITTERS.get(key)
        if fitter is None or list(values) != list(fitter.fields):
            raise FormatError(f"{path}: model {key!r} with fields {list(values)} is none of "
                              + ", ".join(f"{k} {list(f.fields)}" for k, f in FITTERS.items()))
        sizes = {"d": manifest.dim, "C": classes, "L": manifest.n_classes}
        for name, letters in fitter.fields.items():
            dims, shape = letters.split(), values[name].shape
            want = ", ".join(f"{x}={sizes[x]}" if x in sizes else x for x in dims)
            want = f"a float64 array of shape ({want})" if dims else "a float"
            if len(shape) != len(dims) or any(sizes.setdefault(x, m) != m for x, m in zip(dims, shape)):
                raise FormatError(f"{path}: {key} model field {name!r} must be {want}, not of shape {shape}")
            if not np.isfinite(values[name]).all():
                raise FormatError(f"{path}: {key} model field {name!r} holds NaN or infinite values")
        try:
            models[key] = fitter.model(**values)
        except ValueError as exc:
            raise FormatError(f"{path}: {key} model: {exc}") from exc
    return models


def _cmd_score(args) -> int:
    manifest = load_manifest(args.manifest)
    names = resolve_methods(args.methods, manifest.task)
    wanted = {args.split: method_inputs(names)}
    hybrids = [name for name in names if METHODS[name].hybrid]
    if args.calibrate and hybrids:   # the scored split's inputs cover the hybrids' ones
        wanted.setdefault(args.calibrate, method_inputs(hybrids))
    splits = load_splits(manifest, Path(args.manifest).parent, wanted)
    models = _load_fitted(args.models, manifest) if args.models else {}
    write_scores_csv(args.out, score_split(names, splits[args.split], models, splits.get(args.calibrate)))
    print(args.out)
    return 0


def _clean(value: float) -> Optional[float]:
    return None if (isinstance(value, float) and math.isnan(value)) else value


def _auc_payload(res: rejection.NormalizedAuc) -> dict:
    return {key: _clean(getattr(res, key))
            for key in ("raw_auc", "rand_auc", "oracle_auc", "normalized", "flag")}


def _cmd_evaluate(args) -> int:
    manifest = load_manifest(args.manifest)
    span = {"full": "full", "first50": "first_50"}[args.span]
    if args.mode == "label" and manifest.task != "multilabel":
        raise UsageError("label mode needs a multilabel manifest")
    if len(args.out) > 2:
        raise UsageError("--out takes a metrics path and at most one curves directory")
    split = load_splits(manifest, Path(args.manifest).parent, {args.split: ()})[args.split]
    metrics_path = Path(args.out[0])
    curves_dir = Path(args.out[1]) if len(args.out) > 1 else metrics_path.parent / "curves"

    scores = read_scores_csv(args.scores, args.mode, len(split), split.probs.shape[1])
    evaluations = rejection.unit_data(split.probs, split.labels, manifest.task, args.mode)
    del split   # the curves need only the unit counts: the probs are freed before they are built
    methods_payload: Dict[str, dict] = {name: {} for name in scores}
    plots: Dict[str, Dict[str, tuple]] = {}
    curve_files: Dict[Path, np.ndarray] = {}
    for mode_name, data in evaluations:   # one metric's curves at a time
        oracle = rejection.build_curve(rejection.oracle_scores(data, mode_name), data, mode_name)
        n = oracle.size   # every curve of the run is over the same n units
        suffix = "" if len(evaluations) == 1 else f".{mode_name}"
        for name, values in scores.items():
            curve = rejection.build_curve(values.reshape(-1), data, mode_name)
            methods_payload[name][mode_name] = _auc_payload(rejection.normalize_auc(curve, oracle, span))
            curve_files[curves_dir / f"{name}{suffix}.csv"] = curve
            plots.setdefault(mode_name, {})[name] = report.plot_points(rejection.coverages(n), curve)
        del oracle   # freed before the next metric's oracle is built
    curves_dir.mkdir(parents=True, exist_ok=True)
    write_curve_csvs(rejection.coverages(n), curve_files)

    for mode_name, curve_map in sorted(plots.items()):
        svg = report.plot_curves_svg(curve_map, f"{mode_name} vs coverage", mode_name)
        (curves_dir / f"{mode_name}_curves.svg").write_text(svg)

    payload = {
        "task": manifest.task,
        "split": args.split,
        "mode": args.mode,
        "span": args.span,
        "methods": methods_payload,
    }
    metrics_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(metrics_path)
    return 0


def _check_metrics(metrics, path: Path) -> None:
    """Raise a DataError unless ``metrics`` has the shape render_report reads:
    {"methods": {method: {metric: {"normalized": number or null, ...}}}}."""
    methods = metrics.get("methods", {}) if isinstance(metrics, dict) else None
    if not isinstance(methods, dict):
        raise DataError(f"{path}: metrics must be an object whose 'methods' is an object")
    for name, entry in methods.items():
        areas = entry.values() if isinstance(entry, dict) else [None]
        values = [area.get("normalized", "") if isinstance(area, dict) else "" for area in areas]
        if any(v is not None and (isinstance(v, bool) or not isinstance(v, (int, float))) for v in values):
            raise DataError(f"{path}: method {name!r} must map each metric to an object "
                            "whose 'normalized' is a number or null")


def _cmd_report(args) -> int:
    metrics_path = Path(args.metrics)
    try:
        metrics = json.loads(metrics_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{metrics_path}: not valid JSON: {exc}")
    _check_metrics(metrics, metrics_path)
    curves_dir = Path(args.curves) if args.curves else metrics_path.parent / "curves"
    report.render_report(metrics, curves_dir, args.out)
    print(args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="abstain", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic benchmark directory")
    p.add_argument("--spec", help="SynthSpec JSON file (defaults used when omitted)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("fit", help="fit density/beta models on the train split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--methods", default=None,
                   help=f"comma list from {','.join(FITTERS)}; default all that fit the task")
    p.add_argument("--out", required=True, help="models container path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="score one split with the requested methods")
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", default=None, help="models container from fit")
    p.add_argument("--split", default="test")
    p.add_argument("--methods", default="all")
    p.add_argument("--out", required=True, help="score table CSV path")
    p.add_argument("--calibrate", default=None, help="split used to fit hybrid combinators")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="rejection curves and normalized areas from a score table")
    p.add_argument("--scores", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test")
    p.add_argument("--mode", default="instance", choices=("instance", "label"))
    p.add_argument("--span", default="full", choices=("full", "first50"))
    p.add_argument("--out", required=True, nargs="+",
                   help="metrics JSON path, optionally followed by a curves directory")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", help="render an HTML comparison from metrics JSON")
    p.add_argument("--metrics", required=True)
    p.add_argument("--curves", default=None, help="curves directory (defaults next to metrics)")
    p.add_argument("--out", required=True, help="report HTML path")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error [{exc.code}]: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"data error [io]: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
