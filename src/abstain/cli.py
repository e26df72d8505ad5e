"""Command-line pipeline: generate a benchmark, fit scorers, score a
split, evaluate rejection curves, and render a report.

Run as a program (the ``abstain`` console script, ``python -m abstain``
or ``python -m abstain.cli <command>``), each command imports only the
layers it runs: ``report`` loads no numpy, and only ``fit`` loads scipy.
``fit`` and ``score`` dispatch through the method registry
(``registry.FITTERS`` and ``registry.METHODS``).  Imported as a module, as
by scripts and tests, it loads every layer and exposes the registry.  Exit
codes: 0 success, 1 usage errors, 2 data errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict

from .errors import DataError, UsageError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _cmd_gen_synth(args) -> int:
    from . import synth
    from .dataio import save_dataset
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
    from .dataio import load_manifest, load_splits, save_models
    from .registry import FITTERS, fit_models, resolve_methods
    manifest = load_manifest(args.manifest)
    requested = resolve_methods(args.methods, manifest.task, FITTERS)
    splits = load_splits(manifest, Path(args.manifest).parent,   # no fitter reads the passes
                         {FITTERS[m].split: ("embeddings",) for m in requested})
    save_models(args.out, {m: vars(model) for m, model in fit_models(requested, splits).items()})
    print(args.out)
    return 0


def _cmd_score(args) -> int:
    from .dataio import load_manifest, load_splits, split_source, write_scores
    from .registry import _load_fitted, method_inputs, resolve_methods, score_split
    manifest = load_manifest(args.manifest)
    names = resolve_methods(args.methods, manifest.task)
    split = load_splits(manifest, Path(args.manifest).parent, {args.split: method_inputs(names)})[args.split]
    models = _load_fitted(args.models, manifest) if args.models else {}
    write_scores(args.out, score_split(names, split, models), split_source(manifest, args.split))
    print(args.out)
    return 0


def _auc_payload(res) -> dict:
    """The areas and flag of ``res``, a NaN as None."""
    values = {key: getattr(res, key) for key in ("raw_auc", "rand_auc", "oracle_auc", "normalized", "flag")}
    return {key: None if isinstance(v, float) and math.isnan(v) else v for key, v in values.items()}


def _cmd_evaluate(args) -> int:
    from . import rejection, report
    from .dataio import load_manifest, load_splits, read_scores, split_source, write_curve_csv, write_curves
    manifest = load_manifest(args.manifest)
    span = {"full": "full", "first50": "first_50"}[args.span]
    if args.mode == "label" and manifest.task != "multilabel":
        raise UsageError("label mode needs a multilabel manifest")
    if len(args.out) > 2:
        raise UsageError("--out takes a metrics path and at most one curves directory")
    metrics_path = Path(args.out[0])
    curves_dir = Path(args.out[1]) if len(args.out) > 1 else metrics_path.parent / "curves"
    made = [d for d in (curves_dir, *curves_dir.parents) if not d.exists()]   # deepest first
    if not (metrics_path.parent.is_dir() or metrics_path.parent in made):   # refused before any output is opened
        raise FileNotFoundError(f"{metrics_path}: no such directory: {metrics_path.parent}")
    split = load_splits(manifest, Path(args.manifest).parent, {args.split: ()})[args.split]

    scores = read_scores(args.scores, args.mode, len(split), split.probs.shape[1], split_source(manifest, args.split))
    n = next(iter(scores.values())).size   # every curve of the run is over the same n units
    for values in scores.values():   # every score is checked before any output is opened
        rejection.check_scores(values.reshape(-1), n)
    evaluations = rejection.unit_data(split.probs, split.labels, manifest.task, args.mode)
    del split   # the curves need only the unit counts: the probs are freed before they are built
    suffixes = {mode_name: "" if len(evaluations) == 1 else f".{mode_name}" for mode_name, _ in evaluations}
    methods_payload: Dict[str, dict] = {name: {} for name in scores}
    plots: Dict[str, Dict[str, tuple]] = {}   # metric: {method: the points its plot draws}

    def stream():   # one curve at a time, in index order: metric by metric, methods in name order
        for mode_name, data in evaluations:
            reference = rejection.oracle_reference(data, mode_name, span)
            for name, values in scores.items():
                curve = rejection.build_curve(values.reshape(-1), data, mode_name)
                methods_payload[name][mode_name] = _auc_payload(rejection.normalize_auc(curve, reference, span))
                plots.setdefault(mode_name, {})[name] = report.plot_points(n, curve)
                yield curve
                del curve   # freed before the next curve is built

    curves_dir.mkdir(parents=True, exist_ok=True)
    try:
        write_curves(curves_dir / "curves.bin", n, [name + suffixes[m] for m in suffixes for name in scores], stream())
    except BaseException:   # no partial container, nor a directory made for it, is left
        (curves_dir / "curves.bin").unlink(missing_ok=True)
        for d in made:
            d.rmdir()
        raise
    for mode_name, curve_map in sorted(plots.items()):
        for name, (xs, vs) in curve_map.items():
            write_curve_csv(curves_dir / f"{name}{suffixes[mode_name]}.csv", xs, vs)
        svg = report.plot_curves_svg(curve_map, f"{mode_name} vs coverage", mode_name)
        (curves_dir / f"{mode_name}_curves.svg").write_text(svg)

    payload = {"task": manifest.task, "split": args.split, "mode": args.mode, "span": args.span,
               "methods": methods_payload}
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
    from . import report
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

    p = sub.add_parser("fit", help="fit density models on the train split, Beta and the hybrids on validation")
    p.add_argument("--manifest", required=True)
    p.add_argument("--methods", default="all",
                   help="comma list from md,rde,ddu,nuq,beta,huq-md,huq-rde,huq-ddu,huq2-md,huq2-rde,huq2-ddu "
                        "(registry.FITTERS), or all that fit the task")
    p.add_argument("--out", required=True, help="models container path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="score one split with the requested methods")
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", default=None, help="models container from fit")
    p.add_argument("--split", default="test")
    p.add_argument("--methods", default="all")
    p.add_argument("--out", required=True, help="score table CSV path; its score container is this path + .bin")
    p.add_argument("--calibrate", choices=("validation",),
                   help="accepted for existing command lines only: fit calibrates the hybrids on validation")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("evaluate", help="rejection curves and normalized areas from a score table")
    p.add_argument("--scores", required=True, help="score table; its scores are read from this path + .bin")
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

# Run as a program, main() has exited before this line, so each command
# imports only its own layers.  Imported as a module, cli loads every
# layer and exposes the registry: perfbench/traced.py looks each layer up
# in sys.modules right after importing cli.
from . import rejection, report, synth  # noqa: E402
from .registry import FITTERS, METHODS, _load_fitted, fit_models, resolve_methods, score_split  # noqa: E402
