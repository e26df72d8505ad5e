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
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import baselines, density, hybrid, mc, rejection, report, synth
from .core import LabeledSplit
from .dataio import (
    DataError,
    ScoreRow,
    load_models,
    load_split,
    read_scores_csv,
    save_dataset,
    save_models,
    validate_manifest,
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
    fit: Callable[[LabeledSplit, int], object]   # (split, seed) -> fitted model
    split: str                                   # role of the split it fits on
    tasks: Tuple[str, ...]


FITTERS: Dict[str, Fitter] = {
    "md": Fitter(lambda split, seed: density.fit_md(split), "train", BOTH),
    "rde": Fitter(lambda split, seed: density.fit_rde(split, seed=seed), "train", BOTH),
    "ddu": Fitter(lambda split, seed: density.fit_ddu(split), "train", BOTH),
    "nuq": Fitter(lambda split, seed: density.fit_nuq(split), "train", BOTH),
    "beta": Fitter(lambda split, seed: baselines.fit_beta(split), "validation", MULTICLASS),
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
    "MP": Method(MULTILABEL, lambda x, m: rejection.label_ambiguity(x)),
    "MP-mean": Method(MULTILABEL, lambda x, m: rejection.label_ambiguity(x).mean(axis=1)),
    "MP-max": Method(MULTILABEL, lambda x, m: rejection.label_ambiguity(x).max(axis=1)),
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
    objective: str = "rc_auc",
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
        config = hybrid.fit_hybrid(calib, base("SR", calib), base(novelty, calib), variant, objective)
        out[name] = hybrid.score_hybrid_batch(base("SR", target), base(novelty, target), config)
    return out


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
        spec = synth.SynthSpec(**{**json.loads(spec.to_json()), "seed": args.seed})
    dataset = synth.generate(spec)
    manifest_path = save_dataset(dataset, args.out)
    print(manifest_path)
    return 0


def _cmd_fit(args) -> int:
    manifest = validate_manifest(args.manifest)
    base = Path(args.manifest).parent
    if args.methods is None:
        requested = [key for key, fitter in FITTERS.items() if manifest.task in fitter.tasks]
    else:
        requested = [m.strip().lower() for m in args.methods.split(",") if m.strip()]
    for m in requested:
        if m not in FITTERS:
            raise UsageError(f"unknown fit method {m!r}; available: {', '.join(FITTERS)}")
    if not requested:
        raise UsageError("no methods requested")
    splits: Dict[str, object] = {}
    models: Dict[str, object] = {}
    for m in requested:
        fitter = FITTERS[m]
        if manifest.task not in fitter.tasks:
            raise UsageError(f"{m} fitting needs a {' or '.join(fitter.tasks)} manifest")
        if fitter.split not in splits:
            splits[fitter.split] = load_split(manifest, base, fitter.split)
        models[m] = fitter.fit(splits[fitter.split], args.seed)
    save_models(args.out, models)
    print(args.out)
    return 0


def _cmd_score(args) -> int:
    manifest = validate_manifest(args.manifest)
    base = Path(args.manifest).parent
    target = load_split(manifest, base, args.split)
    names = resolve_methods(args.methods, manifest.task)
    models = load_models(args.models) if args.models else {}
    calib = None
    if args.calibrate and any(METHODS[name].hybrid for name in names):
        calib = load_split(manifest, base, args.calibrate)
    rows: List[ScoreRow] = []
    for name, scores in score_split(names, target, models, calib, args.objective).items():
        if scores.ndim == 2:  # one row per (instance, label) pair, instance-major
            rows.extend(ScoreRow(i, j, name, float(s)) for (i, j), s in np.ndenumerate(scores))
        else:
            rows.extend(ScoreRow(i, None, name, float(s)) for i, s in enumerate(scores))
    write_scores_csv(args.out, rows)
    print(args.out)
    return 0


def _clean(value: float) -> Optional[float]:
    return None if (isinstance(value, float) and math.isnan(value)) else value


def _auc_payload(res: rejection.NormalizedAuc) -> dict:
    return {
        "raw_auc": _clean(res.raw_auc),
        "rand_auc": _clean(res.rand_auc),
        "oracle_auc": _clean(res.oracle_auc),
        "normalized": _clean(res.normalized),
        "flag": res.flag,
    }


def _write_curve_csv(path: Path, curve: rejection.RejectionCurve) -> None:
    lines = ["coverage,value"]
    lines += [f"{float(c)!r},{float(v)!r}" for c, v in zip(curve.coverages, curve.values)]
    path.write_text("\n".join(lines) + "\n")


def _cmd_evaluate(args) -> int:
    manifest = validate_manifest(args.manifest)
    base = Path(args.manifest).parent
    split = load_split(manifest, base, args.split)
    span = {"full": "full", "first50": "first_50"}.get(args.span)
    if span is None:
        raise UsageError("span must be full or first50")
    if args.mode == "label" and manifest.task != "multilabel":
        raise UsageError("label mode needs a multilabel manifest")
    out_paths = list(args.out)
    metrics_path = Path(out_paths[0])
    curves_dir = Path(out_paths[1]) if len(out_paths) > 1 else metrics_path.parent / "curves"
    curves_dir.mkdir(parents=True, exist_ok=True)

    table = read_scores_csv(args.scores)
    by_method: Dict[str, list] = {}
    for row in table:
        want_pairs = args.mode == "label"
        if (row.label is not None) == want_pairs:
            by_method.setdefault(row.method, []).append(row)
    if not by_method:
        raise DataError(f"score table holds no {args.mode}-level rows")

    n = len(split)
    # (curve mode, per-unit data) pairs every method is evaluated on
    if args.mode == "label":
        pred, truth = rejection.multilabel_pair_arrays(split.probs, split.labels)
        evaluations = (("accuracy", (pred != truth).astype(float)), ("f1_micro", (pred, truth)))
    elif manifest.task == "multiclass":
        evaluations = (("risk", rejection.multiclass_losses(split.probs, split.labels)),)
    else:
        tp, fp, fn = rejection.instance_f1_counts(split.probs, split.labels)
        totals = np.full(n, split.probs.shape[1], dtype=float)
        evaluations = (("accuracy", (fp + fn, totals)), ("f1_micro", (tp, fp, fn)))
    methods_payload: Dict[str, dict] = {}
    plots: Dict[str, Dict[str, tuple]] = {}
    for method in sorted(by_method):
        rows = by_method[method]
        if args.mode == "label":
            L = split.probs.shape[1]
            scores = np.full(n * L, np.nan)
            for r in rows:
                if not (0 <= r.instance < n and 0 <= r.label < L):
                    raise DataError(f"score row out of range: {r}")
                scores[r.instance * L + r.label] = r.score
            if np.any(np.isnan(scores)):
                raise DataError(f"method {method}: score table misses some label pairs")
        else:
            if len(rows) != n:
                raise DataError(f"method {method}: {len(rows)} rows for {n} instances")
            scores = np.full(n, np.nan)
            for r in rows:
                if not 0 <= r.instance < n:
                    raise DataError(f"score row out of range: {r}")
                scores[r.instance] = r.score
            if np.any(np.isnan(scores)):
                raise DataError(f"method {method}: missing instances in score table")
        entry, curves = {}, {}
        for mode_name, data in evaluations:
            curves[mode_name] = rejection.build_curve(scores, data, mode_name)
            entry[mode_name] = _auc_payload(rejection.normalized_auc(scores, data, mode_name, span))
        methods_payload[method] = entry
        for mode_name, curve in curves.items():
            suffix = "" if len(curves) == 1 else f".{mode_name}"
            _write_curve_csv(curves_dir / f"{method}{suffix}.csv", curve)
            plots.setdefault(mode_name, {})[method] = (curve.coverages.tolist(), curve.values.tolist())

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


def _cmd_report(args) -> int:
    metrics_path = Path(args.metrics)
    try:
        metrics = json.loads(metrics_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{metrics_path}: not valid JSON: {exc}")
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
    p.add_argument("--seed", type=int, default=0, help="subsampling seed for robust fits")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("score", help="score one split with the requested methods")
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", default=None, help="models container from fit")
    p.add_argument("--split", default="test")
    p.add_argument("--methods", default="all")
    p.add_argument("--out", required=True, help="score table CSV path")
    p.add_argument("--calibrate", default=None, help="split used to fit hybrid combinators")
    p.add_argument("--objective", default="rc_auc", choices=("rc_auc", "fr_auc"))
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
