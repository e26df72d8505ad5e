#!/usr/bin/env python3
"""Desk-scale benchmark: every scorer against the synthetic generator.

Generates seeded datasets, fits the density, Beta and hybrid models,
scores the test split with every applicable method, and prints mean
normalized rejection-curve areas (higher is better for every column).

Examples:
    python3 scripts/run_benchmark.py
    python3 scripts/run_benchmark.py --task multilabel --seeds 3
    python3 scripts/run_benchmark.py --overlap 0.3 --ood 0.2 --json out.json
"""
import argparse
import json
import sys
import time

import numpy as np

from abstain import rejection
from abstain.cli import FITTERS, fit_models, resolve_methods, score_split
from abstain.synth import SynthSpec, generate


def fitted(data, task):
    """Every model the task can use, the hybrids included, fitted by the function ``abstain fit`` calls."""
    return fit_models(resolve_methods("all", task, FITTERS), data.splits)


def add_entries(table, scores, split, level):
    """Append the normalized areas over both spans of each named score
    vector, judged on ``split`` by risk (multiclass) or micro-F1."""
    mode, data = rejection.unit_data(split.probs, split.labels, split.task, level)[-1]
    references = {span: rejection.oracle_reference(data, mode, span) for span in ("full", "first_50")}
    for name, vec in scores.items():
        curve = rejection.build_curve(vec, data, mode)
        entry = table.setdefault(name, {"full": [], "first_50": []})
        for span, reference in references.items():
            entry[span].append(rejection.normalize_auc(curve, reference, span).normalized)


def run_multiclass(spec_kwargs, seeds):
    table = {}
    for seed in seeds:
        data = generate(SynthSpec(seed=seed, **spec_kwargs))
        test = data.splits["test"]
        scores = score_split(resolve_methods("all", "multiclass"), test, fitted(data, "multiclass"))
        add_entries(table, scores, test, "instance")
    return table


def run_multilabel(spec_kwargs, seeds):
    table = {}
    for seed in seeds:
        data = generate(SynthSpec(seed=seed, task="multilabel", **spec_kwargs))
        test = data.splits["test"]
        scores = score_split(resolve_methods("all", "multilabel"), test, fitted(data, "multilabel"))
        add_entries(table, {name: vec for name, vec in scores.items() if vec.ndim == 1}, test, "instance")
        # pooled label-pair rejection, the finer-grained alternative
        add_entries(table, {"MP (label-wise)": scores["MP"].reshape(-1)}, test, "label")
    return table


def print_table(table, metric_name):
    ranked = sorted(
        table.items(), key=lambda kv: -np.mean(kv[1]["first_50"])
    )
    name_width = max(len(name) for name in table)
    header = f"{'method':<{name_width}}  {metric_name + ' (full)':>18}  {metric_name + ' (first 50%)':>22}"
    print(header)
    print("-" * len(header))
    for name, spans in ranked:
        full = np.mean(spans["full"])
        fifty = np.mean(spans["first_50"])
        sd = np.std(spans["first_50"])
        print(f"{name:<{name_width}}  {full:>18.4f}  {fifty:>16.4f} ± {sd:.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--task", default="multiclass", choices=("multiclass", "multilabel"))
    parser.add_argument("--seeds", type=int, default=5, help="number of seeded repetitions")
    parser.add_argument("--n-train", type=int, default=1200)
    parser.add_argument("--n-validation", type=int, default=800)
    parser.add_argument("--n-test", type=int, default=1200)
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--labels", type=int, default=10, help="multilabel label count")
    parser.add_argument("--dim", type=int, default=8)
    parser.add_argument("--overlap", type=float, default=0.15)
    parser.add_argument("--ood", type=float, default=0.10)
    parser.add_argument("--json", default=None, help="also dump the raw per-seed numbers")
    args = parser.parse_args(argv)

    kwargs = dict(n_train=args.n_train, n_validation=args.n_validation,
                  n_test=args.n_test, n_classes=args.classes, dim=args.dim,
                  overlap=args.overlap, ood_fraction=args.ood)
    seeds = list(range(args.seeds))
    t0 = time.perf_counter()
    if args.task == "multiclass":
        table = run_multiclass(kwargs, seeds)
        metric = "norm RC-AUC"
    else:
        kwargs["n_labels"] = args.labels
        table = run_multilabel(kwargs, seeds)
        metric = "norm FR-AUC"
    print(f"task={args.task} seeds={seeds} overlap={args.overlap} ood={args.ood} "
          f"({time.perf_counter() - t0:.1f}s)\n")
    print_table(table, metric)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"task": args.task, "seeds": seeds, "table": table}, fh, indent=2)
        print(f"\nwrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
