#!/usr/bin/env python3
"""Paired comparison of two ``run_benchmark.py --json`` dumps of one task.

For each method in both dumps, prints the mean over the seeds both dumps
hold of the paired first-50% delta NEW - BASE (higher is better), and a
95% percentile interval of that mean from 10,000 bootstrap resamples of
the shared seeds (a fixed-seed generator, so reruns print the same
numbers).  Seed-paired deltas with a bootstrap interval follow
Bouthillier et al., "Accounting for variance in machine learning
benchmarks", MLSys 2021.  Exit codes: 0 success, 2 dumps of different
tasks or with no seed in common.

Example:
    python3 scripts/run_benchmark.py --seeds 5 --json base.json
    python3 scripts/run_benchmark.py --seeds 5 --json new.json
    python3 scripts/compare_benchmark.py base.json new.json
"""
import argparse
import json
import sys

import numpy as np

RESAMPLES = 10_000


def paired_deltas(base: dict, new: dict, shared: list) -> dict:
    """{method: first-50% deltas NEW - BASE at each of the ``shared``
    seeds}, for each method in both dumps, in BASE's order."""
    at_base = [base["seeds"].index(seed) for seed in shared]
    at_new = [new["seeds"].index(seed) for seed in shared]
    return {name: (np.asarray(new["table"][name]["first_50"])[at_new]
                   - np.asarray(spans["first_50"])[at_base])
            for name, spans in base["table"].items() if name in new["table"]}


def bootstrap_interval(deltas: np.ndarray) -> tuple:
    """2.5th and 97.5th percentiles of the mean over seed resamples."""
    rng = np.random.default_rng(0)
    picks = rng.integers(0, len(deltas), size=(RESAMPLES, len(deltas)))
    lo, hi = np.percentile(deltas[picks].mean(axis=1), [2.5, 97.5])
    return float(lo), float(hi)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="run_benchmark.py --json dump of the reference")
    parser.add_argument("new", help="run_benchmark.py --json dump to compare with it")
    args = parser.parse_args(argv)
    with open(args.base) as fh:
        base = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    if base["task"] != new["task"]:
        print(f"error: {args.base} is a {base['task']} dump and {args.new} a {new['task']} one",
              file=sys.stderr)
        return 2
    shared = [seed for seed in base["seeds"] if seed in new["seeds"]]
    if not shared:
        print("error: the dumps share no seed", file=sys.stderr)
        return 2

    deltas = paired_deltas(base, new, shared)
    print(f"task={base['task']} shared seeds={shared}: first-50% delta NEW - BASE, "
          "mean [95% seed-bootstrap interval]\n")
    name_width = max((len(name) for name in deltas), default=0)
    for name, values in deltas.items():
        lo, hi = bootstrap_interval(values)
        print(f"{name:<{name_width}}  {values.mean():+.4f} [{lo:+.4f}, {hi:+.4f}]")
    for label, dump in (("base", base), ("new", new)):
        alone = [name for name in dump["table"] if name not in deltas]
        if alone:
            print(f"\nonly in {label}: {', '.join(alone)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
