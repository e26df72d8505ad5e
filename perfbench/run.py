#!/usr/bin/env python3
"""End-to-end benchmark of the abstain CLI pipeline.

    python3 perfbench/run.py --workload mc-default --seed 1 --seconds 10 --trace 0

One client runs the five CLI commands (gen-synth, fit, score, evaluate,
report) one after another, each as a fresh interpreter, and waits for
each before starting the next (a closed loop).  gen-synth turns --seed
into the inputs and counts as set-up; the later commands see only the
generated files.  The timed pipeline repeats until --seconds have
passed (at least once), shorter commands are sampled again (see
measure), and every timing is the median of its samples.

With --trace 1 the run instead executes one untraced pipeline and then
the same commands in one interpreter with every public library function
wrapped (traced.py), and reports per-layer metrics.

Every command's exit code and outputs are checked, and scores.csv and
metrics.json must hash the same on every round and in the traced run.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it holds the environment, the sample counts
with the highest value of each timing, and the failures.  See README.md.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from traced import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
MIN_SAMPLES = 5
SAMPLE_BUDGET_S = 10.0
RUN_DEADLINE_S = 170.0

MULTICLASS_METHODS = (
    "SR", "Entropy", "Delta", "Beta", "SMP", "PV", "BALD", "MD", "RDE", "DDU", "NUQ",
    "HUQ-MD", "HUQ-RDE", "HUQ-DDU", "HUQ2-MD", "HUQ2-RDE", "HUQ2-DDU",
)
MULTILABEL_ONLY_METHODS = ("MP", "MP-mean", "MP-max")

# name -> spec overrides (full size, tiny size for smoke tests), fit and
# score method lists, evaluate modes.  Every workload evaluates on the
# first 50% of coverage.
WORKLOADS = {
    "mc-default": {
        "spec": {},
        "tiny": {"n_train": 200, "n_validation": 100, "n_test": 150},
        "fit": None,
        "methods": MULTICLASS_METHODS,
        "modes": ("instance",),
    },
    "mc-scale": {
        "spec": {"n_train": 5000, "n_test": 5000},
        "tiny": {"n_train": 300, "n_validation": 100, "n_test": 300},
        "fit": None,
        "methods": MULTICLASS_METHODS,
        "modes": ("instance",),
    },
    "ml-pairs": {
        "spec": {"task": "multilabel", "n_test": 20000, "n_labels": 20},
        "tiny": {"task": "multilabel", "n_train": 200, "n_validation": 100, "n_test": 300, "n_labels": 5},
        "fit": "md",
        "methods": ("MP", "MP-mean", "MP-max", "MD"),
        "modes": ("label", "instance"),
    },
}
PIPELINE_STEPS = ("fit", "score", "evaluate", "report")
STEPS = ("gen-synth",) + PIPELINE_STEPS
# per-layer time metrics: inclusive time of every call of the function
FUNCTION_TIMES = (
    "synth.generate", "dataio.save_dataset", "dataio.validate_manifest", "dataio.load_split",
    "dataio.save_models", "dataio.load_models", "dataio.write_scores_csv", "dataio.read_scores_csv",
    "baselines.fit_beta", "density.fit_md", "density.fit_rde", "density.fast_mcd", "density.fit_ddu",
    "density.fit_nuq", "density.score_md", "density.score_rde", "density.score_ddu", "density.score_nuq",
    "hybrid.fit_hybrid", "hybrid.score_hybrid_batch", "rejection.build_curve",
    "rejection.normalized_auc", "report.plot_curves_svg", "report.render_report",
)
COUNTERS = (
    "dataio.bytes_hashed", "dataio.models_bytes", "dataio.score_rows", "baselines.rows_scored",
    "mc.rows_scored", "density.rows_scored", "rejection.units", "report.svg_bytes",
)
# import_s, score_s, score_rows_per_s, evaluate_s and report_s are
# measured the same way but only printed in the detail line: on a shared
# host their spread over ten seeds reached 0.25 to 0.37 of the median,
# beyond the largest bound allowed.
END_TO_END_UNITS = {"setup_s": "s", "fit_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


class Run:
    """State of one benchmark run: the child environment, the deadline,
    and the tally of commands attempted and failed."""

    def __init__(self, workload, seed, size):
        self.name = workload
        self.wl = WORKLOADS[workload]
        self.seed = seed
        self.spec = dict(self.wl["tiny"] if size == "tiny" else self.wl["spec"])
        self.work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.threads = min(2, len(os.sched_getaffinity(0)))
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS=str(self.threads),
                        OMP_NUM_THREADS=str(self.threads), MKL_NUM_THREADS=str(self.threads))
        self.env.pop("ABSTAIN_THREADS", None)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failures = []

    # ------------------------------------------------------------ children

    def spawn(self, argv):
        """Run one child to completion; return (exit code, wall s, max RSS MB).
        A child still running at the run deadline is killed."""
        with open(self.work / "stderr.log", "ab") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=log)
            timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def cli(self, step, argv):
        rc, wall, rss = self.spawn([sys.executable, "-m", "abstain.cli", *map(str, argv)])
        self.check(rc == 0, f"{step} exited with {rc}")
        return wall, rss

    def check(self, ok, what):
        """Count one command attempted; record it failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def fail(self, what):
        """Mark an already counted command failed by an output check."""
        self.failures.append(what)

    # ------------------------------------------------------------ commands

    def gen_synth_argv(self, data):
        return ["gen-synth", "--spec", self.work / "spec.json", "--out", data, "--seed", self.seed]

    def pipeline_argv(self, data):
        """(step, argv) for fit, score, then evaluate + report per mode."""
        manifest = data / "manifest.json"
        fit = ["fit", "--manifest", manifest, "--out", data / "models.bin"]
        if self.wl["fit"]:
            fit += ["--methods", self.wl["fit"]]
        methods = "all" if self.wl["methods"] == MULTICLASS_METHODS else ",".join(self.wl["methods"])
        steps = [("fit", fit), ("score", self.score_argv(data, methods, data / "scores.csv"))]
        for mode in self.wl["modes"]:
            steps.append(("evaluate", ["evaluate", "--scores", data / "scores.csv", "--manifest", manifest,
                                       "--mode", mode, "--span", "first50",
                                       "--out", data / mode / "metrics.json", data / mode / "curves"]))
            steps.append(("report", ["report", "--metrics", data / mode / "metrics.json",
                                     "--out", data / mode / "report.html"]))
        return steps

    def score_argv(self, data, methods, out):
        return ["score", "--manifest", data / "manifest.json", "--models", data / "models.bin",
                "--methods", methods, "--calibrate", "validation", "--out", out]

    def setup(self, data, repeats):
        """gen-synth ``repeats`` times from scratch; every manifest must be
        byte-identical.  Returns the wall times and max RSS."""
        walls, rss, digests = [], 0.0, set()
        for _ in range(repeats):
            shutil.rmtree(data, ignore_errors=True)
            wall, peak = self.cli("gen-synth", self.gen_synth_argv(data))
            walls.append(wall)
            rss = max(rss, peak)
            if (data / "manifest.json").exists():
                digests.add(sha256(data / "manifest.json"))
        if len(digests) > 1:
            self.fail("gen-synth manifests differ between identical set-ups")
        return walls, rss

    def pipeline(self, data, steps=PIPELINE_STEPS):
        """One timed round of ``steps``: per-step wall sums, max RSS, output digests."""
        times = dict.fromkeys(steps, 0.0)
        peaks = dict.fromkeys(steps, 0.0)
        for step, argv in self.pipeline_argv(data):
            if step in steps:
                wall, rss = self.cli(step, argv)
                times[step] += wall
                peaks[step] = max(peaks[step], rss)
        return {"times": times, "peaks": peaks, "digests": self.digests(data)}

    def probe_import(self):
        rc, wall, _ = self.spawn([sys.executable, "-c", "import abstain.cli"])
        self.check(rc == 0, f"import probe exited with {rc}")
        return wall

    def digests(self, data):
        paths = [data / "scores.csv"] + [data / m / "metrics.json" for m in self.wl["modes"]]
        return [sha256(p) if p.exists() else None for p in paths]

    # ------------------------------------------------------------ output checks

    def expected_rows(self, data):
        manifest = json.loads((data / "manifest.json").read_text())
        n, labels = manifest["splits"]["test"]["n"], manifest["n_classes"]
        return {m: n * labels if m == "MP" else n for m in self.wl["methods"]}

    def check_outputs(self, data):
        """Checks of one round's files; a failed check marks its command.
        Returns the rows of scores.csv and every normalized AUC."""
        if not (data / "models.bin").is_file() or (data / "models.bin").stat().st_size == 0:
            self.fail("fit wrote no models container")
        rows, problem = check_scores(data / "scores.csv", self.expected_rows(data))
        if problem:
            self.fail(f"score: {problem}")
        aucs = []
        for mode in self.wl["modes"]:
            wanted = [m for m in self.wl["methods"] if (m == "MP") == (mode == "label")]
            values, problem = check_metrics(data / mode / "metrics.json", wanted)
            if problem:
                self.fail(f"evaluate --mode {mode}: {problem}")
            aucs += values
            html = data / mode / "report.html"
            text = html.read_text() if html.is_file() else ""
            missing = [m for m in wanted if f"<td>{m}</td>" not in text]
            if not text.startswith("<!DOCTYPE html>") or missing:
                self.fail(f"report --mode {mode}: missing {missing or 'document'}")
        return rows, aucs

    def check_same(self, reference, digests, who):
        names = ["scores.csv"] + [f"{m}/metrics.json" for m in self.wl["modes"]]
        for name, ref, got in zip(names, reference, digests):
            if ref is None or got != ref:
                self.fail(f"{who}: {name} differs from the first round")


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def check_scores(path, expected):
    """Rows per method against ``expected``, no NaN.  Returns (rows, problem)."""
    if not path.is_file():
        return 0, "no scores.csv"
    counts = dict.fromkeys(expected, 0)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["instance", "label", "method", "score"]:
            return 0, "bad scores.csv header"
        rows = 0
        for instance, label, method, score in reader:
            rows += 1
            if method not in counts or (label != "") != (method == "MP"):
                return rows, f"unexpected row for method {method!r}"
            if math.isnan(float(score)):
                return rows, f"NaN score for {method}"
            counts[method] += 1
    wrong = {m: c for m, c in counts.items() if c != expected[m]}
    return rows, (f"row counts {wrong}, expected {expected}" if wrong else None)


def check_metrics(path, methods):
    """Every method present with a non-null normalized AUC in every entry.
    Returns (normalized values, problem)."""
    if not path.is_file():
        return [], "no metrics.json"
    payload = json.loads(path.read_text())["methods"]
    values = []
    for m in methods:
        entries = payload.get(m) or {}
        got = [e.get("normalized") for e in entries.values()]
        if not got or any(v is None for v in got):
            return values, f"method {m} has no normalized AUC"
        values += got
    return values, None


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "abstain").rglob("*.py")))


def environment(run, seconds):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": run.threads,
        "workload": run.name,
        "seed": run.seed,
        "spec": run.spec,
        "seconds": seconds,
        "src_lines": src_lines(),
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def summary(samples):
    return {k: {"n": len(v), "median": statistics.median(v), "max": max(v)} for k, v in samples.items()}


def measure(run, seconds):
    """Untraced run: end-to-end metrics.

    Full rounds (an import probe and the whole pipeline) repeat until
    ``seconds`` have passed, at least once.  Then fit, the one command
    timed on its own end-to-end, runs again while it has fewer than
    MIN_SAMPLES samples adding up to less than SAMPLE_BUDGET_S: one
    sample of a command of a second or two is mostly noise."""
    data = run.work / "data"
    setup_walls, _ = run.setup(data, SETUP_REPEATS)
    samples = {f"{step}_s": [] for step in ("import",) + PIPELINE_STEPS}
    peaks = []

    def round_of(steps, probe):
        if probe:
            samples["import_s"].append(run.probe_import())
        r = run.pipeline(data, steps)
        for step, wall in r["times"].items():
            samples[f"{step}_s"].append(wall)
        peaks.append(max(r["peaks"].values(), default=0.0))
        return r

    start = time.perf_counter()
    rounds = [round_of(PIPELINE_STEPS, True)]
    rows, aucs = run.check_outputs(data)
    while time.perf_counter() - start < seconds:
        rounds.append(round_of(PIPELINE_STEPS, True))
    pipelines = [sum(r["times"].values()) for r in rounds]

    fits = samples["fit_s"]
    while len(fits) < MIN_SAMPLES and len(fits) * statistics.median(fits) < SAMPLE_BUDGET_S:
        rounds.append(round_of(("fit",), False))
    for i, r in enumerate(rounds[1:], start=1):
        run.check_same(rounds[0]["digests"], r["digests"], f"round {i}")

    samples = {"setup_s": setup_walls, **samples, "pipeline_s": pipelines}
    values = {k: statistics.median(v) for k, v in samples.items()}
    values["peak_rss_mb"] = max(peaks)
    metrics = {k: metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    return metrics, {"samples": summary(samples), "score_rows_per_s": rows / values["score_s"],
                     "norm_auc_mean": statistics.fmean(aucs) if aucs else None}


def trace(run):
    """One untraced pipeline, then the traced one: per-layer metrics."""
    data, traced = run.work / "data", run.work / "traced"
    (setup_wall,), setup_rss = run.setup(data, 1)
    untraced = run.pipeline(data)
    run.check_outputs(data)

    plan = {
        "steps": [["gen-synth", list(map(str, run.gen_synth_argv(traced)))]]
        + [[s, list(map(str, a))] for s, a in run.pipeline_argv(traced)],
        "methods": [[m, list(map(str, run.score_argv(traced, m, run.work / "method.csv")))]
                    for m in run.wl["methods"]],
    }
    (run.work / "plan.json").write_text(json.dumps(plan))
    result_path = run.work / "trace.json"
    rc, _, _ = run.spawn([sys.executable, str(HERE / "traced.py"), str(run.work / "plan.json"), str(result_path)])
    if rc != 0 or not result_path.is_file():
        run.check(False, f"traced run exited with {rc}")
        return None, {}
    result = json.loads(result_path.read_text())
    for s in result["steps"]:
        run.check(s["rc"] == 0, f"traced {s['step']} exited with {s['rc']}")
    run.check_same(untraced["digests"], run.digests(traced), "traced run")
    for x in result["methods"]:
        run.check(x["rc"] == 0, f"traced score --methods {x['method']} exited with {x['rc']}")

    records, counters, steps = result["records"], result["counters"], result["steps"]

    def total(key, layer=None, fn=None, parent=None):
        return sum((r[key] for r in records if (layer is None or r["layer"] == layer)
                    and (fn is None or r["fn"] == fn) and (parent is None or r["parent"] == parent)),
                   0.0 if key.endswith("_s") else 0)

    m = {"cli.import_s": metric(result["import_s"], "s")}
    for step in STEPS:
        m[f"cli.{step}.self_s"] = metric(sum(s["cli_self_s"] for s in steps if s["step"] == step), "s")
    m["gen-synth.wall_s"] = metric(setup_wall, "s")
    m["gen-synth.peak_rss_mb"] = metric(setup_rss, "MB")
    for step in PIPELINE_STEPS:
        m[f"{step}.wall_s"] = metric(untraced["times"][step], "s")
        m[f"{step}.peak_rss_mb"] = metric(untraced["peaks"][step], "MB")
    for name in FUNCTION_TIMES:
        layer, fn = name.split(".")
        m[f"{name}_s"] = metric(total("incl_s", layer, fn), "s")
    for layer in ("baselines", "mc"):
        m[f"{layer}.score_s"] = metric(sum((r["incl_s"] for r in records if r["layer"] == layer
                                            and r["fn"].startswith("score_")), 0.0), "s")
    for name in COUNTERS:
        m[name] = metric(counters.get(name, 0), "B" if name.endswith("bytes") or name.endswith("hashed")
                         else "count")
    rows = counters.get("density.rows_scored", 0)
    m["density.useful_ratio"] = metric(counters["density.unique_rows"] / rows if rows else 0.0, "ratio")
    m["hybrid.grid_evals"] = metric(total("calls", "hybrid", "score_hybrid_batch", "fit_hybrid"), "count")
    m["core.rank_all_calls"] = metric(total("calls", "core", "rank_all"), "count")
    m["rejection.build_curve_calls"] = metric(total("calls", "rejection", "build_curve"), "count")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(total("self_s", layer), "s")
    per_method = {x["method"]: x["wall_s"] for x in result["methods"]}
    for method in MULTICLASS_METHODS + MULTILABEL_ONLY_METHODS:
        m[f"score.method.{method}_s"] = metric(per_method.get(method, 0.0), "s")
    traced_pipeline = sum(s["wall_s"] for s in steps if s["step"] in PIPELINE_STEPS)
    m["trace.overhead_s"] = metric(traced_pipeline - sum(untraced["times"].values()), "s")
    detail = {"bindings_patched": result["bindings"], "density_unique_rows": counters["density.unique_rows"],
              "steps": [{k: s[k] for k in ("step", "wall_s", "cli_self_s", "layer_self_s")} for s in steps]}
    return m, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every split, for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "abstain" / "cli.py").is_file():
        print(f"no abstain sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.size)
    # SIGTERM unwinds like an exception: the running child is killed and
    # the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        (run.work / "spec.json").write_text(json.dumps(run.spec))
        rc, _, _ = run.spawn([sys.executable, "-c", "import abstain.cli"])  # also compiles bytecode
        if rc != 0:
            print(f"importing abstain.cli failed with exit code {rc}", file=sys.stderr)
            return 2
        if args.trace:
            metrics, detail = trace(run)
        else:
            metrics, detail = measure(run, args.seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
        if run.work.parent.is_dir() and not any(run.work.parent.iterdir()):
            run.work.parent.rmdir()
    if metrics is None:
        print(f"traced run failed: {run.failures}", file=sys.stderr)
        return 2
    failed = min(len(run.failures), run.attempted)
    print(json.dumps({"detail": {
        "environment": environment(run, args.seconds), "ops_failed_frac": failed / run.attempted,
        "failures": run.failures, **detail}}))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
