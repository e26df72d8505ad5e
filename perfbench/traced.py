"""Traced run: execute the benchmark's CLI commands in one interpreter
through ``abstain.cli.main``, with every public function of the library
layers wrapped from outside.

Usage (run.py starts it):

    python3 perfbench/traced.py PLAN.json RESULT.json

PLAN.json holds ``{"steps": [[step, argv], ...], "methods": [[method,
argv], ...]}``.  Steps run first and feed the layer table; each method
entry is one ``score --methods <M>`` whose wall time is reported on its
own.  RESULT.json receives the import time, one record per step (wall
time, the part no wrapped call covers, and per-layer self time), the
per-function table and the per-method times.

Wrapping happens after import and leaves every output byte unchanged;
run.py checks that by hashing what the traced commands write.
"""
from __future__ import annotations

import functools
import inspect
import io
import json
import os
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

LAYERS = ("synth", "dataio", "baselines", "mc", "density", "hybrid", "rejection", "report", "core")
# Rank of one row in the first argument of each layer's score_* functions:
# a probability vector or embedding is 1-D, a stochastic-pass tensor 2-D.
# A larger rank means a batch of rows along axis 0.
ROW_RANK = {"baselines": 1, "density": 1, "mc": 2}


class Tracer:
    """Wraps functions and aggregates their calls per step.

    Every call is timed, but no span is kept per call: calls are summed
    into one record per (step, layer, function, calling function), so the
    ~17k per-row scorer calls of a score step cost a dict update each.
    A record's self time is its calls' time minus the time of wrapped
    calls made inside them.
    """

    def __init__(self):
        self.step = None         # index of the running step
        self.stack = []          # one [function name, time in wrapped children] per active call
        self.records = {}        # (step, layer, fn, parent) -> [calls, incl_s, self_s, rows]
        self.counters = {}
        self.density_rows = set()

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, layer, fn):
        import numpy as np  # loaded by the package already; kept out of the import timing

        name = fn.__name__
        counter = _counter(layer, name)
        rank = ROW_RANK.get(layer) if name.startswith("score_") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1]
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.stack.pop()
                parent[1] += dt
                key = (self.step, layer, name, parent[0])
                rec = self.records.get(key)
                if rec is None:
                    rec = self.records[key] = [0, 0.0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
            if rank is not None:
                rows = np.atleast_2d(np.asarray(args[0], dtype=float)) if rank == 1 else np.asarray(args[0])
                n = 1 if rows.ndim <= rank else rows.shape[0]
                rec[3] += n
                self.count(f"{layer}.rows_scored", n)
                if layer == "density":
                    self.density_rows.update((name, r.tobytes()) for r in rows)
            if counter is not None:
                self.count(counter[0], counter[1](args, result))
            return result

        return wrapper

    def run_step(self, step, fn):
        """Run ``fn()`` as top-level step number ``step``; return
        (value, wall time, time covered by wrapped calls)."""
        self.step = step
        frame = ["cli", 0.0]
        self.stack = [frame]
        t0 = time.perf_counter()
        try:
            value = fn()
        finally:
            wall = time.perf_counter() - t0
            self.stack = []
            self.step = None
        return value, wall, frame[1]


def _counter(layer, name):
    """(counter name, amount from (args, result)) for functions whose work
    is counted in bytes or rows handled, else None."""
    return {
        ("dataio", "sha256_file"): ("dataio.bytes_hashed", lambda a, r: os.path.getsize(a[0])),
        ("dataio", "save_models"): ("dataio.models_bytes", lambda a, r: os.path.getsize(a[0])),
        ("dataio", "write_scores_csv"): ("dataio.score_rows", lambda a, r: len(a[1])),
        ("rejection", "build_curve"): ("rejection.units", lambda a, r: len(a[0])),
        ("report", "plot_curves_svg"): ("report.svg_bytes", lambda a, r: len(r.encode())),
    }.get((layer, name))


def install(tracer, package):
    """Wrap every public module-level function of each layer and rebind it
    wherever any module of ``package`` holds it, e.g. the names ``cli``
    imports from ``dataio`` and ``hybrid`` imports from ``core``.
    Returns the number of bindings replaced."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == package or name.startswith(package + "."))]
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"{package}.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped[id(obj)] = (obj, tracer.wrap(layer, obj))
    bound = 0
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            hit = wrapped.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
                bound += 1
    return bound


def _call(main, argv):
    with redirect_stdout(io.StringIO()):
        try:
            return main(argv)
        except Exception as exc:  # a crash counts as a failed command, the run goes on
            print(f"traced {argv[0]} raised {exc!r}", file=sys.stderr)
            return -1


def main(plan_path, out_path):
    plan = json.loads(Path(plan_path).read_text())
    t0 = time.perf_counter()
    import abstain.cli as cli
    import_s = time.perf_counter() - t0

    tracer = Tracer()
    bindings = install(tracer, "abstain")
    steps = []
    for i, (step, argv) in enumerate(plan["steps"]):
        rc, wall, covered = tracer.run_step(i, lambda: _call(cli.main, argv))
        layers = {}
        for (s, layer, _, _), rec in tracer.records.items():
            if s == i:
                layers[layer] = layers.get(layer, 0.0) + rec[2]
        steps.append({"step": step, "rc": rc, "wall_s": wall,
                      "cli_self_s": wall - covered, "layer_self_s": layers})
    records = [{"step": steps[k[0]]["step"], "layer": k[1], "fn": k[2], "parent": k[3],
                "calls": v[0], "incl_s": v[1], "self_s": v[2], "rows": v[3]}
               for k, v in tracer.records.items()]
    counters = dict(tracer.counters)
    counters["density.unique_rows"] = len(tracer.density_rows)

    methods = []
    for i, (method, argv) in enumerate(plan["methods"], start=len(steps)):
        rc, wall, _ = tracer.run_step(i, lambda: _call(cli.main, argv))
        methods.append({"method": method, "rc": rc, "wall_s": wall})

    Path(out_path).write_text(json.dumps({
        "import_s": import_s, "bindings": bindings, "steps": steps, "records": records,
        "counters": counters, "methods": methods,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
