"""SVG curve plots: M4 decimation at pair scale, exact drawing below it,
and byte-identical reruns of evaluate and report."""
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstain.cli import main
from abstain.report import plot_curves_svg, plot_points
from abstain.synth import SynthSpec

COLUMNS = 566           # pixel columns of the plot area: 640 wide less 58 + 16 margins
LEFT, TOP, HEIGHT = 58, 24, 354


def polyline_points(svg):
    return [points.split(" ") for points in re.findall(r'<polyline points="([^"]*)"', svg)]


def random_walk_curve(n, seed):
    rng = np.random.default_rng(seed)
    return (n - np.arange(n)) / n, 0.5 + np.cumsum(rng.standard_normal(n)) / np.sqrt(n)


def test_decimated_polyline_keeps_each_columns_first_last_min_and_max():
    curves = {"a": random_walk_curve(400_000, 0), "b": random_walk_curve(3_000, 1)}
    svg = plot_curves_svg(curves, "risk vs coverage", "risk")
    values = np.concatenate([vs for _, vs in curves.values()])
    pad = 0.04 * (values.max() - values.min())
    y_lo, y_hi = values.min() - pad, values.max() + pad
    for (xs, vs), drawn in zip(curves.values(), polyline_points(svg)):
        px = LEFT + (1.0 - xs) * COLUMNS
        py = TOP + (y_hi - vs) / (y_hi - y_lo) * HEIGHT
        text = [f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist())]
        column = np.clip(np.floor(px - LEFT), 0, COLUMNS - 1)
        required = set()
        for c in np.unique(column):
            idx = np.flatnonzero(column == c)
            required |= {idx[0], idx[-1], idx[np.argmin(vs[idx])], idx[np.argmax(vs[idx])]}
        kept = iter(text)
        assert all(point in kept for point in drawn), "drawn points are the curve's, in order"
        assert {text[i] for i in required} <= set(drawn)
        assert len(drawn) <= 4 * COLUMNS


def test_curve_within_the_pixel_columns_is_drawn_point_for_point():
    # pinned bytes of the undecimated drawing: every point, formatted one by one
    n = COLUMNS
    xs, vs = (n - np.arange(n)) / n, 0.3 + 0.1 * np.sin(np.arange(n) / 17.0)
    for curve in ((xs, vs), (xs.tolist(), vs.tolist())):
        svg = plot_curves_svg({"B": curve, "A": ([1.0, 0.5], [0.2, 0.25])}, "risk vs coverage", "risk")
        assert hashlib.sha256(svg.encode()).hexdigest() == (
            "546f92878b50cfc1bdb9f90c5b1b4820ab8bc54143d311b5f1493c49efdecf19")
        assert [len(points) for points in polyline_points(svg)] == [2, n]


def tied_curve(n, seed, still, grid):
    """A curve of up to ``n`` points: coverages (n - k)/n on ``grid``, else
    random ones, strictly decreasing; values a walk that stands still with
    probability ``still``, on a lattice, so values tie and hold in runs."""
    rng = np.random.default_rng(seed)
    xs = (n - np.arange(n)) / n if grid else np.unique(rng.uniform(1e-3, 1.0, n))[::-1]
    steps = rng.integers(-1, 2, xs.size) * (rng.random(xs.size) >= still)
    return xs, np.cumsum(steps) / 16.0


@given(n=st.integers(1, 20 * COLUMNS), seed=st.integers(0, 2**32 - 1), still=st.floats(0.0, 1.0),
       grid=st.booleans(), second=st.integers(1, 3 * COLUMNS))
@settings(max_examples=60, deadline=None)
def test_plot_of_the_reduced_points_is_byte_identical(n, seed, still, grid, second):
    """Strictly decreasing coverages, 1 to 20 plot widths of points and
    values with ties and constant runs: plot_curves_svg gives the same bytes
    from each curve's plot_points as from all its points, and plot_points of
    its own output keeps every point."""
    curves = {"a": tied_curve(n, seed, still, grid), "b": tied_curve(second, seed + 1, still, not grid)}
    reduced = {name: plot_points(*curve) for name, curve in curves.items()}
    for xs, vs in reduced.values():
        again = plot_points(xs, vs)
        assert np.array_equal(again[0], xs) and np.array_equal(again[1], vs)
    assert plot_curves_svg(reduced, "t", "y") == plot_curves_svg(curves, "t", "y")


def test_pair_scale_curve_plot_stays_small():
    svg = plot_curves_svg({"MP": random_walk_curve(400_000, 2)}, "accuracy vs coverage", "accuracy")
    assert len(svg.encode()) < 100_000


def test_evaluate_and_report_reruns_are_byte_identical(tmp_path):
    # 1000 x 5 label pairs: more than four points per pixel column
    spec = tmp_path / "spec.json"
    spec.write_text(SynthSpec(seed=7, task="multilabel", n_labels=5, n_train=120, n_validation=60,
                              n_test=1000, n_classes=3, dim=4, mc_passes=2).to_json())
    manifest = tmp_path / "ds" / "manifest.json"
    assert main(["gen-synth", "--spec", str(spec), "--out", str(tmp_path / "ds")]) == 0
    assert main(["score", "--manifest", str(manifest), "--methods", "MP",
                 "--out", str(tmp_path / "s.csv")]) == 0
    outputs = []
    for run in ("a", "b"):
        out = tmp_path / run
        assert main(["evaluate", "--scores", str(tmp_path / "s.csv"), "--manifest", str(manifest),
                     "--mode", "label", "--out", str(out / "m.json"), str(out / "curves")]) == 0
        assert main(["report", "--metrics", str(out / "m.json"), "--out", str(out / "r.html")]) == 0
        outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
    assert outputs[0] == outputs[1]
    svg = outputs[0][next(p for p in outputs[0] if p.name == "accuracy_curves.svg")].decode()
    assert len(polyline_points(svg)[0]) <= 4 * COLUMNS < 5000


@pytest.mark.parametrize("curves", [{}, {"flat": ([1.0, 0.5], [0.3, 0.3])}])
def test_degenerate_plots_render(curves):
    assert plot_curves_svg(curves, "t", "y").endswith("</svg>")
