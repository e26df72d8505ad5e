"""Static HTML/SVG rendering of evaluation results.

Everything is emitted from plain string templates so two runs over the
same metrics produce identical bytes.  Only the plotting functions use
numpy, and each imports it, so ``render_report`` runs without it.
"""
from __future__ import annotations

import html
import json
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:
    import numpy as np

PALETTE = (
    "#4363d8", "#e6194b", "#3cb44b", "#f58231", "#911eb4",
    "#46f0f0", "#808000", "#000075", "#9a6324", "#f032e6",
    "#469990", "#800000", "#aaffc3", "#ffe119", "#a9a9a9",
    "#fabebe", "#008080",
)

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 58, 16, 24, 42
_IW, _IH = _W - _ML - _MR, _H - _MT - _MB   # plot area; one pixel column per unit of width
_X_LO, _X_HI = 0.0, 1.0                       # the coverage axis
_BLOCK = 1 << 13                              # points whose coverages and pixel columns are made at once


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _m4(columns: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Ascending indices of the first, last, lowest and highest point of
    every run of consecutive points in one pixel column.  This is M4
    aggregation (Jugel et al., VLDB 2014): the polyline through these
    points draws the same pixels as the one through every point.  Run
    ids are int16 (at most _IW runs); np.unique would import numpy.ma."""
    import numpy as np
    starts = np.flatnonzero(np.r_[True, columns[1:] != columns[:-1]])
    ends = np.r_[starts[1:], columns.size] - 1
    run = np.repeat(np.arange(starts.size, dtype=np.int16), ends - starts + 1)
    order = np.lexsort((values, run))   # by run, then value; ties keep index order
    return np.array(sorted({*np.concatenate((starts, ends, order[starts], order[ends])).tolist()}))


def _px(x):
    """Horizontal pixel of coverage ``x``: the axis is reversed."""
    return _ML + (_X_HI - x) / (_X_HI - _X_LO) * _IW


def plot_points(xs, vs) -> Tuple[np.ndarray, np.ndarray]:
    """The points of a curve, values ``vs`` at coverages ``xs`` (an int n for
    ``rejection.coverages(n)``), that :func:`plot_curves_svg` draws: every
    point, or for a curve with more points than the plot has pixel columns,
    the points :func:`_m4` keeps, found a _BLOCK at a time and then among
    the points the blocks keep.  Its pixel columns depend on ``xs`` alone,
    so a curve reduced first plots to the same bytes: M4 keeps each column's
    lowest and highest value, and applied to its own output it keeps every point."""
    import numpy as np
    vs = np.asarray(vs, dtype=float)
    at = (lambda k: (xs - k) / xs) if np.ndim(xs) == 0 else np.asarray(xs, dtype=float).__getitem__
    if vs.size <= _IW:
        return at(np.arange(vs.size)), vs

    def m4(k):   # the indices of ``k`` that M4 keeps
        return k[_m4(np.clip(np.floor(_px(at(k)) - _ML), 0, _IW - 1).astype(np.int16), vs[k])]
    keep = m4(np.concatenate([m4(np.arange(i, min(i + _BLOCK, vs.size))) for i in range(0, vs.size, _BLOCK)]))
    return at(keep), vs[keep]


def plot_curves_svg(
    curves: Dict[str, Tuple[np.ndarray, np.ndarray]],
    title: str,
    ylabel: str,
) -> str:
    """Line plot of metric-vs-coverage curves; coverage axis reversed
    so reading left to right follows increasing rejection.  Each curve is
    drawn through its :func:`plot_points`."""
    import numpy as np
    curves = {name: plot_points(xs, vs) for name, (xs, vs) in sorted(curves.items())}
    filled = [vs for _, vs in curves.values() if vs.size]
    y_lo = float(np.min([vs.min() for vs in filled])) if filled else 0.0
    y_hi = float(np.max([vs.max() for vs in filled])) if filled else 1.0
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 0.05, y_hi + 0.05
    pad = 0.04 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    def py(y):
        return _MT + (y_hi - y) / (y_hi - y_lo) * _IH

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_W} {_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="15" text-anchor="middle" font-size="14">{html.escape(title)}</text>',
    ]
    for t in _ticks(_X_LO, _X_HI):
        x = _px(t)
        parts.append(
            f'<line x1="{x:.2f}" y1="{_MT}" x2="{x:.2f}" y2="{_H - _MB}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{_H - _MB + 16}" text-anchor="middle">{t:.2f}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" stroke="#ddd"/>'
        )
        parts.append(
            f'<text x="{_ML - 6}" y="{y + 4:.2f}" text-anchor="end">{t:.3f}</text>'
        )
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_IW}" height="{_IH}" fill="none" stroke="#444"/>'
    )
    parts.append(
        f'<text x="{_ML + _IW / 2:.1f}" y="{_H - 8}" text-anchor="middle">coverage</text>'
    )
    parts.append(
        f'<text x="14" y="{_MT + _IH / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MT + _IH / 2:.1f})">{html.escape(ylabel)}</text>'
    )
    legend_y = _MT + 10
    for i, (name, (xs, vs)) in enumerate(curves.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join([f"{x:.2f},{y:.2f}" for x, y in zip(_px(xs).tolist(), py(vs).tolist())])
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        parts.append(
            f'<line x1="{_ML + 8}" y1="{legend_y:.1f}" x2="{_ML + 28}" y2="{legend_y:.1f}" '
            f'stroke="{color}" stroke-width="3"/>'
        )
        parts.append(f'<text x="{_ML + 33}" y="{legend_y + 4:.1f}">{html.escape(name)}</text>')
        legend_y += 15
    parts.append("</svg>")
    return "\n".join(parts)


def _fmt(entry: dict) -> str:
    # evaluate writes a null normalized area, flagged, when a split holds no errors
    if entry["normalized"] is None:
        return "degenerate" if entry.get("flag") else "-"
    return f"{entry['normalized']:.4f}"


def render_report(metrics: dict, curves_dir, out_path) -> None:
    """Comparison table (best bold, runners-up underlined) plus any SVG
    curve plots found next to the metrics file."""
    out_path = Path(out_path)
    methods = metrics.get("methods", {})
    metric_names = sorted({m for entry in methods.values() for m in entry})
    ranking: Dict[str, List[str]] = {}
    for metric in metric_names:
        vals = [
            (name, entry[metric]["normalized"])
            for name, entry in methods.items()
            if metric in entry and isinstance(entry[metric]["normalized"], (int, float))
        ]
        vals.sort(key=lambda kv: (-kv[1], kv[0]))
        ranking[metric] = [name for name, _ in vals]

    rows = []
    for name in sorted(methods):
        cells = [f"<td>{html.escape(name)}</td>"]
        for metric in metric_names:
            entry = methods[name].get(metric)
            if entry is None:
                cells.append("<td>-</td>")
                continue
            text = _fmt(entry)
            order = ranking[metric]
            if order and order[0] == name:
                text = f"<b>{text}</b>"
            elif name in order[1:4]:
                text = f"<u>{text}</u>"
            cells.append(f"<td>{text}</td>")
        rows.append("<tr>" + "".join(cells) + "</tr>")

    svg_blocks = []
    curves_dir = Path(curves_dir) if curves_dir else None
    if curves_dir and curves_dir.is_dir():
        for svg in sorted(curves_dir.glob("*.svg")):
            svg_blocks.append(svg.read_text())

    header_cells = "".join(
        f"<th>normalized AUC ({html.escape(m)})</th>" for m in metric_names
    )
    meta = {k: v for k, v in metrics.items() if k != "methods"}
    doc = f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>selective-prediction report</title>
<style>
body {{ font-family: sans-serif; margin: 2em; color: #222; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
td, th {{ border: 1px solid #999; padding: 4px 10px; text-align: right; }}
th {{ background: #eee; }}
td:first-child {{ text-align: left; }}
</style></head><body>
<h1>Selective-prediction comparison</h1>
<p>run context: <code>{html.escape(json.dumps(meta, sort_keys=True))}</code></p>
<p>Rescaled areas under the rejection curves: 1 is the oracle ordering,
0 matches random rejection. Best per column in bold, next three underlined.</p>
<table>
<tr><th>method</th>{header_cells}</tr>
{chr(10).join(rows)}
</table>
{chr(10).join(svg_blocks)}
</body></html>
"""
    out_path.write_text(doc)
