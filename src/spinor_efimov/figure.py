"""Dependency-free SVG rendering of sweep tables.

Imaginary root curves are drawn solid, real ones dashed.  Endpoint
markers carry data-* attributes with the exact endpoint values so the
figure stays machine-checkable.  Output is a pure function of the table,
hence byte-identical across runs of the same configuration.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

from .hyperangular import SweepTable

_WIDTH, _HEIGHT = 720, 480
_LEFT, _RIGHT, _TOP, _BOTTOM = 72, 24, 44, 58
_COLORS = ("#1f6feb", "#d1242f", "#1a7f37", "#8250df", "#bf3989", "#9a6700")


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def sweep_figure(table: SweepTable) -> tuple[str, list[str]]:
    """Render a sweep table; returns (svg text, warnings)."""
    warnings: list[str] = []
    is_theta = table.kind == "theta"

    def x_of(row_theta, row_radius):
        return row_theta if is_theta else math.log10(row_radius)

    roots = table.roots
    filled = set(roots.point.tolist())
    xs = [x_of(theta, radius)
          for theta, radius in zip(table.thetas, table.radii)]
    for q, (theta, radius) in enumerate(zip(table.thetas, table.radii)):
        if q not in filled:
            warnings.append(
                f"empty root list at "
                f"{'theta=' + _fmt(theta) if is_theta else 'R=' + _fmt(radius)}"
                "; row skipped in figure")
    shown = [xs[q] for q in filled]
    if not shown:
        raise ValueError("nothing to draw: every sweep row is empty")

    x_lo, x_hi = min(shown), max(shown)
    y_lo, y_hi = 0.0, max(roots.value.tolist()) * 1.08

    # px and py take floats or arrays, with the same arithmetic either way
    def px(x):
        return _LEFT + (x - x_lo) / (x_hi - x_lo or 1.0) * (_WIDTH - _LEFT - _RIGHT)

    def py(y):
        return _HEIGHT - _BOTTOM - (y - y_lo) / (y_hi - y_lo or 1.0) \
            * (_HEIGHT - _TOP - _BOTTOM)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    # axes and ticks
    ax = (f'M {px(x_lo):.2f} {py(y_lo):.2f} H {px(x_hi):.2f} '
          f'M {px(x_lo):.2f} {py(y_lo):.2f} V {py(y_hi):.2f}')
    parts.append(f'<path d="{ax}" stroke="black" fill="none" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<line x1="{px(t):.2f}" y1="{py(y_lo):.2f}" x2="{px(t):.2f}" '
            f'y2="{py(y_lo) + 5:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{px(t):.2f}" y="{py(y_lo) + 20:.2f}" font-size="12" '
            f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<line x1="{px(x_lo) - 5:.2f}" y1="{py(t):.2f}" '
            f'x2="{px(x_lo):.2f}" y2="{py(t):.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{px(x_lo) - 9:.2f}" y="{py(t) + 4:.2f}" font-size="12" '
            f'text-anchor="end">{_fmt(t)}</text>')
    x_label = "mixing angle theta (rad)" if is_theta else "log10 R"
    parts.append(
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.2f}" y="{_HEIGHT - 16}" '
        f'font-size="14" text-anchor="middle">{x_label}</text>')
    parts.append(
        f'<text x="18" y="{(_TOP + _HEIGHT - _BOTTOM) / 2:.2f}" font-size="14" '
        f'text-anchor="middle" transform="rotate(-90 18 '
        f'{(_TOP + _HEIGHT - _BOTTOM) / 2:.2f})">channel exponent |s|</text>')
    window = ", ".join(f"{k}={v}" for k, v in table.window.items())
    parts.append(
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.2f}" y="24" font-size="14" '
        f'text-anchor="middle">root curves ({window})</text>')

    # curves, imaginary solid / real dashed, each polyline's pixels from
    # the pixels of the points and of the root values
    point_px, root_py = px(np.array(xs)), py(roots.value)
    point, values = roots.point.tolist(), roots.value.tolist()
    for axis, dash in (("imaginary", ""), ("real", ' stroke-dasharray="6 4"')):
        curves = table.curve_rows(axis)
        # slots per curve end: the slots of one root share its row
        ends = Counter((side, int(rows[side])) for rows in curves.values()
                       for side in (0, -1))
        for cid, rows in curves.items():
            if rows.size < 2:
                continue
            xy = np.column_stack((point_px[roots.point[rows]], root_py[rows]))
            coords = " ".join(["%.2f,%.2f"] * rows.size) % tuple(
                xy.ravel().tolist())
            color = _COLORS[cid % len(_COLORS)] if axis == "imaginary" else "#57606a"
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"{dash}/>')
            if axis == "imaginary":
                for side in (0, -1):
                    i = int(rows[side])
                    q, v = point[i], values[i]
                    th, rr = table.thetas[q], table.radii[q]
                    anchor = th if is_theta else rr
                    x = x_of(th, rr)
                    mult = ends[side, i]
                    key = "data-theta" if is_theta else "data-radius"
                    parts.append(
                        f'<circle cx="{px(x):.2f}" cy="{py(v):.2f}" r="3" '
                        f'fill="{color}" {key}="{anchor!r}" '
                        f'data-kappa="{v!r}" data-multiplicity="{mult}"/>')
    # endpoint value annotations on the first and last rows
    for q, anchor in ((0, "start"), (len(table.thetas) - 1, "end")):
        at = (roots.point == q) & ~roots.real
        for value, mult in zip(roots.value[at].tolist(),
                               roots.multiplicity[at].tolist()):
            x = x_of(table.thetas[q], table.radii[q])
            label = f"|s|={value:.5f} (x{mult})"
            align = "start" if anchor == "start" else "end"
            parts.append(
                f'<text x="{px(x) + (6 if anchor == "start" else -6):.2f}" '
                f'y="{py(value) - 7:.2f}" font-size="11" '
                f'text-anchor="{align}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n", warnings
