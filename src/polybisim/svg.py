"""Deterministic SVG rendering of 2-D partitions and highlight regions.

Each cell is drawn from its exact vertices, the integer (X, M) pairs,
the point X / M with M > 0, that ``geometry`` caches for every bounded
cell, ordered by angle around their centroid.  Floats appear only in the
final coordinate formatting, as X_j / M: Python's int / int is correctly
rounded, as ``float(Fraction)`` is, so identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .abstraction import Partition
from .geometry import Cell, Region, _vertices, bounding_box

_FILL_BY_OBS = {
    "PI_D": "#c8a165",
    "EMPTY": "#f5e6a8",
}
_REGION_FILL = "#9fd49b"
_HIGHLIGHT_FILL = "#9b6bbf"
_SIZE = 640


def cell_vertices(cell: Cell) -> list[tuple[tuple[int, int], int]]:
    """Exact vertices (X, M) of the closure of a bounded 2-D cell, the
    points X / M, in hull order."""
    if cell.dim != 2:
        raise ValueError("vertex enumeration is implemented for n=2 only")
    verts = _vertices(cell)
    if verts is None:
        raise ValueError("cannot draw an unbounded cell")
    pts = [(x, m) for x, m, _ in verts]
    if len(pts) <= 2:
        return pts
    # the angle of p - c for the centroid c, from p - c times an integer
    # d > 0: int / int rounds as float(Fraction) does, so the order is the
    # one the Fractions give
    k = len(pts)
    d = math.lcm(*(m for _, m in pts))
    scaled = [tuple(v * (d // m) for v in x) for x, m in pts]
    cx, cy = (sum(col) for col in zip(*scaled))
    d *= k
    angle = [math.atan2((k * y - cy) / d, (k * x - cx) / d) for x, y in scaled]
    return [pts[i] for i in sorted(range(k), key=angle.__getitem__)]


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _polygon(points, fill: str, stroke: str, opacity: str = "1.0") -> str:
    # y is negated as an int: -(0 / m) is the float -0.0, printed "-0.0000"
    coords = " ".join(
        f"{_fmt(x / m)},{_fmt(-y / m)}" for (x, y), m in points
    )
    return (
        f'<polygon points="{coords}" fill="{fill}" fill-opacity="{opacity}" '
        f'stroke="{stroke}" stroke-width="0.03"/>'
    )


def render_partition_svg(
    partition: Partition, highlight: Optional[Region] = None
) -> str:
    """Partition blocks colored by observation, highlight filled on top."""
    if partition.dim != 2:
        raise ValueError("SVG export supports 2-D problems only")
    box = bounding_box(partition.x_cell)
    (xlo, xhi), (ylo, yhi) = box
    pad = max(xhi - xlo, yhi - ylo) / Fraction(20)
    vx = float(xlo - pad)
    vy = float(-(yhi + pad))
    vw = float(xhi - xlo + 2 * pad)
    vh = float(yhi - ylo + 2 * pad)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" '
        f'height="{_SIZE}" viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
    ]
    for b in partition.ordered_blocks():
        pts = cell_vertices(b.cell)
        if len(pts) < 3:
            continue  # lower-dimensional sliver, invisible at fill scale
        fill = _FILL_BY_OBS.get(b.observation.label, _REGION_FILL)
        lines.append(_polygon(pts, fill, "#555555"))
    if highlight is not None:
        for cell in highlight.cells:
            pts = cell_vertices(cell)
            if len(pts) < 3:
                continue
            lines.append(_polygon(pts, _HIGHLIGHT_FILL, "#3d2a52", "0.85"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def write_svg(path, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
