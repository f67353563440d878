"""Deterministic SVG rendering of 2-D partitions and highlight regions.

Vertices of each cell's closure are enumerated exactly (pairwise
constraint intersection plus feasibility filtering); floats appear only
in the final coordinate formatting, so identical inputs always produce
byte-identical files.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional

from .abstraction import Partition
from .geometry import Cell, Region, bounding_box, contains_point

_FILL_BY_OBS = {
    "PI_D": "#c8a165",
    "EMPTY": "#f5e6a8",
}
_REGION_FILL = "#9fd49b"
_HIGHLIGHT_FILL = "#9b6bbf"


def cell_vertices(cell: Cell) -> list[tuple[Fraction, Fraction]]:
    """Exact vertices of the closure of a 2-D cell, in hull order."""
    if cell.dim != 2:
        raise ValueError("vertex enumeration is implemented for n=2 only")
    closed = cell.closure()
    cons = closed.constraints
    points = set()
    for i in range(len(cons)):
        for j in range(i + 1, len(cons)):
            (a1, b1), c1 = cons[i].normal, cons[i].offset
            (a2, b2), c2 = cons[j].normal, cons[j].offset
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if contains_point(closed, (x, y)):
                points.add((x, y))
    pts = list(points)
    if len(pts) > 2:
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        pts.sort(key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))
    else:
        pts.sort()
    return pts


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _polygon(points, fill: str, stroke: str, opacity: str = "1.0") -> str:
    coords = " ".join(f"{_fmt(float(x))},{_fmt(float(-y))}" for x, y in points)
    return (
        f'<polygon points="{coords}" fill="{fill}" fill-opacity="{opacity}" '
        f'stroke="{stroke}" stroke-width="0.03"/>'
    )


def render_partition_svg(
    partition: Partition,
    highlight: Optional[Region] = None,
    size: int = 640,
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="{_fmt(vx)} {_fmt(vy)} {_fmt(vw)} {_fmt(vh)}">',
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
