"""Exact algebra of partially-open polytopes and their finite unions.

A Cell is a conjunction of affine constraints, each flagged strict or
non-strict, so open facets are first-class.  A Region is a finite union of
pairwise-disjoint Cells.  Every predicate (emptiness, membership,
redundancy) is decided exactly with rational arithmetic; there are no
tolerances anywhere in this module.

Both refinements cut with ``split(cell, region)``: the parts of a cell
inside and outside a disjoint region, each intersection decided once.

Point membership runs on integer-scaled rows: each row a.x <= b (or <)
is multiplied once by the positive lcm of its denominators, each point
once by the positive lcm of its coordinates' denominators, and the test
compares Python ints.  Both sides are scaled by positive numbers, so the
answer is the rational one, still exact and with no floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence

from . import lp

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def vec(values: Iterable) -> Vector:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def mat(rows: Iterable[Iterable]) -> Matrix:
    return tuple(vec(r) for r in rows)


@dataclass(frozen=True)
class Constraint:
    """Halfspace  normal.x <= offset  (or < when strict)."""

    normal: Vector
    offset: Fraction
    strict: bool = False

    def __post_init__(self):
        if all(a == 0 for a in self.normal):
            raise ValueError("constraint normal must be non-zero")

    def holds(self, point: Vector) -> bool:
        lhs = sum(a * x for a, x in zip(self.normal, point))
        return lhs < self.offset if self.strict else lhs <= self.offset

    def negated(self) -> "Constraint":
        """The complementary halfspace; strictness flips."""
        return Constraint(
            tuple(-a for a in self.normal), -self.offset, not self.strict
        )


def constraint(normal: Iterable, offset, strict: bool = False) -> Constraint:
    return Constraint(vec(normal), Fraction(offset), strict)


class Cell:
    """Intersection of strict-flagged halfspaces in R^dim.

    Immutable after construction; emptiness, an interior sample and the
    bounding box are computed lazily and cached.
    """

    __slots__ = ("dim", "constraints", "_empty", "_sample", "_bbox", "_rows")

    def __init__(self, dim: int, constraints: Sequence[Constraint] = ()):
        self.dim = dim
        for c in constraints:
            if len(c.normal) != dim:
                raise ValueError(
                    f"constraint dimension {len(c.normal)} != cell dimension {dim}"
                )
        self.constraints: tuple[Constraint, ...] = tuple(constraints)
        self._empty: Optional[bool] = None
        self._sample: Optional[Vector] = None
        self._bbox = None
        self._rows = None

    def __repr__(self):
        return f"Cell(dim={self.dim}, k={len(self.constraints)})"

    def closure(self) -> "Cell":
        """Same constraints with all strict flags dropped."""
        return Cell(
            self.dim,
            [Constraint(c.normal, c.offset, False) for c in self.constraints],
        )


@dataclass(frozen=True)
class Region:
    """Finite union of pairwise-disjoint cells; empty cells are pruned."""

    cells: tuple[Cell, ...]

    @staticmethod
    def of(cells: Iterable[Cell]) -> "Region":
        return Region(tuple(c for c in cells if not is_empty(c)))

    @property
    def dim(self) -> int:
        return self.cells[0].dim if self.cells else 0

    def is_empty(self) -> bool:
        return not self.cells


def _slack_lp(cell: Cell) -> lp.LPResult:
    """Maximize the margin t (capped at 1) by which all constraints hold.

    Strict rows get  normal.x + t <= offset, non-strict rows are used as
    stated.  The cell is non-empty iff the optimum is strictly positive;
    the optimal point is then in the relative interior with respect to the
    strict constraints.
    """
    n = cell.dim
    rows = []
    rhs = []
    for c in cell.constraints:
        coef = _ONE if c.strict else _ZERO
        rows.append(list(c.normal) + [coef])
        rhs.append(c.offset)
    rows.append([_ZERO] * n + [-_ONE])  # t >= 0
    rhs.append(_ZERO)
    rows.append([_ZERO] * n + [_ONE])  # t <= 1, keeps the LP bounded
    rhs.append(_ONE)
    objective = [_ZERO] * n + [_ONE]
    return lp.maximize(objective, rows, rhs)


def is_empty(cell: Cell) -> bool:
    if cell._empty is None:
        res = _slack_lp(cell)
        if res.status == lp.INFEASIBLE or res.value <= 0:
            cell._empty = True
        else:
            cell._empty = False
            cell._sample = res.point[: cell.dim]
    return cell._empty


def sample_point(cell: Cell) -> Vector:
    """A point of the cell, interior with respect to strict constraints."""
    if is_empty(cell):
        raise ValueError("cannot sample an empty cell")
    return cell._sample


def _scaled(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(X, M) with X / M == values: M > 0 is the lcm of the denominators
    and X the integer numerators over M."""
    m = lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (m // v.denominator) for v in values), m


def scale_point(point: Sequence, dim: int) -> tuple[tuple[int, ...], int]:
    """The point as (X, M), M > 0, for ``contains_scaled``."""
    p = vec(point)
    if len(p) != dim:
        raise ValueError("point dimension does not match cell")
    return _scaled(p)


def _int_rows(cell: Cell) -> tuple:
    """The cell's rows as (A, B, strict), row a.x <= b times the lcm L > 0
    of the denominators of a and b; cached on the cell."""
    if cell._rows is None:
        rows = []
        for c in cell.constraints:
            scaled, _ = _scaled(c.normal + (c.offset,))
            rows.append((scaled[:-1], scaled[-1], c.strict))
        cell._rows = tuple(rows)
    return cell._rows


def contains_scaled(cell: Cell, x: tuple[int, ...], m: int) -> bool:
    """Membership of the point x / m, as made by ``scale_point`` for the
    cell's dimension: A.x <= B.m (or <) for every integer row."""
    for a, b, strict in _int_rows(cell):
        lhs, rhs = sum(map(mul, a, x)), b * m
        if lhs > rhs or (strict and lhs == rhs):
            return False
    return True


def box_contains_scaled(cell: Cell, x: tuple[int, ...], m: int) -> bool:
    """Whether x / m lies in the cell's bounding box (a necessary test)."""
    for (lo, hi), v in zip(bounding_box(cell), x):
        if lo is not None and v * lo.denominator < lo.numerator * m:
            return False
        if hi is not None and v * hi.denominator > hi.numerator * m:
            return False
    return True


def contains_point(cell: Cell, point: Sequence) -> bool:
    x, m = scale_point(point, cell.dim)
    return contains_scaled(cell, x, m)


def intersect(a: Cell, b: Cell) -> Cell:
    if a.dim != b.dim:
        raise ValueError("cannot intersect cells of different dimensions")
    return Cell(a.dim, a.constraints + b.constraints)


def _complement_pieces(cell: Cell) -> list[Cell]:
    """Piece i satisfies rows 0..i-1 and violates row i, so the pieces are
    pairwise disjoint by construction; none is proven non-empty."""
    rows = cell.constraints
    return [Cell(cell.dim, rows[:i] + (c.negated(),)) for i, c in enumerate(rows)]


def complement(cell: Cell) -> Region:
    """Disjoint decomposition of the complement: the complement pieces,
    each proven non-empty by one emptiness LP."""
    return Region.of(_complement_pieces(cell))


def _cut(pieces: list[Cell], bc: Cell, met: Optional[Cell] = None) -> list[Cell]:
    """The pieces minus bc.  A piece that misses bc stays as it is; one
    that meets it is cut by bc's complement pieces, not proven non-empty
    first, keeping the intersections proven non-empty.  ``met`` is cut with
    no meet test: it is known to meet bc, or only its pieces are wanted.
    An intersection with a row that fails on the piece's whole bounding box
    (interval arithmetic) is empty with no LP."""
    comp = _complement_pieces(bc)
    out = []
    for piece in pieces:
        if piece is not met and cells_disjoint(piece, bc):
            out.append(piece)
            continue
        box, m = _scaled_box(bounding_box(piece))  # cached by the meet test
        for (row, offset, strict), cc in zip(_int_rows(bc), comp):
            # piece meets bc, so only cc's negated row can fail on the
            # whole box: when row.x stays at most the offset there (below
            # it, for a strict row)
            high, offset = _max_on_box(row, box), offset * m
            if high is None or high > offset or (strict and high == offset):
                inter = intersect(piece, cc)
                if not is_empty(inter):
                    out.append(inter)
    return out


def difference(a: Region, b: Region) -> Region:
    """Set difference a \\ b as a disjoint region."""
    if a.cells and b.cells and a.dim != b.dim:
        raise ValueError("region dimensions differ")
    current = list(a.cells)
    for bc in b.cells:
        current = _cut(current, bc)
    return Region(tuple(current))


def split(cell: Cell, region: Region) -> tuple[list[Cell], list[Cell]]:
    """(inside, outside) of a cell cut by a disjoint region: intersect(cell,
    rc) for each region cell rc proven to meet it, in region order, and
    ``difference(Region((cell,)), region).cells``.  The pieces lie in the
    cell, so a region cell that misses it is not tested against them, and
    the uncut cell is not tested again against the first one it meets."""
    inside, outside = [], [cell]
    for rc in region.cells:
        if not boxes_overlap(cell, rc):
            continue
        inter = intersect(cell, rc)
        if not is_empty(inter):
            inside.append(inter)
            outside = _cut(outside, rc, met=cell)
    return inside, outside


def _scaled_box(box) -> tuple:
    """The box with its ends times the lcm m > 0 of their denominators,
    and m."""
    m = lcm(*(v.denominator for side in box for v in side if v is not None))
    return tuple(
        tuple(None if v is None else v.numerator * (m // v.denominator) for v in side)
        for side in box
    ), m


def _max_on_box(row: tuple[int, ...], box) -> Optional[int]:
    """The maximum of row.x over an integer box; None when unbounded."""
    high = 0
    for a, (lo, hi) in zip(row, box):
        if a:
            end = hi if a > 0 else lo
            if end is None:
                return None
            high += a * end
    return high


def preimage_linear(cell: Cell, a_matrix: Matrix) -> Cell:
    """The set {x : A x in cell}; each normal a becomes A^T a."""
    n = cell.dim
    if len(a_matrix) != n or any(len(r) != n for r in a_matrix):
        raise ValueError("matrix shape does not match cell dimension")
    out = []
    for c in cell.constraints:
        new_normal = tuple(
            sum(c.normal[i] * a_matrix[i][j] for i in range(n))
            for j in range(n)
        )
        if all(v == 0 for v in new_normal):
            # Constant row: either trivially true or the preimage is empty.
            if c.offset < 0 or (c.strict and c.offset == 0):
                return empty_cell(n)
            continue
        out.append(Constraint(new_normal, c.offset, c.strict))
    return Cell(n, out)


def empty_cell(dim: int) -> Cell:
    normal = (_ONE,) + (_ZERO,) * (dim - 1)
    return Cell(
        dim,
        (Constraint(normal, _ZERO, True), Constraint(tuple(-v for v in normal), _ZERO, False)),
    )


def remove_redundancy(cell: Cell) -> Cell:
    """Drop constraints whose removal leaves the denoted set unchanged.

    Solves one emptiness LP per distinct row.  The cached emptiness and
    sample carry over, and so does the box of a cell known to be non-empty:
    it is the box of the closure, which the dropped rows do not change.  An
    empty cell's relaxed box can change ({x < 0, x >= 0, y <= 5} loses y).
    """
    kept = list(dict.fromkeys(cell.constraints))
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :]
        probe = Cell(cell.dim, others + [kept[i].negated()])
        if is_empty(probe):
            kept.pop(i)
        else:
            i += 1
    out = Cell(cell.dim, kept)
    out._empty = cell._empty
    out._sample = cell._sample
    out._bbox = cell._bbox if cell._empty is False else None
    return out


def bounding_box(cell: Cell) -> tuple[tuple[Optional[Fraction], Optional[Fraction]], ...]:
    """Per-coordinate (min, max) of the closure; None marks unbounded."""
    if cell._bbox is None:
        rows = [list(c.normal) for c in cell.constraints]
        rhs = [c.offset for c in cell.constraints]
        box = []
        for j in range(cell.dim):
            bounds = []
            for sign in (_ONE, -_ONE):
                obj = [_ZERO] * cell.dim
                obj[j] = sign
                res = lp.maximize(obj, rows, rhs)
                if res.status == lp.INFEASIBLE:
                    cell._bbox = tuple((_ZERO, -_ONE) for _ in range(cell.dim))
                    return cell._bbox
                bounds.append(None if res.status == lp.UNBOUNDED else sign * res.value)
            box.append((bounds[1], bounds[0]))
        cell._bbox = tuple(box)
    return cell._bbox


def boxes_overlap(a: Cell, b: Cell) -> bool:
    for (alo, ahi), (blo, bhi) in zip(bounding_box(a), bounding_box(b)):
        if ahi is not None and blo is not None and ahi < blo:
            return False
        if bhi is not None and alo is not None and bhi < alo:
            return False
    return True


def cells_disjoint(a: Cell, b: Cell) -> bool:
    if not boxes_overlap(a, b):
        return True
    return is_empty(intersect(a, b))


def apply_matrix(a_matrix: Matrix, x: Vector) -> Vector:
    return tuple(
        sum(row[j] * x[j] for j in range(len(x))) for row in a_matrix
    )


def cell_subset(a: Cell, b: Cell) -> bool:
    """Exact test a <= b: a meets no complement piece of b.  A piece whose
    negated row fails on a's whole bounding box needs no LP."""
    return not _cut([a], b, met=a)


def region_contains_point(region: Region, point: Sequence) -> bool:
    return any(contains_point(c, point) for c in region.cells)
