"""Exact algebra of partially-open polytopes and their finite unions.

A Cell is a conjunction of affine constraints, each flagged strict or
non-strict, so open facets are first-class.  A Region is a finite union of
pairwise-disjoint Cells.  Every predicate (emptiness, membership,
redundancy) is decided exactly with rational arithmetic; there are no
tolerances anywhere in this module.

Both refinements cut with ``split(cell, region)``: the parts of a cell
inside and outside a disjoint region, each intersection decided once.

``remove_redundancy`` solves an emptiness LP only for rows that no exact
certificate decides: on a non-empty cell, a row below its offset on a
box of the cell is dropped, and a row that a ray from a strictly
interior point meets first, and alone, is kept.  ``bounding_box`` reads
the box of a cell of single-coordinate rows off its bounds, and solves
2n LPs for any other cell.

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

    Immutable after construction; emptiness, an interior sample, the
    bounding box (with the points of the LPs that found it) and the
    integer-scaled rows are computed lazily and cached.
    """

    __slots__ = (
        "dim", "constraints", "_empty", "_sample", "_bbox", "_box_points", "_rows"
    )

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
        self._box_points = None
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
        for row, cc in zip(_int_rows(bc), comp):
            # piece meets bc, so only cc's negated row can fail on the
            # whole box: when the row holds on all of it
            if not _holds_on_box(row, box, m, row[2]):
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
    the uncut cell is not tested again against the first one it meets.
    A non-empty cell on whose whole box every row of rc holds lies in rc:
    the intersection is the cell, and takes its sample and box with no LP."""
    inside, outside = [], [cell]
    for rc in region.cells:
        if not boxes_overlap(cell, rc):
            continue
        inter = intersect(cell, rc)
        if cell._empty is False and _inside_on_box(cell, rc):
            inter._empty, inter._sample = False, cell._sample
            inter._bbox, inter._box_points = cell._bbox, cell._box_points
        if not is_empty(inter):
            inside.append(inter)
            outside = _cut(outside, rc, met=cell)
    return inside, outside


def _inside_on_box(cell: Cell, rc: Cell) -> bool:
    """Whether every row of rc holds on the cell's whole box, so that the
    cell lies in rc."""
    box, m = _scaled_box(bounding_box(cell))
    return all(_holds_on_box(row, box, m, row[2]) for row in _int_rows(rc))


def _holds_on_box(row: tuple, box, m: int, strict: bool) -> bool:
    """Whether the integer row (A, B, _) holds as A.x <= B, or as A.x < B
    when strict, on the whole integer box with scale m (interval
    arithmetic)."""
    high, offset = _max_on_box(row[0], box), row[1] * m
    return high is not None and (high < offset or (not strict and high == offset))


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


def remove_redundancy(cell: Cell, outer: Optional[Cell] = None) -> Cell:
    """Drop constraints whose removal leaves the denoted set unchanged.

    A greedy walks the distinct rows in order and drops each row whose
    negation meets none of the rows still kept or not yet walked: one
    emptiness LP per row that no certificate decides.  On a cell known to
    be non-empty, two exact certificates on the integer rows decide rows
    with no LP and leave every greedy decision as it is:

    - box bound: a row whose maximum over a box of the closure (the cell's
      cached box, else that of ``outer``, a cell known to contain it) is
      below its offset is strictly slack on the closure.  It is redundant
      in every row set that denotes the cell, and its presence changes no
      other row's answer, so it is dropped before the greedy;
    - ray shooting: when every row is strictly slack at p, the mean of the
      points ``bounding_box`` kept from its LPs, the ray from p along the
      normal of row j leaves the cell through the hyperplane of the row i
      it reaches first.  If no other row is reached there, every other row
      is strictly slack at that point, so i is a facet and the greedy keeps
      it.  A tie (twin rows, scaled twins, flat cells) decides nothing.

    The cached emptiness and sample carry over, and so do the box of a
    cell known to be non-empty, its LP points and the integer rows kept:
    it is the box of the closure, which the dropped rows do not change.
    An empty cell's relaxed box can change ({x < 0, x >= 0, y <= 5} loses
    y).
    """
    box = cell._bbox if cell._bbox is not None or outer is None else outer._bbox
    ints = None
    if cell._empty is False and box is not None:
        scaled, m = _scaled_box(box)
        ints = {
            c: row
            for c, row in zip(cell.constraints, _int_rows(cell))
            if not _holds_on_box(row, scaled, m, True)
        }
        kept, rows = list(ints), list(ints.values())
    else:
        kept = list(dict.fromkeys(cell.constraints))
        rows = [None] * len(kept)
    if ints is not None and cell._box_points is not None and box is cell._bbox:
        facet = _facets(rows, cell._box_points)
    else:
        facet = [False] * len(kept)
    i = 0
    while i < len(kept):
        if not facet[i]:
            others = kept[:i] + kept[i + 1 :]
            if is_empty(Cell(cell.dim, others + [kept[i].negated()])):
                del kept[i], rows[i], facet[i]
                continue
        i += 1
    out = Cell(cell.dim, kept)
    out._empty = cell._empty
    out._sample = cell._sample
    if cell._empty is False:
        out._bbox, out._box_points = cell._bbox, cell._box_points
        if ints is not None:
            out._rows = tuple(rows)
    return out


def bounding_box(cell: Cell) -> tuple[tuple[Optional[Fraction], Optional[Fraction]], ...]:
    """Per-coordinate (min, max) of the closure; None marks unbounded, and
    an empty closure gets (0, -1) in every coordinate.

    A cell whose every row bounds a single coordinate reads the box off
    its tightest bounds.  Any other cell solves 2n LPs over the closure
    and keeps their points for the ray shooting of ``remove_redundancy``.
    """
    if cell._bbox is None:
        box = _axis_box(cell)
        cell._bbox = _lp_box(cell) if box is None else box
    return cell._bbox


def _axis_box(cell: Cell):
    """The box of a cell whose every row bounds one coordinate; None for
    any other cell."""
    lo, hi = [None] * cell.dim, [None] * cell.dim
    for c in cell.constraints:
        nonzero = [k for k, a in enumerate(c.normal) if a]
        if len(nonzero) != 1:
            return None
        j = nonzero[0]
        bound = c.offset / c.normal[j]
        if c.normal[j] > 0:
            if hi[j] is None or bound < hi[j]:
                hi[j] = bound
        elif lo[j] is None or bound > lo[j]:
            lo[j] = bound
    if any(a is not None and b is not None and a > b for a, b in zip(lo, hi)):
        return _empty_box(cell.dim)
    return tuple(zip(lo, hi))


def _empty_box(dim: int):
    return tuple((_ZERO, -_ONE) for _ in range(dim))


def _lp_box(cell: Cell):
    """The box from 2n LPs over the closure; their points (optimal, or
    feasible along an unbounded side) go to ``cell._box_points``."""
    rows = [list(c.normal) for c in cell.constraints]
    rhs = [c.offset for c in cell.constraints]
    box, points = [], []
    for j in range(cell.dim):
        bounds = []
        for sign in (_ONE, -_ONE):
            obj = [_ZERO] * cell.dim
            obj[j] = sign
            res = lp.maximize(obj, rows, rhs)
            if res.status == lp.INFEASIBLE:
                return _empty_box(cell.dim)
            bounds.append(None if res.status == lp.UNBOUNDED else sign * res.value)
            points.append(res.point)
        box.append((bounds[1], bounds[0]))
    cell._box_points = tuple(points)
    return tuple(box)


def _facets(rows: list, points) -> list[bool]:
    """For each integer row (A, B, strict), whether ray shooting from the
    mean p of the points proves it a facet of the cell the rows denote.

    Every row must be strictly slack at p, or nothing is proven.  The ray
    p + s.A_j meets row i at s_i = slack_i / (A_i.A_j) when A_i.A_j > 0,
    and row j itself is always met.  The row met first is proven when no
    other row is met at the same s.  Slacks and products are integers
    (the rows and p are scaled by positive numbers, which scales every
    s_i of one ray alike), and two hits are compared by cross-multiplying.
    """
    facet = [False] * len(rows)
    p, m = _scaled(tuple(sum(col) / len(points) for col in zip(*points)))
    slack = [b * m - sum(map(mul, a, p)) for a, b, _ in rows]
    if any(s <= 0 for s in slack):
        return facet
    for aj, _, _ in rows:
        first, first_dot, tie = None, 0, False
        for i, (ai, _, _) in enumerate(rows):
            dot = sum(map(mul, ai, aj))
            if dot <= 0:
                continue
            if first is None:
                first, first_dot = i, dot
                continue
            lhs, rhs = slack[i] * first_dot, slack[first] * dot
            if lhs < rhs:
                first, first_dot, tie = i, dot, False
            elif lhs == rhs:
                tie = True
        if not tie:
            facet[first] = True
    return facet


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
