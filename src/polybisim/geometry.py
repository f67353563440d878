"""Exact algebra of partially-open polytopes and their finite unions.

A Cell is a conjunction of affine constraints, each flagged strict or
non-strict, so open facets are first-class.  A Region is a finite union of
pairwise-disjoint Cells.  Every predicate (emptiness, membership,
redundancy) is decided exactly with rational arithmetic; there are no
tolerances anywhere in this module.

Both refinements, and ``difference`` piece by piece, cut one cell by
another with ``split(cell, other)``: the part of the cell inside the
other and the pieces outside it, the intersection decided once.

A cell caches the exact vertices of its relaxed closure R (its rows with
every strict flag dropped) and, for each vertex, the bitmask of the rows
tight there.  They come from one of two sources.  A derived cell gets
them from the cell it comes from: ``intersect`` clips one operand's
vertices by the other operand's rows, one double-description step per row
(Fukuda & Prodon 1996), ``preimage_linear`` maps them by A^-1 when A is
invertible, ``remove_redundancy`` hands them on, and a level cell of
``lyapunov`` scales the unit ball's.  Any other cell clips
its Cramer box [-S, S]^n, S = H(2H + 1) for a Hadamard bound H that
every vertex of a bounded R and a point of every non-empty one lie
within (``_vertices``); a clipped vertex tight on a side of the box marks
R unbounded.  From the vertices:

- the bounding box is their minimum and maximum per coordinate, picked
  in Python ints (X_j M' < X'_j M) with one Fraction made per side, and
  ``boxes_overlap`` compares two boxes' sides by cross-multiplying their
  numerators and denominators;
- the cell is empty iff R has no vertex or a strict row is tight at every
  vertex; otherwise every strict row is slack at some vertex, so the
  vertices' centroid is a point of the cell, its sample, made in integers
  (X, M) when first asked for, with ``sample_point`` making its Fractions;
- when no row is tight at every vertex, R is full-dimensional, and
  ``remove_redundancy`` reads each row off the faces' vertex sets: a row
  goes iff it is tight at no vertex, or another row still kept or not
  yet walked is tight at all of its vertices and is strict whenever it
  is.

An unbounded cell is decided by the same rule on its clip, and a side of
its box is open where the clip goes past -H or H.  No LP is solved.

Point membership runs on integer-scaled rows: each Constraint a.x <= b
(or <) multiplies itself once by the positive lcm of its denominators
(``Constraint.scaled``, read by every cell that holds it), each point
once by the positive lcm of its coordinates' denominators, and the test
compares Python ints.  Both sides are scaled by positive numbers, so the
answer is the rational one, still exact and with no floats.  Vertices are
kept the same way, as (X, M, Z): the point X / M with M > 0, and the
bitmask Z of the rows tight there.  ``preimage_linear``'s vertices are
A^-1 applied to all of them in one fraction-free elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence

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

    @cached_property
    def scaled(self) -> tuple[tuple[int, ...], int, bool]:
        """(A, B, strict): the normal and offset times the positive lcm of
        their denominators, so A.x <= B (or <) is the row in Python ints."""
        row, _ = _scaled(self.normal + (self.offset,))
        return row[:-1], row[-1], self.strict

    def __hash__(self):
        # x/2 <= 1 and x <= 2 share a hash; the dict's == keeps them apart
        return hash(self.scaled)

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
    bounding box and the vertices are computed lazily and cached, and each
    row's integer form is its Constraint's ``scaled``.  ``_src`` names the
    cells a derived cell's vertices come from until they are computed.
    """

    __slots__ = (
        "dim", "constraints", "_empty", "_sample", "_bbox", "_verts", "_src",
        "_pieces",
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
        # the sample as (X, M), the point X / M with M > 0
        self._sample: Optional[tuple[tuple[int, ...], int]] = None
        self._bbox = None
        # None: not computed; False: unbounded
        self._verts = None
        self._src = None
        self._pieces = None

    def __repr__(self):
        return f"Cell(dim={self.dim}, k={len(self.constraints)})"


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


def is_empty(cell: Cell) -> bool:
    """Empty iff R has no vertex or a strict row is tight at all of them;
    the clip that finds R unbounded decides an unbounded cell
    (``_vertices``)."""
    if cell._empty is None:
        verts = _vertices(cell)
        if cell._empty is None:
            _settle(cell, verts)
    return cell._empty


def _settle(cell: Cell, verts) -> None:
    """The cell's emptiness from the vertices of R, or of R clipped to a
    box that holds a point of the cell if it has one."""
    tight = _tight(verts)
    cell._empty = not verts or any(
        c.strict and tight >> i & 1 for i, c in enumerate(cell.constraints)
    )


def _tight(verts) -> int:
    """The bitmask of the rows tight at every vertex (-1 with none)."""
    tight = -1
    for _, _, z in verts:
        tight &= z
    return tight


def sample_point(cell: Cell) -> Vector:
    """A point of the cell, interior with respect to strict constraints:
    the centroid of R's vertices, or of the clip that finds R unbounded,
    kept in integers with the cell."""
    if is_empty(cell):
        raise ValueError("cannot sample an empty cell")
    if cell._sample is None:
        verts = _vertices(cell)
        cell._sample = _mean(verts, [1] * len(verts), cell.dim)
    x, m = cell._sample
    return tuple(Fraction(v, m) for v in x)


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


def contains_scaled(cell: Cell, x: tuple[int, ...], m: int) -> bool:
    """Membership of the point x / m, as made by ``scale_point`` for the
    cell's dimension: A.x <= B.m (or <) for every integer row."""
    for c in cell.constraints:
        a, b, strict = c.scaled
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
    """The cell of a's rows followed by b's; its vertices, when needed,
    clip those of a bounded operand."""
    if a.dim != b.dim:
        raise ValueError("cannot intersect cells of different dimensions")
    out = Cell(a.dim, a.constraints + b.constraints)
    out._src = (a, b)
    return out


def _complement_pieces(cell: Cell) -> tuple[Cell, ...]:
    """Piece i satisfies rows 0..i-1 and violates row i, so the pieces are
    pairwise disjoint by construction; none is proven non-empty.  Cached
    on the cell."""
    if cell._pieces is None:
        rows = cell.constraints
        cell._pieces = tuple(
            Cell(cell.dim, rows[:i] + (c.negated(),)) for i, c in enumerate(rows)
        )
    return cell._pieces


def complement(cell: Cell) -> Region:
    """Disjoint decomposition of the complement: the complement pieces,
    each proven non-empty."""
    return Region.of(_complement_pieces(cell))


def _outside(cell: Cell, bc: Cell) -> list[Cell]:
    """The cell minus bc: the cell cut by bc's complement pieces, keeping
    the intersections proven non-empty.  The cell is not tested against
    bc first."""
    out = []
    for cc in _complement_pieces(bc):
        inter = intersect(cell, cc)
        if not is_empty(inter):
            out.append(inter)
    return out


def difference(a: Region, b: Region) -> Region:
    """Set difference a \\ b as a disjoint region: each cell of b in turn
    replaces every piece by its outside under ``split``, so a piece that
    misses a cell of b stays as it is."""
    if a.cells and b.cells and a.dim != b.dim:
        raise ValueError("region dimensions differ")
    current = list(a.cells)
    for bc in b.cells:
        current = [c for piece in current for c in split(piece, bc)[1]]
    return Region(tuple(current))


def split(cell: Cell, other: Cell) -> tuple[Optional[Cell], list[Cell]]:
    """(inside, outside) of a cell cut by another: ``intersect(cell,
    other)`` if it is proven non-empty, else None, and the pieces of
    cell \\ other that ``_outside`` gives.  A cell that misses the
    other is its own outside, and one that lies in it has none."""
    if not boxes_overlap(cell, other):
        return None, [cell]
    inside = intersect(cell, other)
    if is_empty(inside):
        return None, [cell]
    return inside, [] if _inside(cell, other) else _outside(cell, other)


def _inside(cell: Cell, other: Cell) -> bool:
    """Whether the cell lies in the other one by its vertices: every row of
    the other holds at every vertex, strictly when strict.  False decides
    nothing, and so does an unbounded cell."""
    verts = _vertices(cell)
    if verts is None:
        return False
    for c in other.constraints:
        a, b, strict = c.scaled
        for x, m, _ in verts:
            s = b * m - sum(map(mul, a, x))
            if s < 0 or (strict and s == 0):
                return False
    return True


def preimage_linear(cell: Cell, a_matrix: Matrix) -> Cell:
    """The set {x : A x in cell}; each normal a becomes A^T a.  When A is
    invertible, the cell's vertices mapped by A^-1 are the preimage's."""
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
    pre = Cell(n, out)
    pre._src = (cell, a_matrix)
    return pre


def empty_cell(dim: int) -> Cell:
    normal = (_ONE,) + (_ZERO,) * (dim - 1)
    return Cell(
        dim,
        (Constraint(normal, _ZERO, True), Constraint(tuple(-v for v in normal), _ZERO, False)),
    )


def remove_redundancy(cell: Cell) -> Cell:
    """Drop constraints whose removal leaves the denoted set unchanged.

    One walk over the distinct rows, in order, drops each row whose
    negation meets none of the rows still kept or not yet walked.  That
    test is an emptiness test of those rows with the row negated, a cell
    that its Cramer box decides, except when the faces decide it.

    The faces decide when R, the relaxed closure, has vertices and no row
    is tight at all of them: then R has no implicit equality, so it is
    full-dimensional (Schrijver 1986, section 8.2), the cell is non-empty
    and R is its closure.  A face of R is determined by its vertex set
    (Ziegler 1995, ch. 2), and row i's is the bitmask ``faces[i]`` of the
    vertices where row i is tight.  Row i is dropped iff its face is
    empty, or some other row still kept or not yet walked has a face
    containing row i's and is strict whenever row i is.  That is the
    emptiness test's answer:

    - every facet of R is cut out by one of its rows;
    - at every step the rows still kept or not yet walked include a row
      for each facet (a facet's row is dropped only while another row of
      that face remains), so their relaxed closure is R, and a non-strict
      row's negation meets them iff the row is the last of a facet's;
    - a face that contains a relative-interior point of another face
      contains that whole face, so a strict row's face is covered by the
      strict faces of the other rows iff one of them contains it.

    The cached emptiness and sample carry over.  A non-empty cell's R is
    its closure whichever rows denote it, so its box and vertices (with
    their bitmasks remapped to the kept rows) carry over too; the kept
    Constraints bring their integer rows.  An empty cell's relaxed box can
    change ({x < 0, x >= 0, y <= 5} loses y).
    """
    n = cell.dim
    rows = cell.constraints
    first: dict[Constraint, int] = {}
    for i, c in enumerate(rows):
        first.setdefault(c, i)
    kept = list(first.values())  # the distinct rows, by index
    verts = _vertices(cell)
    faces = None
    # is_empty settles the emptiness and sample that carry over
    if verts and not is_empty(cell) and not _tight(verts):
        faces = {
            i: sum(1 << j for j, (_, _, z) in enumerate(verts) if z >> i & 1)
            for i in kept
        }
    k = 0
    while k < len(kept):
        i = kept[k]
        if faces is None:
            others = [rows[j] for j in kept[:k] + kept[k + 1 :]]
            redundant = is_empty(Cell(n, others + [rows[i].negated()]))
        else:
            face = faces[i]
            redundant = not face or any(
                j != i and face & faces[j] == face
                and (rows[j].strict or not rows[i].strict)
                for j in kept
            )
        if redundant:
            del kept[k]
        else:
            k += 1
    out = Cell(n, [rows[i] for i in kept])
    out._empty = cell._empty
    out._sample = cell._sample
    if cell._empty is False:
        out._bbox = cell._bbox
        if verts is not None:
            out._verts = tuple((x, m, _remap(z, kept)) for x, m, z in verts)
    return out


def _remap(z: int, index: list[int]) -> int:
    """The bitmask z over the rows index[0], index[1], ... as bits 0, 1, ..."""
    return sum(1 << k for k, i in enumerate(index) if z >> i & 1)


def bounding_box(cell: Cell) -> tuple[tuple[Optional[Fraction], Optional[Fraction]], ...]:
    """Per-coordinate (min, max) of the closure; None marks unbounded, and
    an empty closure gets (0, -1) in every coordinate.  It is the minimum
    and maximum of R's vertices; an unbounded R's box comes with the clip
    that finds it unbounded (``_vertices``).
    """
    if cell._bbox is None:
        verts = _vertices(cell)
        if cell._bbox is None:
            cell._bbox = _vertex_box(verts, cell.dim)
    return cell._bbox


def _vertex_box(verts, dim: int):
    """Per coordinate j, the least and greatest X_j / M of the vertices,
    compared as X_j M' < X'_j M; one Fraction per side."""
    if not verts:
        return tuple((_ZERO, -_ONE) for _ in range(dim))
    box = []
    for j in range(dim):
        lo = hi = verts[0]
        for v in verts:
            x, m, _ = v
            if x[j] * lo[1] < lo[0][j] * m:
                lo = v
            elif x[j] * hi[1] > hi[0][j] * m:
                hi = v
        box.append((Fraction(lo[0][j], lo[1]), Fraction(hi[0][j], hi[1])))
    return tuple(box)


# ---------------------------------------------------------------------------
# Vertices of the relaxed closure: (X, M, Z) triples, see the module notes.
# ---------------------------------------------------------------------------


def _vertices(cell: Cell):
    """R's vertices, derived from the cell's source (``_derived``), or else
    clipped from its Cramer box [-S, S]^n, S = H(2H + 1)
    (``_cramer_vertices``); None when R is unbounded.

    The clip is exact.  H exceeds n^(n/2) K^n, which bounds every Cramer's
    rule solution of at most n of the integer rows, or of them and x_j = 1
    (Hadamard), K their largest absolute entry.

    - Bounded R: its every vertex is such a solution, so R lies strictly
      inside [-H, H]^n.  No clipped vertex is tight on a side of the box,
      and the clipped vertices are exactly R's (none when R is empty).
    - Unbounded, non-empty R: it has a point in [-H, H]^n (a basic
      solution of a minimal face) but is not contained in the box, so R
      and the box meet on a facet of the box.  That face of the polytope
      R & box holds a vertex, tight on a side of the box.

    So a clipped vertex tight on a side of the box marks R unbounded: the
    cache holds False, and the clip settles the cell's emptiness and
    sample (it holds a point of the cell if the cell has one) and its box,
    the clip's minimum and maximum with every side past -H or H open:

    - Bounded side.  A finite sup of x_j over R is attained on a minimal
      face, at a basic solution, so |sup| < H.  That point lies inside
      the box, so the clip's maximum of x_j equals the sup.
    - Open side.  R has a basic point p with |p_i| < H.  Its recession
      cone {A d <= 0} has a basic direction d with d_j = 1 (solve
      A d <= 0, d_j = 1), and |d_i| < H.  The point p + 2H d lies in R
      and in the box (|coordinate| < H + 2H^2 <= S), and its x_j is
      greater than H.

    The minimum likewise.  No cell is clipped twice.
    """
    verts = cell._verts
    if verts is None:
        verts = _derived(cell)
        if verts is None:
            verts = _cramer_vertices(cell)
            k = len(cell.constraints)
            if any(z >> k for _, _, z in verts):
                if cell._empty is None:
                    _settle(cell, verts)
                    if not cell._empty:  # the clip is not kept: its sample is
                        cell._sample = _mean(verts, [1] * len(verts), cell.dim)
                h = _cramer_bound(cell)
                cell._bbox = tuple(
                    (None if lo < -h else lo, None if hi > h else hi)
                    for lo, hi in _vertex_box(verts, cell.dim)
                )
                verts = False
        cell._verts, cell._src = verts, None
    return None if verts is False else verts


def _derived(cell: Cell):
    """The vertices from the cell's source: those of an operand of
    ``intersect`` (one that already has them first) clipped by the other
    operand's rows, those of the cell that ``preimage_linear`` inverted,
    mapped by A^-1, or gamma times those of a cell that the cell is
    gamma > 0 times (``lyapunov.sublevel_cell``), tight on the same rows.
    None with no source, for two unbounded operands and for a singular
    A."""
    if cell._src is None:
        return None
    a, b = cell._src
    if isinstance(b, Fraction):
        verts = _vertices(a)
        p, q = b.numerator, b.denominator
        return verts and tuple(
            _reduced(tuple(p * v for v in x), q * m, z) for x, m, z in verts
        )
    if not isinstance(b, Cell):
        verts = _vertices(a)
        if not verts:
            return verts
        # A y = x, row i times the lcm l_i of its denominators, for y = A^-1 x:
        # one elimination with every vertex a right-hand-side column
        rows = [_scaled(row) for row in b]
        solved = _solve_integer(
            [list(row) for row, _ in rows],
            [[l * x[i] for x, _, _ in verts] for i, (_, l) in enumerate(rows)],
        )
        if solved is None:  # A is singular
            return None
        d, ys = solved
        return tuple(
            _reduced(y, d * m, z) for y, (_, m, z) in zip(ys, verts)
        )
    k = len(a.constraints)
    operands = [(a, b, 0, k), (b, a, k, 0)]
    if a._verts is None and b._verts is not None:
        operands.reverse()
    for base, other, shift, first in operands:
        verts = _vertices(base)
        if verts is not None:
            if shift:
                verts = [(x, m, z << shift) for x, m, z in verts]
            return _clip(verts, other.constraints, first, cell.dim)
    return None


def _cramer_vertices(cell: Cell) -> tuple:
    """The vertices of R clipped to [-S, S]^n, S = H(2H + 1) for H of
    ``_cramer_bound``.  The box's integer corners, with x_j <= S and
    x_j >= -S as bits k + 2j and k + 2j + 1 past the cell's k rows, are
    clipped by every row.

    The cell has a point iff A.x + s t <= B, 0 <= t <= 1 has a solution
    with t > 0 (s_i = 1 on a strict row: the margin column t).  Then t's
    maximum is attained at a Cramer's-rule solution of a non-singular
    subsystem (Schrijver 1986, section 10), each |x_j| at most a
    determinant of order <= n + 1 with entries <= K, so at most H
    (Hadamard): a point of the box with every strict row slack."""
    n, k, h = cell.dim, len(cell.constraints), _cramer_bound(cell)
    s = h * (2 * h + 1)
    corners = [
        (x, 1, sum(1 << (k + 2 * j + (v < 0)) for j, v in enumerate(x)))
        for x in product((-s, s), repeat=n)
    ]
    return _clip(corners, cell.constraints, 0, n)


def _cramer_bound(cell: Cell) -> int:
    """H = (n+1)^ceil((n+1)/2) K^(n+1), for K the largest absolute entry
    of the integer rows (>= 1, as a normal is non-zero) and of the margin
    column: it bounds every Cramer's rule solution that ``_vertices`` and
    ``_cramer_vertices`` use."""
    n = cell.dim
    rows = [c.scaled for c in cell.constraints]
    big = max((abs(v) for a, b, _ in rows for v in a + (b,)), default=1)
    return (n + 1) ** ((n + 2) // 2) * big ** (n + 1)


def _clip(verts, rows, first: int, n: int) -> tuple:
    """The vertices of a bounded polytope in R^n cut by the Constraints'
    integer rows relaxed to A.x <= B, row j getting bit first + j: one
    double-description step per row, the last row first (a complement
    piece ends with its negated row, which most often leaves nothing).

    A vertex with positive slack stays, one with zero slack stays and
    gets the row's bit, and one with negative slack goes.  A vertex u that
    stays strictly inside and one w that goes span an edge iff at least
    n - 1 rows are tight at both and no other vertex is tight on all of
    those (the combinatorial adjacency test); the edge's point on the row's
    hyperplane is new, tight exactly where both ends are, and on the row.
    """
    for j in range(len(rows) - 1, -1, -1):
        if not verts:
            break
        a, b, _ = rows[j].scaled
        bit = 1 << (first + j)
        kept, inside, outside = [], [], []
        for v in verts:
            s = b * v[1] - sum(map(mul, a, v[0]))
            if s > 0:
                kept.append(v)
                inside.append((v, s))
            elif s == 0:
                kept.append((v[0], v[1], v[2] | bit))
            else:
                outside.append((v, s))
        if outside:
            for u, su in inside:
                for w, sw in outside:
                    common = u[2] & w[2]
                    if common.bit_count() < n - 1 or any(
                        v is not u and v is not w and v[2] & common == common
                        for v in verts
                    ):
                        continue
                    x = tuple(su * q - sw * p for p, q in zip(u[0], w[0]))
                    kept.append(_reduced(x, su * w[1] - sw * u[1], common | bit))
        verts = kept
    return tuple(verts)


def _reduced(x: tuple[int, ...], m: int, z: int) -> tuple:
    """The vertex x / m (m > 0) in lowest terms."""
    g = gcd(m, *x)
    return tuple(v // g for v in x), m // g, z


def _mean(verts, weights: Sequence[int], dim: int) -> tuple[tuple[int, ...], int]:
    """The mean of the vertices X_i / M_i with positive integer weights w_i,
    as (X, M): sum w_i X_i (L / M_i) over L sum w_i, L the lcm of the M_i."""
    big = lcm(*(m for _, m, _ in verts))
    scaled = [(w * (big // m), x) for w, (x, m, _) in zip(weights, verts)]
    return (
        tuple(sum(f * x[j] for f, x in scaled) for j in range(dim)),
        big * sum(weights),
    )


def _solve_integer(a, b) -> Optional[tuple[int, list[tuple[int, ...]]]]:
    """Solve the square integer system a X = b, b's columns the right-hand
    sides, by one fraction-free Gauss-Jordan elimination (every
    intermediate entry is a minor, so each division is exact).  Returns
    (d, [d * x for each column x]) with d > 0, or None if a is singular."""
    k = len(a)
    t = [row + bi for row, bi in zip(a, b)]
    width = len(t[0])
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if t[r][col]), None)
        if piv is None:
            return None
        t[col], t[piv] = t[piv], t[col]
        prow = t[col]
        p = prow[col]
        for r in range(k):
            if r != col:
                row = t[r]
                f = row[col]
                for j in range(width):
                    row[j] = (p * row[j] - f * prow[j]) // prev
        prev = p
    sign = -1 if prev < 0 else 1
    return sign * prev, [
        tuple(sign * row[j] for row in t) for j in range(k, width)
    ]


def vertices(cell: Cell) -> Optional[list[Vector]]:
    """The exact vertices of the cell's closure with every strict flag
    dropped (none when that is empty); None when it is unbounded.  They
    come from the cell's source, or else from its Cramer box
    (``_vertices``)."""
    verts = _vertices(cell)
    if verts is None:
        return None
    return [tuple(Fraction(v, m) for v in x) for x, m, _ in verts]


def boxes_overlap(a: Cell, b: Cell) -> bool:
    """Whether the boxes meet; hi < lo is compared as hi.n lo.d < lo.n hi.d."""
    for (alo, ahi), (blo, bhi) in zip(bounding_box(a), bounding_box(b)):
        if (
            ahi is not None and blo is not None
            and ahi.numerator * blo.denominator < blo.numerator * ahi.denominator
        ):
            return False
        if (
            bhi is not None and alo is not None
            and bhi.numerator * alo.denominator < alo.numerator * bhi.denominator
        ):
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
    """Exact test a <= b: a lies in b by its vertices, or it meets no
    complement piece of b."""
    return _inside(a, b) or not _outside(a, b)
