"""Partially-open polytope algebra: hand examples plus randomized
agreement checks against independent oracles."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from polybisim import geometry
from polybisim.geometry import (
    Cell,
    Constraint,
    Region,
    box_contains_scaled,
    bounding_box,
    cell_subset,
    cells_disjoint,
    complement,
    constraint,
    contains_point,
    contains_scaled,
    difference,
    empty_cell,
    intersect,
    is_empty,
    preimage_linear,
    remove_redundancy,
    sample_point,
    scale_point,
    split,
    vec,
    vertices,
)
from polybisim.lyapunov import _rank
from lp_reference import lp_box


_ZERO = Fraction(0)


def F(v):
    return Fraction(v)


def box2(lo, hi, strict=False):
    return Cell(
        2,
        [
            constraint([1, 0], hi, strict),
            constraint([-1, 0], -lo, strict),
            constraint([0, 1], hi, strict),
            constraint([0, -1], -lo, strict),
        ],
    )


def test_constraint_negation_flips_strictness():
    c = constraint([1, 0], 2, strict=False)
    nc = c.negated()
    assert nc.normal == vec([-1, 0])
    assert nc.offset == -2
    assert nc.strict
    assert nc.negated() == c


def test_constraint_rejects_zero_normal():
    with pytest.raises(ValueError):
        constraint([0, 0], 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_constraint_scales_its_row_once(n):
    """``scaled`` is the row's numerators over the lcm of its denominators,
    the negation's is the row negated with strictness flipped, and equal
    constraints hash equally."""
    rng = random.Random(2300 + n)
    for _ in range(100):
        normal = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 13)) for _ in range(n)]
        if not any(normal):
            normal[rng.randrange(n)] = Fraction(1, rng.randrange(1, 13))
        offset = Fraction(rng.randrange(-9, 10), rng.randrange(1, 13))
        strict = rng.random() < 0.5
        c = Constraint(tuple(normal), offset, strict)
        big = 1
        for v in normal + [offset]:
            big = big * v.denominator // gcd(big, v.denominator)
        row = [v * big for v in normal + [offset]]
        assert all(v.denominator == 1 for v in row)
        a, b = tuple(int(v) for v in row[:-1]), int(row[-1])
        assert c.scaled == (a, b, strict)
        assert c.negated().scaled == (tuple(-v for v in a), -b, not strict)
        twin = constraint([str(v) for v in normal], str(offset), strict)
        assert twin == c and hash(twin) == hash(c)


def test_rows_that_scale_alike_stay_apart():
    half, whole = constraint(["1/2"], 1), constraint([1], 2)
    assert half != whole
    assert half.scaled == whole.scaled == ((1,), 2, False)
    assert len({half: 0, whole: 1}) == 2
    # x/2 <= 1 has the face of x <= 2, walked after it, so it goes: the
    # shared hash changes neither the rows kept nor their order
    cell = Cell(1, [half, whole, constraint([-1], 0)])
    assert remove_redundancy(cell).constraints == (whole, constraint([-1], 0))


def test_membership_respects_strictness():
    closed = constraint([1], 1, strict=False)
    open_ = constraint([1], 1, strict=True)
    assert closed.holds(vec([1]))
    assert not open_.holds(vec([1]))
    assert open_.holds(vec([F("0.999")]))


def test_emptiness_examples():
    assert not is_empty(box2(0, 1))
    # x <= 0 and x >= 1
    assert is_empty(Cell(1, [constraint([1], 0), constraint([-1], -1)]))
    # x < 0 and x >= 0: empty only because of the strict flag
    assert is_empty(
        Cell(1, [constraint([1], 0, True), constraint([-1], 0)])
    )
    # the single point x = 0 is non-empty when both rows are closed
    pt = Cell(1, [constraint([1], 0), constraint([-1], 0)])
    assert not is_empty(pt)
    assert sample_point(pt) == (F(0),)
    assert is_empty(empty_cell(3))


def test_sample_point_satisfies_strict_rows():
    c = Cell(1, [constraint([1], 1, True), constraint([-1], 0, True)])
    p = sample_point(c)
    assert F(0) < p[0] < F(1)


def test_intersect_membership():
    a = box2(0, 2)
    b = box2(1, 3)
    inter = intersect(a, b)
    assert contains_point(inter, [F("1.5"), F("1.5")])
    assert not contains_point(inter, [F("0.5"), F("1.5")])


def test_complement_partitions_the_plane():
    cell = box2(0, 1, strict=False)
    comp = complement(cell)
    rng = random.Random(7)
    for _ in range(200):
        p = [Fraction(rng.randrange(-40, 40), 16) for _ in range(2)]
        inside = contains_point(cell, p)
        hits = [c for c in comp.cells if contains_point(c, p)]
        assert inside == (len(hits) == 0)
        assert len(hits) <= 1  # complement pieces are pairwise disjoint


def _in_region(region, point):
    return any(contains_point(c, point) for c in region.cells)


def _difference_by_disjointness(a, b):
    """a \\ b as ``difference`` cut it before it went through ``split``: a
    piece disjoint from a cell of b stays, any other is cut by that
    cell's complement pieces, keeping the non-empty intersections."""
    current = list(a.cells)
    for bc in b.cells:
        rest = []
        for piece in current:
            if cells_disjoint(piece, bc):
                rest.append(piece)
            else:
                rest += geometry._outside(piece, bc)
        current = rest
    return current


def test_difference_membership_and_disjointness():
    a = Region.of([box2(0, 4)])
    b = Region.of([box2(1, 2), box2(3, 5)])
    d = difference(a, b)
    assert [c.constraints for c in d.cells] == [
        c.constraints for c in _difference_by_disjointness(a, b)
    ]
    rng = random.Random(11)
    for _ in range(300):
        p = [Fraction(rng.randrange(-8, 48), 8) for _ in range(2)]
        expect = _in_region(a, p) and not _in_region(b, p)
        hits = sum(1 for c in d.cells if contains_point(c, p))
        assert (hits > 0) == expect
        assert hits <= 1


def test_difference_of_equal_regions_is_empty():
    a = Region.of([box2(0, 1)])
    assert difference(a, a).is_empty()


def test_preimage_linear_pointwise():
    rng = random.Random(13)
    for _ in range(50):
        cell = box2(
            Fraction(rng.randrange(-4, 0)), Fraction(rng.randrange(1, 5)),
            strict=rng.random() < 0.5,
        )
        a = tuple(
            tuple(Fraction(rng.randrange(-2, 3)) for _ in range(2))
            for _ in range(2)
        )
        pre = preimage_linear(cell, a)
        for _ in range(20):
            x = vec([Fraction(rng.randrange(-30, 30), 7) for _ in range(2)])
            ax = tuple(sum(r[j] * x[j] for j in range(2)) for r in a)
            assert contains_point(pre, x) == contains_point(cell, ax)


def test_preimage_zero_matrix():
    # A = 0 maps everything to the origin
    zero = ((F(0), F(0)), (F(0), F(0)))
    pre_hit = preimage_linear(box2(-1, 1), zero)
    assert contains_point(pre_hit, [F(100), F(-100)])
    pre_miss = preimage_linear(box2(1, 2), zero)
    assert is_empty(pre_miss)


def test_remove_redundancy_preserves_the_set():
    rng = random.Random(17)
    for _ in range(40):
        cons = [
            constraint(
                [rng.randrange(-3, 4) or 1, rng.randrange(-3, 4)],
                rng.randrange(-2, 6),
                rng.random() < 0.3,
            )
            for _ in range(rng.randrange(3, 8))
        ]
        cell = intersect(Cell(2, cons), box2(-4, 4))
        reduced = remove_redundancy(cell)
        assert len(reduced.constraints) <= len(cell.constraints)
        assert is_empty(cell) == is_empty(reduced)
        # Region.of prunes empty cells, so both differences are exact
        assert difference(Region.of([cell]), Region.of([reduced])).is_empty()
        assert difference(Region.of([reduced]), Region.of([cell])).is_empty()


def test_remove_redundancy_drops_duplicate_and_slack_rows():
    cell = Cell(
        1,
        [
            constraint([1], 1),
            constraint([1], 1),
            constraint([1], 5),  # implied by x <= 1
            constraint([-1], 0),
        ],
    )
    reduced = remove_redundancy(cell)
    assert len(reduced.constraints) == 2


def test_bounding_box_exact_and_unbounded():
    assert bounding_box(box2(-1, 3)) == ((F(-1), F(3)), (F(-1), F(3)))
    half = Cell(2, [constraint([1, 0], 2)])
    (xlo, xhi), (ylo, yhi) = bounding_box(half)
    assert xhi == 2 and xlo is None and ylo is None and yhi is None


def test_cell_subset_and_disjoint():
    assert cell_subset(box2(0, 1), box2(-1, 2))
    assert not cell_subset(box2(-1, 2), box2(0, 1))
    assert cells_disjoint(box2(0, 1, strict=True), box2(1, 2))
    assert not cells_disjoint(box2(0, 1), box2(1, 2))  # shared corner


def _interval_oracle_1d(cell):
    """Exact 1-D emptiness by interval arithmetic on (bound, strict)."""
    lo, lo_strict = None, False
    hi, hi_strict = None, False
    for c in cell.constraints:
        a, b = c.normal[0], c.offset
        if a > 0:
            bound = b / a
            if hi is None or bound < hi or (bound == hi and c.strict):
                hi, hi_strict = bound, c.strict
        else:
            bound = b / a
            if lo is None or bound > lo or (bound == lo and c.strict):
                lo, lo_strict = bound, c.strict
    if lo is None or hi is None:
        return False
    if lo < hi:
        return False
    return lo > hi or lo_strict or hi_strict


def test_is_empty_matches_1d_interval_oracle():
    rng = random.Random(19)
    for _ in range(500):
        cons = [
            constraint(
                [rng.choice([-2, -1, 1, 2])],
                Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3])),
                rng.random() < 0.5,
            )
            for _ in range(rng.randrange(2, 6))
        ]
        cell = Cell(1, cons)
        assert is_empty(cell) == _interval_oracle_1d(cell)


def test_is_empty_matches_2d_vertex_oracle_closed():
    # closed cells inside a box: non-empty iff some pairwise intersection
    # vertex is feasible
    rng = random.Random(23)
    for _ in range(120):
        cons = [
            constraint(
                [rng.randrange(-2, 3) or 1, rng.randrange(-2, 3)],
                rng.randrange(-3, 4),
            )
            for _ in range(rng.randrange(2, 6))
        ]
        cell = intersect(Cell(2, cons), box2(-5, 5))
        feasible = False
        cs = cell.constraints
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                (a1, b1), (a2, b2) = cs[i].normal, cs[j].normal
                det = a1 * b2 - b1 * a2
                if det == 0:
                    continue
                x = (cs[i].offset * b2 - b1 * cs[j].offset) / det
                y = (a1 * cs[j].offset - cs[i].offset * a2) / det
                if contains_point(cell, (x, y)):
                    feasible = True
        assert is_empty(cell) == (not feasible)


def _random_cell(rng, n):
    """A cell in R^n with strict facets, flat pieces (a row and its
    reverse), duplicate and slack rows, and sometimes no bounding box."""
    rows = []
    for _ in range(rng.randrange(1, 5)):
        normal = [rng.randrange(-2, 3) for _ in range(n)]
        if not any(normal):
            normal[rng.randrange(n)] = 1
        rows.append(constraint(normal, rng.randrange(-2, 4), rng.random() < 0.3))
    kind = rng.random()
    if kind < 0.2:
        c = constraint(rows[0].normal, rows[0].offset)
        rows[0] = c
        rows.append(constraint([-a for a in c.normal], -c.offset))
    elif kind < 0.5:
        c = rng.choice(rows)
        rows.append(constraint(c.normal, c.offset + rng.choice([0, 1]), c.strict))
    if rng.random() < 0.7:
        for j in range(n):
            unit = [int(k == j) for k in range(n)]
            rows.append(constraint(unit, 3))
            rows.append(constraint([-u for u in unit], 3))
    rng.shuffle(rows)
    return Cell(n, rows)


def _difference_with_pruned_complement(a, b):
    """a \\ b cut by the pruned complement of each cell of b."""
    current = list(a.cells)
    for bc in b.cells:
        nxt = []
        for piece in current:
            if cells_disjoint(piece, bc):
                nxt.append(piece)
                continue
            for cc in complement(bc).cells:
                inter = intersect(piece, cc)
                if not is_empty(inter):
                    nxt.append(inter)
        current = nxt
    return current


@pytest.mark.parametrize("n", [1, 2, 3])
def test_difference_matches_pruned_complement_reference(n):
    rng = random.Random(500 + n)
    for _ in range(40):
        first = _random_cell(rng, n)
        a_cells = [first]
        if rng.random() < 0.4:  # a second cell of a, disjoint from the first
            a_cells += complement(first).cells[:1]
        a = Region.of(a_cells)
        b = Region(tuple(_random_cell(rng, n) for _ in range(rng.randrange(1, 4))))
        got = difference(a, b)
        want = _difference_with_pruned_complement(a, b)
        assert [c.constraints for c in got.cells] == [c.constraints for c in want]
        assert [c.constraints for c in got.cells] == [
            c.constraints for c in _difference_by_disjointness(a, b)
        ]
        for bc in b.cells:  # cell_subset shares the cut and its box test
            assert cell_subset(first, bc) == all(
                is_empty(intersect(first, cc)) for cc in complement(bc).cells
            )
        for _ in range(20):
            p = [Fraction(rng.randrange(-28, 29), 8) for _ in range(n)]
            hits = sum(1 for c in got.cells if contains_point(c, p))
            expect = _in_region(a, p) and not _in_region(b, p)
            assert hits == int(expect)


def test_difference_solves_no_lp_for_complement_pieces(fallbacks):
    a, b = box2(0, 2), box2(1, 3)
    for cell in (a, b):
        bounding_box(cell)
    fallbacks.clear()
    d = difference(Region((a,)), Region((b,)))
    # both boxes carry their corners, so the meet test and every complement
    # piece of b (x < 1, x >= 1 with y < 1, and the empty x > 3 and y > 3)
    # are decided by clipping a's vertices: no LP, no Cramer box
    assert fallbacks == []
    assert len(d.cells) == 2


@pytest.mark.parametrize(
    "rows, cells",
    [
        # x <= 0 holds only on the face x = 0 of a, and the flat piece
        # {x = 0, 1 < y <= 2} of the complement piece after it stays
        ([constraint([1, 0], 0), constraint([0, 1], 1)], 2),
        # x >= 2, the negation of x < 2, holds on the face x = 2 of a
        ([constraint([1, 0], 2, True)], 1),
        # x > 2, the negation of x <= 2, is tight at a's vertices on x = 2
        # and strict there: empty
        ([constraint([1, 0], 2), constraint([0, 1], 1)], 1),
    ],
)
def test_difference_decides_face_contacts_at_vertices(fallbacks, rows, cells):
    a, b = Region((box2(0, 2),)), Region((Cell(2, rows),))
    for cell in a.cells + b.cells:
        bounding_box(cell)
    fallbacks.clear()
    got = difference(a, b)
    # b is unbounded and has no vertices; a's corners decide every piece,
    # the flat ones on its faces too
    assert fallbacks == []
    assert len(got.cells) == cells
    want = _difference_with_pruned_complement(a, b)
    assert [c.constraints for c in got.cells] == [c.constraints for c in want]


def test_remove_redundancy_carries_the_box_of_a_non_empty_cell(fallbacks):
    rng = random.Random(29)
    checked = 0
    for _ in range(80):
        cell = _random_cell(rng, rng.choice([1, 2, 3]))
        if is_empty(cell):
            continue
        box = bounding_box(cell)
        reduced = remove_redundancy(cell)
        fallbacks.clear()
        assert bounding_box(reduced) == box
        assert fallbacks == []
        assert bounding_box(Cell(reduced.dim, reduced.constraints)) == box
        checked += 1
    assert checked >= 40
    # an empty cell's box is not carried over: y <= 5 is redundant, and
    # dropping it changes the box of the relaxed rows
    empty = Cell(
        2, [constraint([1, 0], 0, True), constraint([-1, 0], 0), constraint([0, 1], 5)]
    )
    assert is_empty(empty)
    assert bounding_box(empty) == ((0, 0), (None, 5))
    reduced = remove_redundancy(empty)
    assert bounding_box(reduced) == bounding_box(Cell(2, reduced.constraints))
    assert bounding_box(reduced) == ((0, 0), (None, None))


_BIG = 10**12 + 39


def _scaled_rational(rng):
    """A rational from a mix of scales: zero, small, and 1e12-sized
    numerators and denominators, either sign."""
    num = rng.choice([0, rng.randrange(-9, 10), rng.randrange(-_BIG, _BIG)])
    den = rng.choice([1, rng.randrange(1, 12), rng.randrange(1, _BIG)])
    return Fraction(num, den)


def _as_input(rng, v):
    """v as an int, a string or a Fraction, the three accepted spellings."""
    kind = rng.randrange(3)
    if kind == 0 and v.denominator == 1:
        return int(v)
    if kind == 1:
        return str(v)
    return v


def _on_facet(c, p):
    """The orthogonal projection of p onto the hyperplane of row c."""
    a = c.normal
    t = (c.offset - sum(x * y for x, y in zip(a, p))) / sum(x * x for x in a)
    return tuple(x + t * y for x, y in zip(p, a))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_membership_kernel_matches_constraint_holds(n):
    rng = random.Random(100 + n)
    on_strict = on_closed = 0
    for _ in range(150):
        rows = []
        for _ in range(rng.randrange(1, 6)):
            normal = [_scaled_rational(rng) for _ in range(n)]
            if not any(normal):
                normal[rng.randrange(n)] = Fraction(1, rng.choice([1, _BIG]))
            rows.append(Constraint(tuple(normal), _scaled_rational(rng), rng.random() < 0.4))
        cell = Cell(n, rows)
        for _ in range(8):
            p = tuple(_scaled_rational(rng) for _ in range(n))
            if rng.random() < 0.6:  # exactly on the facet of one row
                c = rng.choice(rows)
                p = _on_facet(c, p)
                assert c.holds(p) is not c.strict
                on_strict += c.strict
                on_closed += not c.strict
            want = all(c.holds(p) for c in cell.constraints)
            raw = [_as_input(rng, v) for v in p]
            assert contains_point(cell, raw) is want
            x, m = scale_point(raw, n)
            assert m > 0 and all(isinstance(v, int) for v in x)
            assert tuple(Fraction(v, m) for v in x) == p
            assert contains_scaled(cell, x, m) is want
    assert on_strict > 50 and on_closed > 50


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_test_on_scaled_points_matches_fractions(n):
    rng = random.Random(200 + n)
    for _ in range(60):
        cell = _random_cell(rng, n)
        box = bounding_box(cell)
        for _ in range(10):
            # box corners and edges land exactly on the box's faces
            p = tuple(
                rng.choice([v for v in (lo, hi) if v is not None] or [_ZERO])
                if rng.random() < 0.5
                else Fraction(rng.randrange(-28, 29), 8)
                for lo, hi in box
            )
            want = all(
                (lo is None or v >= lo) and (hi is None or v <= hi)
                for (lo, hi), v in zip(box, p)
            )
            assert box_contains_scaled(cell, *scale_point(p, n)) is want
            if contains_point(cell, p):
                assert want


def _fraction_box(points, h=None):
    """min and max per coordinate of Fraction points; a side past -h or h
    is open (None)."""
    box = tuple((min(col), max(col)) for col in zip(*points))
    if h is None:
        return box
    return tuple((None if lo < -h else lo, None if hi > h else hi) for lo, hi in box)


def _scaled_cell(rng, n):
    """``_random_cell`` with each row scaled by a random positive rational,
    so its vertices have unlike denominators."""
    cell = _random_cell(rng, n)
    rows = []
    for c in cell.constraints:
        k = Fraction(rng.randrange(1, 8), rng.randrange(1, 8))
        rows.append(Constraint(tuple(k * a for a in c.normal), k * c.offset, c.strict))
    return Cell(n, rows)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bounding_box_matches_the_fraction_extremes(n):
    """The integer box is the Fraction minimum and maximum of ``vertices``
    on bounded cells, and of the Cramer clip's vertices with the sides past
    -H or H open on unbounded ones, fresh or derived by ``intersect``."""
    rng = random.Random(900 + n)
    kinds = Counter()
    for _ in range(40):
        a, b = _scaled_cell(rng, n), _scaled_cell(rng, n)
        for cell in (a, intersect(a, b)):
            box = bounding_box(cell)
            points = vertices(cell)
            if points is None:
                kinds["unbounded"] += 1
                clip = geometry._cramer_vertices(Cell(n, cell.constraints))
                h = geometry._cramer_bound(cell)
                want = _fraction_box([tuple(Fraction(v, m) for v in x) for x, m, _ in clip], h)
            else:
                kinds["bounded" if points else "no vertex"] += 1
                want = _fraction_box(points) if points else ((_ZERO, F(-1)),) * n
            assert box == want
            assert all(type(v) is Fraction for side in box for v in side if v is not None)
    assert min(kinds.values()) >= 5 and len(kinds) == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_boxes_overlap_matches_the_fraction_comparison(n):
    """Pairs of random cells, the second shifted by a random vector so
    that many boxes miss or touch: the integer comparison answers as the
    Fraction one does."""
    rng = random.Random(950 + n)
    answers = Counter()
    for _ in range(60):
        a, b = _scaled_cell(rng, n), _scaled_cell(rng, n)
        t = [Fraction(rng.randrange(-12, 13), rng.randrange(1, 3)) for _ in range(n)]
        b = Cell(n, [
            Constraint(c.normal, c.offset + sum(u * v for u, v in zip(c.normal, t)), c.strict)
            for c in b.constraints
        ])
        want = not any(
            (ahi is not None and blo is not None and ahi < blo)
            or (bhi is not None and alo is not None and bhi < alo)
            for (alo, ahi), (blo, bhi) in zip(bounding_box(a), bounding_box(b))
        )
        assert geometry.boxes_overlap(a, b) is want
        answers[want] += 1
    assert answers[True] >= 5 and answers[False] >= 5


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_one_elimination_solves_every_column(n):
    """``_solve_integer`` with k right-hand-side columns gives each
    column's solution over one d > 0, and None for a singular matrix."""
    rng = random.Random(990 + n)
    for _ in range(30):
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            a[-1] = [2 * v for v in a[0]]  # singular
        cols = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(rng.randrange(0, 5))]
        solved = geometry._solve_integer(
            [row[:] for row in a], [[col[i] for col in cols] for i in range(n)]
        )
        if solved is None:
            assert _rank(a) < n
            continue
        d, ys = solved
        assert d > 0 and len(ys) == len(cols)
        for y, col in zip(ys, cols):
            assert [sum(r * v for r, v in zip(row, y)) for row in a] == [d * v for v in col]


def test_point_of_the_wrong_dimension_is_rejected():
    cell = box2(0, 2)
    for bad in ([1], [1, 1, 1], []):
        with pytest.raises(ValueError):
            contains_point(cell, bad)
        with pytest.raises(ValueError):
            scale_point(bad, 2)


def _split_reference(cell, other):
    """split written out: the intersection tested on its own, and the
    outside part as a set difference."""
    inside = intersect(cell, other)
    outside = difference(Region((cell,)), Region((other,))).cells
    return (None if is_empty(inside) else inside), list(outside)


def _checked_split(cell, other, points):
    """split(cell, other), checked row for row against _split_reference and
    point by point: a point of the cell lies in the inside part iff it
    lies in the other cell, and else in exactly one outside piece."""
    inside, outside = split(cell, other)
    want_in, want_out = _split_reference(cell, other)
    assert (inside is None) == (want_in is None)
    if inside is not None:
        assert inside.constraints == want_in.constraints
    assert [c.constraints for c in outside] == [c.constraints for c in want_out]
    for p in points:
        in_cell, in_other = contains_point(cell, p), contains_point(other, p)
        assert (inside is not None and contains_point(inside, p)) == (
            in_cell and in_other
        )
        assert sum(1 for c in outside if contains_point(c, p)) == int(
            in_cell and not in_other
        )
    return inside, outside


def _quarter_grid(lo, hi):
    """The points of [lo, hi]^2 with coordinates in quarters."""
    ticks = [Fraction(i, 4) for i in range(4 * lo, 4 * hi + 1)]
    return [(x, y) for x in ticks for y in ticks]


def _other_cell(rng, n):
    """A cell to split by: a random cell, or a box with some strict rows,
    or one of the box's complement pieces."""
    if rng.random() < 0.5:
        return _random_cell(rng, n)
    lo, hi = rng.randrange(-3, 1), rng.randrange(1, 4)
    rows = []
    for j in range(n):
        unit = [int(k == j) for k in range(n)]
        rows.append(constraint(unit, hi, rng.random() < 0.3))
        rows.append(constraint([-u for u in unit], -lo, rng.random() < 0.3))
    rng.shuffle(rows)
    box = Cell(n, rows)
    return rng.choice((box,) + complement(box).cells)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_split_matches_the_reference(n):
    rng = random.Random(700 + n)
    meets = Counter()
    for _ in range(100):
        cell, other = _random_cell(rng, n), _other_cell(rng, n)
        if rng.random() < 0.2:  # a cell inside the other
            cell = intersect(other, cell)
        if is_empty(cell):
            continue
        points = [
            [Fraction(rng.randrange(-28, 29), 8) for _ in range(n)] for _ in range(20)
        ]
        inside, outside = _checked_split(cell, other, points)
        meets[inside is not None, bool(outside)] += 1
    # cells that miss the other, meet it with a rest, and lie in it all occur
    assert min(meets[False, True], meets[True, True], meets[True, False]) >= 5, meets


def _segment(x, ylo):
    """The flat cell x = x, ylo <= y <= 2."""
    return Cell(
        2,
        [constraint([1, 0], x), constraint([-1, 0], -x), constraint([0, 1], 2), constraint([0, -1], -ylo)],
    )


@pytest.mark.parametrize(
    "x, strict, parts",
    [
        # the segment x = 2, 0 <= y <= 2 crosses the face y = 1 of the box
        # [1, 3]^2, which keeps 1 <= y of it, or 1 < y when the box is open
        (2, False, (True, 1)),
        (2, True, (True, 1)),
        # on the face x = 1 the box keeps 1 <= y <= 2 of it, and the open
        # box none
        (1, False, (True, 1)),
        (1, True, (False, 1)),
    ],
)
def test_split_of_a_flat_cell(x, strict, parts):
    inside, outside = _checked_split(
        _segment(x, 0), box2(1, 3, strict), _quarter_grid(-1, 4)
    )
    assert (inside is not None, len(outside)) == parts


@pytest.mark.parametrize("strict, rest", [(False, 0), (True, 1)])
def test_split_of_a_flat_cell_inside_the_box(strict, rest):
    # the segment x = 2, 1 <= y <= 2 lies in the box [1, 3]^2, which
    # leaves nothing of it outside; the open box leaves the point y = 1
    inside, outside = _checked_split(
        _segment(2, 1), box2(1, 3, strict), _quarter_grid(-1, 4)
    )
    assert inside is not None and len(outside) == rest


def test_split_decides_each_intersection_once(fallbacks, monkeypatch):
    cell = box2(0, 2)
    far = box2(5, 6)  # its box misses the cell's box: not tested
    meets = box2(1, 3)
    # its box overlaps the cell's box, but the cell lies in x + y >= 0
    corner = Cell(2, [constraint([-1, 0], 1), constraint([0, -1], 1), constraint([1, 1], F("-1/2"))])
    for c in (cell, far, meets, corner):
        bounding_box(c)
    decided = []
    real = geometry.is_empty

    def is_empty(c):
        if c._empty is None:
            decided.append(c.constraints)
        return real(c)

    monkeypatch.setattr(geometry, "is_empty", is_empty)
    fallbacks.clear()
    assert split(cell, far) == (None, [cell]) and decided == []
    assert split(cell, corner) == (None, [cell]) and len(decided) == 1
    inside, outside = split(cell, meets)
    # the cell meets `meets`, and the four complement pieces of `meets` cut
    # the rest (x < 1 and x >= 1 with y < 1 stay, x > 3 and y > 3 are
    # empty).  The cell's corners decide all six, each once, with no
    # Cramer box
    assert fallbacks == []
    assert len(decided) == len(set(decided)) == 6
    assert inside.constraints == intersect(cell, meets).constraints
    assert len(outside) == 2
    for other in (far, corner, meets):
        _checked_split(cell, other, _quarter_grid(-1, 7))


def _greedy_reference(cell):
    """remove_redundancy's rows as the plain greedy decides them: one
    emptiness test per distinct row, in order."""
    kept = list(dict.fromkeys(cell.constraints))
    i = 0
    while i < len(kept):
        others = kept[:i] + kept[i + 1 :]
        if is_empty(Cell(cell.dim, others + [kept[i].negated()])):
            kept.pop(i)
        else:
            i += 1
    return kept


def _unit(n, j, sign=1):
    return [sign * int(k == j) for k in range(n)]


def _redundancy_case(rng, n):
    """(cell, kinds): a random cell with the rows that certificates must
    leave to the greedy, and the names of the kinds it holds."""
    kinds = set()
    lo, hi = rng.randrange(-3, 1), rng.randrange(1, 4)
    rows = []
    if rng.random() < 0.8:
        for j in range(n):
            rows.append(constraint(_unit(n, j), hi, rng.random() < 0.3))
            rows.append(constraint(_unit(n, j, -1), -lo, rng.random() < 0.3))
    else:
        kinds.add("unbounded")
    for _ in range(rng.randrange(1, 4)):
        normal = [rng.randrange(-2, 3) for _ in range(n)]
        if not any(normal):
            normal[rng.randrange(n)] = 1
        rows.append(constraint(normal, rng.randrange(-2, 6), rng.random() < 0.3))
    for _ in range(rng.randrange(0, 3)):
        c = rng.choice(rows)
        kind = rng.randrange(4)
        if kind == 0:  # a scaled twin
            k = rng.choice([F(2), F("1/2"), F(3)])
            rows.append(Constraint(tuple(k * a for a in c.normal), k * c.offset, c.strict))
            kinds.add("scaled twin")
        elif kind == 1:  # a strict/non-strict twin
            rows.append(Constraint(c.normal, c.offset, not c.strict))
            kinds.add("strict twin")
        elif kind == 2:  # the reverse row: a flat cell when both hold
            rows.append(Constraint(tuple(-a for a in c.normal), -c.offset, False))
            kinds.add("reverse")
        else:
            rows.append(c)
            kinds.add("duplicate")
    if n > 1 and rng.random() < 0.4:
        # a row through a corner of the box [lo, hi]^n whose hyperplane
        # meets the box only there: strict, it removes that corner alone
        signs = [rng.choice([-1, 1]) for _ in range(n)]
        corner = sum(s * (hi if s > 0 else lo) for s in signs)
        rows.append(constraint(signs, corner, rng.random() < 0.7))
        kinds.add("corner")
    rng.shuffle(rows)
    return Cell(n, rows), kinds


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_remove_redundancy_matches_the_plain_greedy(n, lp_calls, fallbacks):
    rng = random.Random(900 + n)
    seen = Counter()
    saved = Counter()
    for _ in range(150):
        cell, kinds = _redundancy_case(rng, n)
        want = _greedy_reference(cell)
        greedy_tests = len(dict.fromkeys(cell.constraints))
        # the cell as a caller holds it: not asked about yet, or with its
        # emptiness or its box known (either one gives it its vertices)
        state = rng.choice(["unknown", "known", "own box"])
        if state != "unknown":
            seen["empty" if is_empty(cell) else "non-empty"] += 1
        if state == "own box":
            bounding_box(cell)
        # a cell that no caller has asked about takes its own Cramer start
        # inside remove_redundancy, once; every other start is a greedy test
        own = [cell.constraints] * (cell._verts is None)
        fallbacks.clear()
        got = remove_redundancy(cell)
        assert list(got.constraints) == want
        greedy = [c for c in fallbacks if c != cell.constraints]
        assert fallbacks[: len(own)] == own and len(fallbacks) == len(own) + len(greedy)
        assert len(greedy) <= greedy_tests
        saved[state] += greedy_tests - len(fallbacks)
        seen[state] += 1
        seen.update(kinds)
        if cell._empty is False:
            fresh = Cell(n, got.constraints)
            assert bounding_box(got) == bounding_box(fresh)
            for p in (sample_point(cell),) + tuple(
                tuple(Fraction(rng.randrange(-16, 17), 4) for _ in range(n)) for _ in range(10)
            ):
                assert contains_point(got, p) is contains_point(fresh, p)
    kinds = ["unbounded", "scaled twin", "strict twin", "reverse", "duplicate", "empty"]
    kinds += ["known", "own box", "unknown"] + ["corner"] * (n > 1)
    assert min(seen[k] for k in kinds) >= 5, seen
    assert lp_calls == []
    # Cramer starts saved against the plain greedy, whose every test cell
    # has no source and takes one.  A cell that the caller has asked about
    # ("known", "own box") has its vertices, whose faces decide every row
    # of a full-dimensional cell; an "unknown" cell pays for its own start
    # first
    assert dict(saved) == {
        1: {"unknown": 28, "known": 120, "own box": 91},
        2: {"unknown": 95, "known": 166, "own box": 178},
        3: {"unknown": 220, "known": 282, "own box": 236},
        4: {"unknown": 310, "known": 372, "own box": 325},
    }[n]


def test_remove_redundancy_cramer_box_count(lp_calls, fallbacks):
    # the diamond |x| + |y| <= 2 with a row beyond its box, a duplicate, a
    # scaled twin of x + y <= 2, and x + 2y <= 4, which touches it at (0, 2)
    diamond = [constraint([a, b], 2) for a, b in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    twin, touch = constraint([2, 2], 4), constraint([1, 2], 4)
    rows = diamond[:1] + [constraint([1, 0], 3)] + diamond[1:] + [diamond[0], twin, touch]
    cell = Cell(2, rows)
    assert not is_empty(cell)
    # the cell took its own Cramer start in is_empty: its box is its four
    # vertices' box
    fallbacks.clear()
    assert bounding_box(cell) == ((-2, 2), (-2, 2))
    got = remove_redundancy(cell)
    # no row is tight at all four vertices, so their faces decide every
    # row, with no test cell and no Cramer start.  x + y has the face of
    # its twin 2x + 2y, still to be walked: dropped.  x <= 3 is slack at
    # all of them: dropped.  x - y, -x + y and -x - y each have a face
    # that no other row's contains: kept.  The twin's face is no longer
    # in another row's once x + y is gone: kept.  x + 2y is tight at
    # (0, 2) alone, inside the twin's face: dropped.  The plain greedy
    # takes seven tests
    assert len(fallbacks) == 0
    assert list(got.constraints) == diamond[1:] + [twin]
    assert list(got.constraints) == _greedy_reference(cell)
    assert geometry.vertices(got) == geometry.vertices(cell)
    # a triangle with a slack row: unasked, it takes its own Cramer start
    # in remove_redundancy, and its vertices then decide every row; with
    # its box (from that start) it takes none
    triangle = [constraint([-1, 0], 0), constraint([0, -1], 0), constraint([1, 1], 2)]
    triangle.append(constraint([1, 1], 3))
    for boxed, boxes in ((False, 1), (True, 0)):
        cell = Cell(2, triangle)
        if boxed:
            bounding_box(cell)
        fallbacks.clear()
        got = remove_redundancy(cell)
        assert fallbacks == [tuple(triangle)] * boxes
        assert list(got.constraints) == triangle[:3] == _greedy_reference(cell)
        assert (got._bbox is None) is not boxed
    assert lp_calls == []


def test_split_of_a_cell_inside_a_region_cell_solves_no_lp(fallbacks):
    cell = box2(1, 2)
    holds = box2(0, 2)  # holds on the whole box [1, 2]^2
    touches = box2(0, 2, strict=True)  # fails on its faces x = 2, y = 2
    for other in (holds, touches):
        for c in (cell, other):
            bounding_box(c)
        assert not is_empty(cell)
        fallbacks.clear()
        inside, outside = split(cell, other)
        assert fallbacks == []
        if other is holds:
            # every row of the other holds at every corner of the cell: the
            # intersection is the cell, with its vertices, centroid and box
            assert outside == []
            assert geometry.vertices(inside) == geometry.vertices(cell)
            assert sample_point(inside) == sample_point(cell)
            assert bounding_box(inside) == bounding_box(cell)
        else:
            # the open box's rows x < 2 and y < 2 are tight at corners of
            # the cell: its vertices are clipped, still with no Cramer box
            assert len(outside) == 2
        _checked_split(cell, other, _quarter_grid(0, 3))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_axis_aligned_box_needs_no_lp(n, lp_calls, fallbacks):
    rng = random.Random(300 + n)
    seen = Counter()
    for _ in range(120):
        rows = []
        for _ in range(rng.randrange(0, 3 * n + 1)):
            j = rng.randrange(n)
            a = rng.choice([-3, -2, -1, F("-1/2"), F("1/2"), 1, 2, 3])
            offset = Fraction(rng.randrange(-6, 7), rng.choice([1, 2, 3]))
            rows.append(constraint([a * u for u in _unit(n, j)], offset, rng.random() < 0.4))
            if rng.random() < 0.2:  # the same bound again
                rows.append(rows[-1])
        cell = Cell(n, rows)
        lp_calls.clear()
        fallbacks.clear()
        box = bounding_box(cell)
        open_side = any(v is None for side in box for v in side)
        # one Cramer start for the cell, which settles an unbounded box too
        assert lp_calls == [] and fallbacks == [cell.constraints]
        assert box == lp_box(Cell(n, rows))
        empty_closure = box == tuple((0, -1) for _ in range(n))
        seen["empty closure" if empty_closure else "box"] += 1
        seen["open side"] += open_side
        seen["strict"] += any(c.strict for c in rows)
        seen["repeated"] += len(set(rows)) < len(rows)
    assert min(seen.values()) >= 10 and len(seen) == 5, seen
