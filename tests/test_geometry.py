"""Partially-open polytope algebra: hand examples plus randomized
agreement checks against independent oracles."""

import random
from fractions import Fraction

import pytest

from polybisim import lp
from polybisim.geometry import (
    Cell,
    Region,
    bounding_box,
    cell_subset,
    cells_disjoint,
    complement,
    constraint,
    contains_point,
    difference,
    empty_cell,
    intersect,
    is_empty,
    preimage_linear,
    region_contains_point,
    remove_redundancy,
    sample_point,
    vec,
)


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


def test_difference_membership_and_disjointness():
    a = Region.of([box2(0, 4)])
    b = Region.of([box2(1, 2), box2(3, 5)])
    d = difference(a, b)
    rng = random.Random(11)
    for _ in range(300):
        p = [Fraction(rng.randrange(-8, 48), 8) for _ in range(2)]
        expect = region_contains_point(a, p) and not region_contains_point(b, p)
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
        for _ in range(20):
            p = [Fraction(rng.randrange(-28, 29), 8) for _ in range(n)]
            hits = sum(1 for c in got.cells if contains_point(c, p))
            expect = region_contains_point(a, p) and not region_contains_point(b, p)
            assert hits == int(expect)


@pytest.fixture
def lp_calls(monkeypatch):
    """A list that grows by one for every LP solved while the test runs."""
    calls = []
    real = lp.maximize

    def maximize(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "maximize", maximize)
    return calls


def test_difference_solves_no_lp_for_complement_pieces(lp_calls):
    a, b = box2(0, 2), box2(1, 3)
    for cell in (a, b):
        bounding_box(cell)
    lp_calls.clear()
    d = difference(Region((a,)), Region((b,)))
    # one LP proves that a meets b, then one per intersection of a with a
    # complement piece of b; no LP proves a piece on its own
    assert len(lp_calls) == 5
    assert len(d.cells) == 2


def test_remove_redundancy_carries_the_box_of_a_non_empty_cell(lp_calls):
    rng = random.Random(29)
    checked = 0
    for _ in range(80):
        cell = _random_cell(rng, rng.choice([1, 2, 3]))
        if is_empty(cell):
            continue
        box = bounding_box(cell)
        reduced = remove_redundancy(cell)
        lp_calls.clear()
        assert bounding_box(reduced) == box
        assert lp_calls == []
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
