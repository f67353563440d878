"""Vertex-carrying cells and Cramer boxes against the exact simplex.

A cell gets the vertices of its relaxed closure from one of two sources:
the cell it is derived from, or else the corners of its Cramer box
clipped by its rows, a clip that also finds an unbounded closure.  The
vertices decide its box, emptiness and, on a full-dimensional closure,
its redundant rows.  These seeded tests compare every such answer with
an independent one: the vertices with a brute-force intersection of
every n rows, the box with ``lp_box``, emptiness with ``slack_lp`` (both in
``tests/lp_reference.py``), and ``remove_redundancy`` with a greedy that
solves one emptiness LP per row.  They also prove the paper fixture's
transitions at the vertices of its blocks.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from polybisim import geometry
from polybisim.abstraction import find_pre
from polybisim.geometry import (
    Cell,
    Constraint,
    apply_matrix,
    bounding_box,
    cell_subset,
    constraint,
    contains_point,
    intersect,
    is_empty,
    preimage_linear,
    remove_redundancy,
    sample_point,
    vertices,
)
from polybisim.lyapunov import LinearSystem, _rank
from lp_reference import lp_box, lp_empty


def _lp_greedy(cell):
    """The plain greedy: one slack LP per distinct row, in order."""
    kept = list(dict.fromkeys(cell.constraints))
    i = 0
    while i < len(kept):
        if lp_empty(Cell(cell.dim, kept[:i] + kept[i + 1 :] + [kept[i].negated()])):
            kept.pop(i)
        else:
            i += 1
    return kept


def _solve(rows, rhs):
    """The unique solution of a square rational system, or None."""
    n = len(rows)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col]), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                aug[r] = [u - aug[r][col] * v for u, v in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)


def _brute_vertices(cell):
    """Every point where n rows meet in one point and all rows hold
    relaxed: the vertices of the relaxed closure."""
    found = set()
    for rows in combinations(cell.constraints, cell.dim):
        p = _solve([c.normal for c in rows], [c.offset for c in rows])
        if p is not None and all(
            sum(a * x for a, x in zip(c.normal, p)) <= c.offset for c in cell.constraints
        ):
            found.add(p)
    return found


def _random_rows(rng, n, count):
    rows = []
    for _ in range(count):
        normal = [rng.randrange(-2, 3) for _ in range(n)]
        if not any(normal):
            normal[rng.randrange(n)] = 1
        rows.append(constraint(normal, rng.randrange(-2, 5), rng.random() < 0.3))
    return rows


def _unit(n, j, sign=1):
    return [sign * int(k == j) for k in range(n)]


def _large_row(rng, n):
    """A row whose entries have numerators near 10^6 and denominators near
    10^3, its hyperplane within about 2 of the origin."""
    def big():
        numerator = rng.choice([-1, 1]) * rng.randrange(999000, 1001001)
        return Fraction(numerator, rng.randrange(990, 1011))

    normal = [big() if rng.random() < 0.7 else 0 for _ in range(n)]
    if not any(normal):
        normal[rng.randrange(n)] = big()
    return constraint(normal, big() * rng.randrange(-2, 3), rng.random() < 0.3)


def _case(rng, n):
    """(cell, kinds): random rows inside a box [lo, hi]^n (or no box), with
    twins, flat pieces, strict rows through a corner of the box, rows with
    large coefficients, or every row strict.  Or, with no box: an open
    cone (strict rows through the origin only), or lineality (rows along
    fewer than n directions, opposite pairs among them)."""
    kinds = set()
    shape = rng.random()
    if shape < 0.1:
        kinds.add("open cone")
        rows = _random_rows(rng, n, rng.randrange(1, n + 2))
        rows = [Constraint(c.normal, Fraction(0), True) for c in rows]
        return Cell(n, rows), kinds
    if shape < 0.2:
        kinds.add("lineality")
        rows = []
        for _ in range(rng.randrange(n)):
            d = _random_rows(rng, n, 1)[0].normal
            rows.append(constraint(d, rng.randrange(0, 4), rng.random() < 0.3))
            rows.append(constraint([-a for a in d], rng.randrange(-2, 4), rng.random() < 0.3))
        rng.shuffle(rows)
        return Cell(n, rows), kinds
    lo, hi = rng.randrange(-3, 1), rng.randrange(1, 4)
    rows = _random_rows(rng, n, rng.randrange(1, 4))
    if rng.random() < 0.15:
        rows += [_large_row(rng, n) for _ in range(rng.randrange(1, 3))]
        kinds.add("large coefficients")
    if rng.random() < 0.8:
        for j in range(n):
            rows.append(constraint(_unit(n, j), hi, rng.random() < 0.3))
            rows.append(constraint(_unit(n, j, -1), -lo, rng.random() < 0.3))
    else:
        kinds.add("unbounded")
    for _ in range(rng.randrange(0, 3)):
        c = rng.choice(rows)
        kind = rng.randrange(3)
        if kind == 0:
            k = rng.choice([Fraction(2), Fraction(1, 2), Fraction(3)])
            rows.append(Constraint(tuple(k * a for a in c.normal), k * c.offset, c.strict))
            kinds.add("scaled twin")
        elif kind == 1:
            rows.append(Constraint(c.normal, c.offset, not c.strict))
            kinds.add("strict twin")
        else:  # both directions of one hyperplane: a flat cell
            rows[rows.index(c)] = constraint(c.normal, c.offset)
            rows.append(constraint([-a for a in c.normal], -c.offset))
            kinds.add("flat")
    if rng.random() < 0.4:
        # a strict row whose hyperplane meets the box at one corner only
        signs = [rng.choice([-1, 1]) for _ in range(n)]
        rows.append(constraint(signs, sum(s * (hi if s > 0 else lo) for s in signs), True))
        kinds.add("strict through a vertex")
    if rng.random() < 0.15:
        rows = [Constraint(c.normal, c.offset, True) for c in rows]
        kinds.add("all strict")
    rng.shuffle(rows)
    return Cell(n, rows), kinds


def _steep_cone(rng, n):
    """x_1 >= c and k_j x_j - x_(j+1) <= c_j with k_j about 100, rows in
    random order, some strict: for n > 1, the Cramer clip stays far below
    the side S of its box along the open side x_1 <= ..., and passes H."""
    rows = [constraint(_unit(n, 0, -1), rng.randrange(0, 3), rng.random() < 0.3)]
    for j in range(n - 1):
        normal = [0] * n
        normal[j], normal[j + 1] = rng.randrange(90, 111), -1
        rows.append(constraint(normal, rng.randrange(-2, 3), rng.random() < 0.3))
    rng.shuffle(rows)
    return Cell(n, rows)


def _matrix(rng, n):
    """(A, kind): mostly invertible, sometimes of rank 1 or zero."""
    kind = rng.choices(["invertible", "rank 1", "A = 0"], [6, 2, 1])[0]
    if kind == "A = 0":
        return tuple((Fraction(0),) * n for _ in range(n)), kind
    if kind == "rank 1":
        u = [rng.choice([-1, 1, 2]) for _ in range(n)]
        v = [rng.choice([-1, 1, Fraction(1, 2)]) for _ in range(n)]
        return tuple(tuple(Fraction(a * b) for b in v) for a in u), kind
    while True:
        a = tuple(tuple(Fraction(rng.randrange(-2, 3), rng.choice([1, 2])) for _ in range(n)) for _ in range(n))
        if _rank(a) == n:
            return a, kind


def _incidence(cell, x, m):
    return sum(
        1 << i
        for i, (a, b, _) in enumerate(c.scaled for c in cell.constraints)
        if b * m == sum(u * v for u, v in zip(a, x))
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_vertices_decide_what_the_lp_path_decides(n, lp_calls, fallbacks):
    rng = random.Random(1100 + n)
    seen = Counter()
    for _ in range(240):
        base, kinds = _case(rng, n)
        bounding_box(base)  # the source of a cell with no other source
        how = rng.choice(["own", "intersect", "intersect after", "preimage", "reduced"])
        if how == "own":
            cell = base
        elif how == "intersect":
            cell = intersect(base, Cell(n, _random_rows(rng, n, rng.randrange(1, 3))))
        elif how == "intersect after":  # the vertices come from the second operand
            cell = intersect(Cell(n, _random_rows(rng, n, rng.randrange(1, 3))), base)
        elif how == "preimage":
            a, kind = _matrix(rng, n)
            cell = preimage_linear(base, a)
            kinds.add(kind)
            how += " " + kind
        else:
            cell = remove_redundancy(base)
        # a source with vertices hands them on; remove_redundancy only
        # those of a non-empty cell
        cached = geometry._vertices(base) is not None and (
            how in ("own", "intersect", "intersect after", "preimage invertible")
            or (how == "reduced" and not is_empty(base))
        )

        _check_against_the_lp(cell, how, cached, seen, lp_calls, fallbacks)
        seen[how] += 1
        seen.update(kinds)
    wanted = [
        "own", "intersect", "intersect after", "preimage invertible", "reduced",
        "scaled twin", "strict twin", "flat", "unbounded", "no vertices",
        "empty closure", "flat closure", "empty, closure not", "A = 0", "rank 1",
        "Cramer box",
    ] + ["strict through a vertex"] * (n > 1)
    assert min(seen[k] for k in wanted) >= 3, seen
    new = ["open cone", "lineality", "all strict", "large coefficients"]
    assert min(seen[k] for k in new) >= 5, seen
    if n == 1:
        return
    # steep cones, drawn apart so that the cases above stay as drawn
    steep = random.Random(1200 + n)
    for _ in range(4):
        cone = _steep_cone(steep, n)
        fallbacks.clear()
        assert geometry._vertices(cone) is None and fallbacks == [cone.constraints]
        _check_against_the_lp(cone, "steep cone", False, Counter(), lp_calls, fallbacks)
        # x_1 is open above, where the clip passes H but stays far below
        # the side S = max x_n of its box
        clip = [[Fraction(v, m) for v in x] for x, m, _ in geometry._cramer_vertices(cone)]
        top = max(p[0] for p in clip)
        assert bounding_box(cone)[0][1] is None
        assert geometry._cramer_bound(cone) < top and top * 50 < max(p[-1] for p in clip)


def _check_against_the_lp(cell, how, cached, seen, lp_calls, fallbacks):
    """The cell's vertices, box, emptiness, sample and greedy against the
    brute-force vertices, the LP oracle and the plain greedy; ``cached``:
    its source has vertices, so it needs no Cramer start."""
    n = cell.dim
    lp_calls.clear()
    fallbacks.clear()
    verts = geometry._vertices(cell)
    box = bounding_box(cell)
    empty = is_empty(cell)
    assert lp_calls == [], how
    if cached:
        # a source with vertices decides all three with no Cramer box
        assert verts is not None and fallbacks == [], how
    if fallbacks:
        seen["Cramer box"] += 1
    want_box = lp_box(Cell(n, cell.constraints))
    assert box == want_box, how
    assert empty == lp_empty(cell), how
    if not empty:
        assert contains_point(cell, sample_point(cell))
    got = vertices(cell)
    if any(v is None for side in want_box for v in side):
        assert got is None
        seen["no vertices"] += 1
    else:
        assert set(got) == _brute_vertices(cell), how
        assert len(got) == len(set(got))
        for x, m, z in geometry._vertices(cell):
            assert z == _incidence(cell, x, m)
        rank = _rank([x + (m,) for x, m, _ in geometry._vertices(cell)])
        if not got:
            seen["empty closure"] += 1
        elif rank <= n:
            seen["flat closure"] += 1
        if got and empty:
            seen["empty, closure not"] += 1
    assert list(remove_redundancy(cell).constraints) == _lp_greedy(cell), how


def _box2(xlo, xhi, ylo, yhi):
    return Cell(2, [
        constraint([1, 0], xhi), constraint([-1, 0], -xlo),
        constraint([0, 1], yhi), constraint([0, -1], -ylo),
    ])


def test_find_pre_takes_a_cramer_box_only_for_a_singular_a(lp_calls, fallbacks):
    target = _box2(1, 2, -1, 1)
    bounding_box(target)
    # invertible: the preimage carries the target's corners mapped by A^-1
    a = LinearSystem.of([[2, 1], [1, 1]])
    fallbacks.clear()
    pre = find_pre(target, a)
    assert fallbacks == []
    assert sorted(apply_matrix(a.a_matrix, v) for v in vertices(pre)) == sorted(
        vertices(target)
    )
    # rank 1, onto the diagonal: the preimage {1 <= x + y <= 2} of a box
    # that the diagonal meets is unbounded.  The box takes its own Cramer
    # start (it is asked for its vertices to map), A^-1 does not exist,
    # and the preimage's emptiness takes its Cramer start, once
    rank_one = LinearSystem.of([[1, 1], [1, 1]])
    hit, miss = _box2(0, 2, 1, 3), _box2(1, 2, -2, -1)
    fallbacks.clear()
    pre = find_pre(hit, rank_one)
    assert fallbacks == [hit.constraints, pre.constraints]
    assert contains_point(pre, [5, -4]) and vertices(pre) is None
    fallbacks.clear()
    assert find_pre(miss, rank_one) is None
    assert len(fallbacks) == 2 and fallbacks[0] == miss.constraints
    assert lp_calls == []


def test_a_steep_cone_opens_a_side_that_its_clip_does_not_reach(fallbacks):
    # {x >= 0, y >= 100 x}: x is unbounded above, where the clip to
    # [-S, S]^2 reaches only x = S / 100, but that is past H
    cell = Cell(2, [constraint([-1, 0], 0), constraint([100, -1], 0)])
    assert bounding_box(cell) == ((0, None), (0, None))
    assert fallbacks == [cell.constraints]
    clip = geometry._cramer_vertices(cell)
    h, s = geometry._cramer_bound(cell), max(abs(v) for x, _, _ in clip for v in x)
    top = max(x[0] for x, _, _ in clip)
    assert all(m == 1 for _, m, _ in clip) and top * 100 == s == h * (2 * h + 1)
    assert top > h


def test_no_cell_takes_its_cramer_start_twice(fallbacks):
    """Every cell with no source is clipped from its Cramer box at most
    once, whatever is asked of it: a bounded cell, an unbounded one, and
    a preimage under a singular A."""
    started = fallbacks.cells

    def ask(cell):
        for question in (
            lambda: geometry._vertices(cell), lambda: bounding_box(cell),
            lambda: vertices(cell), lambda: is_empty(cell), lambda: sample_point(cell),
            lambda: remove_redundancy(cell), lambda: bounding_box(cell),
        ):
            question()

    bounded = Cell(2, [constraint([-1, 0], 0), constraint([0, -1], 0), constraint([1, 1], 2, True)])
    unbounded = Cell(2, [constraint([-1, 0], 0, True), constraint([1, -1], 1)])
    ask(bounded)
    ask(unbounded)
    # the unbounded cell's clip settles its box as well; the other two
    # starts are the greedy tests of its two rows in remove_redundancy
    assert started[0] is bounded and started[1] is unbounded and len(started) == 4
    assert bounding_box(unbounded) == ((0, None), (-1, None))
    target = _box2(0, 2, 1, 3)
    pre = find_pre(target, LinearSystem.of([[1, 1], [1, 1]]))
    ask(pre)
    assert bounding_box(pre) == ((None, None), (None, None))
    assert pre in started and target in started
    assert len({id(c) for c in started}) == len(started)


def test_transitions_are_proven_at_the_vertices(paper_spec, paper_build):
    """The image of each non-target block lies in its successor: every row
    of the successor holds at the image of every vertex of the block, and a
    strict one strictly, or the block has the strict preimage of that row
    among its own rows (A is invertible, so the preimage keeps the
    successor's rows in order).  Any other strict row tight at an image
    leaves the block to the exact subset test on the preimage."""
    _, partition, _ = paper_build
    a = paper_spec.system.a_matrix
    proven = Counter()
    for b in partition.blocks.values():
        if b.id == partition.d_block_id:
            continue
        s = partition.blocks[b.successor].cell
        pre = preimage_linear(s, a)
        own = {_halfspace(c) for c in b.cell.constraints if c.strict}
        tie = False
        for p in (apply_matrix(a, v) for v in vertices(b.cell)):
            for c, pc in zip(s.constraints, pre.constraints):
                lhs = sum(u * v for u, v in zip(c.normal, p))
                assert lhs <= c.offset
                tie = tie or (c.strict and lhs == c.offset and _halfspace(pc) not in own)
        if tie:
            assert cell_subset(b.cell, pre)
        proven["subset test" if tie else "vertices"] += 1
    assert sum(proven.values()) == len(partition.blocks) - 1 == 859
    assert proven == Counter({"vertices": 849, "subset test": 10})


def _halfspace(c):
    """The row scaled so that the first non-zero entry of its normal is 1
    or -1: equal for positive multiples of one row."""
    k = abs(next(v for v in c.normal if v))
    return tuple(v / k for v in c.normal) + (c.offset / k,)
