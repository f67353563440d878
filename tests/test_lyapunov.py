"""Lyapunov function evaluation, contraction certification, level
sequences and slices."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from polybisim import lp
from polybisim.geometry import (
    Cell,
    _cramer_vertices,
    _vertices,
    contains_point,
    is_empty,
    vec,
    vertices,
)
from polybisim.lyapunov import (
    _rank,
    LevelSequence,
    LinearSystem,
    PolyhedralLF,
    level_sequence,
    lf_value,
    slice_descent_check,
    slices,
    sublevel_cell,
    unit_ball_row_maxima,
    verify_contraction,
)


def F(v):
    return Fraction(v)


def test_lf_value_is_weighted_inf_norm():
    lf = PolyhedralLF.of([["1", "0"], ["0", "2"]], "0.5")
    assert lf_value(lf, [3, 1]) == 3
    assert lf_value(lf, [1, -3]) == 6
    assert lf_value(lf, [0, 0]) == 0


def test_lf_value_random_recomputation():
    rng = random.Random(3)
    lf = PolyhedralLF.of(
        [["1", "0"], ["0", "1"], ["0.5", "0.5"]], "0.9"
    )
    for _ in range(50):
        x = vec([Fraction(rng.randrange(-20, 20), 7) for _ in range(2)])
        expect = max(
            abs(sum(r[j] * x[j] for j in range(2))) for r in lf.l_matrix
        )
        assert lf_value(lf, x) == expect


def test_validation_errors():
    with pytest.raises(ValueError):
        PolyhedralLF.of([["1", "0"]], "0.5")  # fewer rows than columns
    with pytest.raises(ValueError):
        PolyhedralLF.of([["1", "0"], ["2", "0"]], "0.5")  # rank deficient
    with pytest.raises(ValueError):
        PolyhedralLF.of([["1", "0"], ["0", "1"]], "1.5")  # rho out of range
    with pytest.raises(ValueError):
        LinearSystem.of([["1", "0"]])  # non-square


def test_zero_row_of_l_is_rejected():
    # full column rank, so only the zero-row check catches it
    with pytest.raises(ValueError, match="zero row"):
        PolyhedralLF.of([["1"], ["0"]], "0.5")
    with pytest.raises(ValueError, match="zero row"):
        PolyhedralLF.of([["1", "0"], ["0", "0"], ["0", "1"]], "0.5")


def test_contraction_rate_diagonal_system():
    sys = LinearSystem.of([["0.5", "0"], ["0", "0.25"]])
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], "0.6")
    assert verify_contraction(lf, sys) == Fraction(1, 2)


def test_contraction_rate_is_tight_bound():
    sys = LinearSystem.of([["0.65", "0.32"], ["-0.42", "-0.92"]])
    lf = PolyhedralLF.of(
        [["-0.0625", "1"], ["0.6815", "1"], ["0.9947", "0.6868"], ["0.9947", "-0.0678"]],
        "0.94",
    )
    rho_star = verify_contraction(lf, sys)
    rng = random.Random(5)
    # the certified rate really bounds one step, exactly
    for _ in range(100):
        x = vec([Fraction(rng.randrange(-50, 50), 11) for _ in range(2)])
        ax = tuple(
            sum(r[j] * x[j] for j in range(2)) for r in sys.a_matrix
        )
        assert lf_value(lf, ax) <= rho_star * lf_value(lf, x)
    # and it is attained: each row maximum is the row's value at a vertex
    # of the unit ball
    assert rho_star in unit_ball_row_maxima(lf, sys)


def _random_entry(rng):
    return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 7]))


def _random_lf(rng, n, extra):
    """A full-column-rank L with n rows, then up to `extra` redundant
    rows: convex mixes of two rows and multiples k <= 1 of one row (k = 1
    repeats it)."""
    while True:
        rows = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
        if _rank(rows) == n:
            break
    for _ in range(extra):
        r, s = rng.choice(rows), rng.choice(rows)
        if rng.random() < 0.5:
            t = Fraction(rng.randint(1, 4), 5)
            new = [t * a + (1 - t) * b for a, b in zip(r, s)]
        else:
            k = rng.choice([Fraction(1), Fraction(1, 2), Fraction(2, 3)])
            new = [k * a for a in r]
        if any(new):
            rows.insert(rng.randint(0, len(rows)), new)
    return PolyhedralLF.of(rows, "0.5")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_maxima_equal_the_lp_maxima(n):
    """The vertex maxima equal an exact LP's optimum of each row of
    [LA; -LA] over the 2l rows of the unit ball, with redundant L rows,
    fractional entries and A = 0."""
    rng = random.Random(f"row-maxima-{n}")
    square = redundant = zero_a = 0
    for case in range(40):
        lf = _random_lf(rng, n, 0 if case % 4 == 1 else rng.randint(1, 3))
        if case % 8 == 0:
            a = [[0] * n for _ in range(n)]
            zero_a += 1
        else:
            a = [[_random_entry(rng) for _ in range(n)] for _ in range(n)]
        system = LinearSystem.of(a)
        ball = [tuple(r) for r in lf.l_matrix] + [
            tuple(-v for v in r) for r in lf.l_matrix
        ]
        la = [
            [sum(r[i] * system.a_matrix[i][j] for i in range(n)) for j in range(n)]
            for r in lf.l_matrix
        ]
        expected = []
        for row in la + [[-v for v in r] for r in la]:
            res = lp.maximize(row, ball, [F(1)] * len(ball))
            assert res.status == lp.OPTIMAL
            expected.append(res.value)
        assert unit_ball_row_maxima(lf, system) == expected
        square += lf.n_rows == n
        redundant += lf.n_rows > n
    assert square >= 10 and redundant >= 20 and zero_a == 5


def test_level_sequence_structure():
    seq = level_sequence(1, 8, "0.5")
    assert seq.gammas == (F(1), F(2), F(4), F(8))
    assert seq.n_steps == 3
    # clipping: the final threshold is exactly gamma_X even off-grid
    seq2 = level_sequence(1, 5, "0.5")
    assert seq2.gammas == (F(1), F(2), F(4), F(5))
    assert seq2.gammas[-1] < seq2.gammas[-2] / F("0.5")


def test_level_sequence_invariants():
    seq = level_sequence("5.063", 10, "0.94")
    g = seq.gammas
    assert g[0] == Fraction("5.063") and g[-1] == 10
    assert all(a < b for a, b in zip(g, g[1:]))
    assert all(g[i + 1] <= g[i] / Fraction("0.94") for i in range(len(g) - 1))


def test_level_sequence_rejects_bad_input():
    with pytest.raises(ValueError):
        level_sequence(2, 1, "0.5")
    with pytest.raises(ValueError):
        level_sequence(1, 2, "1.5")


def test_sublevel_cell_membership():
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"], ["1", "1"]], "0.9")
    cell = sublevel_cell(lf, 2)
    rng = random.Random(9)
    for _ in range(100):
        x = vec([Fraction(rng.randrange(-30, 30), 9) for _ in range(2)])
        assert contains_point(cell, x) == (lf_value(lf, x) <= 2)


def _fresh_clip(cell):
    """The vertices of a fresh cell of the same rows, from its own clip of
    its Cramer box."""
    return _cramer_vertices(Cell(cell.dim, cell.constraints))


def _problem_levels():
    """(L, gammas) of the fixtures and the golden problem: every level of
    their sequences, gamma_D and gamma_X among them."""
    root = Path(__file__).resolve().parent
    paths = sorted((root.parent / "fixtures").glob("*.json"))
    paths += [root / "golden" / "two_slice_2d.json"]
    for path in paths:
        doc = json.loads(path.read_text())
        lf = PolyhedralLF.of(doc["L"], doc["rho"])
        yield lf, level_sequence(doc["gamma_D"], doc["gamma_X"], lf.rho).gammas


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_level_vertices_are_the_ball_scaled(n, fallbacks):
    """A level cell with gamma > 0 takes gamma times the unit ball's
    vertices and no clip of its own; they are the tuples (X, M, Z), in the
    same order, that a fresh Cramer clip of its rows gives.  Seeded L with
    redundant rows and gammas with large numerators and denominators, and
    the fixtures' levels; gamma = 0 (the origin) and gamma < 0 (empty)
    keep the Cramer path."""
    rng = random.Random(f"level-vertices-{n}")
    cases = [
        (lf, gammas) for lf, gammas in _problem_levels() if lf.n == n
    ]
    for _ in range(60):
        lf = _random_lf(rng, n, rng.randint(0, 3))
        gammas = [
            Fraction(rng.randrange(1, 10**12), rng.randrange(1, 10**9)),
            Fraction(rng.randrange(1, 10**3), rng.randrange(10**11, 10**12)),
            Fraction(rng.randrange(1, 100), rng.randrange(1, 100)),
            Fraction(1),
        ]
        cases.append((lf, gammas))
    checked = 0
    for lf, gammas in cases:
        fallbacks.clear()
        cells = [sublevel_cell(lf, g) for g in gammas]
        scaled = [_vertices(cell) for cell in cells]
        assert fallbacks == [lf.ball.constraints]  # the ball's clip, once
        for cell, verts in zip(cells, scaled):
            assert verts == _fresh_clip(cell)
            checked += 1
        fallbacks.clear()
        origin, empty = sublevel_cell(lf, 0), sublevel_cell(lf, -1)
        assert vertices(origin) == [(F(0),) * n] and not is_empty(origin)
        assert vertices(empty) == [] and is_empty(empty)
        assert len(fallbacks) == 2
    assert checked >= 240


def _in_region(region, point):
    return any(contains_point(c, point) for c in region.cells)


def test_slices_partition_the_working_set():
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], "0.5")
    seq = level_sequence(1, 4, "0.5")
    parts = slices([sublevel_cell(lf, g) for g in seq.gammas])
    assert len(parts) == seq.n_steps + 1
    rng = random.Random(15)
    for _ in range(200):
        x = vec([Fraction(rng.randrange(-40, 40), 9) for _ in range(2)])
        v = lf_value(lf, x)
        hits = [i for i, r in enumerate(parts) if _in_region(r, x)]
        if v > seq.gammas[-1]:
            assert hits == []
        else:
            assert len(hits) == 1
            i = hits[0]
            assert v <= seq.gammas[i]
            if i > 0:
                assert v > seq.gammas[i - 1]


def test_slice_descent():
    sys = LinearSystem.of([["0.5", "0"], ["0", "0.5"]])
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], "0.5")
    seq = level_sequence(1, 4, "0.5")
    assert slice_descent_check(lf, sys, seq)
    # declared rate far below the true one: descent fails
    slow = LinearSystem.of([["0.9", "0"], ["0", "0.9"]])
    assert not slice_descent_check(lf, slow, seq)


def test_slice_descent_on_sampled_states():
    # every state of slice i steps into a strictly lower slice
    sys = LinearSystem.of([["0.65", "0.32"], ["-0.42", "-0.92"]])
    lf = PolyhedralLF.of(
        [["-0.0625", "1"], ["0.6815", "1"], ["0.9947", "0.6868"], ["0.9947", "-0.0678"]],
        "0.94",
    )
    seq = level_sequence("5.063", 10, "0.94")
    assert slice_descent_check(lf, sys, seq)
    rng = random.Random(21)
    count = 0
    while count < 100:
        x = vec([Fraction(rng.randrange(-110, 110), 11) for _ in range(2)])
        v = lf_value(lf, x)
        if not (seq.gammas[0] < v <= seq.gammas[-1]):
            continue
        count += 1
        i = next(k for k in range(1, len(seq.gammas)) if v <= seq.gammas[k])
        ax = tuple(sum(r[j] * x[j] for j in range(2)) for r in sys.a_matrix)
        assert lf_value(lf, ax) <= seq.gammas[i - 1]


def test_level_sequence_dataclass():
    seq = LevelSequence((F(1), F(2)))
    assert seq.n_steps == 1
