"""Exact trajectory simulation and quotient cross-validation."""

import importlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from polybisim import load_problem
from polybisim.abstraction import ObservedRegion, build_quotient, observation_of
from polybisim.geometry import (
    Cell, apply_matrix, constraint, contains_point, is_empty, vertices,
)
from polybisim.logic import parse_ltl
from polybisim.lyapunov import LinearSystem, PolyhedralLF, sublevel_cell
from polybisim.simulate import _jitter, cross_validate, sample_states, simulate


def F(v):
    return Fraction(v)


def _setting_1d():
    sys = LinearSystem.of([["0.5"]])
    lf = PolyhedralLF.of([["1"]], "0.5")
    x_cell = sublevel_cell(lf, 2)
    d_cell = sublevel_cell(lf, 1)
    return sys, lf, x_cell, d_cell


def test_simulate_1d_trajectory():
    sys, _, x_cell, d_cell = _setting_1d()
    traj = simulate(sys, x_cell, d_cell, [], [F(2)], 5)
    assert traj.points == ((F(2),), (F(1),))
    assert [o.label for o in traj.word] == ["EMPTY", "PI_D"]


def test_simulate_starts_inside_target():
    sys, _, x_cell, d_cell = _setting_1d()
    traj = simulate(sys, x_cell, d_cell, [], [F("0.5")], 5)
    assert len(traj.points) == 1
    assert traj.word[0].label == "PI_D"


def test_simulate_rejects_outside_start():
    sys, _, x_cell, d_cell = _setting_1d()
    with pytest.raises(ValueError):
        simulate(sys, x_cell, d_cell, [], [F(3)], 5)


def test_simulate_overrun_raises():
    sys, _, x_cell, d_cell = _setting_1d()
    with pytest.raises(AssertionError):
        simulate(sys, x_cell, d_cell, [], [F(2)], 0)


def test_simulate_scales_each_point_once(monkeypatch):
    """The start is scaled once; every later point is stepped in ints, so
    neither ``scale_point`` nor ``apply_matrix`` runs again."""
    sys, lf, _, d_cell = _setting_1d()
    x_cell = sublevel_cell(lf, 8)
    geometry = importlib.import_module("polybisim.geometry")
    calls = {"scale_point": 0, "apply_matrix": 0}

    def counting(name):
        real = getattr(geometry, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        wrapper = counting(name)
        for module_name in ("geometry", "abstraction", "simulate"):
            module = importlib.import_module(f"polybisim.{module_name}")
            if hasattr(module, name):
                monkeypatch.setattr(module, name, wrapper)
    traj = simulate(sys, x_cell, d_cell, [], [F(8)], 5)
    assert len(traj.points) - 1 == 3
    assert calls == {"scale_point": 1, "apply_matrix": 0}


def _fraction_run(sys, d_cell, regions, x0, max_steps):
    """The trajectory in Fractions: ``apply_matrix`` and ``observation_of``
    on every point."""
    x = tuple(Fraction(v) for v in x0)
    points, word = [x], [observation_of(x, regions, d_cell)]
    while not word[-1].is_target and len(points) <= max_steps:
        x = apply_matrix(sys.a_matrix, x)
        points.append(x)
        word.append(observation_of(x, regions, d_cell))
    return tuple(points), tuple(word)


def _random_rational(rng, lo, hi, den):
    d = rng.randrange(1, den + 1)
    return Fraction(rng.randrange(lo * d, hi * d + 1), d)


def _random_system(rng, n, kind):
    """A with infinity norm rho < 1: unit denominators, mixed ones, the
    zero matrix, or 999/1000 times a signed permutation, which shrinks
    the norm by exactly that much per step."""
    if kind == "zero":
        return LinearSystem(tuple((F(0),) * n for _ in range(n)))
    if kind == "near_one":
        perm = rng.sample(range(n), n)
        return LinearSystem(tuple(
            tuple(
                Fraction(rng.choice([-999, 999]), 1000) if j == perm[i] else F(0)
                for j in range(n)
            )
            for i in range(n)
        ))
    den = 1 if kind == "unit" else 12
    rows = [[_random_rational(rng, -5, 5, den) for _ in range(n)] for _ in range(n)]
    if not any(any(r) for r in rows):
        rows[0][0] = F(1)
    norm = max(sum(abs(v) for v in r) for r in rows)
    rho = Fraction(rng.randrange(1, 10), 10)
    return LinearSystem(tuple(tuple(v * rho / norm for v in r) for r in rows))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_simulate_matches_the_fraction_iteration(n):
    """Seeded systems and starts: the integer steps give the points and
    the word that the Fraction iteration gives, in any dimension."""
    rng = random.Random(700 + n)
    lf = PolyhedralLF.of([[int(i == j) for j in range(n)] for i in range(n)], "0.9")
    x_cell, d_cell = sublevel_cell(lf, Fraction(11, 10)), sublevel_cell(lf, 1)
    steps = 0
    for kind in ("unit", "mixed", "zero", "near_one") * 4:
        sys = _random_system(rng, n, kind)
        regions = []
        for k in range(rng.randrange(0, 3)):
            lo = [_random_rational(rng, -1, 1, 6) for _ in range(n)]
            rows = []
            for j in range(n):
                unit = [int(i == j) for i in range(n)]
                rows.append(constraint(unit, lo[j] + Fraction(1, 2), rng.random() < 0.5))
                rows.append(constraint([-u for u in unit], -lo[j], rng.random() < 0.5))
            regions.append(ObservedRegion(f"r{k}", Cell(n, rows)))
        x0 = [_random_rational(rng, -1, 1, 40) for _ in range(n)]
        x0[rng.randrange(n)] = Fraction(rng.choice([-11, 11]), 10)  # on X's boundary
        traj = simulate(sys, x_cell, d_cell, regions, x0, 200)
        assert (traj.points, traj.word) == _fraction_run(sys, d_cell, regions, x0, 200)
        assert all(type(v) is Fraction for p in traj.points for v in p)
        if kind == "zero":
            assert len(traj.points) == 2
        steps = max(steps, len(traj.points) - 1)
    assert steps == 96  # 1.1 * (999/1000)^96 <= 1 < 1.1 * (999/1000)^95


def _fraction_jitter(cell, rng):
    """The weighted mean of ``vertices(cell)`` in Fractions."""
    points = vertices(cell)
    weights = [rng.randrange(1, 1000) for _ in points]
    return tuple(
        sum(w * p[j] for w, p in zip(weights, points)) / sum(weights)
        for j in range(cell.dim)
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_jitter_matches_the_fraction_mean(n):
    """The same point as the Fraction mean, and the same rng state after
    it, on cells whose vertices have unlike denominators."""
    rng = random.Random(800 + n)
    drawn = 0
    for _ in range(40):
        rows = []
        for j in range(n):
            unit = [int(i == j) for i in range(n)]
            rows.append(constraint(unit, _random_rational(rng, 1, 3, 7)))
            rows.append(constraint([-u for u in unit], _random_rational(rng, 1, 3, 7)))
        for _ in range(rng.randrange(0, 3)):
            normal = [_random_rational(rng, -3, 3, 5) for _ in range(n)]
            if not any(normal):
                normal[0] = F(1)
            rows.append(constraint(normal, _random_rational(rng, 0, 2, 9), rng.random() < 0.5))
        cell = Cell(n, rows)
        if not vertices(cell):  # the box rows leave no vertex
            continue
        seed = rng.randrange(10**6)
        ours, ref = random.Random(seed), random.Random(seed)
        point = _jitter(cell, ours)
        assert point == _fraction_jitter(cell, ref)
        assert ours.getstate() == ref.getstate()
        if not is_empty(cell):
            assert contains_point(cell, point)
        drawn += 1
    assert drawn >= 30


def test_lasso_structure():
    sys, _, x_cell, d_cell = _setting_1d()
    traj = simulate(sys, x_cell, d_cell, [], [F(2)], 5)
    lasso = traj.lasso()
    assert lasso.prefix == (frozenset(),)
    assert lasso.cycle == (frozenset({"pid"}),)


def _small2d():
    sys = LinearSystem.of([["0.5", "0"], ["0", "0.5"]])
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], "0.5")
    region = ObservedRegion(
        "r1",
        Cell(
            2,
            [
                constraint([1, 0], 3),
                constraint([-1, 0], -2),
                constraint([0, 1], 1),
                constraint([0, -1], 1),
            ],
        ),
    )
    quotient, partition = build_quotient(sys, lf, 1, 4, [region])
    return sys, quotient, partition, [region]


def test_sample_states_belong_to_their_blocks():
    _, _, partition, _ = _small2d()
    for block_id, x in sample_states(partition, 3 * len(partition.blocks), seed=5):
        assert contains_point(partition.blocks[block_id].cell, x)


def test_trajectory_length_bounded_by_slice_count():
    sys, quotient, partition, regions = _small2d()
    n_slices = len(partition.slice_regions)
    for _, x in sample_states(partition, 2 * len(partition.blocks), seed=9):
        traj = simulate(
            sys, partition.x_cell, partition.d_cell, regions, x, n_slices + 1
        )
        assert len(traj.word) <= n_slices + 1


def test_cross_validation_clean_on_small2d():
    sys, quotient, partition, regions = _small2d()
    from polybisim.verify import f_star, product, satisfying_states
    from polybisim.logic import to_buchi

    formula = parse_ltl("F r1", atoms={"r1", "pid"})
    p = product(quotient, to_buchi(formula))
    sat = satisfying_states(p, f_star(p))
    report = cross_validate(
        sys, quotient, partition, regions, formula, sat.state_ids, 60, seed=3
    )
    assert report.mismatches == 0
    assert "0 mismatches" in report.summary()
    lines = report.detail_lines()
    assert len(lines) == len(report.samples)
    assert all("word_ok=True" in ln for ln in lines)


def test_cross_validation_samples_every_block_or_every_slice(monkeypatch):
    """A count of at least the number of blocks samples every block, the
    outermost slice's too, and a smaller count every slice; a random
    point is drawn only for a sample past the first one of its block, and
    every point lies in its own block."""
    spec = load_problem(Path(__file__).resolve().parent / "golden" / "two_slice_2d.json")
    quotient, partition = build_quotient(
        spec.system, spec.lf, spec.gamma_d, spec.gamma_x, spec.regions
    )
    blocks = len(partition.blocks)
    assert blocks == 35
    module = importlib.import_module("polybisim.simulate")
    real, jitters = module._jitter, []

    def jitter(cell, rng):
        jitters.append(cell)
        return real(cell, rng)

    monkeypatch.setattr(module, "_jitter", jitter)
    for count in (20, 35, 36, 70):
        jitters.clear()
        report = cross_validate(
            spec.system, quotient, partition, spec.regions, None, None, count, seed=count
        )
        assert len(report.samples) == count and report.mismatches == 0
        assert len(jitters) == max(0, count - blocks)
        hit = {partition.cell_of(s.point) for s in report.samples}
        if count >= blocks:
            assert hit == set(partition.blocks)
        else:
            slices = {partition.blocks[i].slice_index for i in hit}
            assert slices == set(range(len(partition.slice_regions)))
        # the same seed draws the same points, each in its own block
        drawn = sample_states(partition, count, count)
        assert [x for _, x in drawn] == [s.point for s in report.samples]
        assert all(contains_point(partition.blocks[b].cell, x) for b, x in drawn)
