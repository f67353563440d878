"""Exact trajectory simulation and quotient cross-validation."""

import importlib
from fractions import Fraction
from pathlib import Path

import pytest

from polybisim import load_problem
from polybisim.abstraction import ObservedRegion, build_quotient
from polybisim.geometry import Cell, constraint, contains_point
from polybisim.logic import parse_ltl
from polybisim.lyapunov import LinearSystem, PolyhedralLF, sublevel_cell
from polybisim.simulate import cross_validate, sample_states, simulate


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
    sys, lf, _, d_cell = _setting_1d()
    x_cell = sublevel_cell(lf, 8)
    geometry = importlib.import_module("polybisim.geometry")
    real, calls = geometry.scale_point, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    for name in ("geometry", "abstraction", "simulate"):
        module = importlib.import_module(f"polybisim.{name}")
        if hasattr(module, "scale_point"):
            monkeypatch.setattr(module, "scale_point", counting)
    traj = simulate(sys, x_cell, d_cell, [], [F(8)], 5)
    steps = len(traj.points) - 1
    assert steps == 3
    assert len(calls) == steps + 1


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
