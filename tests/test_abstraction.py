"""Partition construction, refinement, quotient build and text export."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

import polybisim
from polybisim.abstraction import (
    OBS_EMPTY,
    OBS_TARGET,
    Observation,
    ObservedRegion,
    QuotientTS,
    audit_partition,
    build_quotient,
    cell_of,
    export_quotient,
    find_pre,
    initial_partition,
    observation_of,
    parse_quotient,
    quotient_word,
)
from polybisim.errors import InternalError, ProblemError
from polybisim.geometry import (
    Cell,
    constraint,
    contains_point,
    sample_point,
    vec,
)
from polybisim.lyapunov import (
    ContractionError,
    LinearSystem,
    PolyhedralLF,
    level_sequence,
    slices,
    sublevel_cell,
)
from polybisim.simulate import simulate
from test_verify import _problem


def F(v):
    return Fraction(v)


def box2(xlo, xhi, ylo, yhi):
    return Cell(
        2,
        [
            constraint([1, 0], xhi),
            constraint([-1, 0], -xlo),
            constraint([0, 1], yhi),
            constraint([0, -1], -ylo),
        ],
    )


@pytest.fixture(scope="module")
def small2d():
    sys = LinearSystem.of([["0.5", "0"], ["0", "0.5"]])
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], "0.5")
    regions = [ObservedRegion("r1", box2(2, 3, -1, 1))]
    quotient, partition = build_quotient(sys, lf, 1, 4, regions)
    return sys, lf, regions, quotient, partition


def test_observation_letters():
    assert OBS_EMPTY.letter() == frozenset()
    assert OBS_TARGET.letter() == frozenset({"pid"})
    assert Observation("r1").letter() == frozenset({"r1"})
    assert OBS_TARGET.is_target and not OBS_TARGET.is_region
    assert Observation("r1").is_region


def test_reserved_region_labels_rejected():
    cell = box2(0, 1, 0, 1)
    for bad in ("EMPTY", "PI_D", "pid"):
        with pytest.raises(ValueError):
            ObservedRegion(bad, cell)


def test_observation_of():
    d_cell = box2(-1, 1, -1, 1)
    regions = [ObservedRegion("r1", box2(2, 3, -1, 1))]
    assert observation_of([0, 0], regions, d_cell) == OBS_TARGET
    assert observation_of([F("2.5"), 0], regions, d_cell) == Observation("r1")
    assert observation_of([5, 5], regions, d_cell) == OBS_EMPTY


def test_initial_partition_structure():
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], "0.5")
    seq = level_sequence(1, 4, "0.5")
    levels = [sublevel_cell(lf, g) for g in seq.gammas]
    regions = [ObservedRegion("r1", box2(2, 3, -1, 1))]
    part = initial_partition(levels, regions)
    assert [[c.constraints for c in s.cells] for s in part.slice_regions] == [
        [c.constraints for c in s.cells] for s in slices(levels)
    ]
    assert part.levels == tuple(levels)
    assert (part.d_cell, part.x_cell, part.dim) == (levels[0], levels[-1], 2)
    audits = audit_partition(part, regions)
    assert all(audits.values()), audits
    labels = {b.observation.label for b in part.blocks.values()}
    assert labels == {"PI_D", "EMPTY", "r1"}
    # the target block is block 0 with a self loop already assigned
    assert part.blocks[0].observation == OBS_TARGET
    assert part.blocks[0].successor == 0


def test_initial_partition_rejects_bad_regions():
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], "0.5")
    seq = level_sequence(1, 4, "0.5")
    levels = [sublevel_cell(lf, g) for g in seq.gammas]
    with pytest.raises(ProblemError, match="REGION_DOMAIN"):  # meets the target set
        initial_partition(levels, [ObservedRegion("r1", box2(0, 2, 0, 1))])
    with pytest.raises(ProblemError, match="MALFORMED"):  # duplicate labels
        initial_partition(
            levels,
            [
                ObservedRegion("r1", box2(2, 3, -1, 1)),
                ObservedRegion("r1", box2(-3, -2, -1, 1)),
            ],
        )
    with pytest.raises(ProblemError, match="REGION_OVERLAP"):  # mutual overlap
        initial_partition(
            levels,
            [
                ObservedRegion("r1", box2(2, 3, -1, 1)),
                ObservedRegion("r2", box2(2, 4, 0, 2)),
            ],
        )


def test_find_pre_1d():
    sys = LinearSystem.of([["0.5"]])
    d_cell = Cell(1, [constraint([1], 1), constraint([-1], 1)])
    pre = find_pre(d_cell, sys)
    # the preimage of [-1,1] under x/2 is the whole of [-2,2]
    assert [(c.normal, c.offset, c.strict) for c in pre.constraints] == [
        ((Fraction(1, 2),), 1, False),
        ((Fraction(-1, 2),), 1, False),
    ]
    for x in ("-2", "0", "0.5", "2"):
        assert contains_point(pre, [F(x)])
    assert not contains_point(pre, [F("2.5")])
    # under the zero map the preimage of a cell missing the origin is empty
    assert find_pre(Cell(1, [constraint([-1], -1)]), LinearSystem.of([["0"]])) is None


def test_build_quotient_small2d(small2d):
    sys, lf, regions, quotient, partition = small2d
    audits = audit_partition(partition, regions)
    assert all(audits.values()), audits
    assert quotient.target_state == 0
    assert quotient.transitions[0] == 0
    # determinism: one successor per state, all states present
    assert set(quotient.transitions) == set(quotient.states)
    # successors always sit in a strictly lower slice (except the target)
    for s in quotient.states:
        if s == 0:
            continue
        b = partition.blocks[s]
        nb = partition.blocks[quotient.transitions[s]]
        assert nb.slice_index < b.slice_index


def test_successor_agreement_on_samples(small2d):
    sys, lf, regions, quotient, partition = small2d
    from polybisim.geometry import apply_matrix

    for b in partition.ordered_blocks():
        if b.id == quotient.target_state:
            continue
        x = sample_point(b.cell)
        nxt = partition.cell_of(apply_matrix(sys.a_matrix, x))
        assert nxt == b.successor


def test_build_quotient_rejects_uncertified_rate():
    sys = LinearSystem.of([["0.9"]])
    lf = PolyhedralLF.of([["1"]], "0.5")
    with pytest.raises(ContractionError):
        build_quotient(sys, lf, 1, 4, [])


def test_quotient_word_1d():
    sys = LinearSystem.of([["0.5"]])
    lf = PolyhedralLF.of([["1"]], "0.5")
    quotient, partition = build_quotient(sys, lf, 1, 2, [])
    outer = partition.cell_of([F("1.5")])
    word = quotient_word(quotient, outer)
    assert [o.label for o in word] == ["EMPTY", "PI_D"]
    assert [o.label for o in quotient_word(quotient, 0)] == ["PI_D"]


def test_cell_of_outside_raises(small2d):
    _, _, _, _, partition = small2d
    with pytest.raises(ValueError):
        partition.cell_of([100, 100])


def test_library_callers_catch_typed_internal_errors():
    """A broken invariant reaches a library caller as InternalError, which
    it can tell from bad input (ValueError) and which stays an
    AssertionError for callers that catch that."""
    sys = LinearSystem.of([["0.5"]])
    lf = PolyhedralLF.of([["1"]], "0.5")
    quotient, partition = build_quotient(sys, lf, 1, 2, [])
    # 1 -> 2 -> 1 cycles without reaching the target 0
    cycle = QuotientTS(
        states=(0, 1, 2),
        transitions={0: 0, 1: 2, 2: 1},
        observations=dict.fromkeys((0, 1, 2), OBS_EMPTY),
        target_state=0,
    )
    caught = []
    try:
        quotient_word(cycle, 1)
    except InternalError as exc:
        caught.append(exc)
    del partition.blocks[partition.cell_of([F("-1.5")])]
    try:
        partition.cell_of([F("-1.5")])  # its block is gone
    except InternalError as exc:
        caught.append(exc)
    assert len(caught) == 2
    assert all(isinstance(exc, AssertionError) for exc in caught)
    assert polybisim.InternalError is InternalError


def _scan_cell_of(partition, p):
    """Reference point location: a linear scan with Constraint.holds;
    None outside the working set."""
    if not all(c.holds(p) for c in partition.x_cell.constraints):
        return None
    hits = [
        b.id
        for b in partition.ordered_blocks()
        if all(c.holds(p) for c in b.cell.constraints)
    ]
    assert len(hits) == 1
    return hits[0]


def _scan_observation(p, regions, d_cell):
    if all(c.holds(p) for c in d_cell.constraints):
        return OBS_TARGET
    for r in regions:
        if all(c.holds(p) for c in r.cell.constraints):
            return Observation(r.label)
    return OBS_EMPTY


def _facet_points(cells):
    """Each cell's sample point projected onto the hyperplane of each of its
    rows: points on block facets (shared with a neighbour when inner), on
    the boundaries of D, X and the regions, where strictness decides."""
    out = []
    for cell in cells:
        base = sample_point(cell)
        for c in cell.constraints:
            a = c.normal
            t = (c.offset - sum(x * y for x, y in zip(a, base))) / sum(
                x * x for x in a
            )
            out.append(tuple(x + t * y for x, y in zip(base, a)))
    return out


def _check_point_location(partition, regions, points):
    inside = 0
    for p in points:
        want = _scan_cell_of(partition, p)
        if want is None:
            with pytest.raises(ValueError):
                partition.cell_of(p)
        else:
            inside += 1
            assert partition.cell_of(p) == want
            assert cell_of(partition, [str(v) for v in p]) == want
        assert observation_of(p, regions, partition.d_cell) == _scan_observation(
            p, regions, partition.d_cell
        )
    return inside


def test_cell_of_and_observation_of_match_a_linear_scan(small2d):
    _, _, regions, _, partition = small2d
    cells = [b.cell for b in partition.ordered_blocks()]
    cells += [partition.x_cell, partition.d_cell] + [r.cell for r in regions]
    # the quarter grid holds every facet of this partition: the boundaries
    # of D, X, the slices, the region and the preimage cuts
    grid = [
        (F(i) / 4, F(j) / 4) for i in range(-18, 19) for j in range(-18, 19)
    ]
    points = grid + _facet_points(cells)
    assert _check_point_location(partition, regions, points) > 1000


def test_cell_of_matches_a_linear_scan_on_the_paper_fixture(paper_spec, paper_build):
    _, partition, _ = paper_build
    rng = random.Random(11)
    blocks = rng.sample(partition.ordered_blocks(), 40)
    cells = [b.cell for b in blocks] + [partition.x_cell, partition.d_cell]
    cells += [r.cell for r in paper_spec.regions]
    points = _facet_points(cells)
    assert _check_point_location(partition, paper_spec.regions, points) > 100


def test_point_queries_reject_the_wrong_dimension(small2d):
    sys, _, regions, _, partition = small2d
    for bad in ([1], [1, 1, 1]):
        with pytest.raises(ValueError):
            partition.cell_of(bad)
        with pytest.raises(ValueError):
            observation_of(bad, regions, partition.d_cell)
        with pytest.raises(ValueError):
            simulate(sys, partition.x_cell, partition.d_cell, regions, bad, 5)
        with pytest.raises(ValueError):
            contains_point(partition.x_cell, bad)


@pytest.mark.parametrize("name", ["small2d", "three_d", "four_d"])
def test_audit_detects_injected_defects(name, small2d):
    """Each defect breaks its property, and only it (a block moved to
    another slice also leaves its own slice uncovered)."""
    if name == "small2d":
        sys, lf, regions, _, _ = small2d
        problem = (sys, lf, 1, 4, regions)
    else:
        problem = _problem(name)
        regions = problem[-1]
    _, part = build_quotient(*problem)
    blocks = dict(part.blocks)
    assert len(part.slice_regions) >= 3

    def audit(*changed):
        part.blocks = {**blocks, **{b.id: b for b in changed}}
        return {k for k, ok in audit_partition(part, regions).items() if not ok}

    assert audit() == set()
    # a dropped block leaves its slice uncovered
    victim = blocks.pop(max(blocks))
    assert audit() == {"coverage"}
    blocks[victim.id] = victim
    # a clone under a fresh id overlaps its original
    assert audit(replace(victim, id=part.fresh_id())) == {"disjointness"}
    # a block of slice 1 that claims another slice
    moved = next(b for b in blocks.values() if b.slice_index == 1)
    assert audit(replace(moved, slice_index=2)) == {"slice_alignment", "coverage"}
    # a region block relabelled unobserved, or to another region
    inside = next(b for b in blocks.values() if b.observation.is_region)
    wrong = [OBS_EMPTY] + [
        Observation(r.label) for r in regions if r.label != inside.observation.label
    ]
    assert len(wrong) == len(regions)
    for obs in wrong:
        assert audit(replace(inside, observation=obs)) == {"observation_purity"}


def test_export_round_trip(small2d):
    _, _, _, quotient, partition = small2d
    text = export_quotient(quotient, partition)
    transitions, observations, slice_idx, cells = parse_quotient(text)
    assert transitions == quotient.transitions
    assert observations == {
        s: o.label for s, o in quotient.observations.items()
    }
    for b in partition.blocks.values():
        assert slice_idx[b.id] == b.slice_index
        assert len(cells[b.id]) == len(b.cell.constraints)
        for (normal, rel, offset), c in zip(cells[b.id], b.cell.constraints):
            assert normal == c.normal
            assert offset == c.offset
            assert (rel == "<") == c.strict


def test_export_deterministic():
    sys = LinearSystem.of([["0.5", "0"], ["0", "0.5"]])
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], "0.5")
    regions = [ObservedRegion("r1", box2(2, 3, -1, 1))]
    q1, p1 = build_quotient(sys, lf, 1, 4, regions)
    q2, p2 = build_quotient(sys, lf, 1, 4, regions)
    assert export_quotient(q1, p1) == export_quotient(q2, p2)
