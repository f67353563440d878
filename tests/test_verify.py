"""Product construction, the states with an accepting run, and the
satisfying set; the reachable product against the full one; labelling the
quotient against the automaton path; the exact bisimulation property of
the quotients labelled."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from polybisim.abstraction import ObservedRegion, audit_partition, build_quotient
from polybisim.geometry import (
    Cell,
    cells_disjoint,
    complement,
    constraint,
    preimage_linear,
)
from polybisim.logic import (
    And,
    Atom,
    BuchiAutomaton,
    Edge,
    FalseF,
    Next,
    Not,
    Or,
    TrueF,
    Until,
    nnf,
    parse_ltl,
    to_buchi,
)
from polybisim.lyapunov import LinearSystem, PolyhedralLF
from polybisim.pipeline import run_pipeline
from polybisim.problem import load_problem
from polybisim.verify import (
    ProductAutomaton,
    f_star,
    label_quotient,
    product,
    satisfying_states,
)
from product_reference import f_star_fixpoint, full_product, lasso_structure


def _eventually(a):
    return Until(TrueF(), a)


def _always(a):
    return Not(Until(TrueF(), Not(a)))


def _implies(a, b):
    return Or(Not(a), b)


ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = {
    "toy_1d": ROOT / "fixtures" / "toy_1d.json",
    "two_slice_2d": ROOT / "tests" / "golden" / "two_slice_2d.json",
}


def automaton(edges, *acceptance):
    """Tiny helper: edges as {state: (successors...)}, then one iterable of
    states per acceptance set."""
    states = tuple(edges)
    return ProductAutomaton(
        states,
        frozenset(states),
        {s: tuple(d) for s, d in edges.items()},
        tuple(frozenset(acc) for acc in acceptance),
    )


def test_core_cycle_of_accepting_states():
    p = automaton({"a": ("b",), "b": ("b",)}, {"a", "b"})
    assert f_star_fixpoint(p) == frozenset({"a", "b"})
    assert f_star(p) == frozenset({"a", "b"})


def test_core_empty_on_acyclic_graph():
    p = automaton({"a": ("b",), "b": ("c",), "c": ()}, {"a", "b", "c"})
    assert f_star_fixpoint(p) == frozenset()
    assert f_star(p) == frozenset()


def test_core_accepting_state_off_cycle():
    # the only cycle is through a non-accepting state, so nothing survives
    p = automaton({"a": ("b",), "b": ("b",)}, {"a"})
    assert f_star_fixpoint(p) == frozenset()
    assert f_star(p) == frozenset()


def test_core_self_loop_singleton():
    # b is not accepting but steps onto a's accepting self-loop
    p = automaton({"a": ("a",), "b": ("a",)}, {"a"})
    assert f_star_fixpoint(p) == frozenset({"a", "b"})
    assert f_star(p) == frozenset({"a", "b"})


def test_core_member_reached_through_nonmembers():
    # a reaches the accepting cycle at c through non-accepting b
    p = automaton({"a": ("b",), "b": ("c",), "c": ("c",)}, {"a", "c"})
    assert f_star_fixpoint(p) == frozenset({"a", "b", "c"})
    assert f_star(p) == frozenset({"a", "b", "c"})


def test_no_acceptance_set_accepts_every_infinite_run():
    # with no set any cycle accepts: a and b reach the loop at c, d is stuck
    p = automaton({"a": ("b", "d"), "b": ("c",), "c": ("c",), "d": ()})
    assert f_star_fixpoint(p) == frozenset({"a", "b", "c"})
    assert f_star(p) == frozenset({"a", "b", "c"})


def test_a_cycle_must_meet_every_acceptance_set():
    # the cycle b <-> c meets only the first set; the cycle d <-> e meets
    # both, one set at each state, so only d, e and a (which can reach
    # them) have an accepting run
    p = automaton(
        {"a": ("b", "d"), "b": ("c",), "c": ("b",), "d": ("e",), "e": ("d",)},
        {"b", "d"},
        {"e"},
    )
    assert f_star_fixpoint(p) == frozenset({"a", "d", "e"})
    assert f_star(p) == frozenset({"a", "d", "e"})


def test_dual_implementations_on_random_digraphs():
    rng = random.Random(47)
    for _ in range(50):
        n = rng.randrange(2, 30)
        edges = {
            i: tuple(
                j for j in range(n) if rng.random() < 2.0 / n
            )
            for i in range(n)
        }
        acceptance = [
            {i for i in range(n) if rng.random() < 0.4}
            for _ in range(rng.randrange(4))
        ]
        p = automaton(edges, *acceptance)
        assert f_star_fixpoint(p) == f_star(p)
    # chains of cycles, each with an edge into the next, of which only the
    # last meets both acceptance sets: every chain state has an accepting
    # run, whichever cycle Tarjan's walk starts at
    for k in range(3, 6):
        cycles = [
            [("c", i, j) for j in range(rng.randrange(1, 4))] for i in range(k)
        ]
        chain = {}
        for i, cyc in enumerate(cycles):
            for j, s in enumerate(cyc):
                chain[s] = [cyc[(j + 1) % len(cyc)]]
            if i + 1 < k:
                chain[rng.choice(cyc)].append(rng.choice(cycles[i + 1]))
        for start in (cycles[0][0], cycles[k // 2][0], cycles[-1][0]):
            edges = {start: chain[start]}
            edges.update(chain)
            acceptance = [
                {s for cyc in cycles for s in cyc},
                set(cycles[-1][-1:]),
            ]
            p = automaton(edges, *acceptance)
            assert f_star(p) == f_star_fixpoint(p) == frozenset(chain)


def _quotient_1d():
    sys = LinearSystem.of([["0.5"]])
    lf = PolyhedralLF.of([["1"]], "0.5")
    return build_quotient(sys, lf, 1, 2, [])


def test_satisfying_states_on_1d_quotient():
    quotient, partition = _quotient_1d()
    for text, expect_all in (("F pid", True), ("G !pid", False)):
        b = to_buchi(parse_ltl(text))
        p = product(quotient, b)
        sat = satisfying_states(p, f_star(p), partition)
        if expect_all:
            assert sat.state_ids == frozenset(quotient.states)
            assert len(sat.region.cells) == len(quotient.states)
        else:
            assert sat.state_ids == frozenset()


def test_satisfying_membership_operator():
    quotient, partition = _quotient_1d()
    b = to_buchi(parse_ltl("F pid"))
    p = product(quotient, b)
    sat = satisfying_states(p, f_star(p))
    assert 0 in sat
    assert sat.region is None


def test_zero_length_path_counts():
    quotient, partition = _quotient_1d()
    # G pid holds exactly on the target state; its initial pairing must be
    # accepted without taking any step
    b = to_buchi(parse_ltl("G pid"))
    p = product(quotient, b)
    sat = satisfying_states(p, f_star(p))
    assert sat.state_ids == frozenset({quotient.target_state})


def test_product_rejects_undeclared_atoms():
    quotient, _ = _quotient_1d()
    b = to_buchi(parse_ltl("F r9"))
    with pytest.raises(ValueError):
        product(quotient, b)


def _forward_closure(p):
    """The product states reachable from its initial pairings."""
    seen = set(p.initial)
    stack = list(p.initial)
    while stack:
        for d in p.transitions[stack.pop()]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return seen


def _assert_reachable_product(quotient, b, p):
    """p's states are exactly the forward closure of its initial pairings,
    each with a transitions entry equal to the per-state guard evaluation."""
    assert set(p.transitions) == set(p.states)
    assert len(set(p.states)) == len(p.states)
    assert p.initial == {(q, s0) for q in quotient.states for s0 in b.initial}
    assert set(p.states) == _forward_closure(p)
    for (q, s), dsts in p.transitions.items():
        letter = quotient.observations[q].letter()
        assert dsts == tuple(
            (quotient.transitions[q], e.dst)
            for e in b.edges.get(s, ())
            if e.accepts(letter)
        )
    assert p.acceptance == tuple(
        {(q, s) for q, s in p.states if s in acc} for acc in b.acceptance
    )


def test_product_transition_structure():
    quotient, _ = _quotient_1d()
    b = to_buchi(parse_ltl("F pid"))
    p = product(quotient, b)
    _assert_reachable_product(quotient, b, p)
    assert len(p.states) <= len(quotient.states) * len(b.states)


def test_product_pairs_every_initial_automaton_state():
    # to_buchi makes one initial state; a hand-built automaton has two,
    # and state 2 is reached only through a pid letter
    quotient, _ = _quotient_1d()
    b = BuchiAutomaton(
        (0, 1, 2, 3),
        frozenset({0, 1}),
        {
            0: (Edge(frozenset({"pid"}), frozenset(), 2),),
            1: (Edge(frozenset(), frozenset(), 1),),
            2: (Edge(frozenset(), frozenset(), 2),),
            3: (Edge(frozenset(), frozenset(), 3),),
        },
        (frozenset({2, 3}),),
        frozenset({"pid"}),
    )
    p = product(quotient, b)
    _assert_reachable_product(quotient, b, p)
    target = quotient.target_state
    assert set(p.states) == {(q, s) for q in quotient.states for s in (0, 1)} | {
        (target, 2)
    }
    assert satisfying_states(p, f_star(p)).state_ids == {target}


def test_product_matches_per_state_guard_evaluation():
    sys = LinearSystem.of([["0.5", "0"], ["0", "0.5"]])
    lf = PolyhedralLF.of([["1", "0"], ["0", "1"]], "0.5")
    r1 = Cell(2, [constraint([1, 0], 3), constraint([-1, 0], -2),
                  constraint([0, 1], 1), constraint([0, -1], 1)])
    quotient, _ = build_quotient(sys, lf, 1, 4, [ObservedRegion("r1", r1)])
    for text in ("F pid", "!r1 U pid", "G (r1 -> X !r1)", "F r1 & G F pid"):
        b = to_buchi(parse_ltl(text, atoms={"r1", "pid"}))
        _assert_reachable_product(quotient, b, product(quotient, b))


def _box(lo, hi):
    n = len(lo)
    return Cell(n, [
        c
        for i in range(n)
        for c in (
            constraint([int(j == i) for j in range(n)], hi[i]),
            constraint([-int(j == i) for j in range(n)], -Fraction(lo[i])),
        )
    ])


def _problem(name):
    """(system, lf, gamma_D, gamma_X, regions) of a named problem."""
    if name == "three_d":
        # two slices, two regions: words such as EMPTY s PI_D
        return (
            LinearSystem.of(
                [["0.5", "0", "0"], ["0", "0.5", "-0.25"], ["0", "0.25", "0.5"]]
            ),
            PolyhedralLF.of([[1, 0, 0], [0, 1, 0], [0, 0, 1]], "0.75"),
            1,
            "1.5",
            [
                ObservedRegion("r", _box(["1.1", -1, -1], ["1.5", 1, 1])),
                ObservedRegion("s", _box([-1, "-1.5", -1], [1, "-1.1", 1])),
            ],
        )
    if name == "four_d":
        # three_d with a fourth coordinate driven by the third: 63 states
        return (
            LinearSystem.of(
                [
                    ["1/2", 0, 0, 0],
                    [0, "1/2", "-1/4", 0],
                    [0, "1/4", "1/2", 0],
                    [0, 0, "1/8", "1/2"],
                ]
            ),
            PolyhedralLF.of([[int(i == j) for j in range(4)] for i in range(4)], "0.75"),
            1,
            "1.5",
            [
                ObservedRegion("r", _box(["1.1", -1, -1, -1], ["1.5", 1, 1, 1])),
                ObservedRegion("s", _box([-1, "-1.5", -1, -1], [1, "-1.1", 1, 1])),
            ],
        )
    if name == "rank_one":
        # A maps the plane onto the diagonal: a singular A, two slices
        return (
            LinearSystem.of([["0.25", "0.25"], ["0.25", "0.25"]]),
            PolyhedralLF.of([[1, 0], [0, 1]], "0.5"),
            1,
            4,
            [
                ObservedRegion("r", _box([2, -1], [3, 1])),
                ObservedRegion("s", _box([-1, "1.5"], [1, "3.5"])),
            ],
        )
    spec = load_problem(PROBLEMS[name])
    return spec.system, spec.lf, spec.gamma_d, spec.gamma_x, spec.regions


def _random_formula(rng, atoms, depth):
    """Every connective, with nested X, Until chains, true and false."""
    def leaf():
        return rng.choice([TrueF(), FalseF()] + [Atom(a) for a in atoms] * 2)

    def sub():
        return _random_formula(rng, atoms, depth - 1)

    if depth == 0 or rng.random() < 0.2:
        return leaf()
    op = rng.randrange(10)
    if op == 0:
        return Not(sub())
    if op == 1:
        return Next(Next(sub()) if rng.random() < 0.5 else sub())
    if op == 2:
        return _eventually(sub())
    if op == 3:
        return _always(sub())
    if op == 4:
        return And(sub(), sub())
    if op == 5:
        return Or(sub(), sub())
    if op == 6:
        return _implies(sub(), sub())
    if op == 7:
        return Until(leaf(), Until(leaf(), sub()))
    return Until(sub(), sub())


@pytest.mark.parametrize("name", ["toy_1d", "two_slice_2d", "three_d"])
def test_labelling_matches_the_automaton_path(name):
    quotient, partition = build_quotient(*_problem(name))
    atoms = ["pid"] + sorted(
        {o.label for o in quotient.observations.values() if o.is_region}
    )
    rng = random.Random(53)
    disagree = []
    for _ in range(300):
        f = _random_formula(rng, atoms, rng.randint(1, 3))
        p = product(quotient, to_buchi(f))
        want = satisfying_states(p, f_star(p), partition)
        # nnf(f) has the same answer and exercises Release
        for g in (f, nnf(f)):
            if label_quotient(quotient, g, partition) != want:
                disagree.append(str(g))
    assert disagree == []


def _nested_until(rng, atoms):
    """A chain of three or four Untils over literals, conjoined with a
    recurrence: automata of four or five acceptance sets."""
    def lit():
        a = Atom(rng.choice(atoms))
        return Not(a) if rng.random() < 0.5 else a

    f = lit()
    for _ in range(rng.randint(3, 4)):
        f = Until(lit(), f)
    return And(f, _always(_eventually(lit())))


@pytest.mark.parametrize("name", ["toy_1d", "two_slice_2d", "three_d", "lassos"])
def test_reachable_product_matches_the_full_product(name):
    """The reachable product keeps every reached pair's successors, so its
    accepting states are the full product's on the reached pairs, and the
    satisfying sets of both (and of labelling) are identical.  The lassos
    (prefix and cycle of at most 2 letters) are no quotient: a letter may
    hold two atoms, and none holds pid."""
    if name == "lassos":
        quotient, partition = lasso_structure(2, 2), None
        atoms = ["pid", "a", "b"]
    else:
        quotient, partition = build_quotient(*_problem(name))
        atoms = ["pid"] + sorted(
            {o.label for o in quotient.observations.values() if o.is_region}
        )
    rng = random.Random(59)
    formulas = [_random_formula(rng, atoms, rng.randint(1, 3)) for _ in range(60)]
    formulas += [_nested_until(rng, atoms) for _ in range(12)]
    many_sets = 0
    for f in formulas:
        b = to_buchi(f)
        many_sets += len(b.acceptance) >= 4
        p, full = product(quotient, b), full_product(quotient, b)
        _assert_reachable_product(quotient, b, p)
        reached = frozenset(p.states)
        assert all(p.transitions[x] == full.transitions[x] for x in reached)
        fair = f_star_fixpoint(full)
        assert f_star(p) == fair & reached, str(f)
        sat = satisfying_states(p, f_star(p), partition)
        assert sat == satisfying_states(full, fair, partition), str(f)
        assert label_quotient(quotient, f, partition) == sat, str(f)
    assert many_sets >= 12


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_run_pipeline_region_matches_the_automaton_path(name):
    spec = load_problem(PROBLEMS[name])
    result = run_pipeline(spec, samples=0)
    p = product(result.quotient, to_buchi(parse_ltl(spec.formula)))
    want = satisfying_states(p, f_star(p), result.partition)
    assert result.satisfying.state_ids == want.state_ids
    assert result.satisfying.region.cells == want.region.cells


def test_label_quotient_rejects_undeclared_atoms():
    quotient, _ = _quotient_1d()
    with pytest.raises(ValueError):
        label_quotient(quotient, parse_ltl("F r9"))


@pytest.mark.parametrize(
    "name", ["toy_1d", "two_slice_2d", "three_d", "four_d", "rank_one"]
)
def test_quotient_is_an_exact_bisimulation(name):
    """Every non-target block maps into its successor: it meets no
    complement piece of the successor's preimage.  With the four audit
    properties (the blocks partition each slice, each with one
    observation) this proves the bisimulation property exactly, where
    cross-validation only samples successors."""
    system, *_, regions = problem = _problem(name)
    _, partition = build_quotient(*problem)
    audit = audit_partition(partition, regions)
    assert all(audit.values()), audit
    escapes = [
        b.id
        for b in partition.blocks.values()
        if b.id != partition.d_block_id
        and any(
            not cells_disjoint(b.cell, piece)
            for piece in complement(
                preimage_linear(
                    partition.blocks[b.successor].cell, system.a_matrix
                )
            ).cells
        )
    ]
    assert escapes == []
