"""LTL parsing, normal forms, the tableau translation and the lasso
oracle agreeing with each other.  Which lassos an automaton accepts is
read off the package's product and ``f_star`` over every short lasso
(``product_reference.accepted_lassos``)."""

import random

import pytest

from polybisim.logic import (
    And,
    Atom,
    BuchiAutomaton,
    Edge,
    FalseF,
    LassoWord,
    Next,
    Not,
    Or,
    ParseError,
    Release,
    TrueF,
    Until,
    _tableau,
    eval_ltl_lasso,
    formula_atoms,
    nnf,
    parse_ltl,
    to_buchi,
)
from product_reference import accepted_lassos, lasso_structure


def _eventually(a):
    return Until(TrueF(), a)


def _always(a):
    return Not(Until(TrueF(), Not(a)))


def _implies(a, b):
    return Or(Not(a), b)


E = frozenset()
A = frozenset({"a"})
B = frozenset({"b"})
AB = frozenset({"a", "b"})


def test_parser_examples():
    assert parse_ltl("a") == Atom("a")
    assert parse_ltl("!a & b") == And(Not(Atom("a")), Atom("b"))
    assert parse_ltl("!a & b | c") == Or(And(Not(Atom("a")), Atom("b")), Atom("c"))
    assert parse_ltl("a -> b -> c") == _implies(
        Atom("a"), _implies(Atom("b"), Atom("c"))
    )
    assert parse_ltl("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))
    assert parse_ltl("G F a") == _always(_eventually(Atom("a")))
    assert parse_ltl("X (a | b)") == Next(Or(Atom("a"), Atom("b")))
    assert parse_ltl("true & false") == And(TrueF(), FalseF())
    assert parse_ltl("a U b & c") == And(Until(Atom("a"), Atom("b")), Atom("c"))


def test_parser_paper_style_formula():
    f = parse_ltl("G !r2 & F r1 & (r3 -> X !r1)")
    assert formula_atoms(f) == {"r1", "r2", "r3"}


def test_parser_errors():
    for bad in ("a &", "(a", "a b", "#", "", "U a", "a ->"):
        with pytest.raises(ParseError):
            parse_ltl(bad)
    with pytest.raises(ParseError):
        parse_ltl("a & q", atoms={"a", "b"})
    # the same formula is fine when the atom is declared
    parse_ltl("a & q", atoms={"a", "q"})


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Atom("a"), Atom("b"), TrueF(), FalseF()])
    op = rng.randrange(7)
    if op == 0:
        return Not(_random_formula(rng, depth - 1))
    if op == 1:
        return Next(_random_formula(rng, depth - 1))
    if op == 2:
        return _eventually(_random_formula(rng, depth - 1))
    if op == 3:
        return _always(_random_formula(rng, depth - 1))
    l, r = _random_formula(rng, depth - 1), _random_formula(rng, depth - 1)
    return [And, Or, _implies, Until][op - 3](l, r)


def test_str_parse_round_trip():
    rng = random.Random(31)
    for _ in range(100):
        f = _random_formula(rng, 4)
        assert parse_ltl(str(f)) == f


def test_lasso_word_basics():
    w = LassoWord((A,), (B, E))
    assert len(w) == 3
    with pytest.raises(ValueError):
        LassoWord((), ())


def test_oracle_examples():
    w = LassoWord((E,), (A,))
    assert eval_ltl_lasso(parse_ltl("F a"), w)
    assert not eval_ltl_lasso(parse_ltl("G a"), w)
    assert eval_ltl_lasso(parse_ltl("X a"), w)
    assert eval_ltl_lasso(parse_ltl("!a U a"), w)
    assert eval_ltl_lasso(parse_ltl("G F a"), w)
    w2 = LassoWord((A, B), (E,))
    assert eval_ltl_lasso(parse_ltl("a & X b"), w2)
    assert not eval_ltl_lasso(parse_ltl("F a"), LassoWord((), (B,)))


def test_nnf_shape_and_semantics():
    rng = random.Random(37)
    words = [
        LassoWord((A,), (B,)),
        LassoWord((), (E,)),
        LassoWord((B, A), (A, E)),
        LassoWord((), (A, B)),
    ]

    def check_shape(g):
        if isinstance(g, Not):
            assert isinstance(g.operand, Atom)
            return
        assert isinstance(g, (TrueF, FalseF, Atom, And, Or, Next, Until, Release))
        for attr in ("operand", "left", "right"):
            if hasattr(g, attr):
                check_shape(getattr(g, attr))

    for _ in range(60):
        f = _random_formula(rng, 4)
        g = nnf(f)
        check_shape(g)
        for w in words:
            assert eval_ltl_lasso(f, w) == eval_ltl_lasso(g, w)
        ng = nnf(Not(f))
        for w in words:
            assert eval_ltl_lasso(ng, w) == (not eval_ltl_lasso(f, w))


def test_negation_duality_on_oracle():
    rng = random.Random(41)
    words = lasso_structure(2, 2).words
    for _ in range(20):
        f = _random_formula(rng, 3)
        for w in words[:: 7]:
            assert eval_ltl_lasso(Not(f), w) == (not eval_ltl_lasso(f, w))


def test_buchi_trivial_formulas():
    words = [LassoWord((), (E,)), LassoWord((A,), (B, E))]
    accepted_true = accepted_lassos(to_buchi(TrueF()))
    accepted_false = accepted_lassos(to_buchi(FalseF()))
    for w in words:
        assert w in accepted_true
        assert w not in accepted_false
    accepted_atom = accepted_lassos(to_buchi(Atom("a")))
    assert LassoWord((A,), (E,)) in accepted_atom
    assert LassoWord((B,), (E,)) not in accepted_atom


def test_buchi_release_and_until():
    until = accepted_lassos(to_buchi(parse_ltl("a U b")))
    assert LassoWord((A, A, B), (E,)) in until
    assert LassoWord((A, A), (E,)) not in until
    always = accepted_lassos(to_buchi(parse_ltl("G a")))
    assert LassoWord((), (A,)) in always
    assert LassoWord((A,), (A, B, E)) not in always


def test_translation_matches_oracle_reduced_sweep():
    rng = random.Random(43)
    lassos = lasso_structure(2, 2)
    for _ in range(20):
        f = _random_formula(rng, 3)
        accepted = accepted_lassos(to_buchi(f), lassos)
        accepted_not = accepted_lassos(to_buchi(Not(f)), lassos)
        for w in lassos.words:
            expect = eval_ltl_lasso(f, w)
            assert (w in accepted) == expect
            assert (w in accepted_not) == (not expect)


def test_multiple_untils_give_one_acceptance_set_each():
    # F a and F b are two Untils: two acceptance sets over the tableau
    # nodes, which are the states besides the initial one
    f = parse_ltl("(F a) & (F b)")
    b = to_buchi(f)
    assert len(b.acceptance) == 2
    assert len(b.states) == len(_tableau(nnf(f))) + 1
    accepted = accepted_lassos(b)
    assert LassoWord((A,), (B,)) in accepted
    assert LassoWord((), (A, B)) in accepted
    assert LassoWord((A,), (E,)) not in accepted
    assert LassoWord((), (B,)) not in accepted


def test_lasso_needs_a_cycle_through_every_acceptance_set():
    # a first letter with a enters the cycle 3 <-> 4, which meets both
    # sets; any other letter enters 1 <-> 2, which meets only the first
    def step(dst, pos=E, neg=E):
        return Edge(pos, neg, dst)

    b = BuchiAutomaton(
        (0, 1, 2, 3, 4),
        frozenset({0}),
        {
            0: (step(1, neg=A), step(3, pos=A)),
            1: (step(2),),
            2: (step(1),),
            3: (step(4),),
            4: (step(3),),
        },
        (frozenset({1, 3}), frozenset({4})),
        frozenset({"a"}),
    )
    accepted = accepted_lassos(b)
    assert LassoWord((A,), (E,)) in accepted
    assert LassoWord((), (AB, B)) in accepted
    assert LassoWord((B,), (A,)) not in accepted
    assert LassoWord((), (E,)) not in accepted


def test_until_with_true_right_side():
    # regression: an Until whose right side is "true" is fulfilled
    # immediately, so wrapping it in G must still accept everything
    w = LassoWord((), (E,))
    for text in (
        "G (false U true)",
        "G X (false U true)",
        "G ((false U true) | (a U b))",
    ):
        f = parse_ltl(text)
        assert eval_ltl_lasso(f, w)
        assert w in accepted_lassos(to_buchi(f))


def test_release_str():
    assert str(Release(Atom("a"), Atom("b"))) == "(a R b)"
