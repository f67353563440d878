"""LTL parsing, normal forms, the tableau translation and the lasso
oracle agreeing with each other."""

import itertools
import random

import pytest

from polybisim.logic import (
    Always,
    And,
    Atom,
    BuchiAutomaton,
    Edge,
    Eventually,
    FalseF,
    Implies,
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
    lasso_accepts,
    nnf,
    parse_ltl,
    to_buchi,
)

E = frozenset()
A = frozenset({"a"})
B = frozenset({"b"})
AB = frozenset({"a", "b"})


def test_parser_examples():
    assert parse_ltl("a") == Atom("a")
    assert parse_ltl("!a & b") == And(Not(Atom("a")), Atom("b"))
    assert parse_ltl("!a & b | c") == Or(And(Not(Atom("a")), Atom("b")), Atom("c"))
    assert parse_ltl("a -> b -> c") == Implies(
        Atom("a"), Implies(Atom("b"), Atom("c"))
    )
    assert parse_ltl("a U b U c") == Until(Atom("a"), Until(Atom("b"), Atom("c")))
    assert parse_ltl("G F a") == Always(Eventually(Atom("a")))
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
        return Eventually(_random_formula(rng, depth - 1))
    if op == 3:
        return Always(_random_formula(rng, depth - 1))
    l, r = _random_formula(rng, depth - 1), _random_formula(rng, depth - 1)
    return [And, Or, Implies, Until][op - 3](l, r)


def all_lassos(letters, max_prefix, max_cycle):
    out = []
    for p in range(max_prefix + 1):
        for prefix in itertools.product(letters, repeat=p):
            for c in range(1, max_cycle + 1):
                for cycle in itertools.product(letters, repeat=c):
                    out.append(LassoWord(prefix, cycle))
    return out


def test_str_parse_round_trip():
    rng = random.Random(31)
    for _ in range(100):
        f = _random_formula(rng, 4)
        assert parse_ltl(str(f)) == f


def test_lasso_word_basics():
    w = LassoWord((A,), (B, E))
    assert len(w) == 3
    assert [w.letter(k) for k in range(6)] == [A, B, E, B, E, B]
    assert w.succ(2) == 1
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
        assert not isinstance(g, (Eventually, Always, Implies))
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
    words = all_lassos([E, A, B, AB], 2, 2)
    for _ in range(20):
        f = _random_formula(rng, 3)
        for w in words[:: 7]:
            assert eval_ltl_lasso(Not(f), w) == (not eval_ltl_lasso(f, w))


def test_buchi_trivial_formulas():
    words = [LassoWord((), (E,)), LassoWord((A,), (B, E))]
    b_true = to_buchi(TrueF())
    b_false = to_buchi(FalseF())
    for w in words:
        assert lasso_accepts(b_true, w)
        assert not lasso_accepts(b_false, w)
    b_atom = to_buchi(Atom("a"))
    assert lasso_accepts(b_atom, LassoWord((A,), (E,)))
    assert not lasso_accepts(b_atom, LassoWord((B,), (E,)))


def test_buchi_release_and_until():
    b = to_buchi(parse_ltl("a U b"))
    assert lasso_accepts(b, LassoWord((A, A, B), (E,)))
    assert not lasso_accepts(b, LassoWord((A, A), (E,)))
    g = to_buchi(parse_ltl("G a"))
    assert lasso_accepts(g, LassoWord((), (A,)))
    assert not lasso_accepts(g, LassoWord((A,), (A, B, E)))


def test_translation_matches_oracle_reduced_sweep():
    rng = random.Random(43)
    words = all_lassos([E, A, B, AB], 2, 2)
    for _ in range(20):
        f = _random_formula(rng, 3)
        b = to_buchi(f)
        nb = to_buchi(Not(f))
        for w in words:
            expect = eval_ltl_lasso(f, w)
            assert lasso_accepts(b, w) == expect
            assert lasso_accepts(nb, w) == (not expect)


def test_multiple_untils_give_one_acceptance_set_each():
    # F a and F b are two Untils: two acceptance sets over the tableau
    # nodes, which are the states besides the initial one
    f = parse_ltl("(F a) & (F b)")
    b = to_buchi(f)
    assert len(b.acceptance) == 2
    assert len(b.states) == len(_tableau(nnf(f))) + 1
    assert lasso_accepts(b, LassoWord((A,), (B,)))
    assert lasso_accepts(b, LassoWord((), (A, B)))
    assert not lasso_accepts(b, LassoWord((A,), (E,)))
    assert not lasso_accepts(b, LassoWord((), (B,)))


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
    assert lasso_accepts(b, LassoWord((A,), (E,)))
    assert lasso_accepts(b, LassoWord((), (AB, B)))
    assert not lasso_accepts(b, LassoWord((B,), (A,)))
    assert not lasso_accepts(b, LassoWord((), (E,)))


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
        assert lasso_accepts(to_buchi(f), w)


def test_release_str():
    assert str(Release(Atom("a"), Atom("b"))) == "(a R b)"
