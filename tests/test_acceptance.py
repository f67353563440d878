"""End-to-end acceptance checks.

Each test covers one headline property of the toolkit and prints a
single pass/fail line; run pytest with -rA (the repo default) or -s to
see the lines.
"""

import random
import time
from fractions import Fraction

import pytest

from polybisim.abstraction import audit_partition, build_quotient, quotient_word
from polybisim.geometry import apply_matrix
from polybisim.logic import (
    And,
    Atom,
    FalseF,
    LassoWord,
    Next,
    Not,
    Or,
    TrueF,
    Until,
    eval_ltl_lasso,
    label,
    parse_ltl,
    to_buchi,
)
from polybisim.lyapunov import (
    LinearSystem,
    PolyhedralLF,
    level_sequence,
    verify_contraction,
)
from polybisim.simulate import cross_validate, sample_states
from polybisim.verify import (
    ProductAutomaton,
    f_star,
    product,
    satisfying_states,
)
from product_reference import accepted_lassos, f_star_fixpoint, lasso_structure


def _eventually(a):
    return Until(TrueF(), a)


def _always(a):
    return Not(Until(TrueF(), Not(a)))


def _implies(a, b):
    return Or(Not(a), b)


def _report(name, ok, extra=""):
    tail = f" ({extra})" if extra else ""
    print(f"{'PASS' if ok else 'FAIL'}: {name}{tail}")
    assert ok, name


def test_criterion_1_level_sequence(paper_spec):
    t0 = time.monotonic()
    seq = level_sequence(
        paper_spec.gamma_d, paper_spec.gamma_x, paper_spec.lf.rho
    )
    elapsed = time.monotonic() - t0
    # independent rational power computation for the tenth threshold
    expected_g10 = Fraction("5.063") * Fraction(100, 94) ** 10
    ok = (
        seq.n_steps == 11
        and seq.gammas[10] == expected_g10
        and abs(seq.gammas[10] - Fraction("9.4000")) <= Fraction(1, 1000)
        and elapsed < 1.0
    )
    _report(
        "level sequence: N=11, gamma_10 ~ 9.4000",
        ok,
        f"N={seq.n_steps}, gamma_10={float(seq.gammas[10]):.7f}, {elapsed:.3f}s",
    )


def test_criterion_2_contraction_certificate(paper_spec):
    t0 = time.monotonic()
    rho_star = verify_contraction(paper_spec.lf, paper_spec.system)
    elapsed = time.monotonic() - t0
    ok = rho_star <= Fraction("0.95") and elapsed < 1.0
    _report(
        "contraction certificate: rho* <= 0.95",
        ok,
        f"rho*={float(rho_star):.6f}, {elapsed:.3f}s",
    )


def test_criterion_3_quotient_soundness(paper_spec, paper_build):
    quotient, partition, build_seconds = paper_build
    ok_time = build_seconds < 300
    audits = audit_partition(partition, list(paper_spec.regions))
    ok_audits = all(audits.values())

    samples = sample_states(partition, 1000, seed=11)
    agree = 0
    for block_id, x in samples:
        b = partition.blocks[block_id]
        nxt = partition.cell_of(apply_matrix(paper_spec.system.a_matrix, x))
        agree += nxt == b.successor
    ok = ok_time and ok_audits and agree == len(samples)
    _report(
        "quotient soundness: audits exact, 1000 successor samples agree",
        ok,
        f"{len(quotient.states)} states, build {build_seconds:.1f}s, "
        f"audits={audits}, agree={agree}/{len(samples)}",
    )


def test_criterion_4_language_preservation(paper_spec, paper_build):
    quotient, partition, _ = paper_build
    report = cross_validate(
        paper_spec.system,
        quotient,
        partition,
        paper_spec.regions,
        None,
        None,
        sample_count=500,
        seed=17,
    )
    ok = len(report.samples) == 500 and all(s.word_ok for s in report.samples)
    _report(
        "language preservation: 500 simulated words equal quotient words",
        ok,
        report.summary(),
    )


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Atom("a"), Atom("b"), TrueF(), FalseF()])
    op = rng.randrange(8)
    if op == 0:
        return Not(_random_formula(rng, depth - 1))
    if op == 1:
        return Next(_random_formula(rng, depth - 1))
    if op == 2:
        return _eventually(_random_formula(rng, depth - 1))
    if op == 3:
        return _always(_random_formula(rng, depth - 1))
    l, r = _random_formula(rng, depth - 1), _random_formula(rng, depth - 1)
    return [And, Or, _implies, Until][op - 4](l, r)


def _unrollings(lassos):
    """(letters, succ, starts): each lasso's own unrolling, as
    ``eval_ltl_lasso`` lays it out, end to end, lasso k from starts[k]."""
    letters, succ, starts = [], [], []
    for w in lassos:
        start = len(letters)
        starts.append(start)
        letters += w.prefix + w.cycle
        succ += [*range(start + 1, start + len(w)), start + len(w.prefix)]
    return letters, succ, starts


def test_criterion_5_translation_oracle_sweep():
    """The automaton of each formula accepts exactly the lassos that the
    oracle, one ``label`` call on all the unrollings, finds it true on;
    the first formula's oracle is checked against ``eval_ltl_lasso``."""
    t0 = time.monotonic()
    lassos = lasso_structure().words
    letters, succ, starts = _unrollings(lassos)
    rng = random.Random(19)
    mismatches = 0
    for k in range(100):
        f = _random_formula(rng, 4)
        accepted = accepted_lassos(to_buchi(f))
        truth = label(f, letters, succ)
        if k == 0:
            assert [truth[s] for s in starts] == [eval_ltl_lasso(f, w) for w in lassos]
        for w, s in zip(lassos, starts):
            if (w in accepted) != truth[s]:
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 120
    _report(
        "LTL translation: 100 formulas x 7140 lassos match the oracle",
        ok,
        f"{len(lassos)} lassos, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_6_end_to_end_verdicts(paper_spec, paper_build):
    quotient, partition, _ = paper_build
    atoms = {"pid", "r1", "r2", "r3"}
    literal = paper_spec.formula
    strengthened = "G !r2 & F r1 & G (r3 -> X !r1)"

    lasso_cache = {}
    for q in quotient.states:
        word = quotient_word(quotient, q)
        lasso_cache[q] = LassoWord(
            tuple(o.letter() for o in word[:-1]), (word[-1].letter(),)
        )

    ok = True
    details = []
    for text in (literal, strengthened):
        f = parse_ltl(text, atoms)
        p = product(quotient, to_buchi(f))
        sat = satisfying_states(p, f_star(p))
        agree = sum(
            (q in sat.state_ids) == eval_ltl_lasso(f, lasso_cache[q])
            for q in quotient.states
        )
        details.append(f"{text!r}: {len(sat.state_ids)} sat, {agree} agree")
        ok = ok and agree == len(quotient.states)

    f_all = parse_ltl("F pid", atoms)
    p = product(quotient, to_buchi(f_all))
    sat_all = satisfying_states(p, f_star(p))
    ok = ok and sat_all.state_ids == frozenset(quotient.states)

    f_none = parse_ltl("G !pid", atoms)
    p = product(quotient, to_buchi(f_none))
    sat_none = satisfying_states(p, f_star(p))
    ok = ok and sat_none.state_ids == frozenset()

    _report(
        "end-to-end verdicts: satisfying set equals the per-state oracle",
        ok,
        "; ".join(details)
        + f"; 'F pid'={len(sat_all.state_ids)}, 'G !pid'={len(sat_none.state_ids)}",
    )


def test_criterion_7_fstar_dual_implementations():
    rng = random.Random(23)
    agree = 0
    for _ in range(200):
        n = rng.randrange(2, 51)
        edges = {
            i: tuple(j for j in range(n) if rng.random() < 1.5 / n)
            for i in range(n)
        }
        acceptance = tuple(
            frozenset(i for i in range(n) if rng.random() < 0.4)
            for _ in range(rng.randrange(4))
        )
        p = ProductAutomaton(
            tuple(range(n)),
            frozenset(range(n)),
            edges,
            acceptance,
        )
        agree += f_star_fixpoint(p) == f_star(p)
    ok = agree == 200
    _report(
        "F*: fixpoint and SCC implementations agree on 200 digraphs"
        " with 0-3 acceptance sets",
        ok,
        f"{agree}/200",
    )


def test_criterion_8_1d_analytic_fixture():
    sys = LinearSystem.of([["0.5"]])
    lf = PolyhedralLF.of([["1"]], "0.5")
    quotient, partition = build_quotient(sys, lf, 1, 2, [])
    labels = {s: quotient.observations[s].label for s in quotient.states}
    ok = (
        len(quotient.states) == 3
        and quotient.target_state == 0
        and labels[0] == "PI_D"
        and sorted(labels[s] for s in quotient.states if s != 0)
        == ["EMPTY", "EMPTY"]
        and all(quotient.transitions[s] == 0 for s in quotient.states)
    )
    _report(
        "1-D fixture: exact 3-state quotient, outer blocks enter the target",
        ok,
        f"states={quotient.states}, transitions={quotient.transitions}",
    )
