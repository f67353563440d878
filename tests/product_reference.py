"""Reference automaton routines that the package no longer carries: the
full synchronized product over every (quotient state, automaton state)
pair, and the Emerson-Lei fixpoint characterization of the states with an
accepting run.  Tests compare the package's reachable product and its
SCC-based ``f_star`` with them.

Also the lasso structure: every short lasso word as one state of a
quotient-shaped structure, so that ``product`` and ``f_star`` decide which
lassos an automaton accepts."""

import functools
import itertools
from dataclasses import dataclass

from polybisim.logic import LassoWord
from polybisim.verify import (
    ProductAutomaton,
    _backward_closure,
    _check_atoms,
    _predecessors,
    f_star,
    product,
    satisfying_states,
)


def full_product(quotient, b):
    """Every pair, in quotient-state-major order; edges fire on the source
    quotient state's observation letter."""
    _check_atoms(quotient, b.atoms)
    states = []
    transitions = {}
    fired = {}  # observation -> {automaton state: destinations it enables}
    for q in quotient.states:
        obs = quotient.observations[q]
        dsts = fired.get(obs)
        if dsts is None:
            letter = obs.letter()
            dsts = fired[obs] = {
                s: tuple(e.dst for e in b.edges.get(s, ()) if e.accepts(letter))
                for s in b.states
            }
        q_next = quotient.transitions[q]
        for s in b.states:
            states.append((q, s))
            transitions[(q, s)] = tuple((q_next, d) for d in dsts[s])
    initial = frozenset((q, s0) for q in quotient.states for s0 in b.initial)
    acceptance = tuple(
        frozenset((q, s) for q in quotient.states for s in acc)
        for acc in b.acceptance
    )
    return ProductAutomaton(tuple(states), initial, transitions, acceptance)


def f_star_fixpoint(p):
    """Greatest fixpoint  Z = nu Z. AND_j EX E[Z U (Z & F_j)]  over the
    acceptance sets F_j; with no sets, one set of every state, which makes
    it EG true.  A member has, for each j, a path of one or more steps
    through members to a member in F_j, so chaining them visits every set
    infinitely often (Emerson and Lei)."""
    preds = _predecessors(p.transitions, p.states)
    sets = p.acceptance or (frozenset(p.states),)
    z = set(p.states)
    while True:
        inside = {s: [x for x in preds[s] if x in z] for s in z}
        keep = set(z)
        for acc in sets:
            # members with a path of length >= 0 through Z into Z & F_j ...
            reach = _backward_closure(z & acc, inside)
            # ... then one step in front of it
            keep &= {x for r in reach for x in preds[r]}
        if keep == z:
            return frozenset(z)
        z = keep


class Letter(frozenset):
    """An atom set that is its own observation letter."""

    def letter(self):
        return self


@dataclass(frozen=True)
class LassoStructure:
    """Quotient-shaped: state q is the lasso ``words[q]``, it reads the
    word's first letter, and its one successor is the word with that
    letter dropped (the prefix loses its head, or the cycle rotates)."""

    states: tuple
    transitions: dict
    observations: dict
    words: tuple


@functools.lru_cache(maxsize=None)
def lasso_structure(max_prefix=3, max_cycle=3):
    """Every lasso with a prefix of at most ``max_prefix`` and a cycle of
    at most ``max_cycle`` letters over {}, {a}, {b}, {a, b}, a set closed
    under the successor: 7140 states by default."""
    letters = [Letter(), Letter({"a"}), Letter({"b"}), Letter({"a", "b"})]
    words = tuple(
        LassoWord(prefix, cycle)
        for p in range(max_prefix + 1)
        for prefix in itertools.product(letters, repeat=p)
        for c in range(1, max_cycle + 1)
        for cycle in itertools.product(letters, repeat=c)
    )
    index = {w: q for q, w in enumerate(words)}

    def succ(w):
        if w.prefix:
            return LassoWord(w.prefix[1:], w.cycle)
        return LassoWord((), w.cycle[1:] + w.cycle[:1])

    return LassoStructure(
        tuple(range(len(words))),
        {q: index[succ(w)] for q, w in enumerate(words)},
        {q: (w.prefix + w.cycle)[0] for q, w in enumerate(words)},
        words,
    )


def accepted_lassos(b, lassos=None):
    """The lassos of ``lassos`` (by default ``lasso_structure()``) on
    which b has an accepting run, read off the package's product and
    ``f_star``."""
    if lassos is None:
        lassos = lasso_structure()
    p = product(lassos, b)
    sat = satisfying_states(p, f_star(p))
    return frozenset(lassos.words[q] for q in sat.state_ids)
