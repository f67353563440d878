"""Reference automaton routines that the package no longer carries: the
full synchronized product over every (quotient state, automaton state)
pair, and the Emerson-Lei fixpoint characterization of the states with an
accepting run.  Tests compare the package's reachable product and its
SCC-based ``f_star`` with them."""

from polybisim.verify import (
    ProductAutomaton,
    _backward_closure,
    _check_atoms,
    _predecessors,
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
    """Greatest fixpoint  Z = nu Z. AND_j EX E[true U (Z & F_j)]  over the
    acceptance sets F_j; with no sets, one set of every state, which makes
    it EG true.  A member has, for each j, a path of one or more steps to a
    member in F_j, so chaining them visits every set infinitely often."""
    preds = _predecessors(p.transitions, p.states)
    sets = p.acceptance or (frozenset(p.states),)
    z = set(p.states)
    while True:
        keep = set(z)
        for acc in sets:
            # states with a path of length >= 0 into Z & F_j ...
            reach = _backward_closure(z & acc, preds)
            # ... then one step in front of it
            keep &= {x for r in reach for x in preds[r]}
        if keep == z:
            return frozenset(z)
        z = keep
