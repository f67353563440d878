"""Reference automaton routines that the package no longer carries: the
full synchronized product over every (quotient state, automaton state)
pair, and the greatest-fixpoint characterization of the accepting core.
Tests compare the package's reachable product and ``f_star_scc`` with
them."""

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
    accepting = frozenset(
        (q, s) for q in quotient.states for s in b.accepting
    )
    return ProductAutomaton(tuple(states), initial, transitions, accepting)


def f_star_fixpoint(p):
    """Greatest fixpoint: repeatedly drop accepting states that cannot
    reach a remaining member in one or more steps."""
    preds = _predecessors(p.transitions, p.states)
    core = set(p.accepting)
    while True:
        # states with a path of length >= 1 into the current core
        one_step = set()
        for m in core:
            one_step.update(preds.get(m, ()))
        can_reach = _backward_closure(one_step, preds)
        # seeds already count as length >= 1; extend by closure over preds
        keep = core & (one_step | can_reach)
        if keep == core:
            return frozenset(core)
        core = keep
