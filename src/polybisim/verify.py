"""Satisfying sets on the deterministic quotient, found two independent ways.

``label_quotient``, the pipeline's path, labels each state with
``logic.label`` from its letter and its one successor: no automaton.  The
automaton path is its check, and the package's only acceptance test for
automata: ``product`` synchronizes a generalized Buchi automaton on the
fly with any structure that has one successor per state (the quotient, or
a set of lasso words), keeping only the pairs reachable from the initial
pairings.  ``f_star`` returns the product states with an accepting run,
those that reach a cyclic strongly connected component meeting every
acceptance set, and a state satisfies the formula exactly when one of its
initial pairings has an accepting run.  Tarjan's algorithm finishes each
component after every component it reaches, so ``f_star`` decides a
component as it finishes, from its own edges and the answers already
given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .abstraction import Partition, QuotientTS, _block_lines
from .geometry import Region
from .logic import BuchiAutomaton, Formula, formula_atoms, label

ProductState = tuple  # (quotient state, automaton state)


@dataclass(frozen=True)
class ProductAutomaton:
    """``transitions`` has an entry for every state, possibly empty.  A run
    accepts when it visits every set of ``acceptance`` infinitely often;
    ``()`` means every infinite run accepts.

    ``product`` builds one whose states are exactly the pairs reachable
    from ``initial``; ``f_star`` takes any such graph.
    """

    states: tuple[ProductState, ...]
    initial: frozenset
    transitions: dict[ProductState, tuple[ProductState, ...]]
    acceptance: tuple[frozenset, ...]


@dataclass(frozen=True)
class SatisfyingSet:
    state_ids: frozenset
    region: Optional[Region] = None

    def __contains__(self, state_id) -> bool:
        return state_id in self.state_ids


def _check_atoms(quotient: QuotientTS, atoms) -> None:
    """The alphabet is ``pid`` and every atom of a state's letter."""
    alphabet = {"pid"}.union(
        *(o.letter() for o in set(quotient.observations.values()))
    )
    undeclared = set(atoms) - alphabet
    if undeclared:
        raise ValueError(
            f"formula atoms {sorted(undeclared)} are not quotient observations"
        )


def _satisfying_set(
    included: frozenset, partition: Optional[Partition]
) -> SatisfyingSet:
    """The states, with the union of their blocks' cells in block order as
    the answer region when a partition is supplied."""
    region = None if partition is None else Region(
        tuple(b.cell for b in partition.ordered_blocks() if b.id in included)
    )
    return SatisfyingSet(included, region)


def label_quotient(
    quotient: QuotientTS, f: Formula, partition: Optional[Partition] = None
) -> SatisfyingSet:
    """Quotient states that satisfy f, by ``logic.label`` on the quotient.

    Positions take the states in reverse ``quotient.states`` order, so every
    successor has a higher index (the target, last, loops on itself) and
    each fixpoint settles in one sweep plus one that confirms it.
    """
    _check_atoms(quotient, formula_atoms(f))
    order = quotient.states[::-1]
    index = {q: k for k, q in enumerate(order)}
    truth = label(
        f,
        [quotient.observations[q].letter() for q in order],
        [index[quotient.transitions[q]] for q in order],
    )
    return _satisfying_set(
        frozenset(q for q, holds in zip(order, truth) if holds), partition
    )


def product(quotient: QuotientTS, b: BuchiAutomaton) -> ProductAutomaton:
    """Synchronized product, restricted to the pairs reachable from the
    initial pairings (every quotient state with every initial automaton
    state).

    ``quotient`` may be any deterministic structure with the three fields
    read here: ``states``, the one successor ``transitions[q]`` of each
    state, and a hashable ``observations[q]`` whose ``letter()`` is the
    atom set that q reads.  Edges fire on the source state's letter.  The
    pairs are found by a worklist, so each guard is tested once per
    (observation, automaton state) actually reached.  Every kept pair has
    the successors it has in the full product, so which pairs have an
    accepting run, and every satisfying set, are unchanged.
    """
    _check_atoms(quotient, b.atoms)
    states = [(q, s0) for q in quotient.states for s0 in sorted(b.initial)]
    initial = frozenset(states)
    seen = set(states)
    transitions = {}
    fired = {}  # (observation, automaton state) -> destinations enabled
    for q, s in states:  # the list grows as the worklist
        obs = quotient.observations[q]
        dsts = fired.get((obs, s))
        if dsts is None:
            letter = obs.letter()
            dsts = fired[obs, s] = tuple(
                e.dst for e in b.edges.get(s, ()) if e.accepts(letter)
            )
        q_next = quotient.transitions[q]
        succ = transitions[q, s] = tuple((q_next, d) for d in dsts)
        for pair in succ:
            if pair not in seen:
                seen.add(pair)
                states.append(pair)
    acceptance = tuple(
        frozenset(pair for pair in states if pair[1] in acc)
        for acc in b.acceptance
    )
    return ProductAutomaton(tuple(states), initial, transitions, acceptance)


def _sccs(graph: dict) -> list[list]:
    """Iterative Tarjan strongly-connected components."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = [0]
    for root in graph:
        if root in index:
            continue
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph[w])))
                    advanced = True
                    break
                elif w in on_stack:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def f_star(p: ProductAutomaton) -> frozenset:
    """The states with an accepting run.  Tarjan finishes a component
    after every component it reaches, so one pass in that order marks a
    component when it is fair (cyclic, meeting every acceptance set) or
    one of its edges enters a state already marked."""
    graph = p.transitions
    marked = set()
    for comp in _sccs(graph):
        succ = [d for s in comp for d in graph[s]]
        if not marked.isdisjoint(succ) or (
            (len(comp) > 1 or comp[0] in succ)
            and all(not acc.isdisjoint(comp) for acc in p.acceptance)
        ):
            marked.update(comp)
    return frozenset(marked)


def satisfying_states(
    p: ProductAutomaton,
    fstar: frozenset,
    partition: Optional[Partition] = None,
) -> SatisfyingSet:
    """Quotient states with an initial pairing in ``fstar``, the product
    states with an accepting run; when a partition is supplied the union
    of the included blocks' cells is attached as the answer region."""
    return _satisfying_set(
        frozenset(q for q, s in p.initial if (q, s) in fstar), partition
    )


def export_satisfying(
    sat: SatisfyingSet, quotient: QuotientTS, partition: Partition
) -> str:
    """Same H-representation text as the quotient export, restricted to
    satisfying states, with a one-line summary up front."""
    lines = [f"satisfying: {len(sat.state_ids)} of {len(quotient.states)} states"]
    for b in partition.ordered_blocks():
        if b.id in sat.state_ids:
            lines += _block_lines(quotient, b)
    return "\n".join(lines) + "\n"
