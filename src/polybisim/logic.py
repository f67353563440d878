"""LTL over observation letters: parsing, automaton translation, and an
independent semantic oracle on ultimately-periodic words.

The translation pipeline is negation normal form, tableau expansion to a
generalized Buchi automaton, then counter-based degeneralization.  The
oracle evaluates LTL semantics directly on the lasso by fixpoint
iteration and never touches the automaton path, so the two can check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

Letter = frozenset


class Formula:
    pass


@dataclass(frozen=True)
class TrueF(Formula):
    def __str__(self):
        return "true"


@dataclass(frozen=True)
class FalseF(Formula):
    def __str__(self):
        return "false"


@dataclass(frozen=True)
class Atom(Formula):
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Not(Formula):
    operand: Formula

    def __str__(self):
        return f"!{self.operand}"


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} -> {self.right})"


@dataclass(frozen=True)
class Next(Formula):
    operand: Formula

    def __str__(self):
        return f"X {self.operand}"


@dataclass(frozen=True)
class Eventually(Formula):
    operand: Formula

    def __str__(self):
        return f"F {self.operand}"


@dataclass(frozen=True)
class Always(Formula):
    operand: Formula

    def __str__(self):
        return f"G {self.operand}"


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} U {self.right})"


@dataclass(frozen=True)
class Release(Formula):
    """Dual of Until; internal only, produced during NNF rewriting."""

    left: Formula
    right: Formula

    def __str__(self):
        return f"({self.left} R {self.right})"


@dataclass(frozen=True)
class LassoWord:
    """Ultimately periodic word: finite prefix, then cycle forever."""

    prefix: tuple[Letter, ...]
    cycle: tuple[Letter, ...]

    def __post_init__(self):
        if not self.cycle:
            raise ValueError("lasso cycle must be non-empty")

    def __len__(self) -> int:
        return len(self.prefix) + len(self.cycle)

    def letter(self, k: int) -> Letter:
        if k < len(self.prefix):
            return self.prefix[k]
        return self.cycle[(k - len(self.prefix)) % len(self.cycle)]

    def succ(self, k: int) -> int:
        return k + 1 if k + 1 < len(self) else len(self.prefix)


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPERATORS = {"!", "&", "|", "->", "(", ")", "X", "F", "G", "U"}


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif text.startswith("->", i):
            tokens.append(("->", i))
            i += 2
        elif ch in "!&|()":
            tokens.append((ch, i))
            i += 1
        elif ch.isalnum() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append((text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append((None, len(text)))
    return tokens


class _Parser:
    """Recursive descent; precedence ! X F G  >  U  >  &  >  |  >  ->."""

    def __init__(self, tokens, atoms: Optional[Iterable[str]]):
        self.tokens = tokens
        self.pos = 0
        self.atoms = None if atoms is None else set(atoms)

    def peek(self):
        return self.tokens[self.pos][0]

    def here(self):
        return self.tokens[self.pos][1]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok[0]

    def parse(self) -> Formula:
        f = self.implication()
        if self.peek() is not None:
            raise ParseError(f"unexpected token {self.peek()!r}", self.here())
        return f

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        f = self.conjunction()
        while self.peek() == "|":
            self.take()
            f = Or(f, self.conjunction())
        return f

    def conjunction(self) -> Formula:
        f = self.until()
        while self.peek() == "&":
            self.take()
            f = And(f, self.until())
        return f

    def until(self) -> Formula:
        left = self.unary()
        if self.peek() == "U":
            self.take()
            return Until(left, self.until())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok == "X":
            self.take()
            return Next(self.unary())
        if tok == "F":
            self.take()
            return Eventually(self.unary())
        if tok == "G":
            self.take()
            return Always(self.unary())
        if tok == "(":
            self.take()
            f = self.implication()
            if self.peek() != ")":
                raise ParseError("expected ')'", self.here())
            self.take()
            return f
        if tok == "true":
            self.take()
            return TrueF()
        if tok == "false":
            self.take()
            return FalseF()
        if tok is None or tok in _OPERATORS:
            raise ParseError(f"expected a formula, found {tok!r}", self.here())
        self.take()
        if self.atoms is not None and tok not in self.atoms:
            raise ParseError(f"unknown atom {tok!r}", self.here())
        return Atom(tok)


def parse_ltl(text: str, atoms: Optional[Iterable[str]] = None) -> Formula:
    return _Parser(_tokenize(text), atoms).parse()


def formula_atoms(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, (TrueF, FalseF)):
        return set()
    if isinstance(f, (Not, Next, Eventually, Always)):
        return formula_atoms(f.operand)
    return formula_atoms(f.left) | formula_atoms(f.right)


def nnf(f: Formula, negate: bool = False) -> Formula:
    """Negation normal form over {atoms, literals, And, Or, Next, Until,
    Release}; F and G are rewritten away."""
    if isinstance(f, TrueF):
        return FalseF() if negate else TrueF()
    if isinstance(f, FalseF):
        return TrueF() if negate else FalseF()
    if isinstance(f, Atom):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return nnf(f.operand, not negate)
    if isinstance(f, Implies):
        return nnf(Or(Not(f.left), f.right), negate)
    if isinstance(f, And):
        a, b = nnf(f.left, negate), nnf(f.right, negate)
        return Or(a, b) if negate else And(a, b)
    if isinstance(f, Or):
        a, b = nnf(f.left, negate), nnf(f.right, negate)
        return And(a, b) if negate else Or(a, b)
    if isinstance(f, Next):
        return Next(nnf(f.operand, negate))
    if isinstance(f, Eventually):
        return nnf(Until(TrueF(), f.operand), negate)
    if isinstance(f, Always):
        return nnf(Release(FalseF(), f.operand), negate)
    if isinstance(f, Until):
        a, b = nnf(f.left, negate), nnf(f.right, negate)
        return Release(a, b) if negate else Until(a, b)
    if isinstance(f, Release):
        a, b = nnf(f.left, negate), nnf(f.right, negate)
        return Until(a, b) if negate else Release(a, b)
    raise TypeError(f"unknown formula node: {f!r}")


# --------------------------------------------------------------------------
# Tableau translation to a Buchi automaton
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Edge:
    """Transition guard: all of pos must hold, none of neg may hold."""

    pos: frozenset
    neg: frozenset
    dst: int

    def accepts(self, letter: Letter) -> bool:
        return self.pos <= letter and not (self.neg & letter)


@dataclass(frozen=True)
class BuchiAutomaton:
    states: tuple[int, ...]
    initial: frozenset
    edges: dict[int, tuple[Edge, ...]]
    accepting: frozenset
    atoms: frozenset


class _Node:
    __slots__ = ("name", "incoming", "new", "old", "nxt")

    def __init__(self, name, incoming, new, old, nxt):
        self.name = name
        self.incoming = incoming
        self.new = new
        self.old = old
        self.nxt = nxt


def _neg_literal(f: Formula) -> Formula:
    return f.operand if isinstance(f, Not) else Not(f)


def _tableau(phi: Formula) -> list[_Node]:
    """Classic tableau expansion; returns the node graph."""
    nodes: list[_Node] = []
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    stack = [_Node(fresh(), {0}, {phi}, set(), set())]
    while stack:
        node = stack.pop()
        if not node.new:
            twin = next(
                (
                    r
                    for r in nodes
                    if r.old == node.old and r.nxt == node.nxt
                ),
                None,
            )
            if twin is not None:
                twin.incoming |= node.incoming
                continue
            nodes.append(node)
            stack.append(
                _Node(fresh(), {node.name}, set(node.nxt), set(), set())
            )
            continue
        f = node.new.pop()
        if isinstance(f, FalseF):
            continue  # contradiction, node dies
        if isinstance(f, (TrueF, Atom)) or (
            isinstance(f, Not) and isinstance(f.operand, Atom)
        ):
            if _neg_literal(f) in node.old:
                continue
            # TrueF is kept in old too: the acceptance condition for an
            # Until with right-hand side "true" looks it up there
            node.old.add(f)
            stack.append(node)
        elif isinstance(f, And):
            node.old.add(f)
            node.new |= {f.left, f.right} - node.old
            stack.append(node)
        elif isinstance(f, Next):
            node.old.add(f)
            node.nxt.add(f.operand)
            stack.append(node)
        elif isinstance(f, (Or, Until, Release)):
            if isinstance(f, Or):
                new1, nxt1, new2 = {f.left}, set(), {f.right}
            elif isinstance(f, Until):
                new1, nxt1, new2 = {f.left}, {f}, {f.right}
            else:
                new1, nxt1, new2 = {f.right}, {f}, {f.left, f.right}
            n1 = _Node(
                fresh(),
                set(node.incoming),
                node.new | (new1 - node.old),
                node.old | {f},
                node.nxt | nxt1,
            )
            n2 = _Node(
                fresh(),
                set(node.incoming),
                node.new | (new2 - node.old),
                node.old | {f},
                set(node.nxt),
            )
            stack.append(n1)
            stack.append(n2)
        else:
            raise TypeError(f"formula not in NNF: {f!r}")
    return nodes


def to_buchi(f: Formula) -> BuchiAutomaton:
    """Translate an LTL formula into a (nondeterministic) Buchi automaton.

    States are tableau nodes plus a fresh initial state; the guard of an
    edge is the literal set of its destination node.  Multiple acceptance
    sets (one per Until subformula) are removed with a counter.
    """
    phi = nnf(f)
    nodes = _tableau(phi)
    untils = sorted(
        {g for n in nodes for g in n.old if isinstance(g, Until)},
        key=str,
    )

    def guard(node: _Node) -> tuple[frozenset, frozenset]:
        pos = frozenset(
            g.name for g in node.old if isinstance(g, Atom)
        )
        neg = frozenset(
            g.operand.name
            for g in node.old
            if isinstance(g, Not) and isinstance(g.operand, Atom)
        )
        return pos, neg

    accept_sets = [
        frozenset(
            n.name for n in nodes if u not in n.old or u.right in n.old
        )
        for u in untils
    ]

    raw_edges: dict[int, list[tuple[frozenset, frozenset, int]]] = {0: []}
    for n in nodes:
        raw_edges.setdefault(n.name, [])
    for n in nodes:
        pos, neg = guard(n)
        for src in n.incoming:
            raw_edges.setdefault(src, []).append((pos, neg, n.name))

    k = len(accept_sets)
    if k <= 1:
        acc = accept_sets[0] if k == 1 else frozenset(
            [0] + [n.name for n in nodes]
        )
        states = tuple([0] + sorted(n.name for n in nodes))
        edges = {
            s: tuple(Edge(p, ng, d) for p, ng, d in raw_edges.get(s, []))
            for s in states
        }
        return BuchiAutomaton(
            states, frozenset([0]), edges, frozenset(acc), frozenset(formula_atoms(f))
        )

    # Counter-based degeneralization: (state, j) waits for accept set j;
    # a state is accepting when it sits at counter 0 inside set 0.
    states = []
    edges: dict = {}
    accepting = set()
    base_states = [0] + sorted(n.name for n in nodes)
    for s in base_states:
        for j in range(k):
            states.append((s, j))
    for s in base_states:
        for j in range(k):
            jn = (j + 1) % k if s in accept_sets[j] else j
            edges[(s, j)] = tuple(
                Edge(p, ng, (d, jn)) for p, ng, d in raw_edges.get(s, [])
            )
    for s in base_states:
        if s in accept_sets[0]:
            accepting.add((s, 0))
    return BuchiAutomaton(
        tuple(states),
        frozenset([(0, 0)]),
        edges,
        frozenset(accepting),
        frozenset(formula_atoms(f)),
    )


# --------------------------------------------------------------------------
# Acceptance and the semantic oracle
# --------------------------------------------------------------------------

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


def lasso_accepts(b: BuchiAutomaton, w: LassoWord) -> bool:
    """Does some run over prefix.cycle^omega hit accepting states forever?

    Builds the finite product of the automaton with the word positions and
    looks for a reachable cycle through an accepting automaton state.
    """
    graph: dict = {}
    frontier = [(s, 0) for s in b.initial]
    for node in frontier:
        graph[node] = []
    while frontier:
        s, k = frontier.pop()
        letter = w.letter(k)
        nk = w.succ(k)
        for e in b.edges.get(s, ()):
            if e.accepts(letter):
                nxt = (e.dst, nk)
                graph[(s, k)].append(nxt)
                if nxt not in graph:
                    graph[nxt] = []
                    frontier.append(nxt)
    for comp in _sccs(graph):
        cyclic = len(comp) > 1 or comp[0] in graph[comp[0]]
        if cyclic and any(s in b.accepting for s, _ in comp):
            return True
    return False


def eval_ltl_lasso(f: Formula, w: LassoWord) -> bool:
    """Direct LTL semantics on the lasso at position 0.

    Works position-set-wise on the finite unrolling 0..len(w)-1 whose
    successor relation wraps into the cycle; Until and Release are least
    and greatest fixpoints computed by sweep iteration.
    """
    n = len(w)
    positions = range(n)

    def sets(g: Formula) -> list[bool]:
        if isinstance(g, TrueF):
            return [True] * n
        if isinstance(g, FalseF):
            return [False] * n
        if isinstance(g, Atom):
            return [g.name in w.letter(k) for k in positions]
        if isinstance(g, Not):
            return [not v for v in sets(g.operand)]
        if isinstance(g, And):
            a, b2 = sets(g.left), sets(g.right)
            return [x and y for x, y in zip(a, b2)]
        if isinstance(g, Or):
            a, b2 = sets(g.left), sets(g.right)
            return [x or y for x, y in zip(a, b2)]
        if isinstance(g, Implies):
            a, b2 = sets(g.left), sets(g.right)
            return [(not x) or y for x, y in zip(a, b2)]
        if isinstance(g, Next):
            a = sets(g.operand)
            return [a[w.succ(k)] for k in positions]
        if isinstance(g, Eventually):
            return _lfp(sets(TrueF()), sets(g.operand), w)
        if isinstance(g, Until):
            return _lfp(sets(g.left), sets(g.right), w)
        if isinstance(g, Always):
            return _gfp(sets(FalseF()), sets(g.operand), w)
        if isinstance(g, Release):
            return _gfp(sets(g.left), sets(g.right), w)
        raise TypeError(f"unknown formula node: {g!r}")

    return sets(f)[0]


def _lfp(hold: list[bool], goal: list[bool], w: LassoWord) -> list[bool]:
    """Least fixpoint of  v[k] = goal[k] or (hold[k] and v[succ(k)])."""
    n = len(w)
    val = [False] * n
    for _ in range(n + 1):
        changed = False
        for k in range(n - 1, -1, -1):
            v = goal[k] or (hold[k] and val[w.succ(k)])
            if v != val[k]:
                val[k] = v
                changed = True
        if not changed:
            break
    return val


def _gfp(release: list[bool], hold: list[bool], w: LassoWord) -> list[bool]:
    """Greatest fixpoint of  v[k] = hold[k] and (release[k] or v[succ(k)])."""
    n = len(w)
    val = [True] * n
    for _ in range(n + 1):
        changed = False
        for k in range(n - 1, -1, -1):
            v = hold[k] and (release[k] or val[w.succ(k)])
            if v != val[k]:
                val[k] = v
                changed = True
        if not changed:
            break
    return val
