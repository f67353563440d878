"""LTL over observation letters: parsing, a path labeller, and automaton
translation.

``label`` evaluates LTL semantics directly, by fixpoint iteration, on a
finite structure in which every position has one successor.  It checks
formulas on the deterministic quotient (``verify.label_quotient``, the
pipeline's path) and, through ``eval_ltl_lasso``, on ultimately-periodic
words.  The translation is negation normal form, then tableau expansion
to a generalized Buchi automaton with one acceptance set per Until: a run
accepts when it visits every set infinitely often.  Which runs accept is
decided in one place, ``verify.product`` then ``verify.f_star``, on any
structure with one successor per state: the quotient, or a set of lasso
words.  The translation never touches the labeller, so the automaton path
is the labeller's independent check and the labeller is the translation's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
class Next(Formula):
    operand: Formula

    def __str__(self):
        return f"X {self.operand}"


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
            return Or(Not(left), self.implication())
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
            return Until(TrueF(), self.unary())
        if tok == "G":
            self.take()
            return Not(Until(TrueF(), Not(self.unary())))
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
    """The formula in the core nodes: F a is read as true U a, G a as
    !(true U !a) and a -> b as !a | b."""
    return _Parser(_tokenize(text), atoms).parse()


def formula_atoms(f: Formula) -> set[str]:
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, (TrueF, FalseF)):
        return set()
    if isinstance(f, (Not, Next)):
        return formula_atoms(f.operand)
    return formula_atoms(f.left) | formula_atoms(f.right)


def nnf(f: Formula, negate: bool = False) -> Formula:
    """Negation normal form over {atoms, literals, And, Or, Next, Until,
    Release}."""
    if isinstance(f, TrueF):
        return FalseF() if negate else TrueF()
    if isinstance(f, FalseF):
        return TrueF() if negate else FalseF()
    if isinstance(f, Atom):
        return Not(f) if negate else f
    if isinstance(f, Not):
        return nnf(f.operand, not negate)
    if isinstance(f, And):
        a, b = nnf(f.left, negate), nnf(f.right, negate)
        return Or(a, b) if negate else And(a, b)
    if isinstance(f, Or):
        a, b = nnf(f.left, negate), nnf(f.right, negate)
        return And(a, b) if negate else Or(a, b)
    if isinstance(f, Next):
        return Next(nnf(f.operand, negate))
    if isinstance(f, Until):
        a, b = nnf(f.left, negate), nnf(f.right, negate)
        return Release(a, b) if negate else Until(a, b)
    if isinstance(f, Release):
        a, b = nnf(f.left, negate), nnf(f.right, negate)
        return Until(a, b) if negate else Release(a, b)
    raise TypeError(f"unknown formula node: {f!r}")


# --------------------------------------------------------------------------
# Tableau translation to a generalized Buchi automaton
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
    """A run accepts when it visits every set of ``acceptance`` infinitely
    often; ``()`` means every infinite run accepts."""

    states: tuple[int, ...]
    initial: frozenset
    edges: dict[int, tuple[Edge, ...]]
    acceptance: tuple[frozenset, ...]
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
    """Classic tableau expansion; returns the node graph.  A finished node
    with the same old and next formulas as a kept one merges into it."""
    kept: dict[tuple[frozenset, frozenset], _Node] = {}
    counter = [0]

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    stack = [_Node(fresh(), {0}, {phi}, set(), set())]
    while stack:
        node = stack.pop()
        if not node.new:
            key = (frozenset(node.old), frozenset(node.nxt))
            twin = kept.get(key)
            if twin is not None:
                twin.incoming |= node.incoming
                continue
            kept[key] = node
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
    return list(kept.values())


def to_buchi(f: Formula) -> BuchiAutomaton:
    """Translate an LTL formula into a generalized Buchi automaton.

    States are tableau nodes plus a fresh initial state 0; the guard of an
    edge is the literal set of its destination node.  There is one
    acceptance set per Until subformula u: the nodes that do not promise u
    or already hold its right side.  A formula without Untils gets no set,
    so every infinite run accepts.
    """
    nodes = _tableau(nnf(f))
    untils = sorted(
        {g for n in nodes for g in n.old if isinstance(g, Until)},
        key=str,
    )
    states = tuple([0] + sorted(n.name for n in nodes))
    edges: dict[int, list[Edge]] = {s: [] for s in states}
    for n in nodes:
        pos = frozenset(g.name for g in n.old if isinstance(g, Atom))
        neg = frozenset(
            g.operand.name
            for g in n.old
            if isinstance(g, Not) and isinstance(g.operand, Atom)
        )
        for src in n.incoming:
            edges[src].append(Edge(pos, neg, n.name))
    acceptance = tuple(
        frozenset(
            n.name for n in nodes if u not in n.old or u.right in n.old
        )
        for u in untils
    )
    return BuchiAutomaton(
        states,
        frozenset([0]),
        {s: tuple(e) for s, e in edges.items()},
        acceptance,
        frozenset(formula_atoms(f)),
    )


# --------------------------------------------------------------------------
# Direct semantics on structures with one successor per position
# --------------------------------------------------------------------------

def label(f: Formula, letters: Sequence[Letter], succ: Sequence[int]) -> list[bool]:
    """Truth of f at every position 0..n-1 of a structure in which position
    k reads letters[k] and has the one successor succ[k].

    Every run of such a structure is ultimately periodic, so each subformula
    holds at k iff it holds on letters[k] and at succ[k]; Until is the least
    fixpoint of that rule, and Release is the negated least fixpoint of
    its negated operands.
    """
    n = len(letters)

    def sets(g: Formula) -> list[bool]:
        if isinstance(g, TrueF):
            return [True] * n
        if isinstance(g, FalseF):
            return [False] * n
        if isinstance(g, Atom):
            return [g.name in letter for letter in letters]
        if isinstance(g, Not):
            return [not v for v in sets(g.operand)]
        if isinstance(g, And):
            a, b2 = sets(g.left), sets(g.right)
            return [x and y for x, y in zip(a, b2)]
        if isinstance(g, Or):
            a, b2 = sets(g.left), sets(g.right)
            return [x or y for x, y in zip(a, b2)]
        if isinstance(g, Next):
            a = sets(g.operand)
            return [a[k] for k in succ]
        if isinstance(g, Until):
            return _lfp(sets(g.left), sets(g.right), succ)
        if isinstance(g, Release):
            hold = [not v for v in sets(g.left)]
            goal = [not v for v in sets(g.right)]
            return [not v for v in _lfp(hold, goal, succ)]
        raise TypeError(f"unknown formula node: {g!r}")

    return sets(f)


def eval_ltl_lasso(f: Formula, w: LassoWord) -> bool:
    """Direct LTL semantics on the lasso at position 0: ``label`` on the
    finite unrolling 0..len(w)-1, whose last position wraps into the cycle."""
    return label(f, w.prefix + w.cycle, [*range(1, len(w)), len(w.prefix)])[0]


def _lfp(hold: list[bool], goal: list[bool], succ: Sequence[int]) -> list[bool]:
    """Least fixpoint of  v[k] = goal[k] or (hold[k] and v[succ[k]]).

    Sweeps run n-1..0, so a successor of higher index is settled in the
    same sweep.
    """
    n = len(succ)
    val = [False] * n
    for _ in range(n + 1):
        changed = False
        for k in range(n - 1, -1, -1):
            v = goal[k] or (hold[k] and val[succ[k]])
            if v != val[k]:
                val[k] = v
                changed = True
        if not changed:
            break
    return val
