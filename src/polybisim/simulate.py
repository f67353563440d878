"""Concrete trajectory simulation and quotient cross-validation.

Trajectories are iterated in exact rational arithmetic, so the word a
trajectory generates can be compared against the quotient's word with no
tolerance at all; any mismatch is a real soundness bug, not noise.

The arithmetic runs in Python ints.  A point is kept as (p, m), the
point p / m with m > 0 (``geometry.scale_point``), and A as (a, d) with
A = a / d (``LinearSystem.scaled``), so one step is p <- a p, m <- d m,
reduced by their gcd, and each observation tests the integer rows.  A
random sample mixes a cell's integer vertices (X, M) the same way.
``Fraction``s are made only for what a caller reads: the trajectory's
points and the sample points.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .abstraction import (
    Observation,
    ObservedRegion,
    Partition,
    QuotientTS,
    _observation_scaled,
    quotient_word,
)
from .errors import InternalError
from .geometry import (
    Cell, Vector, _vertices, contains_scaled, sample_point, scale_point, vec,
)
from .logic import Formula, LassoWord, eval_ltl_lasso
from .lyapunov import LinearSystem


@dataclass(frozen=True)
class Trajectory:
    """Exact run of the embedding dynamics until the target set is hit."""

    points: tuple[Vector, ...]
    word: tuple[Observation, ...]

    def lasso(self) -> LassoWord:
        return LassoWord(
            tuple(o.letter() for o in self.word[:-1]),
            (self.word[-1].letter(),),
        )


def simulate(
    sys: LinearSystem,
    x_cell: Cell,
    d_cell: Cell,
    regions: Sequence[ObservedRegion],
    x0: Sequence,
    max_steps: int,
) -> Trajectory:
    """Iterate x' = A x until the target set is entered.

    max_steps is a hard bound (one more step than the slice count is
    already impossible when the contraction certificate holds), so an
    overrun raises instead of looping.
    """
    x = vec(x0)
    p, m = scale_point(x, x_cell.dim)
    if not contains_scaled(x_cell, p, m):
        raise ValueError("initial state lies outside the working set")
    a, d = sys.scaled
    points = [x]
    word = [_observation_scaled(p, m, regions, d_cell)]
    steps = 0
    while not word[-1].is_target:
        if steps >= max_steps:
            raise InternalError(
                "trajectory failed to reach the target set within the bound"
            )
        p, m = tuple(sum(map(mul, row, p)) for row in a), d * m
        g = gcd(m, *p)
        if g > 1:
            p, m = tuple(v // g for v in p), m // g
        points.append(tuple(Fraction(v, m) for v in p))
        word.append(_observation_scaled(p, m, regions, d_cell))
        steps += 1
    return Trajectory(tuple(points), tuple(word))


@dataclass(frozen=True)
class SampleOutcome:
    point: Vector
    word_ok: bool
    verdict_ok: bool


@dataclass(frozen=True)
class CrossValidationReport:
    samples: tuple[SampleOutcome, ...]

    @property
    def mismatches(self) -> int:
        return sum(
            1 for s in self.samples if not (s.word_ok and s.verdict_ok)
        )

    def summary(self) -> str:
        return (
            f"cross-validation: {len(self.samples)} samples, "
            f"{self.mismatches} mismatches"
        )

    def detail_lines(self) -> list[str]:
        out = []
        for k, s in enumerate(self.samples):
            coords = ",".join(str(c) for c in s.point)
            out.append(
                f"sample {k} x=({coords}) word_ok={s.word_ok} "
                f"verdict_ok={s.verdict_ok}"
            )
        return out


def _jitter(cell: Cell, rng: random.Random) -> Vector:
    """A random rational point of the cell: its vertices weighted by random
    positive integers.  Each strict row of a non-empty cell is slack at
    some vertex (``geometry.is_empty``), so it is slack at the point.  The
    mean of the vertices X_i / M_i with weights w_i is sum w_i X_i (L / M_i)
    over L sum w_i, L the lcm of the M_i."""
    verts = _vertices(cell)
    weights = [rng.randrange(1, 1000) for _ in verts]
    big = lcm(*(m for _, m, _ in verts))
    scaled = [(w * (big // m), x) for w, (x, m, _) in zip(weights, verts)]
    total = big * sum(weights)
    return tuple(
        Fraction(sum(f * x[j] for f, x in scaled), total)
        for j in range(cell.dim)
    )


def sample_states(
    partition: Partition, count: int, seed: int
) -> list[tuple[int, Vector]]:
    """``count`` block-directed samples.  The blocks are visited in a
    seeded order that takes the slices in turn, again and again: a
    block's interior sample on its first visit, a random point of it on
    each later one.  So a count of at least the number of blocks samples
    every block, lower dimensional slivers too, and a smaller count
    samples every slice that it can."""
    rng = random.Random(seed)
    by_slice: dict[int, list] = {}
    for b in partition.ordered_blocks():
        by_slice.setdefault(b.slice_index, []).append(b)
    turns = zip_longest(*(rng.sample(group, len(group)) for group in by_slice.values()))
    order = [b for turn in turns for b in turn if b is not None]
    out = []
    for k in range(count):
        b = order[k % len(order)]
        out.append((b.id, sample_point(b.cell) if k < len(order) else _jitter(b.cell, rng)))
    return out


def cross_validate(
    sys: LinearSystem,
    quotient: QuotientTS,
    partition: Partition,
    regions: Sequence[ObservedRegion],
    formula: Optional[Formula],
    satisfying_ids: Optional[frozenset],
    sample_count: int,
    seed: int = 0,
) -> CrossValidationReport:
    """Check word equivalence (and, when a formula is given, verdict
    equivalence) on block-directed samples.  Both checks are exact."""
    samples = sample_states(partition, sample_count, seed)
    max_steps = len(partition.slice_regions) + 1

    outcomes = []
    for block_id, x in samples:
        traj = simulate(
            sys, partition.x_cell, partition.d_cell, regions, x, max_steps
        )
        qword = quotient_word(quotient, block_id)
        word_ok = traj.word == qword
        verdict_ok = True
        if formula is not None and satisfying_ids is not None:
            verdict = eval_ltl_lasso(formula, traj.lasso())
            verdict_ok = verdict == (block_id in satisfying_ids)
        outcomes.append(SampleOutcome(x, word_ok, verdict_ok))
    return CrossValidationReport(tuple(outcomes))
