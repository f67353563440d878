"""Concrete trajectory simulation and quotient cross-validation.

Trajectories are iterated in exact rational arithmetic, so the word a
trajectory generates can be compared against the quotient's word with no
tolerance at all; any mismatch is a real soundness bug, not noise.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .abstraction import (
    Observation,
    ObservedRegion,
    Partition,
    QuotientTS,
    observation_of,
    quotient_word,
)
from .geometry import (
    Cell, Vector, apply_matrix, bounding_box, contains_point, sample_point, vec
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
    if not contains_point(x_cell, x):
        raise ValueError("initial state lies outside the working set")
    points = [x]
    word = [observation_of(x, regions, d_cell)]
    steps = 0
    while not word[-1].is_target:
        if steps >= max_steps:
            raise AssertionError(
                "trajectory failed to reach the target set within the bound"
            )
        x = apply_matrix(sys.a_matrix, x)
        points.append(x)
        word.append(observation_of(x, regions, d_cell))
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
    """A random rational point of the cell: mix the interior sample with a
    random bounding-box point while membership holds."""
    base = sample_point(cell)
    box = bounding_box(cell)
    if any(lo is None or hi is None for lo, hi in box):
        return base
    target = tuple(
        lo + (hi - lo) * Fraction(rng.randrange(0, 1000), 1000)
        for lo, hi in box
    )
    # walk from the box point towards the interior sample; the first
    # midpoint inside the cell is accepted
    point = target
    for _ in range(20):
        if contains_point(cell, point):
            return point
        point = tuple(
            (p + b) / 2 for p, b in zip(point, base)
        )
    return base


def sample_states(
    partition: Partition, per_block: int, seed: int
) -> list[tuple[int, Vector]]:
    """Block-directed sampling: every block contributes, so lower
    dimensional slivers are exercised too."""
    rng = random.Random(seed)
    out = []
    for b in partition.ordered_blocks():
        out.append((b.id, sample_point(b.cell)))
        for _ in range(per_block - 1):
            out.append((b.id, _jitter(b.cell, rng)))
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
    n_blocks = len(partition.blocks)
    per_block = max(1, -(-sample_count // n_blocks))
    samples = sample_states(partition, per_block, seed)[:sample_count]
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
