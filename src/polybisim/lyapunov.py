"""Infinity-norm polyhedral Lyapunov functions.

Provides evaluation V(x) = max_j |[Lx]_j|, exact certification of the
contraction rate of a linear map with respect to V, the geometric
sequence of sublevel thresholds between the target and working sets, and
the annular slices between consecutive sublevel polytopes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import lp
from .geometry import (
    Cell,
    Constraint,
    Matrix,
    Region,
    Vector,
    difference,
    mat,
    vec,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ContractionError(RuntimeError):
    """The supplied function could not be certified for the dynamics."""


@dataclass(frozen=True)
class LinearSystem:
    """Autonomous update x' = A x."""

    a_matrix: Matrix

    def __post_init__(self):
        n = len(self.a_matrix)
        if any(len(r) != n for r in self.a_matrix):
            raise ValueError("state matrix must be square")

    @property
    def n(self) -> int:
        return len(self.a_matrix)

    @staticmethod
    def of(rows) -> "LinearSystem":
        return LinearSystem(mat(rows))


@dataclass(frozen=True)
class PolyhedralLF:
    """V(x) = ||L x||_inf with a declared contraction rate rho in (0,1)."""

    l_matrix: Matrix
    rho: Fraction

    def __post_init__(self):
        l, n = len(self.l_matrix), len(self.l_matrix[0])
        if any(len(r) != n for r in self.l_matrix):
            raise ValueError("ragged L matrix")
        if l < n:
            raise ValueError("L needs at least as many rows as columns")
        if _rank(self.l_matrix) < n:
            raise ValueError("L must have full column rank")
        if not (0 < self.rho < 1):
            raise ValueError("rho must lie in (0, 1)")

    @property
    def n(self) -> int:
        return len(self.l_matrix[0])

    @property
    def n_rows(self) -> int:
        return len(self.l_matrix)

    @staticmethod
    def of(rows, rho) -> "PolyhedralLF":
        return PolyhedralLF(mat(rows), Fraction(rho))


@dataclass(frozen=True)
class LevelSequence:
    """Thresholds gamma_0..gamma_N; geometric with ratio 1/rho except that
    the final step is clipped to the working-set level."""

    gammas: tuple[Fraction, ...]

    @property
    def n_steps(self) -> int:
        return len(self.gammas) - 1


def _rank(m: Matrix) -> int:
    rows = [list(r) for r in m]
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / prow[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        rank += 1
    return rank


def lf_value(lf: PolyhedralLF, x: Sequence) -> Fraction:
    p = vec(x)
    if len(p) != lf.n:
        raise ValueError("point dimension does not match L")
    return max(abs(sum(r[j] * p[j] for j in range(lf.n))) for r in lf.l_matrix)


def _signed_rows(m: Matrix) -> list[Vector]:
    out = [tuple(r) for r in m]
    out += [tuple(-v for v in r) for r in m]
    return out


def unit_ball_row_maxima(lf: PolyhedralLF, sys: LinearSystem) -> list[Fraction]:
    """For each row r of [L; -L]: max of r.(A x) over {||Lx||_inf <= 1}."""
    if sys.n != lf.n:
        raise ValueError("system and L dimensions differ")
    feas_rows = _signed_rows(lf.l_matrix)
    rhs = [_ONE] * len(feas_rows)
    la = tuple(
        tuple(
            sum(lrow[i] * sys.a_matrix[i][j] for i in range(lf.n))
            for j in range(lf.n)
        )
        for lrow in lf.l_matrix
    )
    maxima = []
    for row in _signed_rows(la):
        res = lp.maximize(row, feas_rows, rhs)
        if res.status != lp.OPTIMAL:
            raise ContractionError(
                "sublevel set is unbounded; L cannot have full column rank"
            )
        maxima.append(res.value)
    return maxima


def verify_contraction(lf: PolyhedralLF, sys: LinearSystem) -> Fraction:
    """Least rho* with ||L A x||_inf <= rho* ||L x||_inf for all x."""
    return max(unit_ball_row_maxima(lf, sys))


def level_sequence(gamma_d, gamma_x, rho) -> LevelSequence:
    gamma_d, gamma_x, rho = Fraction(gamma_d), Fraction(gamma_x), Fraction(rho)
    if not (0 < gamma_d < gamma_x):
        raise ValueError("need 0 < gamma_D < gamma_X")
    if not (0 < rho < 1):
        raise ValueError("rho must lie in (0, 1)")
    gammas = [gamma_d]
    value = gamma_d
    while value < gamma_x:
        value = value / rho
        gammas.append(value)
    gammas[-1] = gamma_x  # final step clipped; may be shorter than 1/rho
    return LevelSequence(tuple(gammas))


def sublevel_cell(lf: PolyhedralLF, gamma) -> Cell:
    """The polytope {x : ||Lx||_inf <= gamma} as 2l non-strict rows."""
    gamma = Fraction(gamma)
    return Cell(
        lf.n,
        [Constraint(row, gamma, False) for row in _signed_rows(lf.l_matrix)],
    )


def slices(
    lf: PolyhedralLF, seq: LevelSequence, known: Sequence[Cell] = ()
) -> list[Region]:
    """S_0 = innermost sublevel polytope, S_i the annulus between levels
    i-1 and i (outer-closed, inner-open).  A level's cell holds the origin
    in its interior, so it is not proven non-empty; a cell of ``known``
    with its constraints stands in for it, cached box and sample included.
    """
    by_rows = {k.constraints: k for k in known}
    cells = [sublevel_cell(lf, gamma) for gamma in seq.gammas]
    levels = [Region((by_rows.get(c.constraints, c),)) for c in cells]
    return levels[:1] + [difference(hi, lo) for lo, hi in zip(levels, levels[1:])]


def descends(rho_star, seq: LevelSequence) -> bool:
    """Whether rate rho_star maps each P_{gamma_i}, i >= 1, into
    P_{gamma_{i-1}}: by positive homogeneity one rate decides every level."""
    return all(
        rho_star * seq.gammas[i] <= seq.gammas[i - 1]
        for i in range(1, len(seq.gammas))
    )


def slice_descent_check(
    lf: PolyhedralLF, sys: LinearSystem, seq: LevelSequence
) -> bool:
    """Exactly verify A.P_{gamma_i} <= P_{gamma_{i-1}} for every i >= 1."""
    return descends(verify_contraction(lf, sys), seq)
