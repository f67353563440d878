"""Infinity-norm polyhedral Lyapunov functions.

Provides evaluation V(x) = max_j |[Lx]_j|, exact certification of the
contraction rate of a linear map with respect to V, the geometric
sequence of sublevel thresholds between the target and working sets, and
the annular slices between consecutive sublevel polytopes.

V is positively homogeneous, V(gamma x) = gamma V(x) for gamma > 0, so
{V <= gamma} = gamma {V <= 1} (Blanchini 1999).  The unit ball's vertices
are clipped once from its Cramer box and cached on the function
(``PolyhedralLF.ball``).  Every level cell with gamma > 0 takes gamma
times them, in Python ints and tight on the same rows, and the rate
certificate reads its row maxima off them; no other level is clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence

from .geometry import (
    Cell,
    Constraint,
    Matrix,
    Region,
    Vector,
    _scaled,
    _vertices,
    difference,
    mat,
    vec,
)


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

    @cached_property
    def scaled(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(a, d) with A = a / d: d > 0 is the lcm of A's denominators, so
        one step maps the point p / m to (a p) / (d m) in Python ints."""
        flat, d = _scaled([v for row in self.a_matrix for v in row])
        n = self.n
        return tuple(flat[i * n : (i + 1) * n] for i in range(n)), d

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
        if any(all(v == 0 for v in r) for r in self.l_matrix):
            raise ValueError("L has a zero row")
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

    @cached_property
    def ball(self) -> Cell:
        """The unit ball {x : ||Lx||_inf <= 1}.  L has full column rank, so
        it is bounded; its vertices come from one clip of its Cramer box
        when it is first read, and stay with the cell."""
        one = Fraction(1)
        ball = Cell(
            self.n,
            [Constraint(row, one, False) for row in _signed_rows(self.l_matrix)],
        )
        _vertices(ball)
        return ball

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


def lf_value(lf: PolyhedralLF, x: Sequence) -> Fraction:
    p = vec(x)
    if len(p) != lf.n:
        raise ValueError("point dimension does not match L")
    return max(abs(sum(r[j] * p[j] for j in range(lf.n))) for r in lf.l_matrix)


def _rank(rows: Sequence[Sequence]) -> int:
    """The rank of a matrix of ints or Fractions, by fraction-free
    elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [p[col] * u - f * v for u, v in zip(rows[i], p)]
        rank += 1
    return rank


def _signed_rows(m: Matrix) -> list[Vector]:
    out = [tuple(r) for r in m]
    out += [tuple(-v for v in r) for r in m]
    return out


def unit_ball_row_maxima(lf: PolyhedralLF, sys: LinearSystem) -> list[Fraction]:
    """For each row r of [L; -L]: max of r.(A x) over {||Lx||_inf <= 1}.

    A linear function's maximum over a polytope is attained at a vertex,
    so each maximum is read off the unit ball's exact vertices
    (``PolyhedralLF.ball``).  No LP is solved.  It runs in Python ints:
    with r = l / e and A = a / d, the value at the vertex X / M is
    (l a X) / (e d M), and the greatest is picked by cross-multiplying,
    with one Fraction made per row.
    """
    if sys.n != lf.n:
        raise ValueError("system and L dimensions differ")
    a, d = sys.scaled
    ball = _vertices(lf.ball)
    out = []
    for row in _signed_rows(lf.l_matrix):
        l, e = _scaled(row)
        la = [sum(l[i] * a[i][j] for i in range(lf.n)) for j in range(lf.n)]
        top, den = None, 1
        for x, m, _ in ball:
            s = sum(map(mul, la, x))
            if top is None or s * den > top * m:
                top, den = s, m
        out.append(Fraction(top, e * d * den))
    return out


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
    """The polytope {x : ||Lx||_inf <= gamma} as 2l non-strict rows.

    For gamma > 0 it is gamma times the unit ball, row for row, so its
    vertices, when needed, are gamma times the ball's, tight on the same
    rows, and no clip of its own is made.  Gamma = 0 (the origin) and
    gamma < 0 (empty) keep the Cramer box of ``geometry``."""
    gamma = Fraction(gamma)
    ball = lf.ball
    cell = Cell(lf.n, [Constraint(c.normal, gamma, False) for c in ball.constraints])
    if gamma > 0:
        cell._src = (ball, gamma)  # ``geometry._derived`` scales
    return cell


def slices(levels: Sequence[Cell]) -> list[Region]:
    """S_0 = the innermost level cell P_0, S_i the annulus between P_{i-1}
    and P_i (outer-closed, inner-open).  A level's cell holds the origin in
    its interior, so it is not proven non-empty."""
    regions = [Region((c,)) for c in levels]
    return regions[:1] + [difference(hi, lo) for lo, hi in zip(regions, regions[1:])]


def descends(rho_star, seq: LevelSequence) -> bool:
    """Whether rate rho_star maps each P_{gamma_i}, i >= 1, into
    P_{gamma_{i-1}}: by positive homogeneity one rate decides every level."""
    return all(
        rho_star * seq.gammas[i] <= seq.gammas[i - 1]
        for i in range(1, len(seq.gammas))
    )


def certified_rate(
    lf: PolyhedralLF, sys: LinearSystem, seq: LevelSequence
) -> Fraction:
    """The certified rate rho*; ContractionError when it exceeds the
    declared rate and seq does not descend under it either."""
    rho_star = verify_contraction(lf, sys)
    if rho_star > lf.rho and not descends(rho_star, seq):
        raise ContractionError(
            f"certified rate {rho_star} exceeds declared {lf.rho} and the "
            "level sequence is not invariant under one step"
        )
    return rho_star


def slice_descent_check(
    lf: PolyhedralLF, sys: LinearSystem, seq: LevelSequence
) -> bool:
    """Exactly verify A.P_{gamma_i} <= P_{gamma_{i-1}} for every i >= 1."""
    return descends(verify_contraction(lf, sys), seq)
