"""Exact linear programming: the two-phase simplex in Fraction arithmetic.

Solves  maximize c.x  subject to  A x <= b  with x free, by the two-phase
primal simplex in ``fractions.Fraction`` arithmetic.  There are no floats
and no tolerance: status, value and point are all exact.  Bland's rule
picks both the entering and the leaving variable, so the run terminates
on every input (no cycling).

Problems in this package are tiny (tens of rows, a handful of columns),
so a dense tableau is the right trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import InternalError

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction]
    point: Optional[tuple[Fraction, ...]]


def maximize(
    objective: Sequence[Fraction],
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
) -> LPResult:
    """Maximize objective.x subject to rows[i].x <= rhs[i], x free.

    Returns an LPResult; for UNBOUNDED the point is a feasible point (not
    an improving ray), for INFEASIBLE both value and point are None.
    """
    n = len(objective)
    m = len(rows)
    for r in rows:
        if len(r) != n:
            raise ValueError("constraint row length does not match objective")
    if len(rhs) != m:
        raise ValueError("rhs length does not match number of rows")

    status, tab, basis, obj = _simplex(objective, rows, rhs)
    if status == INFEASIBLE:
        return LPResult(INFEASIBLE, None, None)
    ncols = len(obj) - 1
    point = _extract_point(tab, basis, n, ncols)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, point)
    return LPResult(OPTIMAL, obj[ncols], point)


def _simplex(objective, rows, rhs):
    """Two-phase simplex with Bland's rule.

    Returns (status, tableau, basis, objective row), where INFEASIBLE
    means phase 1 ended with a positive sum of artificials.
    """
    n = len(objective)
    m = len(rows)
    # Free variables are split: x_j = x+_j - x-_j.  Columns are laid out
    # [x+ (n) | x- (n) | slacks (m) | artificials (...)] followed by the rhs.
    nstruct = 2 * n
    nreal = nstruct + m
    art_rows = [i for i in range(m) if rhs[i] < 0]
    ncols = nreal + len(art_rows)

    tab: list[list] = []
    basis: list[int] = []
    art_index = {i: nreal + k for k, i in enumerate(art_rows)}
    for i in range(m):
        sign = -1 if i in art_index else 1
        row = [_ZERO] * (ncols + 1)
        for j in range(n):
            a = Fraction(rows[i][j]) * sign
            row[j] = a
            row[n + j] = -a
        row[nstruct + i] = Fraction(sign)
        row[ncols] = Fraction(rhs[i]) * sign
        if i in art_index:
            row[art_index[i]] = _ONE
            basis.append(art_index[i])
        else:
            basis.append(nstruct + i)
        tab.append(row)

    if art_rows:
        # Phase 1: maximize -(sum of artificials).
        obj = [_ZERO] * (ncols + 1)
        for j in range(nreal, ncols):
            obj[j] = _ONE  # stored as z_j - c_j with c = -a
        _canonicalize(tab, basis, obj)
        if _pivot_until_done(tab, basis, obj, ncols) != OPTIMAL:
            raise InternalError(
                "phase 1 reported an unbounded objective, which is bounded by 0"
            )
        if obj[ncols] < 0:
            return INFEASIBLE, tab, basis, obj
        _drive_out_artificials(tab, basis, nreal, ncols)

    banned = set(range(nreal, ncols))
    obj = [_ZERO] * (ncols + 1)
    for j in range(n):
        c = Fraction(objective[j])
        obj[j] = -c
        obj[n + j] = c
    _canonicalize(tab, basis, obj)
    status = _pivot_until_done(tab, basis, obj, ncols, banned)
    return status, tab, basis, obj


def _canonicalize(tab, basis, obj) -> None:
    """Eliminate basic columns from the objective row."""
    for i, bj in enumerate(basis):
        coef = obj[bj]
        if coef != 0:
            row = tab[i]
            for j in range(len(obj)):
                if row[j] != 0:
                    obj[j] -= coef * row[j]


def _pivot_until_done(tab, basis, obj, ncols, banned=frozenset()):
    """Run primal simplex with Bland's rule.  obj holds z_j - c_j entries."""
    m = len(tab)
    while True:
        enter = -1
        for j in range(ncols):
            if j not in banned and obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][ncols] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        _pivot(tab, basis, obj, leave, enter)


def _pivot(tab, basis, obj, leave, enter) -> None:
    row = tab[leave]
    inv = 1 / row[enter]
    nonzero = [j for j, v in enumerate(row) if v]
    for j in nonzero:
        row[j] *= inv
    for other in tab:
        coef = other[enter]
        if coef and other is not row:
            for j in nonzero:
                other[j] -= coef * row[j]
    coef = obj[enter]
    if coef:
        for j in nonzero:
            obj[j] -= coef * row[j]
    basis[leave] = enter


def _drive_out_artificials(tab, basis, nreal, ncols) -> None:
    """Pivot basic artificials (at level zero) onto real columns.

    A row whose real coefficients are all zero is a redundant constraint;
    its artificial stays basic at zero, which is harmless because the
    artificial columns are banned from entering in phase 2.
    """
    for i in range(len(tab)):
        if basis[i] >= nreal:
            for j in range(nreal):
                if tab[i][j]:
                    _pivot(tab, basis, [_ZERO] * (ncols + 1), i, j)
                    break


def _extract_point(tab, basis, n, ncols) -> tuple[Fraction, ...]:
    vals = {}
    for i, bj in enumerate(basis):
        vals[bj] = tab[i][ncols]
    return tuple(vals.get(j, _ZERO) - vals.get(n + j, _ZERO) for j in range(n))
