"""Exact linear programming: float-guided simplex with exact certificates.

Solves  maximize c.x  subject to  A x <= b  with x free.  Every answer
is exact; floats only choose where to look.  ``maximize`` works in three
stages:

1. The two-phase primal simplex with Bland's rule runs in floats, with a
   small tolerance that steers its pivots and does nothing else, and
   proposes a final basis.
2. That basis's answer is proven exactly on integer-scaled rows (each
   row times the lcm of its denominators), by fraction-free elimination
   of at most an n x n system:
   - optimal: the basic point solves the tight rows and satisfies every
     row; duals y >= 0 on the tight rows satisfy A^T y = c; the value
     is c.x;
   - infeasible: Farkas multipliers read off the phase-1 basis (0 on
     basic slacks, 1 on basic artificials, the rest from one square
     solve) satisfy y >= 0, yA = 0 and yb < 0.
3. If a check fails, or the float run ends unbounded, with an artificial
   basic or out of pivots, the same simplex runs again in Fraction
   arithmetic with tolerance 0, and its answer is returned.

Status and value are always the exact simplex's.  The proof rebuilds the
point from the basis, so whenever the float run ends on the basis the
exact run ends on, the point is the exact simplex's too.  Only when the
optimum is not unique and floats misjudged a pivot (ill-scaled data, say
1e-15 next to 1) can the point be another, equally proven, optimal
vertex.  Bland's rule is used for both the entering and the leaving
variable, so the exact run terminates on every input (no cycling).

Problems in this package are tiny (tens of rows, a handful of columns),
so a dense tableau is the right trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .errors import InternalError

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"
INFEASIBLE = "infeasible"

# Tolerance of the float run: entries within it of zero count as zero.
_FLOAT_EPS = 1e-9


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Optional[Fraction]
    point: Optional[tuple[Fraction, ...]]

    @property
    def is_feasible(self) -> bool:
        return self.status != INFEASIBLE


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

    scaled = [_integer_row([*r, b]) for r, b in zip(rows, rhs)]
    cost = _integer_row(objective)
    guess = _float_basis(cost, scaled)
    if guess is not None:
        res = _certify(cost, scaled, *guess)
        if res is not None:
            return res
    return _exact(objective, rows, rhs)


# ---------------------------------------------------------------------------
# The simplex, over Fraction (tolerance 0) or float (small tolerance).
# ---------------------------------------------------------------------------


def _exact(objective, rows, rhs) -> LPResult:
    """The two-phase simplex in Fraction arithmetic: the exact answer."""
    n = len(objective)
    run = _simplex(objective, rows, rhs, Fraction, 0)
    if run is None:
        raise InternalError(
            "phase 1 reported an unbounded objective, which is bounded by 0"
        )
    status, tab, basis, obj = run
    if status == INFEASIBLE:
        return LPResult(INFEASIBLE, None, None)
    ncols = len(obj) - 1
    point = _extract_point(tab, basis, n, ncols)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED, None, point)
    return LPResult(OPTIMAL, obj[ncols], point)


def _float_basis(cost, scaled):
    """Run the simplex in floats; return (status, basis) for an OPTIMAL
    or INFEASIBLE end, or None when only the exact run can answer.

    The float data are the integer-scaled rows divided back by their
    scale, which rounds each entry exactly as float(Fraction) would.
    """
    c, c_scale = cost
    n = len(c)
    rows = []
    rhs = []
    for row, scale in scaled:
        rows.append([a / scale for a in row])
        rhs.append(rows[-1].pop())
    # Exact runs here take a few pivots per LP; the cap only stops a
    # float run that rounding has sent cycling.
    limit = 20 * (len(rows) + n) + 50
    try:
        run = _simplex([a / c_scale for a in c], rows, rhs, float, _FLOAT_EPS, limit)
    except OverflowError:  # a value beyond the float range
        return None
    if run is None or run[0] == UNBOUNDED:
        return None
    status, _tab, basis, _obj = run
    if status == OPTIMAL and max(basis, default=0) >= 2 * n + len(rows):
        return None  # an artificial stayed basic on a redundant row
    return status, basis


def _simplex(objective, rows, rhs, num, eps, limit=None):
    """Two-phase simplex with Bland's rule over the number type `num`.

    Returns (status, tableau, basis, objective row), where INFEASIBLE
    means phase 1 ended with a positive sum of artificials, or None if
    phase 1 reported unbounded or a phase needed more than `limit`
    pivots.
    """
    n = len(objective)
    m = len(rows)
    # Free variables are split: x_j = x+_j - x-_j.  Columns are laid out
    # [x+ (n) | x- (n) | slacks (m) | artificials (...)] followed by the rhs.
    nstruct = 2 * n
    nreal = nstruct + m
    art_rows = [i for i in range(m) if rhs[i] < 0]
    ncols = nreal + len(art_rows)
    zero = num(0)
    one = num(1)

    tab: list[list] = []
    basis: list[int] = []
    art_index = {i: nreal + k for k, i in enumerate(art_rows)}
    for i in range(m):
        sign = -1 if i in art_index else 1
        row = [zero] * (ncols + 1)
        for j in range(n):
            a = num(rows[i][j]) * sign
            row[j] = a
            row[n + j] = -a
        row[nstruct + i] = num(sign)
        row[ncols] = num(rhs[i]) * sign
        if i in art_index:
            row[art_index[i]] = one
            basis.append(art_index[i])
        else:
            basis.append(nstruct + i)
        tab.append(row)

    if art_rows:
        # Phase 1: maximize -(sum of artificials).
        obj = [zero] * (ncols + 1)
        for j in range(nreal, ncols):
            obj[j] = one  # stored as z_j - c_j with c = -a
        _canonicalize(tab, basis, obj)
        status = _pivot_until_done(tab, basis, obj, ncols, eps, limit)
        if status != OPTIMAL:
            return None
        if obj[ncols] < -eps:
            return INFEASIBLE, tab, basis, obj
        _drive_out_artificials(tab, basis, nreal, ncols, eps)

    banned = set(range(nreal, ncols))
    obj = [zero] * (ncols + 1)
    for j in range(n):
        c = num(objective[j])
        obj[j] = -c
        obj[n + j] = c
    _canonicalize(tab, basis, obj)
    status = _pivot_until_done(tab, basis, obj, ncols, eps, limit, banned)
    if status is None:
        return None
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


def _pivot_until_done(tab, basis, obj, ncols, eps, limit=None, banned=frozenset()):
    """Run primal simplex with Bland's rule.  obj holds z_j - c_j entries.

    Values within eps of zero count as zero, and ratios within eps of
    each other as tied.  Returns None instead of making pivot limit + 1.
    """
    m = len(tab)
    pivots = 0
    while True:
        enter = -1
        for j in range(ncols):
            if j not in banned and obj[j] < -eps:
                enter = j
                break
        if enter < 0:
            return OPTIMAL
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > eps:
                ratio = tab[i][ncols] / a
                if best is None or ratio < best - eps or (
                    ratio <= best + eps and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return UNBOUNDED
        if pivots == limit:
            return None
        pivots += 1
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


def _drive_out_artificials(tab, basis, nreal, ncols, eps) -> None:
    """Pivot basic artificials (at level zero) onto real columns.

    A row whose real coefficients are all zero is a redundant constraint;
    its artificial stays basic at zero, which is harmless because the
    artificial columns are banned from entering in phase 2.
    """
    for i in range(len(tab)):
        if basis[i] >= nreal:
            for j in range(nreal):
                if abs(tab[i][j]) > eps:
                    _pivot(tab, basis, [0] * (ncols + 1), i, j)
                    break


def _extract_point(tab, basis, n, ncols) -> tuple[Fraction, ...]:
    vals = {}
    for i, bj in enumerate(basis):
        vals[bj] = tab[i][ncols]
    zero = Fraction(0)
    return tuple(vals.get(j, zero) - vals.get(n + j, zero) for j in range(n))


# ---------------------------------------------------------------------------
# Exact certificates for a proposed basis, in integer arithmetic.
# ---------------------------------------------------------------------------


def _certify(cost, scaled, status, basis) -> Optional[LPResult]:
    """The exact answer the basis stands for, if it proves one; else None.

    `cost` and `scaled` are the objective and the rows [A_i | b_i] as
    (integers, scale) pairs: the values times the lcm of their
    denominators.  Scaling a row changes neither the feasible set nor the
    sign of its multiplier.
    """
    c, c_scale = cost
    n = len(c)
    m = len(scaled)
    rows = [row for row, _scale in scaled]
    nstruct = 2 * n
    nreal = nstruct + m
    art_rows = [i for i in range(m) if rows[i][n] < 0]
    cols = []  # basic structural columns, x+ and x- alike
    kind = [0] * m  # per row: 0 tight, 1 slack basic, 2 artificial basic
    for bj in basis:
        if bj < nstruct:
            cols.append(bj % n)
        elif bj < nreal:
            kind[bj - nstruct] = 1
        else:
            kind[art_rows[bj - nreal]] = 2
    tight = [i for i in range(m) if kind[i] == 0]
    if len(tight) != len(cols) or len(set(cols)) != len(cols):
        return None
    if status == OPTIMAL:
        return _certify_optimal(c, c_scale, rows, tight, cols)
    arts = {i: scaled[i][1] for i in range(m) if kind[i] == 2}
    return _certify_infeasible(rows, arts, tight, cols)


def _certify_optimal(c, c_scale, rows, tight, cols) -> Optional[LPResult]:
    """Basic point x and duals y on the tight rows; checks A x <= b,
    y >= 0 and A^T y = c.  Then c.x = y.b, so both are optimal."""
    n = len(c)
    primal = _solve_integer(
        [[rows[i][j] for j in cols] for i in tight], [rows[i][n] for i in tight]
    )
    if primal is None:
        return None
    d, xs = primal
    for row in rows:
        if sum(row[j] * x for j, x in zip(cols, xs)) > row[n] * d:
            return None
    dual = _solve_integer(
        [[rows[i][j] for i in tight] for j in cols], [c[j] for j in cols]
    )
    if dual is None:
        return None
    e, ys = dual
    if any(y < 0 for y in ys):
        return None
    for j in set(range(n)).difference(cols):
        if sum(rows[i][j] * y for i, y in zip(tight, ys)) != c[j] * e:
            return None
    point = [Fraction(0)] * n
    for j, x in zip(cols, xs):
        point[j] = Fraction(x, d)
    value = Fraction(sum(c[j] * x for j, x in zip(cols, xs)), d * c_scale)
    return LPResult(OPTIMAL, value, tuple(point))


def _certify_infeasible(rows, arts, tight, cols) -> Optional[LPResult]:
    """Farkas multipliers y >= 0 with yA = 0 and yb < 0.

    `arts` maps each row with a basic artificial to its scale.  Such a
    row's multiplier is 1 in original units, so 1/scale on the scaled
    row; rows with a basic slack get 0, and the tight rows' multipliers
    cancel the basic columns.  All of them are multiplied by the lcm of
    the scales in `arts`, and by the solve's denominator, to stay integer.
    """
    if not arts:
        return None
    n = len(rows[0]) - 1
    g = lcm(*arts.values())
    weights = {i: g // scale for i, scale in arts.items()}
    sol = _solve_integer(
        [[rows[i][j] for i in tight] for j in cols],
        [-sum(w * rows[i][j] for i, w in weights.items()) for j in cols],
    )
    if sol is None:
        return None
    d, zs = sol
    mult = {i: w * d for i, w in weights.items()}
    for i, z in zip(tight, zs):
        if z < 0:
            return None
        mult[i] = z
    for j in range(n):
        if sum(rows[i][j] * y for i, y in mult.items()) != 0:
            return None
    if sum(rows[i][n] * y for i, y in mult.items()) >= 0:
        return None
    return LPResult(INFEASIBLE, None, None)


def _integer_row(values) -> tuple[list[int], int]:
    """(values times the lcm of their denominators, that lcm)."""
    try:
        pairs = [v.as_integer_ratio() for v in values]
    except AttributeError:  # e.g. strings: go through Fraction
        pairs = [Fraction(v).as_integer_ratio() for v in values]
    scale = lcm(*(d for _num, d in pairs))
    return [num * (scale // d) for num, d in pairs], scale


def _solve_integer(a, b) -> Optional[tuple[int, list[int]]]:
    """Solve the square integer system a x = b by fraction-free
    Gauss-Jordan elimination (every intermediate entry is a minor, so
    each division is exact).  Returns (d, [d * x_j]) with d > 0, or None
    if a is singular."""
    k = len(a)
    t = [row + [bi] for row, bi in zip(a, b)]
    prev = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if t[r][col]), None)
        if piv is None:
            return None
        t[col], t[piv] = t[piv], t[col]
        prow = t[col]
        p = prow[col]
        for r in range(k):
            if r != col:
                row = t[r]
                f = row[col]
                for j in range(k + 1):
                    row[j] = (p * row[j] - f * prow[j]) // prev
        prev = p
    xs = [row[k] for row in t]
    if prev < 0:
        return -prev, [-x for x in xs]
    return prev, xs
