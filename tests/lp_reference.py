"""The exact simplex's answers for cells: the independent oracles that
the vertex and Cramer-box decisions of ``polybisim.geometry`` are
compared against.  Built on ``polybisim.lp.maximize``; the package
itself solves no LP."""

from fractions import Fraction

from polybisim import lp
from polybisim.geometry import Cell

_ZERO, _ONE = Fraction(0), Fraction(1)


def slack_lp(cell: Cell) -> lp.LPResult:
    """Maximize the margin t (capped at 1) by which all constraints hold.

    Strict rows get  normal.x + t <= offset, non-strict rows are used as
    stated.  The cell is non-empty iff the optimum is strictly positive;
    the optimal point is then in the relative interior with respect to the
    strict constraints.
    """
    n = cell.dim
    rows = []
    rhs = []
    for c in cell.constraints:
        coef = _ONE if c.strict else _ZERO
        rows.append(list(c.normal) + [coef])
        rhs.append(c.offset)
    rows.append([_ZERO] * n + [-_ONE])  # t >= 0
    rhs.append(_ZERO)
    rows.append([_ZERO] * n + [_ONE])  # t <= 1, keeps the LP bounded
    rhs.append(_ONE)
    objective = [_ZERO] * n + [_ONE]
    return lp.maximize(objective, rows, rhs)


def lp_empty(cell: Cell) -> bool:
    """Emptiness from the slack LP on the bare rows, no cache involved."""
    res = slack_lp(Cell(cell.dim, cell.constraints))
    return res.status == lp.INFEASIBLE or res.value <= 0


def lp_box(cell: Cell):
    """Per-coordinate (min, max) of the relaxed closure from 2n LPs; None
    marks unbounded, and an empty closure gets (0, -1) everywhere."""
    rows = [list(c.normal) for c in cell.constraints]
    rhs = [c.offset for c in cell.constraints]
    box = []
    for j in range(cell.dim):
        bounds = []
        for sign in (_ONE, -_ONE):
            obj = [_ZERO] * cell.dim
            obj[j] = sign
            res = lp.maximize(obj, rows, rhs)
            if res.status == lp.INFEASIBLE:
                return tuple((_ZERO, -_ONE) for _ in range(cell.dim))
            bounds.append(None if res.status == lp.UNBOUNDED else sign * res.value)
        box.append((bounds[1], bounds[0]))
    return tuple(box)
