"""Exact simplex solver: hand-checked programs, and seeded families in
n = 1, 2, 3 checked against a brute-force vertex-enumeration oracle."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest

from polybisim import lp


def F(v):
    return Fraction(v)


def test_single_variable_optimum():
    res = lp.maximize([F(1)], [[F(1)]], [F(3)])
    assert res.status == lp.OPTIMAL
    assert res.value == 3
    assert res.point == (F(3),)


def test_box_optimum():
    rows = [[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]]
    rhs = [F(2), F(1), F(3), F(1)]
    res = lp.maximize([F(1), F(1)], rows, rhs)
    assert res.status == lp.OPTIMAL
    assert res.value == 5
    assert res.point == (F(2), F(3))


def test_negative_rhs_feasible():
    # x >= 1, x <= 4, maximize -x: needs the phase-1 artificial path
    res = lp.maximize([F(-1)], [[F(-1)], [F(1)]], [F(-1), F(4)])
    assert res.status == lp.OPTIMAL
    assert res.value == -1
    assert res.point == (F(1),)


def test_infeasible():
    res = lp.maximize([F(1)], [[F(1)], [F(-1)]], [F(0), F(-1)])
    assert res.status == lp.INFEASIBLE
    assert res.value is None
    assert res.point is None


def test_unbounded():
    res = lp.maximize([F(1)], [[F(-1)]], [F(0)])
    assert res.status == lp.UNBOUNDED


def test_exact_rational_answer():
    # maximize x subject to 3x <= 1: the answer is exactly 1/3
    res = lp.maximize([F(1)], [[F(3)]], [F(1)])
    assert res.value == Fraction(1, 3)


def test_degenerate_vertex():
    # three constraints meeting at the optimum must not cycle
    rows = [[F(1), F(1)], [F(1), F(0)], [F(0), F(1)], [F(-1), F(0)], [F(0), F(-1)]]
    rhs = [F(2), F(1), F(1), F(0), F(0)]
    res = lp.maximize([F(1), F(1)], rows, rhs)
    assert res.status == lp.OPTIMAL
    assert res.value == 2


def _det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum(
        (-1) ** j * a * _det([r[:j] + r[j + 1:] for r in m[1:]])
        for j, a in enumerate(m[0])
        if a
    )


def _feasible(rows, rhs, x):
    return all(sum(a * v for a, v in zip(r, x)) <= b for r, b in zip(rows, rhs))


def _vertex_oracle(obj, rows, rhs):
    """Best objective over the feasible points where n of the rows meet
    in one point, by brute force over every n-row subset with Cramer's
    rule on integer-scaled rows; None if there is none.

    Valid for bounded feasible sets (the caller includes a box), where a
    nonempty set always has an optimal vertex.
    """
    n = len(obj)
    scaled = []
    for r, b in zip(rows, rhs):
        k = lcm(*(Fraction(v).denominator for v in [*r, b]))
        scaled.append([int(Fraction(v) * k) for v in [*r, b]])
    best = None
    for subset in combinations(scaled, n):
        d = _det([r[:n] for r in subset])
        if d == 0:
            continue
        xs = [
            _det([r[:j] + [r[n]] + r[j + 1:n] for r in subset]) for j in range(n)
        ]
        if d < 0:
            d, xs = -d, [-x for x in xs]
        if all(sum(a * x for a, x in zip(r, xs)) <= r[n] * d for r in scaled):
            v = sum(c * x for c, x in zip(obj, xs)) / d
            if best is None or v > best:
                best = v
    return best


def test_random_bounded_instances_match_vertex_oracle():
    rng = random.Random(20260823)
    box_rows = [[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]]
    box_rhs = [F(5)] * 4
    for _ in range(200):
        rows = list(box_rows)
        rhs = list(box_rhs)
        for _ in range(rng.randrange(1, 6)):
            a = F(rng.randrange(-3, 4))
            b = F(rng.randrange(-3, 4))
            if a == 0 and b == 0:
                a = F(1)
            rows.append([a, b])
            rhs.append(F(rng.randrange(-4, 7)))
        obj = [F(rng.randrange(-3, 4)), F(rng.randrange(-3, 4))]
        res = lp.maximize(obj, rows, rhs)
        expected = _vertex_oracle(obj, rows, rhs)
        if expected is None:
            assert res.status == lp.INFEASIBLE
        else:
            assert res.status == lp.OPTIMAL
            assert res.value == expected


# ---------------------------------------------------------------------------
# Seeded families in n = 1, 2, 3 against the brute-force vertex oracle.
# ---------------------------------------------------------------------------


def _box(n, r):
    rows, rhs = [], []
    for j in range(n):
        for s in (1, -1):
            v = [F(0)] * n
            v[j] = F(s)
            rows.append(v)
            rhs.append(F(r))
    return rows, rhs


def _ints(rng, n, lo=-4, hi=4):
    return [F(rng.randint(lo, hi)) for _ in range(n)]


def _case(rng, n, family):
    """One seeded LP of the given family in dimension n.

    An LP whose rhs are all >= 0 is feasible at x = 0, so every infeasible
    case needs artificials; the other families mix LPs with and without.
    """
    rows, rhs = ([], []) if family == "unbounded" else _box(n, rng.randint(1, 6))
    obj = _ints(rng, n)
    if family == "degenerate":
        # many rows through one point of the box
        p = _ints(rng, n, -2, 2)
        for _ in range(rng.randint(n, 2 * n + 3)):
            a = _ints(rng, n)
            rows.append(a)
            rhs.append(sum(x * y for x, y in zip(a, p)))
    elif family == "duplicate":
        for _ in range(rng.randint(1, 4)):
            a, b, k = _ints(rng, n), F(rng.randint(-3, 6)), F(rng.randint(1, 3))
            rows += [a, list(a), [k * x for x in a]]
            rhs += [b, b, k * b + rng.randint(0, 2)]
    elif family == "zero objective":
        obj = [F(0)] * n
        for _ in range(rng.randint(1, 4)):
            rows.append(_ints(rng, n))
            rhs.append(F(rng.randint(-5, 5)))
    elif family == "infeasible":
        # a.x <= b and a.x >= b + gap
        a = _ints(rng, n)
        a[0] = a[0] or F(1)
        b = F(rng.randint(-3, 3))
        rows += [a, [-x for x in a]]
        rhs += [b, -b - rng.randint(1, 3)]
        for _ in range(rng.randint(0, 3)):
            rows.append(_ints(rng, n))
            rhs.append(F(rng.randint(-5, 5)))
    elif family == "unbounded":
        for _ in range(rng.randint(1, n + 2)):
            rows.append(_ints(rng, n))
            rhs.append(F(rng.randint(-5, 5)))
    elif family == "fractional":
        for _ in range(rng.randint(1, 5)):
            rows.append([Fraction(rng.randint(-9, 9), rng.randint(1, 97)) for _ in range(n)])
            rhs.append(Fraction(rng.randint(-20, 40), rng.randint(1, 89)))
        obj = [Fraction(rng.randint(-9, 9), rng.randint(1, 31)) for _ in range(n)]
    elif family == "ill-scaled":
        tiny = Fraction(1, 10**15)
        for _ in range(rng.randint(1, 5)):
            a = _ints(rng, n)
            a[rng.randrange(n)] = rng.choice(
                [tiny, -tiny, F(10**12 + rng.randint(0, 9)), F(-(10**12)), Fraction(1, 3 * 10**14)]
            )
            rows.append(a)
            rhs.append(rng.choice([tiny, F(0), F(rng.randint(-3, 5)), F(10**12)]))
            if rng.random() < 0.5:  # a nearly parallel twin
                rows.append([x + tiny for x in a])
                rhs.append(rhs[-1])
        if rng.random() < 0.5:
            obj[rng.randrange(n)] = tiny
    order = list(range(len(rows)))
    rng.shuffle(order)
    return obj, [rows[i] for i in order], [rhs[i] for i in order]


def _is_optimal_point(obj, rows, rhs, res):
    return _feasible(rows, rhs, res.point) and (
        sum(c * v for c, v in zip(obj, res.point)) == res.value
    )


# Integer entries in [-4, 4] and rhs in [-5, 5] put every coordinate of
# every basic solution of an "unbounded" case (a ratio of minors, by
# Cramer's rule) within 3! * 5 * 4^2 = 480 of 0, so a box
# of radius 1000 holds a feasible point of every feasible case and an
# optimal one of every bounded case; doubling it raises the optimum iff
# the LP is unbounded.
_FAR = 1000


def _oracle_status(obj, rows, rhs):
    """(status, value) of an LP without a box, from the vertex oracle on
    the LP boxed at radius _FAR and at 2 * _FAR."""
    near, far = (
        _vertex_oracle(obj, rows + box[0], rhs + box[1])
        for box in (_box(len(obj), _FAR), _box(len(obj), 2 * _FAR))
    )
    if near is None:
        return lp.INFEASIBLE, None
    if near == far:
        return lp.OPTIMAL, near
    return lp.UNBOUNDED, None


def _check_against_oracle(obj, rows, rhs, family):
    """The status, value and point of maximize, checked against the
    oracle; returns the status."""
    res = lp.maximize(obj, rows, rhs)
    if family == "unbounded":
        status, value = _oracle_status(obj, rows, rhs)
    else:
        value = _vertex_oracle(obj, rows, rhs)
        status = lp.INFEASIBLE if value is None else lp.OPTIMAL
    assert (res.status, res.value) == (status, value), (obj, rows, rhs)
    if status == lp.OPTIMAL:
        assert _is_optimal_point(obj, rows, rhs, res), (obj, rows, rhs)
    elif status == lp.UNBOUNDED:
        assert _feasible(rows, rhs, res.point), (obj, rows, rhs)
    else:
        assert res.point is None
    return status


EXACT_FAMILIES = (
    "degenerate", "duplicate", "zero objective", "infeasible", "unbounded", "fractional",
)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_maximize_equals_exact_simplex(family, n):
    """maximize gives the oracle's exact status and value, and an optimal
    (or, when unbounded, a feasible) point."""
    rng = random.Random(f"lp-{family}-{n}")
    statuses = {
        _check_against_oracle(*_case(rng, n, family), family) for _ in range(120)
    }
    assert statuses >= {
        "infeasible": {lp.INFEASIBLE},
        "unbounded": {lp.UNBOUNDED},
    }.get(family, {lp.OPTIMAL})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_maximize_ill_scaled_rows(n):
    """1e-15 next to 1, 1e12 numerators and nearly parallel twins: in
    exact arithmetic they are ordinary data."""
    rng = random.Random(f"lp-ill-scaled-{n}")
    for _ in range(200):
        _check_against_oracle(*_case(rng, n, "ill-scaled"), "ill-scaled")


_OPTIMIZED_SCRIPT = r"""
from fractions import Fraction as F
from polybisim import lp
from polybisim.errors import InternalError

if __debug__:
    raise SystemExit("asserts are not stripped")
box = ([[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]],
       [F(2), F(1), F(3), F(1)])
print(lp.maximize([F(1), F(1)], *box))                             # optimal
print(lp.maximize([F(1)], [[F(1)], [F(-1)]], [F(0), F(-1)]))       # infeasible
print(lp.maximize([F(1)], [[F(-1)]], [F(0)]))                      # unbounded
lp._pivot_until_done = lambda *a, **k: lp.UNBOUNDED
try:
    lp.maximize([F(-1)], [[F(-1)]], [F(-1)])
except InternalError as exc:
    print("InternalError:", exc)
"""


def test_answers_and_invariants_survive_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    assert out == [
        repr(lp.LPResult(lp.OPTIMAL, F(5), (F(2), F(3)))),
        repr(lp.LPResult(lp.INFEASIBLE, None, None)),
        repr(lp.LPResult(lp.UNBOUNDED, None, (F(0),))),
        "InternalError: phase 1 reported an unbounded objective, which is bounded by 0",
    ]
