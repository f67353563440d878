"""Exact simplex solver: hand-checked programs plus a vertex-enumeration
oracle on random bounded 2-D instances."""

import os
import random
import subprocess
import sys
from fractions import Fraction
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
    assert not res.is_feasible


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


def _vertex_oracle(obj, rows, rhs):
    """Best objective over all feasible pairwise intersection points.

    Valid for bounded 2-D feasible sets (the caller includes a box), where
    a nonempty set always has an optimal vertex.
    """
    best = None
    m = len(rows)
    for i in range(m):
        for j in range(i + 1, m):
            det = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
            if det == 0:
                continue
            x = (rhs[i] * rows[j][1] - rows[i][1] * rhs[j]) / det
            y = (rows[i][0] * rhs[j] - rhs[i] * rows[j][0]) / det
            if all(r[0] * x + r[1] * y <= b for r, b in zip(rows, rhs)):
                v = obj[0] * x + obj[1] * y
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
# Float-guided maximize against the exact simplex it is proven against.
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


class _CountingExact:
    def __init__(self):
        self.calls = 0
        self.exact = lp._exact

    def __call__(self, *args):
        self.calls += 1
        return self.exact(*args)


def _is_optimal_point(obj, rows, rhs, res):
    x = res.point
    return all(
        sum(a * v for a, v in zip(r, x)) <= b for r, b in zip(rows, rhs)
    ) and sum(c * v for c, v in zip(obj, x)) == res.value


EXACT_FAMILIES = (
    "degenerate", "duplicate", "zero objective", "infeasible", "unbounded", "fractional",
)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_maximize_equals_exact_simplex(family, n, monkeypatch):
    exact = _CountingExact()
    monkeypatch.setattr(lp, "_exact", exact)
    rng = random.Random(f"lp-{family}-{n}")
    statuses = set()
    for _ in range(120):
        obj, rows, rhs = _case(rng, n, family)
        want = exact.exact(obj, rows, rhs)
        assert lp.maximize(obj, rows, rhs) == want, (obj, rows, rhs)
        statuses.add(want.status)
    assert statuses >= {
        "infeasible": {lp.INFEASIBLE},
        "unbounded": {lp.UNBOUNDED},
    }.get(family, {lp.OPTIMAL})
    if family == "unbounded":
        # only the exact run answers UNBOUNDED
        assert exact.calls >= 1
    else:
        # on well-scaled data every float basis is proven
        assert exact.calls == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_maximize_ill_scaled_rows(n, monkeypatch):
    """Floats misjudge 1e-15 next to 1 and 1e12 numerators.  Status and
    value always match the exact simplex; a wrong float basis is caught
    by its certificate and the exact run answers.  Where the optimum is
    not unique, a float run that took another path can end on another
    optimal vertex: the point is then checked to be optimal."""
    exact = _CountingExact()
    monkeypatch.setattr(lp, "_exact", exact)
    rng = random.Random(f"lp-ill-scaled-{n}")
    same_point = 0
    for _ in range(200):
        obj, rows, rhs = _case(rng, n, "ill-scaled")
        want = exact.exact(obj, rows, rhs)
        got = lp.maximize(obj, rows, rhs)
        assert (got.status, got.value) == (want.status, want.value), (obj, rows, rhs)
        if got.point == want.point:
            same_point += 1
        else:
            assert _is_optimal_point(obj, rows, rhs, got), (obj, rows, rhs)
    assert exact.calls >= 20  # the float guidance really was wrong
    assert same_point >= 190


BOX_ROWS = [[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]]
BOX_RHS = [F(2), F(1), F(3), F(1)]


@pytest.mark.parametrize(
    "obj, rows, rhs, guess",
    [
        # the all-slack basis is feasible but not optimal
        ([F(1), F(1)], BOX_ROWS, BOX_RHS, (lp.OPTIMAL, [4, 5, 6, 7])),
        # the vertex (-1, -1): feasible, but its duals are negative
        ([F(1), F(1)], BOX_ROWS, BOX_RHS, (lp.OPTIMAL, [4, 2, 6, 3])),
        # the vertex (2, 3) violates x + y <= 4
        ([F(1), F(1)], BOX_ROWS + [[F(1), F(1)]], BOX_RHS + [F(4)], (lp.OPTIMAL, [0, 1, 5, 7, 8])),
        # "infeasible" for a feasible LP that needs an artificial
        ([F(-1)], [[F(-1)], [F(1)]], [F(-1), F(4)], (lp.INFEASIBLE, [4, 3])),
        # x+ and x- of one variable both basic; a singular basis
        ([F(1), F(1)], BOX_ROWS, BOX_RHS, (lp.OPTIMAL, [0, 2, 6, 7])),
        ([F(1), F(1)], BOX_ROWS, BOX_RHS, (lp.OPTIMAL, [0, 1, 6, 7])),
    ],
)
def test_wrong_float_basis_falls_back_to_exact(obj, rows, rhs, guess, monkeypatch):
    exact = _CountingExact()
    monkeypatch.setattr(lp, "_exact", exact)
    monkeypatch.setattr(lp, "_float_basis", lambda *args: guess)
    assert lp.maximize(obj, rows, rhs) == exact.exact(obj, rows, rhs)
    assert exact.calls == 1


_OPTIMIZED_SCRIPT = r"""
from fractions import Fraction as F
from polybisim import lp

if __debug__:
    raise SystemExit("asserts are not stripped")
exact, fallbacks = lp._exact, []
lp._exact = lambda *a: fallbacks.append(1) or exact(*a)
box = ([[F(1), F(0)], [F(-1), F(0)], [F(0), F(1)], [F(0), F(-1)]],
       [F(2), F(1), F(3), F(1)])
print(lp.maximize([F(1), F(1)], *box))                             # certified
print(lp.maximize([F(1)], [[F(1)], [F(-1)]], [F(0), F(-1)]))       # Farkas
print(lp.maximize([F(1)], [[F(-1)]], [F(0)]))                      # unbounded
real = lp._float_basis
lp._float_basis = lambda *a: (lp.OPTIMAL, [4, 5, 6, 7])
print(lp.maximize([F(1), F(1)], *box))                             # wrong basis
lp._float_basis = real
print(len(fallbacks))
lp._pivot_until_done = lambda *a, **k: lp.UNBOUNDED
try:
    exact([F(-1)], [[F(-1)]], [F(-1)])
except AssertionError as exc:
    print("AssertionError:", exc)
"""


def test_answers_and_invariants_survive_python_O():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    box = lp.LPResult(lp.OPTIMAL, F(5), (F(2), F(3)))
    assert out == [
        repr(box),
        repr(lp.LPResult(lp.INFEASIBLE, None, None)),
        repr(lp.LPResult(lp.UNBOUNDED, None, (F(0),))),
        repr(box),
        "2",
        "AssertionError: phase 1 reported an unbounded objective, which is bounded by 0",
    ]
