"""Seeded problem-file generator for the benchmark.

Every problem it returns is a plain problem-file document (decimal strings
only) that the package accepts and certifies, so no benchmark operation
fails on a well-behaved build.  The generator never calls the package: the
contraction rate is computed by exact vertex enumeration of the unit
Lyapunov ball, and regions are placed with exact corner tests.

* The rate of x' = Ax under V(x) = ||Lx||_inf is the maximum of V(Av) over
  the vertices v of {V <= 1} (V is convex, the ball is a polytope).  It is
  homogeneous in A, so scaling a random A by target / rate puts the rate
  near the target; the declared rate is the exact rate rounded up to a
  multiple of 0.05, hence always certified, and a round number like the
  rates users declare.
* A box lies in X = {V <= gamma_X} iff every corner has V <= gamma_X, and
  it misses D = {V <= gamma_D} if one row of [L; -L] exceeds gamma_D at
  every corner (the whole box then lies in that open halfspace).

``symmetric_variant`` rewrites a problem in coordinates permuted and
negated at random, and ``rename_atoms`` renames a formula's atoms: new
inputs for the package that pose the same geometric problem.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from fractions import Fraction

_ATOM_OPS = ("G !{a}", "F {a}", "{a}", "X {a}", "!{a}")
TARGET_RATE = (0.78, 0.88)  # contraction rates drawn before rounding up
BOX_WIDTH = (0.2, 0.5)  # box side over the X extent, times ring thickness


def _dec(x: Fraction, places: int) -> str:
    """Nearest decimal string with the given number of places."""
    q = round(x * 10**places)
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, frac = divmod(q, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


def _ceil_twentieth(x: Fraction) -> Fraction:
    """Least multiple of 1/20 that is >= x: a round declared rate."""
    return Fraction(math.ceil(x * 20), 20)


def _solve(rows, rhs):
    """Exact solution of a square linear system, or None if singular."""
    n = len(rows)
    m = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col] / m[col][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return tuple(m[i][n] / m[i][i] for i in range(n))


def _dot(a, b) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def lf_value(l_rows, x) -> Fraction:
    return max(abs(_dot(r, x)) for r in l_rows)


def unit_ball_vertices(l_rows):
    """Exact vertices of {x : ||Lx||_inf <= 1}."""
    n = len(l_rows[0])
    signed = [r for r in l_rows] + [tuple(-v for v in r) for r in l_rows]
    verts = set()
    for idx in itertools.combinations(range(len(signed)), n):
        x = _solve([signed[i] for i in idx], [Fraction(1)] * n)
        if x is not None and lf_value(l_rows, x) <= 1:
            verts.add(x)
    return sorted(verts)


def contraction_rate(a_rows, l_rows, verts) -> Fraction:
    return max(
        lf_value(l_rows, tuple(_dot(row, v) for row in a_rows)) for v in verts
    )


def _rank(rows) -> int:
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col] / m[rank][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _l_rows(rng: random.Random, n: int, m: int):
    """m rows of L with two-decimal entries and full column rank."""
    while True:
        if n == 2:
            rows = []
            for k in range(m):
                theta = math.pi * (k + rng.uniform(-0.3, 0.3)) / m
                scale = rng.uniform(0.8, 1.2)
                rows.append(
                    (
                        Fraction(_dec(Fraction(scale * math.cos(theta)), 2)),
                        Fraction(_dec(Fraction(scale * math.sin(theta)), 2)),
                    )
                )
        else:
            # perturbed identity rows keep the ball well shaped, the rest
            # are free directions
            rows = [
                tuple(
                    Fraction(_dec(Fraction((i == j) + rng.uniform(-0.3, 0.3) * (i != j)), 2))
                    if i < n
                    else Fraction(_dec(Fraction(rng.uniform(-1, 1)), 2))
                    for j in range(n)
                )
                for i in range(m)
            ]
        if all(any(v != 0 for v in r) for r in rows) and _rank(rows) == n:
            return rows


def _formula(rng: random.Random, atoms, depth: int) -> str:
    """A random LTL formula in the package's syntax."""
    if depth <= 1:
        return rng.choice(_ATOM_OPS).format(a=rng.choice(atoms))
    op = rng.choice(("&", "|", "->", "U", "G", "F", "X", "!"))
    if op in ("G", "F", "X", "!"):
        return f"{op} ({_formula(rng, atoms, depth - 1)})"
    left = _formula(rng, atoms, depth - 1)
    right = _formula(rng, atoms, rng.randint(1, depth - 1))
    return f"({left}) {op} ({right})"


def random_formula(rng: random.Random, region_names, depth: int) -> str:
    return _formula(rng, list(region_names) + ["pid"], depth)


def rename_atoms(text: str, mapping: dict) -> str:
    """The formula with each atom renamed by `mapping`."""
    pattern = r"\b(" + "|".join(map(re.escape, mapping)) + r")\b"
    return re.sub(pattern, lambda m: mapping[m.group()], text)


def _boxes(rng, l_rows, verts, gamma_d, gamma_x, count):
    """count pairwise-disjoint boxes inside X minus D (corner tests only),
    or None when random placement does not find room for them.

    Each box is grown around a random point of X minus D and halved until
    its corners pass, so placement succeeds quickly even in thin rings.
    """
    n = len(l_rows[0])
    signed = list(l_rows) + [tuple(-v for v in r) for r in l_rows]
    hi = [max(v[j] for v in verts) * gamma_x for j in range(n)]
    lo = [min(v[j] for v in verts) * gamma_x for j in range(n)]
    ring = 1 - gamma_d / gamma_x  # relative thickness of X minus D
    boxes = []
    for _ in range(200):
        if len(boxes) == count:
            break
        p = [lo[j] + (hi[j] - lo[j]) * Fraction(rng.random()) for j in range(n)]
        if not gamma_d < lf_value(l_rows, p) <= gamma_x:
            continue
        frac = Fraction(rng.uniform(*BOX_WIDTH)) * ring
        for _ in range(6):
            box = [
                (
                    Fraction(_dec(p[j] - (hi[j] - lo[j]) * frac / 2, 2)),
                    Fraction(_dec(p[j] + (hi[j] - lo[j]) * frac / 2, 2)),
                )
                for j in range(n)
            ]
            corners = list(itertools.product(*box))
            if (
                all(a < b for a, b in box)
                and all(lf_value(l_rows, c) <= gamma_x for c in corners)
                and any(all(_dot(r, c) > gamma_d for c in corners) for r in signed)
            ):
                break
            frac /= 2
        else:
            continue
        if all(
            any(box[j][1] < o[j][0] or o[j][1] < box[j][0] for j in range(n))
            for o in boxes
        ):
            boxes.append(box)
    return boxes if len(boxes) == count else None


def _region_doc(name, box):
    n = len(box)
    h_rows, h = [], []
    for j, (a, b) in enumerate(box):
        e = ["0"] * n
        e[j] = "1"
        h_rows.append(list(e))
        h.append(_dec(b, 2))
        e[j] = "-1"
        h_rows.append(list(e))
        h.append(_dec(-a, 2))
    return {"name": name, "H": h_rows, "h": h}


def make_problem(
    rng: random.Random,
    n: int,
    l_count: int,
    region_count: int,
    slice_count: int,
    formula_depth: int = 2,
    sample_count: int = 0,
) -> dict:
    """One problem document with slice_count slices outside the target."""
    while True:
        l_rows = _l_rows(rng, n, l_count)
        verts = unit_ball_vertices(l_rows)
        raw = [
            [Fraction(_dec(Fraction(rng.uniform(-1, 1)), 2)) for _ in range(n)]
            for _ in range(n)
        ]
        rate = contraction_rate(raw, l_rows, verts)
        if rate == 0:
            continue
        scale = Fraction(rng.uniform(*TARGET_RATE)) / rate
        a_rows = [[Fraction(_dec(v * scale, 2)) for v in row] for row in raw]
        rho = _ceil_twentieth(contraction_rate(a_rows, l_rows, verts))
        if not Fraction(1, 2) <= rho < 1:
            continue
        gamma_d = Fraction(1)
        # A fifth of a step short of slice_count full steps keeps the level
        # count at exactly slice_count after the final clipped step.
        gamma_x = Fraction(_dec(Fraction(float(rho) ** -(slice_count - 0.2)), 2))
        boxes = _boxes(rng, l_rows, verts, gamma_d, gamma_x, region_count)
        if boxes is not None:
            break
    names = [f"r{k + 1}" for k in range(region_count)]
    doc = {
        "A": [[_dec(v, 2) for v in row] for row in a_rows],
        "L": [[_dec(v, 2) for v in row] for row in l_rows],
        "rho": _dec(rho, 2),
        "gamma_D": _dec(gamma_d, 0),
        "gamma_X": _dec(gamma_x, 2),
        "regions": [_region_doc(nm, b) for nm, b in zip(names, boxes)],
        "formula": random_formula(rng, names, formula_depth),
    }
    if sample_count:
        doc["options"] = {"sample_count": sample_count}
    return doc


def _places(text: str) -> int:
    return len(text.split(".")[1]) if "." in text else 0


def symmetric_variant(rng: random.Random, doc: dict) -> dict:
    """The problem in coordinates x' = P x for a random signed permutation
    P, with the rows of L and of each region shuffled.

    P is orthogonal, so A' = P A P^T, L' = L P^T and H' = H P^T describe
    the same system, Lyapunov function and regions in the new coordinates:
    the declared rate, levels and boxes stay exact, and the problem's
    difficulty is unchanged while every number moves to another place.
    """
    n = len(doc["A"])
    perm = list(range(n))
    rng.shuffle(perm)
    sign = [rng.choice((1, -1)) for _ in range(n)]

    def cols(row):
        """row P^T: entry perm[j] of the result is sign[j] * row[j]."""
        out = [None] * n
        for j, v in enumerate(row):
            f = Fraction(v) * sign[j]
            out[perm[j]] = _dec(f, _places(v))
        return out

    a_cols = [cols(row) for row in doc["A"]]  # A P^T
    a_new = [None] * n
    for i, row in enumerate(a_cols):  # P (A P^T): row i moves to perm[i], signed
        a_new[perm[i]] = [_dec(Fraction(v) * sign[i], _places(v)) for v in row]
    l_new = [cols(row) for row in doc["L"]]
    rng.shuffle(l_new)
    regions = []
    for reg in doc["regions"]:
        rows = list(zip((cols(r) for r in reg["H"]), reg["h"]))
        rng.shuffle(rows)
        regions.append({"name": reg["name"], "H": [r for r, _ in rows], "h": [h for _, h in rows]})
    out = dict(doc, A=a_new, L=l_new, regions=regions)
    return out


def random_points(rng: random.Random, doc: dict, count: int):
    """count random rational points of X for the problem document."""
    l_rows = [tuple(Fraction(v) for v in r) for r in doc["L"]]
    gamma_x = Fraction(doc["gamma_X"])
    verts = unit_ball_vertices(l_rows)
    n = len(l_rows[0])
    hi = [max(v[j] for v in verts) * gamma_x for j in range(n)]
    lo = [min(v[j] for v in verts) * gamma_x for j in range(n)]
    points = []
    while len(points) < count:
        x = tuple(
            lo[j] + (hi[j] - lo[j]) * Fraction(rng.randrange(10**4), 10**4)
            for j in range(n)
        )
        if lf_value(l_rows, x) <= gamma_x:
            points.append(x)
    return points
