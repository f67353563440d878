"""Problem-file ingestion.

A problem is one JSON document; every numeric entry is a decimal string
so it can be parsed digit-exactly into a rational.  Every failure carries
a stable error code, so callers can map it to an exit code without string
matching.  The region geometry is proven by
``abstraction.validate_regions`` (each region inside X and disjoint from D,
the regions pairwise disjoint; X \\ D itself is not cut), whose result the
spec keeps so that the quotient build does not prove it again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .abstraction import ObservedRegion, ValidatedRegions, validate_regions
from .errors import GAMMA_ORDER, MALFORMED, RANK_DEFICIENT, RHO_RANGE, ProblemError
from .geometry import Cell, Constraint, mat
from .lyapunov import LinearSystem, PolyhedralLF, sublevel_cell


@dataclass(frozen=True)
class ProblemSpec:
    system: LinearSystem
    lf: PolyhedralLF
    gamma_d: Fraction
    gamma_x: Fraction
    regions: ValidatedRegions
    formula: Optional[str]
    sample_count: int = 0

    @property
    def n(self) -> int:
        return self.system.n


def _fraction(value, what: str) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemError(MALFORMED, f"cannot parse {what}: {value!r}") from exc


def _typed(value, kind: type, what: str):
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ProblemError(
            MALFORMED, f"{what}: expected {kind.__name__}, got {value!r}"
        )
    return value


def _matrix(rows, what: str):
    if not _typed(rows, list, what):
        raise ProblemError(MALFORMED, f"{what} must be a non-empty matrix")
    return mat(
        [[_fraction(v, what) for v in _typed(r, list, f"{what} row")] for r in rows]
    )


def parse_problem(doc: dict) -> ProblemSpec:
    _typed(doc, dict, "problem document")
    for key in ("A", "L", "rho", "gamma_D", "gamma_X"):
        if key not in doc:
            raise ProblemError(MALFORMED, f"missing field {key!r}")

    a = _matrix(doc["A"], "A")
    try:
        system = LinearSystem(a)
    except ValueError as exc:
        raise ProblemError(MALFORMED, str(exc)) from exc

    l_rows = _matrix(doc["L"], "L")
    if any(len(r) != system.n for r in l_rows):
        raise ProblemError(MALFORMED, "L row width does not match A")
    rho = _fraction(doc["rho"], "rho")
    if not (0 < rho < 1):
        raise ProblemError(RHO_RANGE, f"rho={rho} is outside (0, 1)")
    try:
        lf = PolyhedralLF(l_rows, rho)
    except ValueError as exc:
        raise ProblemError(RANK_DEFICIENT, str(exc)) from exc

    gamma_d = _fraction(doc["gamma_D"], "gamma_D")
    gamma_x = _fraction(doc["gamma_X"], "gamma_X")
    if not (0 < gamma_d < gamma_x):
        raise ProblemError(
            GAMMA_ORDER, f"need 0 < gamma_D < gamma_X, got {gamma_d}, {gamma_x}"
        )

    options = _typed(doc.get("options", {}), dict, "options")
    sample_count = options.get("sample_count", 0)
    if _typed(sample_count, int, "options.sample_count") < 0:
        raise ProblemError(
            MALFORMED, f"options.sample_count is negative: {sample_count}"
        )
    formula = doc.get("formula")
    if formula is not None:
        _typed(formula, str, "formula")

    regions = []
    for entry in _typed(doc.get("regions", []), list, "regions"):
        _typed(entry, dict, "region")
        for key in ("name", "H", "h"):
            if key not in entry:
                raise ProblemError(MALFORMED, f"region missing field {key!r}")
        h_mat = _matrix(entry["H"], "region H")
        h_vec = _typed(entry["h"], list, "region h")
        h_vec = [_fraction(v, "region h") for v in h_vec]
        if len(h_mat) != len(h_vec):
            raise ProblemError(MALFORMED, "region H and h sizes differ")
        if any(len(r) != system.n for r in h_mat):
            raise ProblemError(MALFORMED, "region H width does not match A")
        try:
            cell = Cell(
                system.n,
                [Constraint(row, off, False) for row, off in zip(h_mat, h_vec)],
            )
            regions.append(ObservedRegion(str(entry["name"]), cell))
        except ValueError as exc:
            raise ProblemError(MALFORMED, str(exc)) from exc
    validated = validate_regions(
        sublevel_cell(lf, gamma_x), sublevel_cell(lf, gamma_d), regions
    )

    return ProblemSpec(
        system=system,
        lf=lf,
        gamma_d=gamma_d,
        gamma_x=gamma_x,
        regions=validated,
        formula=formula,
        sample_count=sample_count,
    )


def load_problem(path) -> ProblemSpec:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ProblemError(MALFORMED, f"cannot read problem file: {exc}") from exc
    return parse_problem(doc)
