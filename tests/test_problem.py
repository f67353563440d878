"""Problem file parsing and validation error codes."""

import json
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from polybisim import geometry, lyapunov
from polybisim.abstraction import build_quotient
from polybisim.pipeline import run_pipeline
from polybisim.errors import (
    GAMMA_ORDER,
    MALFORMED,
    RANK_DEFICIENT,
    REGION_DOMAIN,
    REGION_OVERLAP,
    RHO_RANGE,
    ProblemError,
)
from polybisim.problem import load_problem, parse_problem


def base_doc():
    return {
        "A": [["0.5", "0"], ["0", "0.5"]],
        "L": [["1", "0"], ["0", "1"]],
        "rho": "0.5",
        "gamma_D": "1",
        "gamma_X": "4",
        "regions": [
            {
                "name": "r1",
                "H": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
                "h": ["3", "-2", "1", "1"],
            }
        ],
        "formula": "F r1",
        "options": {"sample_count": 10},
    }


def test_parse_valid_document():
    spec = parse_problem(base_doc())
    assert spec.n == 2
    assert spec.lf.rho == Fraction(1, 2)
    assert spec.gamma_d == 1 and spec.gamma_x == 4
    assert len(spec.regions) == 1 and spec.regions[0].label == "r1"
    assert spec.formula == "F r1"
    assert spec.sample_count == 10


def test_decimals_parse_digit_exactly():
    doc = base_doc()
    doc["gamma_D"] = "0.1"
    spec = parse_problem(doc)
    assert spec.gamma_d == Fraction(1, 10)  # not the float 0.1


def _expect_code(doc, code):
    with pytest.raises(ProblemError) as err:
        parse_problem(doc)
    assert err.value.code == code


def test_missing_field():
    doc = base_doc()
    del doc["rho"]
    _expect_code(doc, MALFORMED)


def test_unparseable_number():
    doc = base_doc()
    doc["gamma_X"] = "ten"
    _expect_code(doc, MALFORMED)


def test_non_square_a():
    doc = base_doc()
    doc["A"] = [["0.5", "0"]]
    _expect_code(doc, MALFORMED)


def test_l_width_mismatch():
    for l_rows in (
        [["1"], ["1"]],
        [["1", "0"], ["0"]],  # ragged
        [["1", "0", "0"], ["0", "1", "0"]],  # 2 x 3 for n = 2
    ):
        doc = base_doc()
        doc["L"] = l_rows
        _expect_code(doc, MALFORMED)


def test_rho_out_of_range():
    for rho in ("1.2", "0", "-0.5", "1"):
        doc = base_doc()
        doc["rho"] = rho
        _expect_code(doc, RHO_RANGE)


def test_rank_deficient_l():
    doc = base_doc()
    doc["L"] = [["1", "0"], ["2", "0"]]
    _expect_code(doc, RANK_DEFICIENT)


def test_gamma_order():
    doc = base_doc()
    doc["gamma_D"], doc["gamma_X"] = "4", "1"
    _expect_code(doc, GAMMA_ORDER)


def test_region_outside_domain():
    doc = base_doc()
    # overlaps the target set around the origin
    doc["regions"][0]["h"] = ["1", "1", "1", "1"]
    _expect_code(doc, REGION_DOMAIN)


def test_region_beyond_working_set():
    doc = base_doc()
    doc["regions"][0]["h"] = ["6", "-5", "1", "1"]
    _expect_code(doc, REGION_DOMAIN)


def test_empty_region():
    # x <= 2 and x >= 3: the region has no point, so no formula could
    # observe it
    doc = base_doc()
    doc["regions"][0]["h"] = ["2", "-3", "1", "1"]
    with pytest.raises(ProblemError, match="region r1 is empty") as err:
        parse_problem(doc)
    assert err.value.code == MALFORMED


def test_region_overlap():
    doc = base_doc()
    doc["regions"].append(
        {
            "name": "r2",
            "H": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
            "h": ["3.5", "-2.5", "1", "1"],
        }
    )
    _expect_code(doc, REGION_OVERLAP)


def test_reserved_region_name():
    # pid is reserved; the others are names that no formula could refer to,
    # because the LTL parser reads them as something other than that atom
    for name in ("pid", "true", "false", "X", "F", "G", "U", "", "r-1", "r 1"):
        doc = base_doc()
        doc["regions"][0]["name"] = name
        _expect_code(doc, MALFORMED)


def test_duplicate_region_labels():
    doc = base_doc()
    doc["regions"].append(
        {
            "name": "r1",
            "H": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]],
            "h": ["-2", "3", "1", "1"],
        }
    )
    _expect_code(doc, MALFORMED)


def _set(path, value):
    def edit(doc):
        *keys, last = path
        target = doc
        for key in keys:
            target = target[key]
        target[last] = value

    return edit


@pytest.mark.parametrize(
    "edit",
    [
        _set(["options"], ["sample_count", 10]),
        _set(["options", "sample_count"], "abc"),
        _set(["options", "sample_count"], 2.5),
        _set(["options", "sample_count"], -1),
        _set(["regions"], {"name": "r1"}),
        _set(["regions", 0], "r1"),
        _set(["regions", 0, "h"], "3"),
        _set(["A", 1], 0),
        _set(["regions", 0, "H", 0], "10"),
        _set(["regions", 0, "H", 0], ["0", "0"]),
        _set(["formula"], ["F r1"]),
    ],
    ids=[
        "options-not-object",
        "sample-count-string",
        "sample-count-float",
        "sample-count-negative",
        "regions-not-list",
        "region-not-object",
        "h-not-list",
        "matrix-row-number",
        "matrix-row-string",
        "region-zero-row",
        "formula-not-string",
    ],
)
def test_malformed_shapes(edit):
    doc = base_doc()
    edit(doc)
    _expect_code(doc, MALFORMED)


def test_run_pipeline_rejects_a_negative_sample_count():
    spec = parse_problem(base_doc())
    for samples in (-1, -3):
        with pytest.raises(ValueError, match="negative"):
            run_pipeline(spec, samples=samples)


def one_slice_doc():
    doc = base_doc()
    doc["gamma_X"] = "2"
    doc["regions"][0]["h"] = ["2", "-1.5", "1", "1"]
    return doc


def test_load_and_run_prove_regions_and_certify_once(tmp_path, monkeypatch):
    """load_problem + run_pipeline cut X \\ D only where it is a slice
    (inside ``lyapunov.slices``, once), compute the contraction rates
    once, and prove the box of X and of D once each.  The unit ball takes
    the only Cramer start, once: X and D are gamma times it, and take its
    vertices scaled.  Both documents have gamma_D = 1, so the ball has D's
    rows and its start counts as D's."""
    names = {}
    counts = Counter()
    real = {
        "difference": geometry.difference,
        "bounding_box": geometry.bounding_box,
    }
    real_cramer = geometry._cramer_vertices
    real_maxima = lyapunov.unit_ball_row_maxima

    def difference(a, b):
        if [names.get(c.constraints) for c in a.cells + b.cells] == ["X", "D"]:
            counts["X minus D"] += 1
            counts["X minus D in slices"] += any(
                f.f_code is lyapunov.slices.__code__
                for f, _ in traceback.walk_stack(None)
            )
        return real["difference"](a, b)

    def bounding_box(cell):
        if cell._bbox is None and cell.constraints in names:
            counts[names[cell.constraints] + " box"] += 1
        return real["bounding_box"](cell)

    def cramer_vertices(cell):
        if cell.constraints in names:
            counts[names[cell.constraints] + " start"] += 1
        return real_cramer(cell)

    def unit_ball_row_maxima(lf, system):
        counts["row maxima"] += 1
        return real_maxima(lf, system)

    fakes = {"difference": difference, "bounding_box": bounding_box}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "polybisim":
            for attr, fake in fakes.items():
                if getattr(module, attr, None) is real[attr]:
                    monkeypatch.setattr(module, attr, fake)
    monkeypatch.setattr(geometry, "_cramer_vertices", cramer_vertices)
    monkeypatch.setattr(lyapunov, "unit_ball_row_maxima", unit_ball_row_maxima)

    path = tmp_path / "p.json"
    for doc, x_minus_d in ((base_doc(), 0), (one_slice_doc(), 1)):
        spec = parse_problem(doc)
        names.clear()
        for gamma, name in ((spec.gamma_x, "X"), (spec.gamma_d, "D")):
            names[lyapunov.sublevel_cell(spec.lf, gamma).constraints] = name
        path.write_text(json.dumps(doc))
        counts.clear()
        result = run_pipeline(load_problem(path))
        assert result.exit_code == 0
        assert +counts == +Counter({
            "X minus D": x_minus_d,
            "X minus D in slices": x_minus_d,
            "row maxima": 1,
            "D start": 1,
            "X box": 1,
            "D box": 1,
        })


def _box_region(name, lo, hi):
    """The region document of the box lo <= x <= hi."""
    n = len(lo)
    return {
        "name": name,
        "H": [[str(s * (j == i)) for j in range(n)] for i in range(n) for s in (1, -1)],
        "h": [str(v) for i in range(n) for v in (Fraction(hi[i]), -Fraction(lo[i]))],
    }


def three_d_doc():
    """The three_d problem of tests/test_verify.py: two slices, two regions."""
    return {
        "A": [["0.5", "0", "0"], ["0", "0.5", "-0.25"], ["0", "0.25", "0.5"]],
        "L": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "rho": "0.75",
        "gamma_D": "1",
        "gamma_X": "1.5",
        "regions": [
            _box_region("r", ["1.1", -1, -1], ["1.5", 1, 1]),
            _box_region("s", [-1, "-1.5", -1], [1, "-1.1", 1]),
        ],
        "formula": "G (r -> F s)",
        "options": {"sample_count": 10},
    }


def rank_one_doc():
    """The rank_one problem of tests/test_verify.py: A maps the plane onto
    the diagonal, two slices."""
    return {
        "A": [["0.25", "0.25"], ["0.25", "0.25"]],
        "L": [["1", "0"], ["0", "1"]],
        "rho": "0.5",
        "gamma_D": "1",
        "gamma_X": "4",
        "regions": [
            _box_region("r", [2, -1], [3, 1]),
            _box_region("s", [-1, "1.5"], [1, "3.5"]),
        ],
        "formula": "F r | G !s",
        "options": {"sample_count": 10},
    }


def test_load_and_run_solve_no_lp(tmp_path, lp_calls, fallbacks):
    """Rates come from the unit ball's vertices and the cells decide from
    their vertices, so load_problem + run_pipeline solve no LP at all.
    The cells with no source take one Cramer start each: the unit ball
    and the regions (X, D and the other levels take the ball's vertices
    scaled).  ``remove_redundancy`` reads a full-dimensional
    cell's rows off its faces, so only its greedy tests on unbounded,
    empty or flat cells take one: under the singular A of rank_one, with
    the unbounded preimages themselves, whose clip also settles their
    boxes.  No cell object takes a second start."""
    golden = Path(__file__).resolve().parent / "golden" / "two_slice_2d.json"
    problems = [(one_slice_doc(), 2), (golden, 3), (three_d_doc(), 3), (rank_one_doc(), 46)]
    for k, (problem, boxes) in enumerate(problems):
        if isinstance(problem, dict):
            path = tmp_path / f"p{k}.json"
            path.write_text(json.dumps(problem))
            problem = path
        lp_calls.clear()
        fallbacks.clear()
        result = run_pipeline(load_problem(problem))
        assert result.exit_code == 0
        assert lp_calls == []
        assert len(fallbacks) == boxes
    assert len({id(c) for c in fallbacks.cells}) == len(fallbacks.cells) == 54


def test_validated_regions_are_proven_again_for_other_sets():
    spec = parse_problem(base_doc())
    # a larger target set D = [-2.5, 2.5]^2 now meets r1 = [2, 3] x [-1, 1]
    with pytest.raises(ValueError) as err:
        build_quotient(
            spec.system, spec.lf, Fraction(5, 2), spec.gamma_x, spec.regions
        )
    assert err.value.code == REGION_DOMAIN


def test_region_size_mismatch():
    doc = base_doc()
    doc["regions"][0]["h"] = ["3", "-2", "1"]
    _expect_code(doc, MALFORMED)


def test_load_problem_bad_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ProblemError) as err:
        load_problem(path)
    assert err.value.code == MALFORMED
    with pytest.raises(ProblemError):
        load_problem(tmp_path / "missing.json")


def test_load_fixtures(paper_path, toy_path):
    paper = load_problem(paper_path)
    assert paper.n == 2
    assert paper.lf.n_rows == 4
    assert [r.label for r in paper.regions] == ["r1", "r2", "r3"]
    assert paper.formula == "G !r2 & F r1 & (r3 -> X !r1)"
    assert paper.sample_count == 500
    toy = load_problem(toy_path)
    assert toy.n == 1 and toy.formula == "F pid"
