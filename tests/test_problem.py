"""Problem file parsing and validation error codes."""

import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from polybisim import geometry, lyapunov
from polybisim.abstraction import build_quotient
from polybisim.pipeline import run_pipeline
from polybisim.problem import (
    GAMMA_ORDER,
    MALFORMED,
    RANK_DEFICIENT,
    REGION_DOMAIN,
    REGION_OVERLAP,
    RHO_RANGE,
    ProblemError,
    load_problem,
    parse_problem,
)


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
    doc = base_doc()
    doc["L"] = [["1"], ["1"]]
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
    doc = base_doc()
    doc["regions"][0]["name"] = "pid"
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
        _set(["regions"], {"name": "r1"}),
        _set(["regions", 0], "r1"),
        _set(["regions", 0, "h"], "3"),
        _set(["A", 1], 0),
        _set(["regions", 0, "H", 0], "10"),
        _set(["formula"], ["F r1"]),
    ],
    ids=[
        "options-not-object",
        "sample-count-string",
        "sample-count-float",
        "regions-not-list",
        "region-not-object",
        "h-not-list",
        "matrix-row-number",
        "matrix-row-string",
        "formula-not-string",
    ],
)
def test_malformed_shapes(edit):
    doc = base_doc()
    edit(doc)
    _expect_code(doc, MALFORMED)


def test_load_and_run_prove_regions_and_certify_once(tmp_path, monkeypatch):
    """load_problem + run_pipeline compute X \\ D once, solve the
    contraction LPs once, and prove the emptiness and the box of X and of
    D once each."""
    path = tmp_path / "p.json"
    path.write_text(json.dumps(base_doc()))
    spec = parse_problem(base_doc())
    x_rows = lyapunov.sublevel_cell(spec.lf, spec.gamma_x).constraints
    d_rows = lyapunov.sublevel_cell(spec.lf, spec.gamma_d).constraints
    names = {x_rows: "X", d_rows: "D"}
    counts = Counter()
    real = {
        "difference": geometry.difference,
        "bounding_box": geometry.bounding_box,
    }
    real_slack_lp = geometry._slack_lp
    real_maxima = lyapunov.unit_ball_row_maxima

    def difference(a, b):
        if [c.constraints for c in a.cells] == [x_rows] and [
            c.constraints for c in b.cells
        ] == [d_rows]:
            counts["X minus D"] += 1
        return real["difference"](a, b)

    def bounding_box(cell):
        if cell._bbox is None and cell.constraints in names:
            counts[names[cell.constraints] + " box"] += 1
        return real["bounding_box"](cell)

    def slack_lp(cell):
        if cell.constraints in names:
            counts[names[cell.constraints] + " emptiness"] += 1
        return real_slack_lp(cell)

    def unit_ball_row_maxima(lf, system):
        counts["row maxima"] += 1
        return real_maxima(lf, system)

    fakes = {"difference": difference, "bounding_box": bounding_box}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "polybisim":
            for attr, fake in fakes.items():
                if getattr(module, attr, None) is real[attr]:
                    monkeypatch.setattr(module, attr, fake)
    monkeypatch.setattr(geometry, "_slack_lp", slack_lp)
    monkeypatch.setattr(lyapunov, "unit_ball_row_maxima", unit_ball_row_maxima)

    result = run_pipeline(load_problem(path))
    assert result.exit_code == 0
    assert counts == {
        "X minus D": 1,
        "row maxima": 1,
        "X emptiness": 1,
        "D emptiness": 1,
        "X box": 1,
        "D box": 1,
    }


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
