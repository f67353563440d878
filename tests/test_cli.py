"""Command line front end: subcommands, exports, exit codes."""

import json
from pathlib import Path

import pytest

from polybisim import cli
from polybisim.abstraction import parse_quotient
from polybisim.cli import main
from polybisim.problem import load_problem


def test_check_lf(toy_path, capsys):
    assert main(["check-lf", str(toy_path)]) == 0
    out = capsys.readouterr().out
    assert "certified" in out


def test_check_lf_uncertified(tmp_path, capsys):
    doc = {
        "A": [["0.9"]],
        "L": [["1"]],
        "rho": "0.5",
        "gamma_D": "1",
        "gamma_X": "2",
    }
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    assert main(["check-lf", str(path)]) == 2
    assert "NOT certified" in capsys.readouterr().out


def test_abstract_writes_quotient(toy_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["abstract", str(toy_path), "--out-dir", str(out_dir)]) == 0
    text = (out_dir / "quotient.txt").read_text()
    transitions, observations, slice_idx, cells = parse_quotient(text)
    assert len(transitions) == 3
    assert all(dst == 0 for dst in transitions.values())
    assert observations[0] == "PI_D"
    # abstract alone runs no formula check
    assert not (out_dir / "satisfying.txt").exists()


def test_verify_toy(toy_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(
        ["verify", str(toy_path), "--out-dir", str(out_dir), "--samples", "10"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out
    sat = (out_dir / "satisfying.txt").read_text()
    assert sat.startswith("satisfying: 3 of 3 states")


def test_simulate_subcommand(toy_path, capsys):
    assert main(["simulate", str(toy_path), "1.8"]) == 0
    out = capsys.readouterr().out
    assert "obs=EMPTY" in out and "obs=PI_D" in out
    assert "after 1 steps" in out


def test_simulate_outside_working_set(toy_path, capsys):
    assert main(["simulate", str(toy_path), "5"]) == 1


def _uncertified(tmp_path):
    """A 1-D problem whose declared rate 1/2 the dynamics (9/10) miss."""
    doc = {
        "A": [["0.9"]],
        "L": [["1"]],
        "rho": "0.5",
        "gamma_D": "1",
        "gamma_X": "4",
        "formula": "F pid",
    }
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    return path


def test_simulate_uncertified_rate_exit_code(tmp_path, capsys):
    # without the certificate the trajectory from 3.9 overruns its step
    # bound, an internal invariant; the certificate rejects the input first
    assert main(["simulate", str(_uncertified(tmp_path)), "3.9"]) == 2
    assert "certified rate 9/10 exceeds declared 1/2" in capsys.readouterr().err


def test_simulate_uses_the_cells_proven_at_load(toy_path, monkeypatch, capsys):
    spec = load_problem(toy_path)
    monkeypatch.setattr(cli, "load_problem", lambda path: spec)
    seen = []
    real = cli.run_simulation

    def run_simulation(system, x_cell, d_cell, *rest):
        seen.append((x_cell, d_cell))
        return real(system, x_cell, d_cell, *rest)

    monkeypatch.setattr(cli, "run_simulation", run_simulation)
    assert main(["simulate", str(toy_path), "1.8"]) == 0
    [(x_cell, d_cell)] = seen
    assert x_cell is spec.regions.x_cell and d_cell is spec.regions.d_cell


def test_internal_invariant_exit_code(toy_path, monkeypatch, capsys):
    def run_pipeline(*args, **kwargs):
        raise AssertionError("abstraction loop left 1 blocks without successor")

    monkeypatch.setattr(cli, "run_pipeline", run_pipeline)
    assert main(["verify", str(toy_path)]) == 3
    assert "internal error" in capsys.readouterr().err


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A": [["0.5"]]}))
    assert main(["verify", str(bad)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bogus"],
        ["verify"],
        ["verify", "{toy}", "--samples", "abc"],
        ["verify", "{toy}", "--samples", "-1"],
        ["verify", "{toy}", "--no-such-flag"],
        ["simulate", "{toy}", "1/0"],
        ["simulate", "{toy}", "abc"],
    ],
)
def test_usage_error_exit_code(argv, toy_path, capsys):
    assert main([a.format(toy=toy_path) for a in argv]) == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
def test_help_exit_code(argv, capsys):
    assert main(argv) == 0
    assert "usage:" in capsys.readouterr().out


def test_malformed_file_exit_code(tmp_path, capsys):
    for edit in (
        {"options": {"sample_count": "abc"}},
        {"options": {"sample_count": -5}},
        {"regions": [{"name": "r", "H": [["1"]], "h": ["1.5"]}] * 2},
    ):
        doc = {"A": [["0.5"]], "L": [["1"]], "rho": "0.5"}
        doc.update(gamma_D="1", gamma_X="2", **edit)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["check-lf", str(path)]) == 1
        assert "MALFORMED" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", [b'{"A": [["0.5"]], "\xff": 1}', b"[" * 100000],
    ids=["not-utf-8", "nested-too-deep"],
)
def test_unreadable_file_exit_code(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert main(["check-lf", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: MALFORMED: ")


def test_contraction_failure_exit_code(tmp_path, capsys):
    doc = {
        "A": [["0.9"]],
        "L": [["1"]],
        "rho": "0.5",
        "gamma_D": "1",
        "gamma_X": "4",
        "formula": "F pid",
    }
    path = tmp_path / "fast.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 2


def _small2d_doc():
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


def test_exports_are_deterministic(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_small2d_doc()))
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code = main(
            ["verify", str(path), "--out-dir", str(out_dir), "--svg"]
        )
        assert code == 0
        outputs.append(
            tuple(
                (out_dir / name).read_bytes()
                for name in (
                    "quotient.txt",
                    "satisfying.txt",
                    "partition.svg",
                    "satisfying.svg",
                )
            )
        )
    assert outputs[0] == outputs[1]


def test_svg_contents(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(_small2d_doc()))
    out_dir = tmp_path / "out"
    assert main(["verify", str(path), "--out-dir", str(out_dir), "--svg"]) == 0
    svg = (out_dir / "partition.svg").read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml")
    assert "<polygon" in svg


def test_svg_skipped_for_1d(toy_path, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["verify", str(toy_path), "--out-dir", str(out_dir), "--svg"]) == 0
    assert "skipped" in capsys.readouterr().out
    assert not (out_dir / "partition.svg").exists()


def test_zero_row_of_l_is_an_input_error(toy_path, tmp_path, capsys):
    doc = json.loads(toy_path.read_text())
    doc["L"] = [["1"], ["0"]]  # full column rank, but a zero row
    path = tmp_path / "zero_row.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "RANK_DEFICIENT" in line


def test_zero_row_of_a_region_is_an_input_error(tmp_path, capsys):
    golden = Path(__file__).resolve().parent / "golden" / "two_slice_2d.json"
    doc = json.loads(golden.read_text())
    doc["regions"][0]["H"][0] = ["0", "0"]
    path = tmp_path / "zero_region_row.json"
    path.write_text(json.dumps(doc))
    for command in ("verify", "check-lf"):
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and "MALFORMED" in line
