"""Exports pinned byte for byte: ``run_pipeline`` must reproduce every
file kept under ``tests/golden/<name>/``: ``quotient.txt`` and
``satisfying.txt``, and for a 2-D problem ``partition.svg`` and
``satisfying.svg``, and write no other file.

The goldens were written by ``run_pipeline(load_problem(path),
out_dir=..., svg=True)``.  Regenerate them only with a change that is
meant to alter the quotient or the drawing, and say so where the change
is recorded.
"""

from pathlib import Path

import pytest

from polybisim import load_problem, run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = {
    "toy_1d": GOLDEN.parent.parent / "fixtures" / "toy_1d.json",
    # two slices, two regions, rotated preimages cutting the outer slice
    "two_slice_2d": GOLDEN / "two_slice_2d.json",
}


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_run_pipeline_reproduces_the_golden_exports(name, tmp_path):
    result = run_pipeline(load_problem(PROBLEMS[name]), out_dir=str(tmp_path), svg=True)
    assert result.exit_code == 0
    golden = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == golden
    assert len(golden) == (4 if name == "two_slice_2d" else 2)
    for export in golden:
        assert (tmp_path / export).read_bytes() == (GOLDEN / name / export).read_bytes()
