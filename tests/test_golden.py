"""Exports pinned byte for byte: ``run_pipeline`` must reproduce every
file kept under ``tests/golden/<name>/``: ``quotient.txt`` and
``satisfying.txt``, and for a 2-D problem ``partition.svg`` and
``satisfying.svg``, and write no other file.  The paper fixture's 860-state quotient export
is too large to keep as a file and is pinned by its SHA-256.

The goldens were written by ``run_pipeline(load_problem(path),
out_dir=..., svg=True)``.  Regenerate them only with a change that is
meant to alter the quotient or the drawing, and say so where the change
is recorded.
"""

import hashlib
import importlib
from pathlib import Path

import pytest

from polybisim import export_quotient, load_problem, run_pipeline

GOLDEN = Path(__file__).resolve().parent / "golden"
PROBLEMS = {
    "toy_1d": GOLDEN.parent.parent / "fixtures" / "toy_1d.json",
    # two slices, two regions, rotated preimages cutting the outer slice
    "two_slice_2d": GOLDEN / "two_slice_2d.json",
}
# SHA-256 of export_quotient on fixtures/paper_system.json
PAPER_DIGEST = "c79451d56cf21b1b248fe44000f4bb4dbf8731725ef767c048e541db3ba28f0f"


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_run_pipeline_reproduces_the_golden_exports(name, tmp_path):
    result = run_pipeline(load_problem(PROBLEMS[name]), out_dir=str(tmp_path), svg=True)
    assert result.exit_code == 0
    golden = sorted(p.name for p in (GOLDEN / name).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == golden
    assert len(golden) == (4 if name == "two_slice_2d" else 2)
    for export in golden:
        assert (tmp_path / export).read_bytes() == (GOLDEN / name / export).read_bytes()


def test_the_blocks_are_drawn_once_for_both_svgs(tmp_path, monkeypatch):
    """run_pipeline draws each block once, for partition.svg and
    satisfying.svg together, and each satisfying cell once; rendering
    the partition and adding the highlight on its own gives the same
    file."""
    svg = importlib.import_module("polybisim.svg")
    drawn = []
    real = svg.cell_vertices

    def cell_vertices(cell):
        drawn.append(cell)
        return real(cell)

    monkeypatch.setattr(svg, "cell_vertices", cell_vertices)
    result = run_pipeline(
        load_problem(PROBLEMS["two_slice_2d"]), out_dir=str(tmp_path), svg=True
    )
    blocks = [b.cell for b in result.partition.ordered_blocks()]
    highlight = result.satisfying.region
    assert drawn == blocks + list(highlight.cells)
    text = svg.add_highlight(svg.render_partition_svg(result.partition), highlight)
    assert text.encode() == (GOLDEN / "two_slice_2d" / "satisfying.svg").read_bytes()


def test_the_paper_fixture_export_is_pinned(paper_build):
    """The paper fixture's quotient export, 860 states, pinned by its
    SHA-256: too large to keep as a file, and any change to a block, its
    rows, successor or observation changes the digest."""
    quotient, partition, _ = paper_build
    text = export_quotient(quotient, partition)
    assert len(quotient.states) == 860
    assert hashlib.sha256(text.encode()).hexdigest() == PAPER_DIGEST
