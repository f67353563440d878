import time
from pathlib import Path

import pytest

from polybisim import build_quotient, geometry, load_problem, lp

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


@pytest.fixture(scope="session")
def paper_path():
    return FIXTURES / "paper_system.json"


@pytest.fixture(scope="session")
def toy_path():
    return FIXTURES / "toy_1d.json"


@pytest.fixture(scope="session")
def paper_spec(paper_path):
    return load_problem(paper_path)


@pytest.fixture(scope="session")
def paper_build(paper_spec):
    """Quotient of the 2-D fixture, built once per session.

    Returns (quotient, partition, build_seconds); the build takes tens of
    seconds, so every test that needs it shares this fixture.
    """
    t0 = time.monotonic()
    quotient, partition = build_quotient(
        paper_spec.system,
        paper_spec.lf,
        paper_spec.gamma_d,
        paper_spec.gamma_x,
        paper_spec.regions,
    )
    return quotient, partition, time.monotonic() - t0


@pytest.fixture
def lp_calls(monkeypatch):
    """A list that grows by one for every LP solved while the test runs."""
    calls = []
    real = lp.maximize

    def maximize(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(lp, "maximize", maximize)
    return calls


class _Starts(list):
    """The rows of each Cramer start since the last ``clear``; ``cells``
    holds every cell started during the test, which keeps them alive, so
    that two of them share an id only if one cell was started twice."""

    def __init__(self):
        super().__init__()
        self.cells = []


@pytest.fixture
def fallbacks(monkeypatch):
    """A list that grows by one for every Cramer start while the test
    runs: a cell with no source clipped from its Cramer box, which gives
    its vertices or finds it unbounded (its rows are recorded, and the
    cell itself in ``cells``)."""
    calls = _Starts()
    real = geometry._cramer_vertices

    def cramer_vertices(cell):
        calls.append(cell.constraints)
        calls.cells.append(cell)
        return real(cell)

    monkeypatch.setattr(geometry, "_cramer_vertices", cramer_vertices)
    return calls
