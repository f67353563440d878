"""Every function the benchmark's span tracer wraps exists in the package.

``perfbench/tracer.py`` names the functions it wraps as strings; a
rename in the package would otherwise surface only when a traced
benchmark run fails to install the tracer.
"""

import importlib
import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_traced_names_resolve_in_the_package():
    tracer = runpy.run_path(str(TRACER))  # compiles the source, writes nothing
    missing = []
    for table in (tracer["SPANS"], tracer["COUNTS"]):
        for mod, qualnames in table.items():
            module = importlib.import_module(f"polybisim.{mod}")
            for qualname in qualnames:
                owner = module
                for part in qualname.split("."):
                    owner = getattr(owner, part, None)
                if not callable(owner):
                    missing.append(f"{mod}.{qualname}")
    assert missing == []
