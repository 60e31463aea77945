"""The benchmark tracer patches pinnet functions by name; they must resolve.

``perfbench/tracing.py`` replaces each ``(module, attr)`` in its ``TRACED``
table, plus ``pinnet.simulate.make_network_rhs``, for the length of a traced
run. A refactor that renames or drops one of them breaks ``--trace 1`` only;
this test makes it fail here instead.
"""

import importlib.util
import sys
from pathlib import Path

import pinnet.simulate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("pinnet_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # dataclasses resolve the defining module through sys.modules
    sys.modules[spec.name] = tracing
    spec.loader.exec_module(tracing)
    names = [(module, attr) for module, attr, _, _ in tracing.TRACED]
    names.append((pinnet.simulate, "make_network_rhs"))
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr in names
        if not callable(getattr(module, attr, None))
    ]
    assert len(names) > 1 and not missing, f"traced names are gone: {missing}"
