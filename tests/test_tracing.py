"""Every name the benchmark's tracer wraps still exists in the package.

The tracer wraps each name as a ``--trace 1`` run starts, so a renamed or
deleted one fails every traced run; this catches it without running one.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load()

# wrapped one by one in Tracer._install_special, since they count something or split by mode
SPECIAL = (
    ("model", "LoraModel.forward"),
    ("tensor", "Tape.record"),
    ("evaluate", "mean_cross_entropy"),
    ("lhspg", "halfspace_project"),
    ("checkpoint", "save_checkpoint"),
)


@pytest.mark.parametrize("module,attr", [
    pytest.param(module, attr, id=f"{module}.{attr}")
    for module, attr in [*((m, a) for m, a, _ in tracing.TARGETS), *SPECIAL]
])
def test_traced_name_resolves(module, attr):
    owner, name = tracing._resolve(module, attr)
    assert callable(getattr(owner, name, None)), f"lorashear.{module}.{attr}"
