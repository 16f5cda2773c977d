"""The library names the benchmark's per-layer tracer wraps: a rename or a
deletion under src/ fails here rather than in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).parents[1] / "sweepbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module, attribute",
    [(module, attribute) for module, attribute, _ in load_layertrace().SPANS] + [("qmetro.ensemble", "_run_cell")],
)
def test_traced_name_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute))
