"""The library calls the benchmark makes: a rename, a deletion or a broken
result under src/ fails here rather than in a benchmark run."""

import dataclasses
import importlib
import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmetro

SWEEPBENCH = Path(__file__).parents[1] / "sweepbench"
LAYERTRACE = SWEEPBENCH / "layertrace.py"


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


@pytest.fixture
def sweepbench(monkeypatch):
    """The benchmark's oracle and workloads modules, imported as its scripts import them."""
    monkeypatch.syspath_prepend(str(SWEEPBENCH))
    return importlib.import_module("oracle"), importlib.import_module("workloads")


@pytest.mark.parametrize(
    "name, trim",
    [
        # every record enumerated
        ("paper-noiseless", dict(alphas=(0.0, 0.5), nus=(1, 2), n_phi=3)),
        # one record per value of the binomial statistic
        ("large-nu", dict(nus=(100,), n_phi=2)),
    ],
    ids=["paper-noiseless", "large-nu"],
)
def test_oracle_scores_trimmed_workload(sweepbench, name, trim):
    oracle, workloads = sweepbench
    w = dataclasses.replace(workloads.WORKLOADS[name], **trim)
    expected = oracle.expected_rows(w)
    assert sorted(expected) == sorted((alpha, nu) for alpha in w.alphas for nu in w.nus)
    for row in expected.values():
        assert math.isfinite(row.mean) and row.mean > 0.0
        assert math.isfinite(row.var_per_trial)


def test_setup_probe_runs(sweepbench, tmp_path):
    _, workloads = sweepbench
    config = tmp_path / "sweep.cfg"
    config.write_text(workloads.WORKLOADS["large-nu"].config_text(10, "results.csv"), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(Path(qmetro.__file__).parents[1]))
    argv = [sys.executable, str(SWEEPBENCH / "setup_probe.py"), config.name]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
