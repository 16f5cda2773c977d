"""Tests of the sweep benchmark itself.

    python3 -m pytest sweepbench/tests -q
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SMOKE_N_E = 4


def run_bench(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--n-e", str(SMOKE_N_E)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_spec_lists_workloads_that_exist():
    assert SPEC["command"] == ["python3", "sweepbench/run.py"]
    for listed in SPEC["workloads"]:
        assert listed["why"] == WORKLOADS[listed["name"]].why


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values())
    if trace:
        # the traced accounting closes: self times plus unspanned time are the wall time
        spanned = sum(v for name, v in values.items() if name.endswith(".self_s"))
        assert spanned + values["cli.unspanned_s"] == pytest.approx(values["trace.wall_s"], abs=1e-9)
        assert values["cli.unspanned_s"] > 0
        # every trial is seen, including those run in pool workers
        w = WORKLOADS[workload]
        assert values["ensemble.trial_stream.calls"] == w.trials_at(SMOKE_N_E)
        assert values["ensemble.sample_outcomes.calls"] == w.trials_at(SMOKE_N_E)
        assert values["bayes.min_confidence_interval.calls"] == values["ensemble.unique_records"]
    else:
        assert values["setup_s"] > 0 and values["wall_s"] > 0


def exact_csv(w, expected, scale=None) -> str:
    """A sweep CSV whose mean rows equal their exact expectations, one optionally scaled."""
    mu = {key: e.mean * (1.05 if key == scale else 1.0) for key, e in expected.items()}
    lines = ["alpha,eta,n_steps,nu,phi_true,mu_phi_mp,sigma_phi_mp,mu_l_ci,sigma_l_ci,baseline_ratio"]
    for (alpha, nu), value in mu.items():
        ratio = value / mu[(0.0, nu)]
        lines.append(f"{alpha:.12g},{w.eta:.12g},{w.n_steps},{nu},mean,,,{value:.12g},,{ratio:.12g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_checker_rejects_one_mean_row_scaled_by_5_percent(workload):
    w = WORKLOADS[workload]
    expected = oracle.expected_rows(w)
    k = oracle.tolerance_k(oracle.n_tests(w) * 10)
    assert oracle.check_sweep(exact_csv(w, expected), w, w.n_e, expected, k) == []
    for key in expected:
        failures = oracle.check_sweep(exact_csv(w, expected, scale=key), w, w.n_e, expected, k)
        assert any(f"alpha={key[0]:.6g} nu={key[1]}:" in f for f in failures), key
