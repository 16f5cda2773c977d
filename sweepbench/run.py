"""Benchmark of `qmetro sweep`.

One run measures one workload for --seconds seconds and prints, as its
last line, a JSON object with the keys correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, measured on
untraced sweeps; with --trace 1 they are the per-layer ones, from a traced
sweep run next to an untraced one.

    python3 sweepbench/run.py --workload paper-noiseless --seed 1 --seconds 55 --trace 0
    python3 sweepbench/run.py --all     # every workload, end-to-end metrics

Run it from anywhere inside a source checkout; it runs the program from
the checkout's src/ and writes only under .sweepbench-out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path

import layertrace
from workloads import WORKLOADS

# One BLAS thread in this process and every process it launches. With
# workers capped at the CPU count, workers x BLAS threads <= nproc.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".sweepbench-out"
MIN_REPS = 3
MIN_SETUP_PROBES = 5
END_TO_END_UNITS = {"wall_s": "s", "trials_per_s": "trials/s", "setup_s": "s", "peak_rss_mb": "MiB"}
CSV_NAME = "sweep.csv"
SVG_NAMES = ("sweep_absolute.svg", "sweep_relative.svg")


@dataclass(frozen=True)
class Launch:
    wall_s: float
    peak_rss_mb: float  # largest resident set of the process and its waited-for children
    returncode: int
    stderr: str


def launch(argv: list[str], cwd: Path) -> Launch:
    """Run argv to completion; time it from launch to exit."""
    err_path = cwd / "stderr.txt"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=err, start_new_session=True
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            with suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)  # the sweep and its pool workers
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Launch(wall, usage.ru_maxrss / 1024, proc.returncode, err_path.read_text(errors="replace"))


def sweep_seed(seed: int, rep: int) -> int:
    """Each sweep of a run draws fresh records; the same --seed repeats them."""
    return (seed * 1000 + rep) % 2**63


@dataclass
class Sweep:
    launch: Launch
    csv: str | None
    svgs_ok: bool


class Runner:
    """Launches the sweeps of one run in its own directory under WORK."""

    def __init__(self, workload, n_e: int, run_dir: Path):
        self.w = workload
        self.n_e = n_e
        self.dir = run_dir
        self.workers = min(workload.workers, len(os.sched_getaffinity(0)))
        self.config = run_dir / "sweep.cfg"
        self.config.write_text(workload.config_text(n_e, CSV_NAME), encoding="utf-8")

    def sweep_args(self, seed: int) -> list[str]:
        # every workload plots, so every traced run times svgplot
        return ["sweep", "--config", self.config.name, "--seed", str(seed),
                "--workers", str(self.workers), "--plot"]

    def _collect(self, result: Launch) -> Sweep:
        csv_path = self.dir / CSV_NAME
        csv = csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
        svgs_ok = True
        for name in SVG_NAMES:
            path = self.dir / name
            text = path.read_text(encoding="utf-8") if path.exists() else ""
            svgs_ok &= text.lstrip().startswith("<") and text.rstrip().endswith("</svg>")
        for path in [csv_path, *(self.dir / n for n in SVG_NAMES)]:
            path.unlink(missing_ok=True)
        return Sweep(result, csv, svgs_ok)

    def sweep(self, seed: int) -> Sweep:
        argv = [sys.executable, "-m", "qmetro.cli", *self.sweep_args(seed)]
        return self._collect(launch(argv, self.dir))

    def traced_sweep(self, seed: int, trace_dir: Path) -> Sweep:
        trace_dir.mkdir()
        argv = [sys.executable, str(HERE / "layertrace.py"), str(trace_dir), *self.sweep_args(seed)]
        return self._collect(launch(argv, self.dir))

    def setup(self) -> Launch:
        return launch([sys.executable, str(HERE / "setup_probe.py"), self.config.name], self.dir)


def _until(seconds: float, min_count: int, step):
    """Call step() until the next call would end past `seconds`, at least min_count times."""
    start = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - start
        if done >= min_count and elapsed * (done + 1) / done > seconds:
            return


def _proc_stat_steal() -> int | None:
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _loadavg() -> list[float] | None:
    try:
        return [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]]
    except (OSError, ValueError):
        return None


def _git(*args: str) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def host_sample() -> dict:
    return {"loadavg": _loadavg(), "steal_ticks": _proc_stat_steal()}


def environment(runner: Runner, before: dict, after: dict) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain")
    return {
        "git_sha": sha.strip() if sha else None,
        "git_dirty": None if status is None else bool(status.strip()),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "workers_requested": runner.w.workers,
        "workers": runner.workers,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "thread_cap": "every launched process gets the BLAS thread variables set to 1, and"
        " --workers is capped at the CPUs this process may use, so workers x BLAS threads"
        " <= nproc",
        "before": before,
        "after": after,
    }


def check(runner: Runner, sweeps: list[Sweep]) -> tuple[int, int, list[str]]:
    """(attempted mean rows, failed mean rows, reasons) over every sweep of the run."""
    import oracle

    expected = oracle.expected_rows(runner.w)
    k = oracle.tolerance_k(oracle.n_tests(runner.w) * len(sweeps))
    attempted = failed = 0
    reasons = []
    for i, s in enumerate(sweeps):
        attempted += len(expected)
        if s.launch.returncode != 0 or s.csv is None:
            failed += len(expected)
            reasons.append(f"sweep {i}: exit {s.launch.returncode}: {s.launch.stderr.strip()[-500:]}")
            continue
        bad = oracle.check_sweep(s.csv, runner.w, runner.n_e, expected, k)
        failed += len(bad)
        reasons += [f"sweep {i}: {why}" for why in bad]
        if not s.svgs_ok:
            reasons.append(f"sweep {i}: SVG plots missing or truncated")
    return attempted, failed, reasons


def measure_end_to_end(runner: Runner, seed: int, seconds: float):
    setups: list[Launch] = []
    sweeps: list[Sweep] = []

    def rep():
        setups.append(runner.setup())
        sweeps.append(runner.sweep(sweep_seed(seed, len(sweeps))))

    _until(seconds, MIN_REPS, rep)
    while len(setups) < MIN_SETUP_PROBES:
        setups.append(runner.setup())
    ok = [s for s in sweeps if s.launch.returncode == 0]
    samples = {
        "wall_s": [s.launch.wall_s for s in ok],
        "trials_per_s": [runner.w.trials_at(runner.n_e) / s.launch.wall_s for s in ok],
        "setup_s": [s.wall_s for s in setups],
        "peak_rss_mb": [s.launch.peak_rss_mb for s in ok],
    }
    extra = [f"setup probe exit {s.returncode}: {s.stderr.strip()[-500:]}" for s in setups if s.returncode]
    return sweeps, samples, extra


def measure_layers(runner: Runner, seed: int, seconds: float):
    pairs: list[tuple[Sweep, Sweep, Path]] = []

    def rep():
        i = len(pairs)
        plain = runner.sweep(sweep_seed(seed, i))
        trace_dir = runner.dir / f"trace-{i}"
        pairs.append((plain, runner.traced_sweep(sweep_seed(seed, i), trace_dir), trace_dir))

    _until(seconds, 1, rep)
    sweeps = [s for plain, traced, _ in pairs for s in (plain, traced)]
    extra = [
        f"pair {i}: traced output differs from untraced"
        for i, (plain, traced, _) in enumerate(pairs)
        if plain.csv != traced.csv
    ]
    ok = [p for p in pairs if p[1].launch.returncode == 0]
    if not ok:
        return sweeps, {}, extra + ["no traced sweep finished"]
    ok.sort(key=lambda p: p[1].launch.wall_s)
    _, traced, trace_dir = ok[(len(ok) - 1) // 2]  # the median traced sweep
    untraced = statistics.median(p[0].launch.wall_s for p in ok)
    metrics = layertrace.layer_metrics(trace_dir, traced.launch.wall_s, untraced, runner.workers)
    samples = {name: [value] for name, value in metrics.items()}
    return sweeps, samples, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool, n_e: int | None = None) -> dict:
    """One benchmark run: the result object plus 'samples', 'env' and 'reasons'."""
    w = WORKLOADS[name]
    run_dir = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        runner = Runner(w, n_e or w.n_e, run_dir)
        before = host_sample()
        measure = measure_layers if trace else measure_end_to_end
        sweeps, samples, reasons = measure(runner, seed, seconds)
        after = host_sample()
        attempted, failed, row_reasons = check(runner, sweeps)
        env = environment(runner, before, after)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    units = layertrace.LAYER_UNITS if trace else END_TO_END_UNITS
    reasons = row_reasons + reasons
    complete = set(samples) == set(units) and all(samples.values())
    return {
        "correct": failed == 0 and not reasons and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m: {"value": statistics.median(samples[m]), "unit": units[m]}
            for m in units
            if samples.get(m)
        },
        "samples": samples,
        "env": env,
        "reasons": reasons,
    }


def report(name: str, result: dict) -> None:
    """Human-readable lines: each metric with unit and sample count, the error rate, the host."""
    for metric, m in result["metrics"].items():
        values = result["samples"][metric]
        shown = " ".join(f"{v:.4g}" for v in values)
        print(f"{name} {metric} = {m['value']:.6g} {m['unit']} (median of {len(values)}: {shown})")
    rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"{name} error_rate = {rate:.6g} fraction ({result['failed']} of {result['attempted']} mean rows)")
    for reason in result["reasons"]:
        print(f"{name} FAILED {reason}")
    print(f"{name} env {json.dumps(result['env'], sort_keys=True)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload with --trace 0")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-e", type=int, default=None, help="override the workload's n_e (tests)")
    ns = parser.parse_args(argv)
    # a terminated run still stops its sweep and removes its directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qmetro" / "cli.py").is_file():
        print(f"error: no qmetro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # for the oracle, which scores records with the program
    if ns.all:
        for name in WORKLOADS:
            report(name, run_workload(name, ns.seed, ns.seconds, False, ns.n_e))
        return 0
    if ns.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = run_workload(ns.workload, ns.seed, ns.seconds, bool(ns.trace), ns.n_e)
    report(ns.workload, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
