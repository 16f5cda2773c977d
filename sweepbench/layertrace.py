"""Per-layer tracing of one `qmetro sweep`, from outside the program.

Run as a script, it installs timing wrappers on the module attributes that
callers look up (for example `qmetro.ensemble.posterior_from_log_profiles`,
which `ensemble` imports by name), then runs `qmetro.cli.main` with the
remaining arguments:

    python3 sweepbench/layertrace.py TRACE_DIR sweep --config c.cfg --seed 1

Each process keeps its accounting in memory and writes it to TRACE_DIR when
it ends: the main process after the CLI returns, each forked pool worker
through a multiprocessing finalizer. Leaf calls number in the hundreds of
thousands, so a process keeps per-name totals (calls and self time) rather
than one record per call; a pool worker keeps one set of totals per sweep
cell together with the cell's start and end.

`layer_metrics` turns the files into the benchmark's per-layer metrics.
Self time is a span's duration minus the time its child spans cover. When
k pool workers run cells at the same instant, each cell's spans get 1/k of
that wall time, so over all layers the self times plus the unspanned time
add up to the traced wall time, at any worker count.
"""

from __future__ import annotations

import functools
import importlib
import json
import multiprocessing.util
import os
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

SWEEP = "ensemble.sweep"
CELL = "ensemble._run_cell"
BOOKKEEPING = "trace.bookkeeping"
# a node carries posterior mass when its quadrature share is at least this
MASS_FLOOR = 1e-6

# (module, attribute the callers look up, span name)
SPANS = (
    ("qmetro.cli", "parse_config", "config.parse_config"),
    ("qmetro.ensemble", "sweep", SWEEP),
    ("qmetro.ensemble", "relative_uncertainty", "ensemble.relative_uncertainty"),
    ("qmetro.ensemble", "trial_stream", "ensemble.trial_stream"),
    ("qmetro.ensemble", "sample_outcomes", "ensemble.sample_outcomes"),
    ("qmetro.ensemble", "profile_grid", "quantum.profile_grid"),
    ("qmetro.ensemble", "measurement_probabilities", "quantum.measurement_probabilities"),
    ("qmetro.ensemble", "posterior_from_log_profiles", "bayes.posterior_from_log_profiles"),
    ("qmetro.ensemble", "min_confidence_interval", "bayes.min_confidence_interval"),
    ("qmetro.ensemble", "most_probable", "bayes.most_probable"),
    ("qmetro.report", "rows_from_sweep", "report.rows_from_sweep"),
    ("qmetro.report", "render_csv", "report.render_csv"),
    ("qmetro.svgplot", "line_plot", "svgplot.line_plot"),
)

# every per-layer metric, in report order, with its unit
LAYER_UNITS = {
    "ensemble.trial_stream.calls": "count",
    "ensemble.trial_stream.self_s": "s",
    "ensemble.sample_outcomes.calls": "count",
    "ensemble.sample_outcomes.self_s": "s",
    "ensemble.unique_records": "count",
    "ensemble.unique_ratio": "ratio",
    "ensemble.sweep.self_s": "s",
    "ensemble.relative_uncertainty.self_s": "s",
    "ensemble.pool.busy_frac": "fraction",
    "ensemble.pool.imbalance": "ratio",
    "bayes.posterior_from_log_profiles.calls": "count",
    "bayes.posterior_from_log_profiles.self_s": "s",
    "bayes.posterior_from_log_profiles.us_per_call": "us",
    "bayes.min_confidence_interval.calls": "count",
    "bayes.min_confidence_interval.self_s": "s",
    "bayes.min_confidence_interval.us_per_call": "us",
    "bayes.most_probable.self_s": "s",
    "bayes.convergence_errors": "count",
    "bayes.mass_nodes.min": "nodes",
    "bayes.mass_nodes.p50": "nodes",
    "quantum.profile_grid.calls": "count",
    "quantum.profile_grid.self_s": "s",
    "quantum.measurement_probabilities.calls": "count",
    "quantum.measurement_probabilities.self_s": "s",
    "report.rows_from_sweep.self_s": "s",
    "report.render_csv.self_s": "s",
    "report.csv_bytes": "bytes",
    "svgplot.line_plot.calls": "count",
    "svgplot.line_plot.self_s": "s",
    "svgplot.svg_bytes": "bytes",
    "config.parse_config.self_s": "s",
    "trace.bookkeeping.self_s": "s",
    "cli.unspanned_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Recorder:
    """Span accounting of one process: calls and self time per span name."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self._reset(self.main_pid)

    def _reset(self, pid: int) -> None:
        self.pid = pid
        self.open: list[list[float]] = []  # child time of each open span, innermost last
        self.totals: dict[str, list] = {}  # span name -> [calls, self seconds]
        self.cells: list = []  # (start, end) of each cell; in a worker also its totals
        self.sweeps: list = []  # (start, end) of each ensemble.sweep span
        self.top_s = 0.0  # time inside outermost spans
        self.counters: Counter = Counter()
        self.mass_nodes: Counter = Counter()  # nodes carrying mass -> posteriors

    def wrap(self, name: str, fn, after=None, on_close=None):
        """fn timed as span `name`; then `on_close(start, end)`, and `after(result)`
        as a bookkeeping span."""
        bookkeep = None if after is None else self.wrap(BOOKKEEPING, after)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            self.open.append(child)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.open.pop()
                duration = end - start
                if self.open:
                    self.open[-1][0] += duration
                else:
                    self.top_s += duration
                total = self.totals.setdefault(name, [0, 0.0])
                total[0] += 1
                total[1] += duration - child[0]
                if on_close is not None:
                    on_close(start, end)
            if bookkeep is not None:
                bookkeep(result)
            return result

        return wrapper

    def wrap_cell(self, fn):
        """The sweep's per-cell function; in a pool worker each cell keeps its own totals."""
        timed = self.wrap(CELL, fn, on_close=lambda start, end: self.cells.append((start, end)))

        @functools.wraps(fn)  # pickled by name, so it must stand in for fn
        def cell(*args, **kwargs):
            if os.getpid() != self.pid:  # first cell in a forked pool worker
                self._reset(os.getpid())
                multiprocessing.util.Finalize(None, self.flush, exitpriority=100)
            result = timed(*args, **kwargs)
            if self.pid != self.main_pid:
                self.cells[-1] = (*self.cells[-1], self.totals)
                self.totals = {}
            return result

        return cell

    def count_convergence_errors(self, fn):
        from qmetro.bayes import ConvergenceError

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except ConvergenceError:
                self.counters["convergence_errors"] += 1
                raise

        return counted

    def _posterior_mass(self, grid) -> None:
        spacing = float(grid.nodes[1] - grid.nodes[0])
        self.mass_nodes[int((grid.density * spacing >= MASS_FLOOR).sum())] += 1

    def _output_bytes(self, key: str):
        def count(text: str) -> None:
            self.counters[key] += len(text.encode("utf-8"))

        return count

    def install(self) -> None:
        """Replace every traced attribute with its timed wrapper."""
        after = {
            "bayes.posterior_from_log_profiles": self._posterior_mass,
            "report.render_csv": self._output_bytes("csv_bytes"),
            "svgplot.line_plot": self._output_bytes("svg_bytes"),
        }
        for module_name, attr, name in SPANS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            if name == "bayes.min_confidence_interval":
                fn = self.count_convergence_errors(fn)
            on_close = (lambda start, end: self.sweeps.append((start, end))) if name == SWEEP else None
            setattr(module, attr, self.wrap(name, fn, after.get(name), on_close))
        ensemble = importlib.import_module("qmetro.ensemble")
        ensemble._run_cell = self.wrap_cell(ensemble._run_cell)

    def flush(self) -> None:
        role = "main" if self.pid == self.main_pid else f"worker-{self.pid}"
        record = {
            "pid": self.pid,
            "totals": self.totals,
            "cells": self.cells,
            "sweeps": self.sweeps,
            "top_s": self.top_s,
            "counters": self.counters,
            "mass_nodes": {str(k): v for k, v in self.mass_nodes.items()},
        }
        (self.out_dir / f"{role}.json").write_text(json.dumps(record), encoding="utf-8")


def _wall_shares(intervals: list[tuple[float, float]]) -> tuple[list[float], float]:
    """Each interval's share of wall time when overlapping intervals split it evenly.

    Returns the share of each interval's own duration (1.0 when it never
    overlaps another) and the total time covered by any interval.
    """
    edges = sorted({t for interval in intervals for t in interval})
    attributed = [0.0] * len(intervals)
    covered = 0.0
    for lo, hi in zip(edges, edges[1:]):
        active = [i for i, (s, e) in enumerate(intervals) if s <= lo and e >= hi]
        if active:
            covered += hi - lo
            for i in active:
                attributed[i] += (hi - lo) / len(active)
    shares = [a / (e - s) if e > s else 1.0 for a, (s, e) in zip(attributed, intervals)]
    return shares, covered


def _median_of_histogram(hist: Counter) -> float:
    total = sum(hist.values())
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if 2 * seen >= total:
            break
    return float(value)


def layer_metrics(trace_dir: Path, wall_s: float, untraced_wall_s: float, workers: int) -> dict:
    """Per-layer metrics of one traced sweep, from the files its processes wrote."""
    main = json.loads((Path(trace_dir) / "main.json").read_text(encoding="utf-8"))
    pool = [
        json.loads(p.read_text(encoding="utf-8"))
        for p in sorted(Path(trace_dir).glob("worker-*.json"))
    ]
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)  # wall-time share
    cpu_self_s: defaultdict = defaultdict(float)  # own-process time, for per-call costs

    def add(totals, share=1.0):
        for name, (n, seconds) in totals.items():
            calls[name] += n
            self_s[name] += seconds * share
            cpu_self_s[name] += seconds

    add(main["totals"])
    busy: defaultdict = defaultdict(float)  # worker pid -> time inside cells
    for start, end in main["cells"]:
        busy[main["pid"]] += end - start
    pool_cells = [(w["pid"], cell) for w in pool for cell in w["cells"]]
    shares, covered = _wall_shares([(start, end) for _, (start, end, _) in pool_cells])
    for (pid, (start, end, totals)), share in zip(pool_cells, shares):
        add(totals, share)
        busy[pid] += end - start
    # the sweep span waits on pool cells in other processes: not its own time
    self_s[SWEEP] += self_s.pop(CELL, 0.0) - covered
    sweep_wall = sum(end - start for start, end in main["sweeps"])

    counters: Counter = Counter(main["counters"])
    mass: Counter = Counter({int(k): v for k, v in main["mass_nodes"].items()})
    for w in pool:
        counters.update(w["counters"])
        mass.update({int(k): v for k, v in w["mass_nodes"].items()})

    def per_call_us(name):
        return 1e6 * cpu_self_s[name] / calls[name] if calls[name] else 0.0

    trials = calls["ensemble.trial_stream"]
    unique = calls["bayes.posterior_from_log_profiles"]
    busy_times = list(busy.values())
    metrics = {
        "ensemble.unique_records": unique,
        "ensemble.unique_ratio": unique / trials if trials else 0.0,
        "ensemble.pool.busy_frac": sum(busy_times) / (workers * sweep_wall) if sweep_wall else 0.0,
        "ensemble.pool.imbalance": max(busy_times) / min(busy_times) if busy_times else 0.0,
        "bayes.posterior_from_log_profiles.us_per_call": per_call_us("bayes.posterior_from_log_profiles"),
        "bayes.min_confidence_interval.us_per_call": per_call_us("bayes.min_confidence_interval"),
        "bayes.convergence_errors": counters["convergence_errors"],
        "bayes.mass_nodes.min": float(min(mass)) if mass else 0.0,
        "bayes.mass_nodes.p50": _median_of_histogram(mass) if mass else 0.0,
        "report.csv_bytes": counters["csv_bytes"],
        "svgplot.svg_bytes": counters["svg_bytes"],
        "cli.unspanned_s": wall_s - main["top_s"],
        "trace.wall_s": wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
    }
    for metric in LAYER_UNITS:
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            metrics[metric] = calls[name]
        elif kind == "self_s":
            metrics[metric] = self_s[name]
    unknown = set(self_s) - {m.rpartition(".")[0] for m in LAYER_UNITS}
    if unknown:
        raise ValueError(f"spans without a metric: {sorted(unknown)}")
    return {name: metrics[name] for name in LAYER_UNITS}


def main(argv: list[str]) -> int:
    from qmetro import cli

    recorder = Recorder(Path(argv[0]))
    recorder.install()
    try:
        return cli.main(argv[1:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
