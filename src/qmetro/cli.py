"""Command-line front end: outcome probabilities, single posteriors, and sweeps.

Exit codes: 0 success, 2 validation error, 3 computation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import math
import sys
from pathlib import Path

from . import bayes, ensemble, quantum, report, svgplot
from .config import ExperimentConfig, parse_config

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3
EXIT_IO = 4

# the config keys each command also takes as a flag (--n-steps sets n_steps)
SETTING_FLAGS = {
    "probs": ("eta", "n_steps"),
    "posterior": ("eta", "n_steps", "domain", "grid_size", "output"),
    "sweep": ("seed", "output"),
}


def _add_setting_flags(p: argparse.ArgumentParser, command: str) -> None:
    for key in SETTING_FLAGS[command]:
        p.add_argument("--" + key.replace("_", "-"), help="lo,hi in radians" if key == "domain" else None)


def _load_config(ns: argparse.Namespace) -> ExperimentConfig:
    """The file named by --config, if any, overridden by the command's setting flags."""
    path = getattr(ns, "config", None)
    text = "" if path is None else Path(path).read_text(encoding="utf-8")
    return parse_config(text, {key: getattr(ns, key) for key in SETTING_FLAGS[ns.command]})


def _parse_counts(raw: str) -> list[int]:
    try:
        return [int(p) for p in raw.split(",")]
    except ValueError:
        raise ValueError(f"counts must be integers, got {raw!r}") from None


def cmd_probs(ns: argparse.Namespace, cfg: ExperimentConfig) -> int:
    probs = quantum.measurement_probabilities(ns.alpha, ns.phi, cfg.noise)
    print(", ".join(report.format_number(p) for p in probs))
    return EXIT_OK


def cmd_posterior(ns: argparse.Namespace, cfg: ExperimentConfig) -> int:
    out = Path(cfg.output or "posterior.csv")
    if ns.plot and out.suffix == ".svg":
        where = "output" if ns.output is None else "--output"
        raise ValueError(f"{where} {cfg.output!r} is the path --plot writes the SVG to")
    counts = _parse_counts(ns.counts)
    # a config file means the same to both commands: it must be valid for a sweep
    ensemble.check_sweep(cfg)
    nodes, log_profiles, merge = ensemble.grid_tables(ns.alpha, cfg.noise, cfg.domain, cfg.grid_size)
    records = ensemble.sufficient_records(counts, merge)
    grid = bayes.posterior_from_log_profiles(nodes, log_profiles, records)

    lines = ["phi,density"]
    lines += [
        f"{report.format_number(x)},{report.format_number(d)}"
        for x, d in zip(grid.nodes, grid.density)
    ]
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    if ns.plot:
        svg = svgplot.line_plot(
            [(f"alpha={report.format_number(ns.alpha)}", list(grid.nodes), list(grid.density))],
            title="Posterior density",
            xlabel="phi (rad)",
            ylabel="density",
        )
        out.with_suffix(".svg").write_text(svg, encoding="utf-8")
    return EXIT_OK


def cmd_sweep(ns: argparse.Namespace, cfg: ExperimentConfig) -> int:
    result = ensemble.sweep(cfg, workers=ns.workers)
    baseline = ensemble.BASELINE_ALPHA
    if baseline in cfg.alphas:
        result = ensemble.relative_uncertainty(result)

    out = Path(cfg.output or "results.csv")
    out.write_text(report.render_csv(report.rows_from_sweep(result)), encoding="utf-8")

    if ns.plot:
        eta = report.format_number(cfg.eta)
        # (file suffix, SweepRow field, probes, title, y label, reference lines)
        plots = [
            ("absolute", "mean_mu_l_ci", cfg.alphas,
             f"Uncertainty vs measurements (eta={eta})", "mean uncertainty (rad)", ()),
        ]
        probes = [a for a in cfg.alphas if a != baseline]
        if baseline in cfg.alphas and probes:
            plots.append(
                ("relative", "baseline_ratio", probes,
                 f"Relative uncertainty (eta={eta})", "relative uncertainty",
                 [("1/sqrt(2)", 1.0 / math.sqrt(2))])
            )
        nus = list(cfg.nus)
        for suffix, field, alphas, title, ylabel, hlines in plots:
            series = [
                (f"alpha={report.format_number(a)}", nus, [getattr(result[a, nu], field) for nu in nus])
                for a in alphas
            ]
            svg = svgplot.line_plot(series, title=title, xlabel="nu", ylabel=ylabel, hlines=hlines)
            out.with_name(f"{out.stem}_{suffix}.svg").write_text(svg, encoding="utf-8")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmetro",
        description="Bayesian two-qubit rotation estimation: probabilities, posteriors, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("probs", help="print outcome probabilities for one probe and angle")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--phi", type=float, required=True)
    _add_setting_flags(p, "probs")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("posterior", help="emit one posterior as CSV (and optional SVG)")
    p.add_argument("--config", default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--counts", default="0,0,0,0", help="k_dd,k_du,k_ud,k_uu")
    _add_setting_flags(p, "posterior")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("sweep", help="run the Monte Carlo sweep and write the results CSV")
    p.add_argument("--config", default=None)
    _add_setting_flags(p, "sweep")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        return ns.func(ns, _load_config(ns))
    except (bayes.DegenerateEvidenceError, bayes.ConvergenceError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    """The process entry point: main, then exit without the interpreter's
    final collection. gc.freeze moves every live object, numpy's import
    included, to the permanent generation, which no collection traverses.
    main closes every file it writes before it returns, and the interpreter
    flushes stdout and stderr itself; main stays free of this, since tests
    call it in-process."""
    status = main()
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
