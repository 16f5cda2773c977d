"""Command-line front end: outcome probabilities, single posteriors, and sweeps.

Exit codes: 0 success, 2 validation error, 3 computation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bayes, ensemble, quantum, report, svgplot
from .config import ExperimentConfig, parse_config

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3
EXIT_IO = 4


def _load_config(ns: argparse.Namespace, *keys: str) -> ExperimentConfig:
    """The file named by --config, if any, overridden by the flags that set keys."""
    path = getattr(ns, "config", None)
    text = "" if path is None else Path(path).read_text(encoding="utf-8")
    return parse_config(text, {key: getattr(ns, key) for key in keys})


def _sweep_args(cfg: ExperimentConfig, noise: quantum.NoiseModel) -> tuple:
    """The settings of ensemble.sweep and check_sweep, in their order, from a config."""
    return (cfg.alphas, noise, cfg.nus, cfg.resolved_n_phi, cfg.resolved_n_e,
            cfg.seed, cfg.domain, cfg.grid_size, cfg.y, cfg.tau)


def _parse_counts(raw: str) -> list[int]:
    try:
        return [int(p) for p in raw.split(",")]
    except ValueError:
        raise ValueError(f"counts must be integers, got {raw!r}") from None


def cmd_probs(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns, "eta", "n_steps")
    noise = quantum.NoiseModel(cfg.eta, cfg.n_steps)
    probs = quantum.measurement_probabilities(ns.alpha, ns.phi, noise)
    print(", ".join(report.format_number(p) for p in probs))
    return EXIT_OK


def cmd_posterior(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns, "eta", "n_steps", "grid_size", "domain")
    counts = _parse_counts(ns.counts)
    noise = quantum.NoiseModel(cfg.eta, cfg.n_steps)
    # a config file means the same to both commands: it must be valid for a sweep
    ensemble.check_sweep(*_sweep_args(cfg, noise))
    nodes, log_profiles, merge = ensemble.grid_tables(ns.alpha, noise, cfg.domain, cfg.grid_size)
    grid = bayes.posterior_from_log_profiles(nodes, log_profiles, ensemble.sufficient_records(counts, merge))

    out = Path(ns.output)
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


def cmd_sweep(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns, "seed", "output")
    noise = quantum.NoiseModel(cfg.eta, cfg.n_steps)
    result = ensemble.sweep(*_sweep_args(cfg, noise), workers=ns.workers)
    baseline = ensemble.BASELINE_ALPHA
    if baseline in cfg.alphas:
        result = ensemble.relative_uncertainty(result)

    out = Path(cfg.output)
    out.write_text(report.render_csv(report.rows_from_sweep(result)), encoding="utf-8")

    if ns.plot:
        eta = report.format_number(cfg.eta)
        # (file suffix, SweepRow field, probes, title, y label, reference lines)
        plots = [
            ("absolute", "mean_mu_l_ci", cfg.alphas,
             f"Uncertainty vs measurements (eta={eta})", "mean uncertainty (rad)", ()),
        ]
        if baseline in cfg.alphas:
            plots.append(
                ("relative", "baseline_ratio", [a for a in cfg.alphas if a != baseline],
                 f"Relative uncertainty (eta={eta})", "relative uncertainty",
                 [("1/sqrt(2)", ensemble.asymptotic_relative_bound(2))])
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
    p.add_argument("--eta")
    p.add_argument("--n-steps")
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("posterior", help="emit one posterior as CSV (and optional SVG)")
    p.add_argument("--config", default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--counts", default="0,0,0,0", help="k_dd,k_du,k_ud,k_uu")
    p.add_argument("--eta")
    p.add_argument("--n-steps")
    p.add_argument("--domain", help="lo,hi in radians")
    p.add_argument("--grid-size")
    p.add_argument("--output", default="posterior.csv")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("sweep", help="run the Monte Carlo sweep and write the results CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--seed")
    p.add_argument("--output")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (bayes.DegenerateEvidenceError, bayes.ConvergenceError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
