"""Command-line front end: outcome probabilities, single posteriors, and sweeps.

Exit codes: 0 success, 2 validation error, 3 computation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bayes, ensemble, quantum, report, svgplot
from .config import ConfigError, ExperimentConfig, parse_config

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_COMPUTATION = 3
EXIT_IO = 4


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    return parse_config(Path(path).read_text(encoding="utf-8"))


def _parse_counts(raw: str) -> list[int]:
    parts = raw.split(",")
    if len(parts) != 4:
        raise ConfigError(f"counts must be four comma-separated integers, got {raw!r}")
    try:
        counts = [int(p) for p in parts]
    except ValueError:
        raise ConfigError(f"counts must be integers, got {raw!r}") from None
    if any(c < 0 for c in counts):
        raise ConfigError(f"counts must be nonnegative, got {raw!r}")
    return counts


def _parse_domain(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ConfigError(f"domain must be 'lo,hi', got {raw!r}")
    return float(parts[0]), float(parts[1])


def cmd_probs(ns: argparse.Namespace) -> int:
    noise = quantum.NoiseModel(ns.eta, ns.n_steps)
    probs = quantum.measurement_probabilities(ns.alpha, ns.phi, noise)
    print(", ".join(report.format_number(p) for p in probs))
    return EXIT_OK


def cmd_posterior(ns: argparse.Namespace) -> int:
    cfg = _load_config(ns.config)
    eta = cfg.eta if ns.eta is None else ns.eta
    n_steps = cfg.n_steps if ns.n_steps is None else ns.n_steps
    grid_size = cfg.grid_size if ns.grid_size is None else ns.grid_size
    domain = cfg.domain if ns.domain is None else _parse_domain(ns.domain)
    counts = _parse_counts(ns.counts)
    noise = quantum.NoiseModel(eta, n_steps)

    nodes, log_profiles = ensemble.grid_tables(ns.alpha, noise, domain, grid_size)
    try:
        grid = bayes.posterior_from_log_profiles(nodes, log_profiles, counts)
    except bayes.DegenerateEvidenceError:
        print(f"error: counts {counts} are impossible for this probe", file=sys.stderr)
        return EXIT_COMPUTATION

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
    cfg = _load_config(ns.config)
    if ns.seed is not None:
        cfg.seed = ns.seed
    if ns.output is not None:
        cfg.output_path = ns.output
    noise = quantum.NoiseModel(cfg.eta, cfg.n_steps)
    result = ensemble.sweep(
        alphas=cfg.alphas,
        noise=noise,
        nus=cfg.nus,
        n_phi=cfg.resolved_n_phi,
        n_e=cfg.resolved_n_e,
        seed=cfg.seed,
        domain=cfg.domain,
        grid_size=cfg.grid_size,
        y=cfg.y,
        tau=cfg.tau,
        workers=ns.workers,
    )
    baseline = 0.0
    if baseline in cfg.alphas:
        result = ensemble.relative_uncertainty(result, baseline)

    out = Path(cfg.output_path)
    out.write_text(report.render_csv(report.rows_from_sweep(result)), encoding="utf-8")

    if ns.plot:
        nus = list(cfg.nus)
        absolute = [
            (
                f"alpha={report.format_number(a)}",
                nus,
                [result.row(a, nu).mean_mu_l_ci for nu in nus],
            )
            for a in cfg.alphas
        ]
        svg = svgplot.line_plot(
            absolute,
            title=f"Uncertainty vs measurements (eta={report.format_number(cfg.eta)})",
            xlabel="nu",
            ylabel="mean uncertainty (rad)",
        )
        out.with_suffix("").with_name(out.stem + "_absolute.svg").write_text(svg, encoding="utf-8")
        if baseline in cfg.alphas:
            relative = [
                (
                    f"alpha={report.format_number(a)}",
                    nus,
                    [result.row(a, nu).baseline_ratio for nu in nus],
                )
                for a in cfg.alphas
                if a != baseline
            ]
            svg = svgplot.line_plot(
                relative,
                title=f"Relative uncertainty (eta={report.format_number(cfg.eta)})",
                xlabel="nu",
                ylabel="relative uncertainty",
                hlines=[("1/sqrt(2)", ensemble.asymptotic_relative_bound(2))],
            )
            out.with_suffix("").with_name(out.stem + "_relative.svg").write_text(
                svg, encoding="utf-8"
            )
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
    p.add_argument("--eta", type=float, default=1.0)
    p.add_argument("--n-steps", type=int, default=5)
    p.set_defaults(func=cmd_probs)

    p = sub.add_parser("posterior", help="emit one posterior as CSV (and optional SVG)")
    p.add_argument("--config", default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--counts", default="0,0,0,0", help="k1,k2,k3,k4")
    p.add_argument("--eta", type=float, default=None)
    p.add_argument("--n-steps", type=int, default=None)
    p.add_argument("--domain", default=None, help="lo,hi in radians")
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--output", default="posterior.csv")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_posterior)

    p = sub.add_parser("sweep", help="run the Monte Carlo sweep and write the results CSV")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
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
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
