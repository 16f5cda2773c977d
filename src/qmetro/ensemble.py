"""Monte Carlo ensembles: seeded outcome sampling, per-record estimates, and sweeps.

Every trial draws from its own random stream, derived from the master seed
and the (alpha index, nu index, angle index, trial index) cell coordinates,
so results are bit-identical regardless of execution order or worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Sequence

import numpy as np

from .bayes import (
    DEFAULT_GRID_SIZE,
    DEFAULT_TAU,
    DEFAULT_Y,
    min_confidence_interval,
    most_probable,
    posterior_from_log_profiles,
)
from .quantum import NoiseModel, measurement_probabilities, profile_grid

DEFAULT_DOMAIN = (0.0, math.pi / 2)


@dataclass(frozen=True)
class EnsembleMetrics:
    mu_phi_mp: float
    sigma_phi_mp: float
    mu_l_ci: float
    sigma_l_ci: float
    n_trials: int


@dataclass(frozen=True)
class SweepRow:
    """Aggregated results for one (alpha, nu) cell across all true angles."""

    alpha: float
    eta: float
    n_steps: int
    nu: int
    phis: tuple[float, ...]
    per_phi: tuple[EnsembleMetrics, ...]
    mean_mu_l_ci: float
    baseline_ratio: float | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def row(self, alpha: float, nu: int) -> SweepRow:
        for r in self.rows:
            if r.alpha == alpha and r.nu == nu:
                return r
        raise KeyError(f"no sweep row for alpha={alpha}, nu={nu}")


def trial_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent random stream for given cell coordinates under a master seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


def sample_outcomes(profile: np.ndarray, nu: int, stream: np.random.Generator) -> np.ndarray:
    """Multinomial draw of nu measurement outcomes weighted by the profile."""
    if nu < 0:
        raise ValueError(f"nu must be nonnegative, got {nu}")
    p = np.clip(np.asarray(profile, dtype=float), 0.0, None)
    return stream.multinomial(nu, p / p.sum())


@lru_cache(maxsize=64)
def grid_tables(alpha: float, noise: NoiseModel, domain: tuple[float, float], grid_size: int):
    """Posterior grid nodes over domain = (lo, hi) and their log outcome
    probabilities, shape (grid_size, 4).

    The one builder of posterior grids, for sweeps and single posteriors
    alike. Cached so the quantum channel is evaluated once per grid node per
    configuration and shared across all trials.
    """
    lo, hi = domain
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"domain must be finite with lo < hi, got {domain}")
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")
    nodes = np.linspace(lo, hi, grid_size)
    with np.errstate(divide="ignore"):
        log_profiles = np.log(profile_grid(alpha, nodes, noise))
    # the cache hands these same arrays to every caller
    nodes.setflags(write=False)
    log_profiles.setflags(write=False)
    return nodes, log_profiles


def _estimate_from_counts(nodes, log_profiles, counts, y, tau) -> tuple[float, float]:
    """Most probable angle and shortest-interval length for one count record."""
    grid = posterior_from_log_profiles(nodes, log_profiles, counts)
    ci = min_confidence_interval(grid, y, tau)
    return most_probable(grid), ci.length


def _metrics_from_arrays(phi_mp: np.ndarray, l_ci: np.ndarray) -> EnsembleMetrics:
    return EnsembleMetrics(
        mu_phi_mp=float(np.mean(phi_mp)),
        sigma_phi_mp=float(np.std(phi_mp, ddof=1)),
        mu_l_ci=float(np.mean(l_ci)),
        sigma_l_ci=float(np.std(l_ci, ddof=1)),
        n_trials=len(phi_mp),
    )


def sweep_angles(domain: tuple[float, float], n_phi: int) -> np.ndarray:
    """True angles evenly spaced over the domain, lower endpoint in, upper out."""
    return np.linspace(domain[0], domain[1], n_phi, endpoint=False)


def _run_cell(args) -> SweepRow:
    (alpha, a_idx, noise, nu, nu_idx, phis, n_e, seed, domain, grid_size, y, tau) = args
    nodes, log_profiles = grid_tables(alpha, noise, domain, grid_size)
    per_phi = []
    for p_idx, phi in enumerate(phis):
        profile = measurement_probabilities(alpha, phi, noise)
        counts = np.empty((n_e, 4), dtype=np.int64)
        for t in range(n_e):
            counts[t] = sample_outcomes(profile, nu, trial_stream(seed, a_idx, nu_idx, p_idx, t))
        # identical count records yield identical estimates; solve each once
        unique, inverse = np.unique(counts, axis=0, return_inverse=True)
        estimates = [_estimate_from_counts(nodes, log_profiles, c, y, tau) for c in unique]
        phi_mp = np.array([estimates[k][0] for k in inverse])
        l_ci = np.array([estimates[k][1] for k in inverse])
        per_phi.append(_metrics_from_arrays(phi_mp, l_ci))
    return SweepRow(
        alpha=alpha,
        eta=noise.eta,
        n_steps=noise.n_steps,
        nu=nu,
        phis=tuple(float(p) for p in phis),
        per_phi=tuple(per_phi),
        mean_mu_l_ci=float(np.mean([m.mu_l_ci for m in per_phi])),
    )


def sweep(
    alphas: Sequence[float],
    noise: NoiseModel,
    nus: Sequence[int],
    n_phi: int,
    n_e: int,
    seed: int,
    domain: tuple[float, float] = DEFAULT_DOMAIN,
    grid_size: int = DEFAULT_GRID_SIZE,
    y: float = DEFAULT_Y,
    tau: float = DEFAULT_TAU,
    workers: int = 1,
) -> SweepResult:
    """Run n_e trials at each of n_phi true angles for every (alpha, nu) cell."""
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")
    if n_e < 2:
        raise ValueError(f"n_e must be >= 2, got {n_e}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    for name, values in (("alphas", alphas), ("nus", nus)):
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must be distinct, got {list(values)}")
    phis = sweep_angles(domain, n_phi)
    tasks = [
        (alpha, a_idx, noise, int(nu), nu_idx, phis, n_e, seed, domain, grid_size, y, tau)
        for a_idx, alpha in enumerate(alphas)
        for nu_idx, nu in enumerate(nus)
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, tasks))
    else:
        rows = [_run_cell(t) for t in tasks]
    return SweepResult(rows=tuple(rows))


def relative_uncertainty(result: SweepResult, baseline_alpha: float = 0.0) -> SweepResult:
    """Attach per-row ratios against the baseline probe at the same nu."""
    baseline = {r.nu: r.mean_mu_l_ci for r in result.rows if r.alpha == baseline_alpha}
    if not baseline:
        raise ValueError(f"baseline alpha {baseline_alpha} not present in sweep")
    rows = []
    for r in result.rows:
        if r.nu not in baseline:
            raise ValueError(f"baseline alpha {baseline_alpha} missing nu={r.nu}")
        rows.append(replace(r, baseline_ratio=r.mean_mu_l_ci / baseline[r.nu]))
    return SweepResult(rows=tuple(rows))


def asymptotic_relative_bound(n_qubits: int) -> float:
    """Asymptotic entangled-over-separable uncertainty ratio, 1/sqrt(n_qubits)."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    return 1.0 / math.sqrt(n_qubits)
