"""Monte Carlo ensembles: seeded outcome sampling, per-record estimates, and sweeps.

Seed contract: each (alpha, nu) sweep cell draws from one random stream,
derived from the master seed, the bit pattern of the alpha value and the
value of nu. The cell takes its angles in ascending order and draws all n_e
count records of an angle in one batched multinomial. A cell's row
therefore depends only on the seed, its own alpha and nu, and the settings
every cell shares (noise, angles, n_e, grid, y, tau): it is bit-identical
regardless of execution order, worker count, or which other alphas and nus
share the sweep.

Sufficient records: outcomes whose probabilities are equal at every grid
node enter the likelihood only through the sum of their counts. grid_tables
groups the four outcomes (dd, du, ud, uu) into K classes of equal
probability profiles and keeps one log column per class; the sufficient
record of a 4-count record is its counts summed per class. dd and uu always
share a class: SWAP.(iY x iY) commutes with R(phi) x R(phi) and with equal
dephasing on both qubits, maps the probe to minus itself and |dd> to |uu>.
For the Bell probe (alpha = 1/2) SWAP alone fixes the probe, so du and ud
share one too, and a record reduces to one binomial count. The rule reads
the table only: a probe or channel without the symmetry merges nothing.

An estimate depends only on the sufficient record, not on the true angle or
the trial, so each cell solves the posterior once per distinct sufficient
record among all of its draws. The draws themselves are 4-count records, so
merging leaves the seed contract and the sampled records as they are, and
sweep CSV rows match the unmerged solver's byte for byte except at exact MAP
ties, where rounding picks the node (seen once on the benchmark workloads:
alpha = 1/2, nu = 1000, phi = pi/4, seed 1, a record with k_dd + k_uu = nu/2
whose posterior is symmetric about pi/4). The distinct records are solved in
blocks of rows, one posterior, most-probable and shortest-interval call per
block; each record's estimate is bit-identical to that record solved alone.

A sweep returns one SweepRow per cell, keyed by (alpha, nu) in sweep order.
Its per-angle columns hold each true angle's mean and standard deviation of
the most probable value and of the shortest-interval length over the n_e
trials; mean_mu_l_ci averages the interval column over the angles.
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
    check_counts,
    check_interval_target,
    min_confidence_interval,
    most_probable,
    posterior_from_log_profiles,
)
from .quantum import NoiseModel, measurement_probabilities, profile_grid

DEFAULT_DOMAIN = (0.0, math.pi / 2)
# the separable probe, which relative uncertainties are measured against
BASELINE_ALPHA = 0.0
MAX_SEED = 2**64 - 1
# outcomes whose probabilities differ by at most this at every grid node share
# a class; the symmetric pairs differ by rounding only (<= 3.3e-16 measured)
PROFILE_MATCH = 1e-14


@dataclass(frozen=True)
class SweepRow:
    """One (alpha, nu) cell. The per-angle columns hold, for each true angle in
    phis, the mean and sample standard deviation over its n_e trials."""

    alpha: float
    eta: float
    n_steps: int
    nu: int
    phis: tuple[float, ...]
    mu_phi_mp: tuple[float, ...]
    sigma_phi_mp: tuple[float, ...]
    mu_l_ci: tuple[float, ...]
    sigma_l_ci: tuple[float, ...]
    mean_mu_l_ci: float
    baseline_ratio: float | None = None


def trial_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent random stream for given nonnegative integer keys under a master seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


def _alpha_key(alpha: float) -> int:
    """Stream key of an alpha value: its float64 bit pattern, with -0.0 folded into 0.0."""
    return int(np.float64(alpha + 0.0).view(np.uint64))


def sample_outcomes(
    profile: np.ndarray, nu: int, n_draws: int, stream: np.random.Generator
) -> np.ndarray:
    """n_draws independent count records of nu outcomes each, weighted by the
    profile; shape (n_draws, 4)."""
    p = np.clip(np.asarray(profile, dtype=float), 0.0, None)
    return stream.multinomial(nu, p / p.sum(), size=n_draws)


@lru_cache(maxsize=64)
def grid_tables(alpha: float, noise: NoiseModel, domain: tuple[float, float], grid_size: int):
    """Posterior grid nodes over domain = (lo, hi), the log probabilities of
    each class of equal outcomes, shape (grid_size, K), and the (4, K) 0/1
    merge map that sends a 4-count record to its sufficient record.

    Outcomes whose probabilities agree within PROFILE_MATCH at every node
    form one class, whose column is the log probability of its first
    outcome; the classes are ordered by their first outcome.

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
    profiles = profile_grid(alpha, nodes, noise)
    gap = np.abs(profiles[:, :, None] - profiles[:, None, :]).max(axis=0)
    firsts: list[int] = []  # the first outcome of each class
    merge = np.zeros((4, 4), dtype=np.int64)
    for outcome in range(4):
        matches = [c for c, first in enumerate(firsts) if gap[outcome, first] <= PROFILE_MATCH]
        if not matches:
            firsts.append(outcome)
        merge[outcome, matches[0] if matches else len(firsts) - 1] = 1
    merge = merge[:, : len(firsts)]
    with np.errstate(divide="ignore"):
        log_profiles = np.log(profiles[:, firsts])
    # the cache hands these same arrays to every caller
    for table in (nodes, log_profiles, merge):
        table.setflags(write=False)
    return nodes, log_profiles, merge


def sufficient_records(counts, merge: np.ndarray) -> np.ndarray:
    """One 4-count record, or rows of them, summed over each class of a
    grid_tables merge map: the counts a posterior on that table takes."""
    return check_counts(counts, len(merge)) @ merge


def _estimate_from_counts(nodes, log_profiles, counts, y, tau) -> tuple[np.ndarray, np.ndarray]:
    """Most probable angles and shortest-interval lengths for a block of count records."""
    grid = posterior_from_log_profiles(nodes, log_profiles, counts)
    return most_probable(grid), min_confidence_interval(grid, y, tau).length


def _angle_columns(values: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Mean and sample standard deviation of each row of an (n_phi, n_e) array
    of one estimate: one row per true angle, one column per trial."""
    return tuple(values.mean(axis=1).tolist()), tuple(values.std(axis=1, ddof=1).tolist())


def sweep_angles(domain: tuple[float, float], n_phi: int) -> np.ndarray:
    """True angles evenly spaced over the domain, lower endpoint in, upper out."""
    return np.linspace(domain[0], domain[1], n_phi, endpoint=False)


def _distinct_records(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (n, K) array of records of nu outcomes each, in
    lexicographic order, and the index of each row among them. A record is
    fixed by its first K - 1 counts, so only those are compared (the one count
    when K is 1); a lexsort needs no bound on nu, unlike a packed integer key,
    and is ~7x faster than np.unique(axis=0)."""
    keys = counts[:, : max(counts.shape[1] - 1, 1)]
    order = np.lexsort(keys[:, ::-1].T)
    ranked = keys[order]
    new = np.ones(len(counts), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(counts), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return counts[order[new]], inverse


def _run_cell(args) -> SweepRow:
    (alpha, noise, nu, phis, n_e, seed, domain, grid_size, y, tau) = args
    nodes, log_profiles, merge = grid_tables(alpha, noise, domain, grid_size)
    stream = trial_stream(seed, _alpha_key(alpha), nu)
    counts = np.stack(
        [sample_outcomes(measurement_probabilities(alpha, phi, noise), nu, n_e, stream) for phi in phis]
    )
    # identical sufficient records yield identical estimates, at any angle:
    # solve each distinct one of the cell once
    records, inverse = _distinct_records(sufficient_records(counts.reshape(-1, 4), merge))
    # solve them in blocks of 32768 grid values (32 rows of a 1024-node
    # grid): a block's density and cumulative tables take 512 KiB
    block = max(1, 32768 // grid_size)
    estimates = np.empty((2, len(records)))
    for start in range(0, len(records), block):
        rows = slice(start, start + block)
        estimates[:, rows] = _estimate_from_counts(nodes, log_profiles, records[rows], y, tau)
    phi_mp, l_ci = estimates[:, inverse].reshape(2, len(phis), n_e)
    # reduce each 2-D array on its own: a reduction over the stacked 3-D
    # array sums in another order and changes the last bits
    mu_phi_mp, sigma_phi_mp = _angle_columns(phi_mp)
    mu_l_ci, sigma_l_ci = _angle_columns(l_ci)
    return SweepRow(
        alpha, noise.eta, noise.n_steps, nu, tuple(phis.tolist()),
        mu_phi_mp, sigma_phi_mp, mu_l_ci, sigma_l_ci, float(np.mean(mu_l_ci)),
    )


def check_sweep(alphas, noise, nus, n_phi, n_e, seed, domain, grid_size, y, tau) -> None:
    """Reject any out-of-range sweep setting. Builds each alpha's grid table, which
    checks alpha, domain and grid size; cells and forked workers share the cache."""
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, {MAX_SEED}], got {seed}")
    if n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {n_phi}")
    if n_e < 2:
        raise ValueError(f"n_e must be >= 2, got {n_e}")
    for name, values in (("alphas", alphas), ("nus", nus)):
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must be distinct, got {list(values)}")
    for nu in nus:
        if nu < 0:
            raise ValueError(f"nus must be nonnegative, got {nu}")
    check_interval_target(y, tau)
    for alpha in alphas:
        grid_tables(alpha, noise, domain, grid_size)


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
) -> dict[tuple[float, int], SweepRow]:
    """Run n_e trials at each of n_phi true angles for every (alpha, nu) cell;
    the rows keyed by (alpha, nu), in sweep order. Every setting is checked
    before the first cell runs; no more workers than cells run."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_sweep(alphas, noise, nus, n_phi, n_e, seed, domain, grid_size, y, tau)
    phis = sweep_angles(domain, n_phi)
    tasks = [
        (alpha, noise, int(nu), phis, n_e, seed, domain, grid_size, y, tau)
        for alpha in alphas
        for nu in nus
    ]
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_cell, tasks))
    else:
        rows = [_run_cell(t) for t in tasks]
    return {(row.alpha, row.nu): row for row in rows}


def relative_uncertainty(rows: dict[tuple[float, int], SweepRow]) -> dict[tuple[float, int], SweepRow]:
    """The rows with their ratios against the baseline probe at the same nu."""
    ratios = {}
    for key, row in rows.items():
        base = rows.get((BASELINE_ALPHA, row.nu))
        if base is None:
            raise ValueError(f"baseline alpha {BASELINE_ALPHA} missing nu={row.nu}")
        ratios[key] = replace(row, baseline_ratio=row.mean_mu_l_ci / base.mean_mu_l_ci)
    return ratios


def asymptotic_relative_bound(n_qubits: int) -> float:
    """Asymptotic entangled-over-separable uncertainty ratio, 1/sqrt(n_qubits)."""
    if n_qubits < 1:
        raise ValueError(f"n_qubits must be >= 1, got {n_qubits}")
    return 1.0 / math.sqrt(n_qubits)
