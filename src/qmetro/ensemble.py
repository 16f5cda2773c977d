"""Monte Carlo ensembles: seeded outcome sampling, per-record estimates, and sweeps.

Seed contract (v2): each (alpha, nu) sweep cell draws from one random
stream, derived from the master seed, the bit pattern of the alpha value and
the value of nu. The cell evaluates the channel once, on all of its angles in
ascending order; each angle's row of the channel's table is bit-identical to
that angle evaluated alone. It then makes one multinomial call, angle by
angle in that order, in one of two ways:

- A cell whose table of 4-count records is small, C(nu + 3, 3) <= 4 n_e,
  draws each angle's histogram: n_e trials over its C(nu + 3, 3) records, in
  lexicographic order of (k_dd, k_du, k_ud), weighted by each record's
  multinomial pmf under the angle's renormalised row. The pmf table then
  holds no more numbers than the per-trial draws would.
- A larger cell draws n_e records of nu outcomes per angle, weighted by the
  angle's renormalised row.

A cell's row therefore depends only on the seed, its own alpha and nu, and
the settings every cell shares (noise, angles, n_e, grid, y, tau): it is
bit-identical regardless of execution order, worker count, or which other
alphas and nus share the sweep.

Sufficient records: outcomes whose probabilities are equal at every grid
node enter the likelihood only through the sum of their counts. grid_tables
groups the four outcomes (dd, du, ud, uu) into K classes of equal
probability profiles and keeps one log column per class; the sufficient
record of a 4-count record is its counts summed per class. dd and uu always
share a class: SWAP.(iY x iY) commutes with R(phi) x R(phi) and with equal
dephasing on both qubits, maps the probe to minus itself and |dd> to |uu>.
For the Bell probe (alpha = 1/2) SWAP alone fixes the probe, so du and ud
share one too, and a record reduces to one binomial count.

A product probe's outcomes are pairs of independent qubit outcomes, each
outcome's probability the product of its qubits' marginals. grid_tables
first classes the four marginal columns (q1=d, q1=u, q2=d, q2=u) instead of
the outcome columns, and keeps that table if it scores every outcome's
probability within PROFILE_MATCH; each outcome then counts once for each of
its two qubits, so a record of nu outcomes becomes one of 2 nu qubit
outcomes. For the separable probes (alpha = 0 and 1) both qubits flip from
their start state with the same probability, so the classes are "flipped"
and "unflipped" and a record reduces to one binomial count out of 2 nu.
Entangled probes do not factor.
Both rules read the table only: a probe or channel without the symmetry or
the product form merges nothing.

An estimate depends only on the sufficient record, not on the true angle or
the trial, so each cell solves the posterior once per distinct sufficient
record among all of its draws (for a histogram cell, among the records drawn
at some angle). The draws themselves are over 4-count records, merged only
after sampling, so the seed contract does not depend on the table. The
distinct records are solved in blocks of rows, one posterior, most-probable
and shortest-interval call per block, on the block's support; each record's
estimate is bit-identical to that record solved alone, over every node.

Numerics contract (v2): a node's log likelihood is the column-ordered sum of
count times log probability, each product and sum rounded once, with no BLAS
call (v1: one BLAS matvec per block row). The bit identities above hold for
one numpy build and SIMD dispatch level, which round exp and log. A noiseless
sweep's bits held across four OpenBLAS kernels; a noisy one's channel uses BLAS.

A sweep reads every setting from one ExperimentConfig, which each cell
receives whole with its own alpha and nu. It returns one SweepRow per cell,
keyed by (alpha, nu) in sweep order. Its per-angle columns hold each true
angle's mean and standard deviation of the most probable value and of the
shortest-interval length over the n_e trials; mean_mu_l_ci averages the
interval column over the angles. Both kinds of cell reduce one (n_phi, M)
table of trial counts, a histogram cell's over the records drawn at some angle
or ones over a larger cell's trials, with deviations about each angle's most
drawn value: an angle whose trials share one estimate has an SD of exactly 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .bayes import (
    LOG_FLOOR,
    check_counts,
    check_interval_target,
    min_confidence_interval,
    most_probable,
    posterior_from_log_profiles,
)
from .config import ExperimentConfig
from .quantum import NoiseModel, profile_grid

# unused here, but sweepbench/layertrace.py wraps ensemble.measurement_probabilities by name
from .quantum import measurement_probabilities  # noqa: F401

# the separable probe, which relative uncertainties are measured against
BASELINE_ALPHA = 0.0
MAX_SEED = 2**64 - 1
# the largest total of a count record: a product table's map doubles it, and
# twice this still fits int64
MAX_COUNT = 2**62 - 1
# columns whose probabilities differ by at most this at every grid node share
# a class, and a merged qubit table is kept if it scores every outcome within
# this; the symmetric pairs differ by rounding only (<= 3.3e-16 measured), and
# so do the separable probes' outcomes and the products of their marginals
# (<= 1.9e-15)
PROFILE_MATCH = 1e-14
# the (4, 4) 0/1 map from outcomes (dd, du, ud, uu) to the qubit outcomes
# (q1=d, q1=u, q2=d, q2=u) they hold
QUBIT_MAP = np.array([[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]], dtype=np.int64)
# a cell draws record histograms when its 4-count records number at most
# this many per trial: its (n_phi, records) pmf table then holds no more
# numbers than the (n_phi, n_e, 4) per-trial draws
HISTOGRAM_RECORDS_PER_TRIAL = 4
# the largest domain end: sums of squared angles stay far inside the float range
MAX_DOMAIN_END = 1e100
# the fewest floats a cell spans at the largest end: rounded cells agree to ~1e-6
MIN_CELL_FLOATS = 2**20


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
    profiles: np.ndarray, nu: int, n_draws: int, stream: np.random.Generator
) -> np.ndarray:
    """n_draws independent count vectors of nu draws each, over the categories
    of each renormalised row of profiles (a cell's four outcomes, or its
    4-count records): shape (n_draws, C) for one row of C categories,
    (n_phi, n_draws, C) for an (n_phi, C) table, whose rows are drawn in order."""
    p = np.asarray(profiles, dtype=float)
    p = p / p.sum(axis=-1, keepdims=True)
    return stream.multinomial(nu, p[..., None, :], size=p.shape[:-1] + (n_draws,))


@lru_cache(maxsize=64)
def _record_table(nu: int) -> tuple[np.ndarray, np.ndarray]:
    """Every 4-count record of nu outcomes, shape (C(nu + 3, 3), 4), in
    lexicographic order of (k_dd, k_du, k_ud), and the log of each one's
    multinomial coefficient nu! / (k_dd! k_du! k_ud! k_uu!)."""
    # a record is nu outcomes split by 3 bars; bars at b_1 < b_2 < b_3 of the
    # nu + 3 places give k_dd = b_1, k_du = b_2 - b_1 - 1, and so on, and
    # combinations() lists the bars, hence the records, in lexicographic order
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(nu + 3), 3)), dtype=np.int64
    ).reshape(-1, 3)
    records = np.diff(bars, axis=1, prepend=-1, append=nu + 3) - 1
    log_factorial = np.array([math.lgamma(k + 1) for k in range(nu + 1)])
    log_coefficients = log_factorial[nu] - log_factorial[records].sum(axis=1)
    # the cache hands these same arrays to every caller
    for table in (records, log_coefficients):
        table.setflags(write=False)
    return records, log_coefficients


def _record_pmf(profiles: np.ndarray, nu: int) -> np.ndarray:
    """The multinomial pmf of every _record_table(nu) record under each
    renormalised row of an (n_phi, 4) profile table: shape (n_phi, records)."""
    records, log_coefficients = _record_table(nu)
    p = profiles / profiles.sum(axis=1, keepdims=True)
    # log 0 is floored at LOG_FLOOR: a zero count still adds exactly 0, and a
    # record that counts an impossible outcome still has a pmf of exactly 0
    with np.errstate(divide="ignore"):
        log_p = np.maximum(np.log(p), LOG_FLOOR)
    return np.exp(log_coefficients + log_p @ records.T)


def _merged_table(profiles: np.ndarray, to_columns: np.ndarray):
    """The (G, K) log columns and (4, K) merge map that merge the columns
    profiles @ to_columns into classes of columns equal within PROFILE_MATCH
    at every node, ordered by their first column.

    A class's log column is half the log probability of an outcome the map
    sends twice into it, if there is one, else the log of its first column.
    At nu ~ 3000 the halved outcome column keeps the likelihood within a
    third of its rounding bound of the unmerged table's; the log of a summed
    marginal strayed past that bound.
    """
    columns = profiles @ to_columns
    gap = np.abs(columns[:, :, None] - columns[:, None, :]).max(axis=0)
    firsts: list[int] = []  # the first column of each class
    classes = np.zeros((4, 4), dtype=np.int64)
    for column in range(4):
        matches = [c for c, first in enumerate(firsts) if gap[column, first] <= PROFILE_MATCH]
        if not matches:
            firsts.append(column)
        classes[column, matches[0] if matches else len(firsts) - 1] = 1
    merge = to_columns @ classes[:, : len(firsts)]
    with np.errstate(divide="ignore"):
        log_profiles = np.log(columns[:, firsts])
        for c, twice in enumerate((merge == 2).T):
            if twice.any():
                log_profiles[:, c] = 0.5 * np.log(profiles[:, np.argmax(twice)])
    return log_profiles, merge


@lru_cache(maxsize=64)
def grid_tables(alpha: float, noise: NoiseModel, domain: tuple[float, float], grid_size: int):
    """Posterior grid nodes over domain = (lo, hi), the log probabilities of
    each class, shape (grid_size, K), and the (4, K) merge map that sends a
    4-count record to its sufficient record.

    The four qubit marginal columns (q1=d, q1=u, q2=d, q2=u) are merged
    first, with map QUBIT_MAP @ classes, whose entries 0, 1 and 2 make a
    record of nu outcomes one of 2 nu qubit outcomes. That table is kept if
    it scores every outcome's probability within PROFILE_MATCH at every
    node, which needs a product probe. Otherwise the four outcome columns
    are merged, with a 0/1 map.

    The one builder of posterior grids, for sweeps and single posteriors
    alike, and the one check of their nodes, which bayes relies on. Cached so
    the quantum channel is evaluated once per grid node per configuration
    and shared across all trials.
    """
    lo, hi = domain
    # a finite width hi - lo also needs lo and hi finite
    if not (lo < hi and math.isfinite(hi - lo)):
        raise ValueError(f"domain must have a finite width hi - lo and lo < hi, got {domain}")
    end = max(abs(lo), abs(hi))
    if end > MAX_DOMAIN_END:
        raise ValueError(f"domain ends must be at most {MAX_DOMAIN_END:g} in magnitude, got {domain}")
    if grid_size < 3:
        raise ValueError(f"grid_size must be >= 3, got {grid_size}")
    nodes = np.linspace(lo, hi, grid_size)
    # bayes relies on strictly increasing nodes spaced by normal floats
    least = max(np.finfo(float).tiny, MIN_CELL_FLOATS * np.spacing(end))
    if np.diff(nodes).min() < least:
        raise ValueError(f"domain {domain} is too narrow: {grid_size} nodes must be {least:.3g} apart")
    profiles = profile_grid(alpha, nodes, noise)
    log_profiles, merge = _merged_table(profiles, QUBIT_MAP)
    # each outcome's log probability as the table scores it: its map row times
    # the floored log columns, where a column it does not reach adds -0.0
    scored = np.maximum(log_profiles, LOG_FLOOR) @ merge.T
    if np.abs(np.exp(scored) - profiles).max() > PROFILE_MATCH:
        log_profiles, merge = _merged_table(profiles, np.eye(4, dtype=np.int64))
    # the cache hands these same arrays to every caller
    for table in (nodes, log_profiles, merge):
        table.setflags(write=False)
    return nodes, log_profiles, merge


def sufficient_records(counts, merge: np.ndarray) -> np.ndarray:
    """One 4-count record, or rows of them, sent through a grid_tables merge
    map: each outcome's count added to its classes as often as the map says.
    The counts a posterior on that table takes; they total nu, or 2 nu for
    a product table. A record may total at most MAX_COUNT."""
    k = check_counts(counts, len(merge))
    # the largest count bounds every total without summing; only when that
    # bound is too loose are the totals summed, in Python ints, which do not wrap
    if int(k.max()) * len(merge) > MAX_COUNT:
        for row in k.reshape(-1, len(merge)).tolist():
            if sum(row) > MAX_COUNT:
                raise ValueError(f"counts must total at most {MAX_COUNT}, got {row}")
    return k @ merge


def sweep_angles(cfg: ExperimentConfig) -> np.ndarray:
    """The n_phi true angles, evenly spaced over the domain, lower endpoint in, upper out."""
    return np.linspace(cfg.domain[0], cfg.domain[1], cfg.n_phi, endpoint=False)


def _distinct_records(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of an (n, K) array of records of one fixed total each
    (nu, or 2 nu after a product table's map), in lexicographic order, and
    the index of each row among them. A record is fixed by its first K - 1
    counts, so only those are compared (the one count when K is 1); a
    lexsort needs no bound on the total, unlike a packed integer key, and is
    ~7x faster than np.unique(axis=0)."""
    keys = counts[:, : max(counts.shape[1] - 1, 1)]
    order = np.lexsort(keys[:, ::-1].T)
    ranked = keys[order]
    new = np.ones(len(counts), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(counts), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return counts[order[new]], inverse


def _histogram_columns(histograms: np.ndarray, values: np.ndarray) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Mean and sample standard deviation of each row of an (n_phi, M) array of
    trial counts, each angle's count of trials whose estimate took each of the
    M values (one row, or one per angle). The deviations are taken about each
    angle's most drawn value, so trials that share one value have SD 0."""
    n = histograms.sum(axis=1)
    mean = (histograms * values).sum(axis=1) / n
    most = histograms.argmax(axis=1)[:, None]
    deviations = values - np.take_along_axis(np.broadcast_to(values, histograms.shape), most, axis=1)
    shift = (histograms * deviations).sum(axis=1) / n
    var = (histograms * (deviations - shift[:, None]) ** 2).sum(axis=1) / (n - 1)
    return tuple(mean.tolist()), tuple(np.sqrt(var).tolist())


def _estimates(
    cfg: ExperimentConfig, nodes: np.ndarray, log_profiles: np.ndarray, records: np.ndarray
) -> np.ndarray:
    """The most probable value and the shortest-interval length of each row of
    an (N, K) array of distinct sufficient records: shape (2, N)."""
    # solve them in blocks of 32768 grid values (32 rows of a 1024-node
    # grid): a block's log posterior table takes 512 KiB, and its density and
    # cumulative tables, over the block's support, reuse that allocation
    block = max(1, 32768 // cfg.grid_size)
    estimates = np.empty((2, len(records)))
    for start in range(0, len(records), block):
        rows = slice(start, start + block)
        grid = posterior_from_log_profiles(nodes, log_profiles, records[rows])
        estimates[:, rows] = most_probable(grid), min_confidence_interval(grid, cfg.y, cfg.tau).length
        del grid  # free this block's tables before the next block's are built
    return estimates


def _run_cell(task: tuple[ExperimentConfig, float, int]) -> SweepRow:
    cfg, alpha, nu = task
    noise = cfg.noise
    nodes, log_profiles, merge = grid_tables(alpha, noise, cfg.domain, cfg.grid_size)
    stream = trial_stream(cfg.seed, _alpha_key(alpha), nu)
    phis = sweep_angles(cfg)
    profiles = profile_grid(alpha, phis, noise)
    if math.comb(nu + 3, 3) <= HISTOGRAM_RECORDS_PER_TRIAL * cfg.n_e:
        histograms = sample_outcomes(_record_pmf(profiles, nu), cfg.n_e, 1, stream).reshape(len(phis), -1)
        drawn = histograms.any(axis=0)
        histograms = histograms[:, drawn]
        counts = _record_table(nu)[0][drawn]
    else:
        counts = sample_outcomes(profiles, nu, cfg.n_e, stream).reshape(-1, 4)
        histograms = np.ones((len(phis), cfg.n_e), dtype=np.int64)
    # identical sufficient records yield identical estimates, at any angle:
    # solve each distinct one of the cell once
    records, inverse = _distinct_records(sufficient_records(counts, merge))
    inverse = inverse.reshape(-1, histograms.shape[1])
    phi_mp, l_ci = _estimates(cfg, nodes, log_profiles, records)
    mu_phi_mp, sigma_phi_mp = _histogram_columns(histograms, phi_mp[inverse])
    mu_l_ci, sigma_l_ci = _histogram_columns(histograms, l_ci[inverse])
    return SweepRow(
        alpha, noise.eta, noise.n_steps, nu, tuple(phis.tolist()),
        mu_phi_mp, sigma_phi_mp, mu_l_ci, sigma_l_ci, float(np.mean(mu_l_ci)),
    )


def check_sweep(cfg: ExperimentConfig) -> None:
    """Reject any out-of-range sweep setting. Builds each alpha's grid table, which
    checks alpha, domain and grid size; cells and forked workers share the cache."""
    if not 0 <= cfg.seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, {MAX_SEED}], got {cfg.seed}")
    if cfg.n_phi < 1:
        raise ValueError(f"n_phi must be >= 1, got {cfg.n_phi}")
    if cfg.n_e < 2:
        raise ValueError(f"n_e must be >= 2, got {cfg.n_e}")
    for name, values in (("alphas", cfg.alphas), ("nus", cfg.nus)):
        if len(set(values)) < len(values):
            raise ValueError(f"{name} must be distinct, got {list(values)}")
    for nu in cfg.nus:
        if not 0 <= nu <= MAX_COUNT:
            raise ValueError(f"nus must be in [0, {MAX_COUNT}], got {nu}")
    check_interval_target(cfg.y, cfg.tau)
    for alpha in cfg.alphas:
        grid_tables(alpha, cfg.noise, cfg.domain, cfg.grid_size)


def sweep(cfg: ExperimentConfig, workers: int = 1) -> dict[tuple[float, int], SweepRow]:
    """Run n_e trials at each of n_phi true angles for every (alpha, nu) cell;
    the rows keyed by (alpha, nu), in sweep order. Every setting is checked
    before the first cell runs; no more workers than cells run."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    check_sweep(cfg)
    tasks = [(cfg, alpha, int(nu)) for alpha in cfg.alphas for nu in cfg.nus]
    workers = min(workers, len(tasks))
    if workers > 1:
        import concurrent.futures  # only here: a serial sweep never pays for the import

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
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
