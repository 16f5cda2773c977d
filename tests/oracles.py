"""Literal reference implementations the tests check the library against.

Each oracle spells out one textbook formula with no batching or masking, so
a disagreement points at the optimized path in `qmetro`.
"""

import itertools
import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import betainc

from qmetro.bayes import check_counts, min_confidence_interval, most_probable, posterior_from_log_profiles
from qmetro.config import DEFAULT_DOMAIN
from qmetro.ensemble import (
    SweepRow,
    _alpha_key,
    grid_tables,
    sufficient_records,
    sweep_angles,
    trial_stream,
)
from qmetro.quantum import _dephase_mask, _rotation_batch, measurement_probabilities
from qmetro.report import CSV_HEADER, MEAN_TOKEN, ResultRow


def single_qubit_rotation(phi):
    """Real 2x2 rotation [[cos(phi/2), sin(phi/2)], [-sin(phi/2), cos(phi/2)]]."""
    if not np.isfinite(phi):
        raise ValueError(f"phi must be finite, got {phi}")
    c, s = np.cos(phi / 2.0), np.sin(phi / 2.0)
    return np.array([[c, s], [-s, c]])


def rotation_unitary(phi):
    """Two-qubit rotation R(phi) (x) R(phi), acting independently on each qubit."""
    r = single_qubit_rotation(phi)
    return np.kron(r, r).astype(complex)


def evolve_pure(state, phi):
    """Apply the two-qubit rotation to a pure state."""
    return rotation_unitary(phi) @ np.asarray(state, dtype=complex)


def dephasing_kraus(eta):
    """Single-qubit dephasing Kraus pair (K0, K1) for strength eta."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    root = np.sqrt(eta)
    k0 = np.sqrt((1.0 + root) / 2.0) * np.eye(2)
    k1 = np.sqrt((1.0 - root) / 2.0) * np.diag([1.0, -1.0])
    return k0, k1


def dephase_two_qubit(rho, eta):
    """The library's masked two-qubit dephasing step applied to one density matrix.

    Equals sum_{j,l} (K_j (x) K_l) rho (K_j (x) K_l)^dagger; the diagonal is
    preserved exactly and each off-diagonal entry is scaled by sqrt(eta) per
    qubit on which the row and column basis labels differ.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    return np.asarray(rho, dtype=complex) * _dephase_mask(eta)


def kraus_sum_dephase(rho, eta):
    """Literal 4-term two-qubit Kraus sum, used as the oracle for the masked path."""
    k0, k1 = dephasing_kraus(eta)
    out = np.zeros((4, 4), dtype=complex)
    for kj, kl in itertools.product((k0, k1), repeat=2):
        op = np.kron(kj, kl)
        out += op @ rho @ op.conj().T
    return out


def kraus_sequence_oracle(rho, phi, eta, n):
    """Expand all 4**n dephase-then-rotate Kraus sequences explicitly."""
    k0, k1 = dephasing_kraus(eta)
    u = rotation_unitary(phi / n)
    lams = [u @ np.kron(kj, kl) for kj, kl in itertools.product((k0, k1), repeat=2)]
    out = np.zeros((4, 4), dtype=complex)
    for seq in itertools.product(lams, repeat=n):
        op = np.eye(4, dtype=complex)
        for lam in seq:
            op = lam @ op
        out += op @ rho @ op.conj().T
    return out


def complex_profile_grid(alpha, phis, noise):
    """profile_grid's steps, in their order, evaluated in complex128: a complex
    probe, |psi><psi| as np.outer(psi, conj(psi)), the channel on a complex
    matrix, and probabilities as np.abs(amplitude)**2 or the diagonal's real
    part. Every imaginary part is 0, so the real model must match it bit for bit."""
    psi = np.array([0.0, np.sqrt(alpha), np.sqrt(1.0 - alpha), 0.0], dtype=complex)
    phis = np.atleast_1d(np.asarray(phis, dtype=float))
    if noise.eta == 1.0:
        return np.abs(_rotation_batch(phis) @ psi) ** 2
    rho = np.broadcast_to(np.outer(psi, psi.conj()), (len(phis), 4, 4)).copy()
    u = _rotation_batch(phis / noise.n_steps)
    for _ in range(noise.n_steps):
        rho = u @ (rho * _dephase_mask(noise.eta)) @ u.transpose(0, 2, 1)
    return np.diagonal(rho, axis1=1, axis2=2).real


def log_multinomial_coeff(counts):
    """log[nu! / (k1! k2! k3! k4!)] with nu = sum of counts."""
    k = check_counts(counts, 4)
    return math.lgamma(int(k.sum()) + 1) - sum(math.lgamma(int(ki) + 1) for ki in k)


def count_records(nu):
    """Every 4-count record of nu outcomes, in lexicographic order of (k_dd, k_du, k_ud)."""
    return [
        (a, b, c, nu - a - b - c)
        for a in range(nu + 1)
        for b in range(nu + 1 - a)
        for c in range(nu + 1 - a - b)
    ]


def record_pmf(probs, counts):
    """Multinomial probability of a 4-count record under probs, computed in
    log space as exp(log coefficient + sum of k log p) over the nonzero
    counts; 0 if a nonzero count has probability 0. Unlike likelihood's
    product of powers, it underflows to 0 where the sweep's log-space pmf
    does, and a draw over a category of probability 0 takes no random number
    where one of 1e-300 would."""
    k = check_counts(counts, 4)
    if any(ki > 0 and pi == 0.0 for ki, pi in zip(k, probs)):
        return 0.0
    log_pmf = log_multinomial_coeff(k) + sum(int(ki) * math.log(pi) for ki, pi in zip(k, probs) if ki > 0)
    return math.exp(log_pmf)


def likelihood(profile_at, counts, phi):
    """Unnormalized multinomial likelihood of the counts at angle phi, with 0**0 = 1."""
    k = check_counts(counts, 4)
    probs = np.asarray(profile_at(phi), dtype=float)
    value = math.exp(log_multinomial_coeff(k))
    for ki, pi in zip(k, probs):
        if ki > 0:
            value *= pi ** int(ki)
    return value


def interval_probability(grid, a, b):
    """Posterior mass of [a, b] for a single-record grid: the exact integral of
    the piecewise-linear density, summed cell by cell over the overlap."""
    if a > b:
        raise ValueError(f"interval endpoints out of order: a={a} > b={b}")
    x, d = grid.nodes, grid.density
    mass = 0.0
    for k in range(len(x) - 1):
        u, v = max(a, x[k]), min(b, x[k + 1])
        if u < v:
            slope = (d[k + 1] - d[k]) / (x[k + 1] - x[k])
            mass += 0.5 * (2 * d[k] + slope * (u - x[k] + v - x[k])) * (v - u)
    return float(mass)


def posterior_loop(nodes, log_profiles, counts):
    """One record's normalised density and cumulative table: log likelihood as
    the column-ordered sum over the nonzero counts (each product and each sum
    rounded once), trapezoid segments, running sum."""
    k = np.asarray(counts)
    log_post = sum((log_profiles[:, c] * float(k[c]) for c in np.flatnonzero(k)), np.zeros(len(nodes)))
    density = np.exp(log_post - np.max(log_post))
    segment_mass = 0.5 * (density[1:] + density[:-1]) * np.diff(nodes)
    cumulative = np.concatenate(([0.0], np.cumsum(segment_mass)))
    return density / cumulative[-1], cumulative / cumulative[-1]


def min_confidence_interval_loop(nodes, density, cumulative, y, tau):
    """One record's shortest interval (a, b, mass) with a node at one end, by
    brute force: from every start node the right end, and from every end node
    the left end, bisected one scalar step at a time until the interval holds
    y to within tau. A candidate is skipped only when the nodes it must span
    already make it longer than the best so far."""

    def cumulative_at(x):
        if x <= nodes[0]:
            return 0.0
        if x >= nodes[-1]:
            return float(cumulative[-1])
        c = int(np.searchsorted(nodes, x, side="right")) - 1
        t = x - nodes[c]
        d_at_x = density[c] + (density[c + 1] - density[c]) * t / (nodes[c + 1] - nodes[c])
        return float(cumulative[c] + 0.5 * (density[c] + d_at_x) * t)

    candidates = []  # (least length, anchored node, moving end's node inside and outside)
    for s in range(len(nodes) - 1):
        # the right end of [s, .] lies in the cell before the first node that holds y
        reach = np.flatnonzero(cumulative[s + 1 :] - cumulative[s] >= y)
        if reach.size:
            e = s + 1 + int(reach[0])
            candidates.append((nodes[e - 1] - nodes[s], nodes[s], nodes[e - 1], nodes[e]))
    for e in range(1, len(nodes)):
        reach = np.flatnonzero(cumulative[e] - cumulative[:e] >= y)
        if reach.size:
            s = int(reach[-1])
            candidates.append((nodes[e] - nodes[s + 1], nodes[e], nodes[s + 1], nodes[s]))
    best = (-np.inf, np.inf, np.nan)
    for least, anchor, inside, outside in sorted(candidates, key=lambda candidate: candidate[0]):
        if least > best[1] - best[0]:
            break
        # [anchor, end] holds less than y with its end inside, at least y outside
        for _ in range(200):
            end = 0.5 * (inside + outside)
            mass = abs(cumulative_at(end) - cumulative_at(anchor))
            if abs(mass - y) <= tau:
                break
            inside, outside = (end, outside) if mass < y else (inside, end)
        else:
            raise AssertionError(f"no end within {tau} of {y} from the node at {anchor}")
        if abs(end - anchor) < best[1] - best[0]:
            best = (min(anchor, end), max(anchor, end), mass)
    return tuple(float(v) for v in best)


def binomial_interval(alpha, record, y):
    """The shortest interval (a, b) that holds mass y of the exact posterior of
    a noiseless binomial probe (alpha in {0, 1/2, 1}) on DEFAULT_DOMAIN
    [0, pi/2] under the uniform prior, with no grid.

    record is the probe's two-class sufficient record. Class 0 of the Bell
    probe (dd, uu) has probability t = sin^2 phi; a separable probe flips each
    qubit with probability t = sin^2(phi/2), class 0 for alpha = 0 and class 1
    for alpha = 1. With k of the record's n counts at probability t, the
    density of phi is proportional to t^k (1 - t)^(n - k), and the uniform
    prior on phi makes t's posterior Beta(k + 1/2, n - k + 1/2), truncated to
    t <= 1/2 for a separable probe. A phi interval's mass is thus a difference
    of regularised incomplete beta functions at its ends: of the lower tails
    below the median, of the upper tails above it, each taken from sin^2 or
    cos^2 so that neither tail is a difference from 1.

    The density is unimodal in phi, so the shortest interval is a level set:
    both ends at the same density, or one on the domain's edge. Root-finding
    gives each end at a density level, and the level at which the ends hold y.
    Raises if the posterior mass on the domain underflows, which only a
    separable record far above half flipped reaches (90% at nu = 1000).
    """
    k, rest = record[::-1] if alpha == 1.0 else record
    n = k + rest
    if alpha not in (0.0, 0.5, 1.0) or n < 1 or not 0.0 < y < 1.0:
        raise ValueError(f"need alpha in {{0, 0.5, 1}}, n >= 1 and y in (0, 1), got {alpha}, {record}, {y}")
    scale = 1.0 if alpha == 0.5 else 0.5  # t = sin^2(scale * phi)
    lo, hi = DEFAULT_DOMAIN

    def log_density(phi):
        """log(t^k (1 - t)^(n - k)), with 0 log 0 = 0."""
        return sum(
            2 * count * (math.log(x) if x else -math.inf)
            for count, x in ((k, math.sin(scale * phi)), (rest, math.cos(scale * phi)))
            if count
        )

    def lower(phi):
        return betainc(k + 0.5, rest + 0.5, math.sin(scale * phi) ** 2)

    def upper(phi):
        return betainc(rest + 0.5, k + 0.5, math.cos(scale * phi) ** 2)

    def mass(a, b):
        return upper(a) - upper(b) if lower(a) > 0.5 else lower(b) - lower(a)

    total = mass(lo, hi)
    if total < np.finfo(float).tiny:
        raise ValueError(f"the posterior mass of {record} on the domain underflows: {total}")
    mode = min(math.asin(math.sqrt(k / n)) / scale, hi)
    peak = log_density(mode)
    tight = 4 * np.finfo(float).eps

    def ends(level):
        """The interval where the density is at least level times its peak."""

        def excess(phi):
            return math.exp(log_density(phi) - peak) - level

        a = lo if excess(lo) >= 0.0 else brentq(excess, lo, mode, xtol=1e-300, rtol=tight)
        b = hi if excess(hi) >= 0.0 else brentq(excess, mode, hi, xtol=1e-300, rtol=tight)
        return a, b

    return ends(brentq(lambda level: mass(*ends(level)) / total - y, 0.0, 1.0, xtol=1e-300, rtol=tight))


def exact_mean_l_ci(alpha, noise, nu, phis, domain, grid_size, y, tau):
    """Exact expectation of a sweep row's mean_mu_l_ci, and n_e times its variance.

    Enumerates every count record of nu outcomes, weights it by its
    4-outcome multinomial probability at each true angle under the
    renormalised profile the sweep samples from, and scores its sufficient
    record with the program's posterior and shortest-interval search.
    """

    def sampled_profile(phi):
        p = measurement_probabilities(alpha, phi, noise)
        return p / p.sum()

    nodes, log_profiles, merge = grid_tables(alpha, noise, domain, grid_size)
    records = count_records(nu)
    weights = [[likelihood(sampled_profile, r, phi) for r in records] for phi in phis]
    # an impossible record has no posterior, and weight 0 at every angle
    lengths = [
        min_confidence_interval(
            posterior_from_log_profiles(nodes, log_profiles, sufficient_records(r, merge)), y, tau
        ).length
        if any(w[i] > 0.0 for w in weights)
        else 0.0
        for i, r in enumerate(records)
    ]
    mean = var = 0.0
    for w in weights:
        e = sum(wi * li for wi, li in zip(w, lengths))
        mean += e / len(phis)
        var += sum(wi * (li - e) ** 2 for wi, li in zip(w, lengths)) / len(phis) ** 2
    return mean, var


def sweep_row_loop(cfg, alpha, nu):
    """One sweep cell's SweepRow rebuilt angle by angle from its own stream, as
    the seed contract states, then np.mean and np.std(ddof=1) over each
    angle's 1-D array of n_e estimates, each record's sufficient record solved
    alone.

    A cell with at most 4 n_e records of nu outcomes draws each angle's
    histogram of n_e trials over every record (count_records), weighted by
    its pmf (record_pmf) under the angle's renormalised probabilities; each
    drawn record then stands for as many trials as its histogram count.
    Otherwise each angle draws n_e records of nu outcomes.
    """
    noise = cfg.noise
    nodes, log_profiles, merge = grid_tables(alpha, noise, cfg.domain, cfg.grid_size)
    stream = trial_stream(cfg.seed, _alpha_key(alpha), nu)
    phis = sweep_angles(cfg)
    table = count_records(nu)
    per_angle = []  # (mu_phi_mp, sigma_phi_mp, mu_l_ci, sigma_l_ci) of each angle
    for phi in phis:
        probs = measurement_probabilities(alpha, phi, noise)
        probs = probs / probs.sum()
        if len(table) <= 4 * cfg.n_e:
            pmf = np.array([record_pmf(probs, r) for r in table])
            histogram = stream.multinomial(cfg.n_e, pmf / pmf.sum())
            records = [r for r, count in zip(table, histogram) for _ in range(count)]
        else:
            records = stream.multinomial(nu, probs, size=cfg.n_e)
        grids = [posterior_from_log_profiles(nodes, log_profiles, sufficient_records(k, merge)) for k in records]
        phi_mp = np.array([most_probable(g) for g in grids])
        l_ci = np.array([min_confidence_interval(g, cfg.y, cfg.tau).length for g in grids])
        per_angle.append(
            (
                float(np.mean(phi_mp)),
                float(np.std(phi_mp, ddof=1)),
                float(np.mean(l_ci)),
                float(np.std(l_ci, ddof=1)),
            )
        )
    columns = tuple(zip(*per_angle))
    phis = tuple(float(p) for p in phis)
    return SweepRow(alpha, noise.eta, noise.n_steps, nu, phis, *columns, float(np.mean(columns[2])))


def _optional_float(text):
    return float(text) if text else None


def _phi_float(text):
    return None if text == MEAN_TOKEN else float(text)


# the parser of each ResultRow field, the inverse of report._text
CSV_PARSERS = (
    float, float, int, int, _phi_float, _optional_float, _optional_float, float, _optional_float, _optional_float,
)


def parse_csv(text):
    """The ResultRows of a sweep CSV, as report.render_csv wrote them."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for line in lines[1:]:
        f = line.split(",")
        if len(f) != len(CSV_PARSERS):
            raise ValueError(f"malformed CSV row: {line!r}")
        rows.append(ResultRow(*(parse(x) for parse, x in zip(CSV_PARSERS, f))))
    return rows


def assert_csvs_close(text, other, rel):
    """Assert that two sweep CSVs hold the same rows: each float of `other`
    within rel of the first's, relative to its own size, or for an SD to its
    row's mean (an SD can be a difference of values that agree to their last
    digits); every other field equal."""
    for row, moved in zip(parse_csv(text), parse_csv(other), strict=True):
        for field, value in row._asdict().items():
            got = getattr(moved, field)
            if isinstance(value, float) and isinstance(got, float):
                scale = getattr(row, field.replace("sigma", "mu"))
                assert abs(got - value) <= rel * abs(scale), (row, field, got)
            else:
                assert got == value, (row, field, got)
