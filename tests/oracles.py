"""Literal reference implementations the tests check the library against.

Each oracle spells out one textbook formula with no batching or masking, so
a disagreement points at the optimized path in `qmetro`.
"""

import itertools
import math

import numpy as np

from qmetro.bayes import check_counts, min_confidence_interval, most_probable, posterior_from_log_profiles
from qmetro.ensemble import (
    SweepRow,
    _alpha_key,
    grid_tables,
    sample_outcomes,
    sufficient_records,
    sweep_angles,
    trial_stream,
)
from qmetro.quantum import _dephase_mask, measurement_probabilities


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


def log_multinomial_coeff(counts):
    """log[nu! / (k1! k2! k3! k4!)] with nu = sum of counts."""
    k = check_counts(counts, 4)
    return math.lgamma(int(k.sum()) + 1) - sum(math.lgamma(int(ki) + 1) for ki in k)


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
    """One record's normalised density and cumulative table: log likelihood over
    the nonzero counts, trapezoid segments, running sum."""
    k = np.asarray(counts)
    sel = k > 0
    log_post = log_profiles[:, sel] @ k[sel].astype(float) if sel.any() else np.zeros(len(nodes))
    density = np.exp(log_post - np.max(log_post))
    segment_mass = 0.5 * (density[1:] + density[:-1]) * np.diff(nodes)
    cumulative = np.concatenate(([0.0], np.cumsum(segment_mass)))
    return density / cumulative[-1], cumulative / cumulative[-1]


def min_confidence_interval_loop(nodes, density, cumulative, y, tau, max_refine=100):
    """One record's shortest interval (a, b, mass): every node-aligned start
    searched, then the lower-density endpoint bisected one scalar step at a time."""

    def cumulative_at(x):
        if x <= nodes[0]:
            return 0.0
        if x >= nodes[-1]:
            return float(cumulative[-1])
        c = int(np.searchsorted(nodes, x, side="right")) - 1
        t = x - nodes[c]
        d_at_x = density[c] + (density[c + 1] - density[c]) * t / (nodes[c + 1] - nodes[c])
        return float(cumulative[c] + 0.5 * (density[c] + d_at_x) * t)

    n = len(nodes)
    right = np.searchsorted(cumulative, cumulative + y, side="left")
    lengths = np.where(right < n, nodes[np.minimum(right, n - 1)] - nodes, np.inf)
    i = int(np.argmin(lengths))
    j = int(right[i])
    best = (float(nodes[i]), float(nodes[j]), float(cumulative[j] - cumulative[i]))
    if abs(best[2] - y) <= tau:
        return best
    a, b = best[:2]
    move_left = density[i] <= density[j] and j > i + 1
    lo, hi = (float(nodes[i]), float(nodes[i + 1])) if move_left else (float(nodes[j - 1]), b)
    for _ in range(max_refine):
        mid = 0.5 * (lo + hi)
        if move_left:
            candidate = (mid, b, cumulative_at(b) - cumulative_at(mid))
        else:
            candidate = (a, mid, cumulative_at(mid) - cumulative_at(a))
        if abs(candidate[2] - y) <= tau:
            return candidate
        if abs(candidate[2] - y) < abs(best[2] - y):
            best = candidate
        if (candidate[2] > y) == move_left:
            lo = mid
        else:
            hi = mid
    raise AssertionError(f"no convergence in {max_refine} bisections, best {best}")


def exact_mean_l_ci(alpha, noise, nu, phis, domain, grid_size, y, tau):
    """Exact expectation of a sweep row's mean_mu_l_ci, and n_e times its variance.

    Enumerates every count record of nu outcomes, weights it by its
    4-outcome multinomial probability at each true angle under the clipped,
    renormalised profile the sweep samples from, and scores its sufficient
    record with the program's posterior and shortest-interval search.
    """

    def sampled_profile(phi):
        p = np.clip(measurement_probabilities(alpha, phi, noise), 0.0, None)
        return p / p.sum()

    nodes, log_profiles, merge = grid_tables(alpha, noise, domain, grid_size)
    records = [
        (a, b, c, nu - a - b - c)
        for a in range(nu + 1)
        for b in range(nu + 1 - a)
        for c in range(nu + 1 - a - b)
    ]
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


def sweep_row_loop(alpha, noise, nu, n_phi, n_e, seed, domain, grid_size, y, tau):
    """One sweep cell's SweepRow rebuilt angle by angle: the cell's draws from
    its own stream, each record's sufficient record solved alone, then np.mean
    and np.std(ddof=1) over each angle's 1-D arrays of estimates."""
    nodes, log_profiles, merge = grid_tables(alpha, noise, domain, grid_size)
    stream = trial_stream(seed, _alpha_key(alpha), nu)
    phis = sweep_angles(domain, n_phi)
    per_angle = []  # (mu_phi_mp, sigma_phi_mp, mu_l_ci, sigma_l_ci) of each angle
    for phi in phis:
        records = sample_outcomes(measurement_probabilities(alpha, phi, noise), nu, n_e, stream)
        grids = [posterior_from_log_profiles(nodes, log_profiles, sufficient_records(k, merge)) for k in records]
        phi_mp = np.array([most_probable(g) for g in grids])
        l_ci = np.array([min_confidence_interval(g, y, tau).length for g in grids])
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
