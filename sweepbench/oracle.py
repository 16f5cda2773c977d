"""Exact expectation of the sweep estimator, and the check of sweep CSVs against it.

In a (alpha, nu, phi) cell an estimate depends only on the count record.
So E[l_ci] and Var[l_ci] are the weighted mean and variance of l_ci over
every record, weighted by the record's probability at phi. Each record is
scored with the program's own `profile_grid`, `posterior_from_log_profiles`
and `min_confidence_interval`, so a correct sweep's mean rows differ from
these values by Monte Carlo error only.

For nu <= 10 all C(nu+3, 3) records are enumerated and weighted by the
multinomial pmf. For large nu that is too many; the two probes of the
large-nu workload, alpha = 0 and alpha = 1/2 without noise, have
likelihoods that depend on the record through one binomial count, so one
representative record per count is scored instead.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np
from qmetro import bayes, quantum

from workloads import Workload

ENUMERATION_LIMIT = 5000  # most records per nu scored by full enumeration
# A correct run fails the check with at most this probability, summed over
# every row and ratio it checks (Bonferroni).
FALSE_ALARM = 1e-4
# The fixed 1024-node grid moves the large-nu Bell/separable ratio off
# 1/sqrt(2) by up to 0.3% (nu = 1000); 1% still rejects a wrong probe.
ASYMPTOTE_TOL = 0.01
CSV_COLUMNS = ("alpha", "nu", "phi_true", "mu_l_ci", "baseline_ratio")
# CSV numbers carry 12 significant digits, and a mean of identical
# estimates may still differ from the exact value in the last bits
ALPHA_MATCH = 1e-9
PRECISION = 1e-9


@dataclass(frozen=True)
class RowExpectation:
    """Expected mean-row mu_l_ci, and n_e times the variance of that row."""

    mean: float
    var_per_trial: float

    def sem(self, n_e: int) -> float:
        return math.sqrt(self.var_per_trial / n_e)


def _compositions(nu: int) -> np.ndarray:
    """All count records (k1, k2, k3, k4) with k1 + k2 + k3 + k4 = nu."""
    return np.array(
        [
            (a, b, c, nu - a - b - c)
            for a in range(nu + 1)
            for b in range(nu + 1 - a)
            for c in range(nu + 1 - a - b)
        ],
        dtype=np.int64,
    )


def _log_factorials(n: int) -> np.ndarray:
    return np.array([math.lgamma(i + 1) for i in range(n + 1)])


def _xlogy(k: np.ndarray, p: np.ndarray) -> np.ndarray:
    """k * log(p) with 0 * log(0) = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(k > 0, k * np.log(p), 0.0)


def _multinomial(nu: int, probs: np.ndarray):
    """Every record and its log pmf at each angle (rows of probs)."""
    records = _compositions(nu)
    log_fact = _log_factorials(nu)
    log_pmf = log_fact[nu] - log_fact[records].sum(axis=1) + _xlogy(
        records[None, :, :], probs[:, None, :]
    ).sum(axis=2)
    return records, log_pmf


def _binomial(alpha: float, nu: int, probs: np.ndarray):
    """One representative record per value of the binomial statistic, and its log pmf.

    alpha = 0: each shot flips Binomial(2, q) qubits, q = sin^2(phi/2), and
    the likelihood depends on the total flips b ~ Binomial(2 nu, q).
    alpha = 1/2: the likelihood depends on m = k_dd + k_uu ~ Binomial(nu, q),
    q = sin^2(phi).
    """
    if alpha == 0.0:
        q = probs[:, 1] + 0.5 * (probs[:, 0] + probs[:, 3])
        model = np.stack([q * (1 - q), q * q, (1 - q) ** 2, q * (1 - q)], axis=1)
        n = 2 * nu
        records = [(b % 2, b // 2, nu - b // 2 - b % 2, 0) for b in range(n + 1)]
    elif alpha == 0.5:
        q = probs[:, 0] + probs[:, 3]
        model = np.stack([q / 2, (1 - q) / 2, (1 - q) / 2, q / 2], axis=1)
        n = nu
        records = [(m, nu - m, 0, 0) for m in range(n + 1)]
    else:
        raise ValueError(f"no binomial reduction for alpha={alpha}")
    if not np.allclose(probs, model, rtol=0.0, atol=1e-12):
        raise ValueError(f"outcome probabilities of alpha={alpha} do not reduce to a binomial")
    log_fact = _log_factorials(n)
    counts = np.arange(n + 1)
    log_pmf = (
        log_fact[n]
        - log_fact[counts]
        - log_fact[n - counts]
        + _xlogy(counts[None, :], q[:, None])
        + _xlogy(n - counts[None, :], 1 - q[:, None])
    )
    return np.array(records, dtype=np.int64), log_pmf


def _ci_lengths(nodes, log_profiles, records, y, tau) -> np.ndarray:
    lengths = np.empty(len(records))
    for i, record in enumerate(records):
        grid = bayes.posterior_from_log_profiles(nodes, log_profiles, record)
        lengths[i] = bayes.min_confidence_interval(grid, y, tau).length
    return lengths


def expected_rows(w: Workload) -> dict[tuple[float, int], RowExpectation]:
    """Exact expectation of every mean row of the workload's sweep CSV."""
    lo, hi = w.domain
    nodes = np.linspace(lo, hi, w.grid_size)
    phis = np.linspace(lo, hi, w.n_phi, endpoint=False)
    noise = quantum.NoiseModel(w.eta, w.n_steps)
    out = {}
    for alpha in w.alphas:
        with np.errstate(divide="ignore"):
            log_profiles = np.log(quantum.profile_grid(alpha, nodes, noise))
        # the sweep samples from exactly these clipped, renormalised profiles
        probs = np.clip([quantum.measurement_probabilities(alpha, p, noise) for p in phis], 0, None)
        probs /= probs.sum(axis=1, keepdims=True)
        for nu in w.nus:
            if math.comb(nu + 3, 3) <= ENUMERATION_LIMIT:
                records, log_pmf = _multinomial(nu, probs)
            else:
                records, log_pmf = _binomial(alpha, nu, probs)
            pmf = np.exp(log_pmf)
            possible = pmf.max(axis=0) > 0.0  # impossible records have no posterior
            lengths = _ci_lengths(nodes, log_profiles, records[possible], w.y, w.tau)
            pmf = pmf[:, possible]
            means = pmf @ lengths
            variances = np.einsum("pr,pr->p", pmf, (lengths[None, :] - means[:, None]) ** 2)
            out[(alpha, nu)] = RowExpectation(
                mean=float(means.mean()), var_per_trial=float(variances.sum()) / w.n_phi**2
            )
    return out


def tolerance_k(n_tests: int) -> float:
    """Half-width in standard errors for a two-sided test at FALSE_ALARM / n_tests."""
    return NormalDist().inv_cdf(1.0 - FALSE_ALARM / (2 * n_tests))


def n_tests(w: Workload) -> int:
    """How many z-tests one checked sweep makes."""
    return len(w.alphas) * len(w.nus) + (len(w.nus) if w.asymptote_check else 0)


def mean_rows(text: str) -> dict[tuple[float, int], list[tuple[float, float | None]]]:
    """(alpha, nu) -> [(mu_l_ci, baseline_ratio)] for every 'mean' row of a sweep CSV."""
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in CSV_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"CSV lacks columns {missing}")
    rows: dict[tuple[float, int], list] = {}
    for r in reader:
        if r["phi_true"] != "mean":
            continue
        ratio = float(r["baseline_ratio"]) if r["baseline_ratio"] else None
        rows.setdefault((float(r["alpha"]), int(r["nu"])), []).append((float(r["mu_l_ci"]), ratio))
    return rows


def _lookup(rows, alpha, nu):
    for (a, n), found in rows.items():
        if n == nu and abs(a - alpha) <= ALPHA_MATCH:
            return found
    return []


def check_sweep(
    text: str, w: Workload, n_e: int, expected: dict, k: float
) -> list[str]:
    """Reasons why mean rows of the CSV are wrong, one entry per failed row.

    A row fails if it is missing or repeated, is not finite, lies more than
    k standard errors from its exact expectation, or carries a baseline
    ratio that does not match its own mean. The large-nu workload adds:
    mean rows fall strictly with nu, and the alpha=1/2 over alpha=0 ratio
    lies within k standard errors of its exact value, which itself lies
    within ASYMPTOTE_TOL of 1/sqrt(2).
    """
    try:
        rows = mean_rows(text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable CSV: {exc}"] * len(expected)
    failed: dict[tuple[float, int], str] = {}
    mu = {}
    for (alpha, nu), exp in expected.items():
        found = _lookup(rows, alpha, nu)
        if len(found) != 1:
            failed[(alpha, nu)] = f"{len(found)} mean rows"
            continue
        value, ratio = found[0]
        if not math.isfinite(value):
            failed[(alpha, nu)] = f"mu_l_ci={value}"
            continue
        z = (value - exp.mean) / exp.sem(n_e) if exp.var_per_trial > 0 else math.inf
        if abs(value - exp.mean) > k * exp.sem(n_e) + PRECISION * abs(exp.mean):
            failed[(alpha, nu)] = f"mu_l_ci={value:.6g} is {z:+.2f} SEM from exact {exp.mean:.6g}"
            continue
        mu[(alpha, nu)] = (value, ratio)
    if 0.0 in w.alphas:
        for (alpha, nu), (value, ratio) in mu.items():
            base = mu.get((0.0, nu))
            if base is not None and (ratio is None or not math.isclose(ratio, value / base[0], rel_tol=1e-9)):
                failed[(alpha, nu)] = f"baseline_ratio={ratio} but mean ratio is {value / base[0]:.12g}"
    if w.asymptote_check:
        failed.update(_asymptote_failures(mu, w, n_e, expected, k))
    return [f"alpha={a:.6g} nu={nu}: {why}" for (a, nu), why in sorted(failed.items())]


def _asymptote_failures(mu, w: Workload, n_e: int, expected, k) -> dict:
    failed = {}
    for alpha in w.alphas:
        nus = sorted(w.nus)
        for prev, nu in zip(nus, nus[1:]):
            if (alpha, prev) in mu and (alpha, nu) in mu and not mu[(alpha, nu)][0] < mu[(alpha, prev)][0]:
                failed[(alpha, nu)] = f"mu_l_ci does not fall from nu={prev}"
    for nu in w.nus:
        if (0.5, nu) not in mu or (0.0, nu) not in mu:
            continue
        e0, e5 = expected[(0.0, nu)], expected[(0.5, nu)]
        exact = e5.mean / e0.mean
        sem = exact * math.hypot(e0.sem(n_e) / e0.mean, e5.sem(n_e) / e5.mean)
        ratio = mu[(0.5, nu)][0] / mu[(0.0, nu)][0]
        if abs(exact * math.sqrt(2) - 1) > ASYMPTOTE_TOL:
            failed[(0.5, nu)] = f"exact ratio {exact:.6g} is not within {ASYMPTOTE_TOL:.0%} of 1/sqrt(2)"
        elif abs(ratio - exact) > k * sem:
            failed[(0.5, nu)] = f"ratio {ratio:.6g} is {(ratio - exact) / sem:+.2f} SEM from exact {exact:.6g}"
    return failed
