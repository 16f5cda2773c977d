"""End-to-end acceptance checks, one test per criterion, each printing a
pass/fail line. Heavy sweeps are shared via module-scoped fixtures; the whole
module runs in a few seconds. Run with `pytest tests/test_acceptance.py -v -s`."""

import itertools
import math
from statistics import NormalDist

import numpy as np
import pytest
from scipy.optimize import brentq

from qmetro.bayes import (
    DEFAULT_GRID_SIZE,
    DEFAULT_TAU,
    DEFAULT_Y,
    min_confidence_interval,
    posterior_from_log_profiles,
)
from qmetro.cli import main
from qmetro.ensemble import DEFAULT_DOMAIN, grid_tables, relative_uncertainty, sufficient_records, sweep
from qmetro.quantum import NOISELESS, NoiseModel, noisy_rotation, probe_state, pure_to_density

from oracles import dephasing_kraus, evolve_pure, exact_mean_l_ci, rotation_unitary

SEED = 42
N_E = 1000  # trials per angle in the noiseless sweeps
ALL_ALPHAS = (0.0, 1 / 6, 1 / 3, 0.5)
# chance that a correct sweep fails the exact-expectation check, over all its rows
FAMILY_WISE_LEVEL = 1e-3
# a mean of identical estimates may still differ from the exact value in the last bits
EXACT_RTOL = 1e-9


def mean_l_ci_sem(row):
    """Standard error of the angle-averaged mean uncertainty of a noiseless sweep row."""
    return math.sqrt(sum(s**2 / N_E for s in row.sigma_l_ci)) / len(row.sigma_l_ci)


def ratio_sem(rel_row, base_row):
    r = rel_row.baseline_ratio
    return r * math.sqrt(
        (mean_l_ci_sem(rel_row) / rel_row.mean_mu_l_ci) ** 2
        + (mean_l_ci_sem(base_row) / base_row.mean_mu_l_ci) ** 2
    )


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def noiseless_rel():
    res = sweep([0.0, 0.5], NoiseModel(1.0, 1), range(1, 11), n_phi=20, n_e=N_E, seed=SEED)
    return relative_uncertainty(res)


@pytest.fixture(scope="module")
def noiseless_four():
    return sweep(ALL_ALPHAS, NoiseModel(1.0, 1), [1, 5, 10], n_phi=20, n_e=N_E, seed=SEED)


@pytest.fixture(scope="module")
def low_noise_rel():
    res = sweep(ALL_ALPHAS, NoiseModel(0.9, 5), range(1, 11), n_phi=10, n_e=500, seed=SEED)
    return relative_uncertainty(res)


@pytest.fixture(scope="module")
def high_noise_rel():
    res = sweep(ALL_ALPHAS, NoiseModel(0.5, 5), range(1, 11), n_phi=10, n_e=500, seed=SEED)
    return relative_uncertainty(res)


def test_criterion_1_noiseless_advantage_nu10(noiseless_rel):
    ratio = noiseless_rel[0.5, 10].baseline_ratio
    report(1, abs(ratio - 0.75) <= 0.05, f"relative uncertainty at nu=10 is {ratio:.4f} (0.75 +- 0.05)")


def test_criterion_2_noiseless_advantage_nu1(noiseless_rel):
    ratio = noiseless_rel[0.5, 1].baseline_ratio
    report(2, abs(ratio - 0.85) <= 0.05, f"relative uncertainty at nu=1 is {ratio:.4f} (0.85 +- 0.05)")


def test_criterion_3_asymptote_direction(noiseless_rel):
    rows5 = [noiseless_rel[0.5, nu] for nu in range(1, 11)]
    rows0 = [noiseless_rel[0.0, nu] for nu in range(1, 11)]
    monotone = True
    for k in range(9):
        slack = math.hypot(ratio_sem(rows5[k], rows0[k]), ratio_sem(rows5[k + 1], rows0[k + 1]))
        if rows5[k + 1].baseline_ratio > rows5[k].baseline_ratio + slack:
            monotone = False
    final = rows5[-1].baseline_ratio
    ok = monotone and 0.70 <= final <= 0.80
    report(3, ok, f"ratios non-increasing within 1 sigma: {monotone}; nu=10 ratio {final:.4f} in [0.70, 0.80]")


def test_criterion_4_entanglement_ordering(noiseless_four):
    ok = True
    details = []
    for nu in (1, 5, 10):
        rows = [noiseless_four[a, nu] for a in ALL_ALPHAS]
        for r_lo, r_hi in itertools.pairwise(rows):
            slack = math.hypot(mean_l_ci_sem(r_lo), mean_l_ci_sem(r_hi))
            if r_lo.mean_mu_l_ci < r_hi.mean_mu_l_ci - slack:
                ok = False
        details.append(
            f"nu={nu}: " + " >= ".join(f"{r.mean_mu_l_ci:.4f}" for r in rows)
        )
    report(4, ok, "uncertainty ordering alpha 0 >= 1/6 >= 1/3 >= 1/2 within 1 sigma; " + "; ".join(details))


def test_criterion_5_low_noise_regime(low_noise_rel):
    ratio = low_noise_rel[0.5, 10].baseline_ratio
    in_band = abs(ratio - 0.88) <= 0.06
    all_below_one = all(
        low_noise_rel[a, nu].baseline_ratio < 1.0
        for a in ALL_ALPHAS[1:]
        for nu in range(1, 11)
    )
    report(
        5,
        in_band and all_below_one,
        f"eta=0.9 ratio at nu=10 is {ratio:.4f} (0.88 +- 0.06); all entangled ratios < 1: {all_below_one}",
    )


def test_criterion_6_high_noise_regime(high_noise_rel):
    ok = True
    averages = {}
    for a in ALL_ALPHAS[1:]:
        ratios = [high_noise_rel[a, nu].baseline_ratio for nu in range(1, 11)]
        if min(ratios) < 0.97 or np.mean(ratios) <= 1.0:
            ok = False
        averages[a] = float(np.mean(ratios))
    report(
        6,
        ok,
        "eta=0.5 ratios all >= 0.97 with per-alpha averages > 1: "
        + ", ".join(f"alpha={a:.3f} avg {v:.4f}" for a, v in averages.items()),
    )


def test_criterion_7_analytic_posterior_oracle():
    nodes, log_profiles, merge = grid_tables(1.0, NOISELESS, (0.0, math.pi), 2048)
    grid = posterior_from_log_profiles(nodes, log_profiles, sufficient_records([0, 1, 0, 0], merge))
    expected = (8 / (3 * math.pi)) * np.cos(grid.nodes / 2) ** 4
    max_dev = float(np.max(np.abs(grid.density - expected)))

    ci = min_confidence_interval(grid, y=0.95, tau=1e-3)
    cdf = lambda b: (3 * b / 8 + np.sin(b) / 2 + np.sin(2 * b) / 16) / (3 * math.pi / 8)
    b_exact = brentq(lambda b: cdf(b) - 0.95, 0.0, math.pi)
    spacing = grid.nodes[1] - grid.nodes[0]
    length_dev = abs(ci.length - b_exact)
    ok = max_dev <= 1e-4 and length_dev <= 2 * spacing
    report(
        7,
        ok,
        f"pointwise deviation {max_dev:.2e} <= 1e-4; interval length off by "
        f"{length_dev:.2e} <= 2 spacings ({2 * spacing:.2e})",
    )


def test_criterion_8_channel_invariant_suite():
    rng = np.random.default_rng(SEED)
    worst_trace = worst_herm = worst_eig_defect = worst_kraus = worst_oracle = worst_path = 0.0
    for _ in range(1000):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        phi = rng.uniform(-math.pi, math.pi)
        eta = rng.uniform(0, 1)
        n = int(rng.integers(1, 6))
        out = noisy_rotation(rho, phi, NoiseModel(eta, n))

        worst_trace = max(worst_trace, abs(np.trace(out).real - 1))
        worst_herm = max(worst_herm, float(np.max(np.abs(out - out.conj().T))))
        worst_eig_defect = max(worst_eig_defect, max(0.0, -float(np.min(np.linalg.eigvalsh(out)))))

        k0, k1 = dephasing_kraus(eta)
        total = sum(
            np.kron(x, z).conj().T @ np.kron(x, z)
            for x, z in itertools.product((k0, k1), repeat=2)
        )
        worst_kraus = max(worst_kraus, float(np.max(np.abs(total - np.eye(4)))))

        if n <= 3:
            lams = [
                rotation_unitary(phi / n) @ np.kron(x, z)
                for x, z in itertools.product((k0, k1), repeat=2)
            ]
            oracle = np.zeros((4, 4), dtype=complex)
            for seq in itertools.product(lams, repeat=n):
                op = np.eye(4, dtype=complex)
                for lam in seq:
                    op = lam @ op
                oracle += op @ rho @ op.conj().T
            worst_oracle = max(worst_oracle, float(np.max(np.abs(out - oracle))))

        alpha = rng.uniform(0, 1)
        pure = np.abs(evolve_pure(probe_state(alpha), phi)) ** 2
        dens = noisy_rotation(pure_to_density(probe_state(alpha)), phi, NoiseModel(1.0, 1))
        worst_path = max(worst_path, float(np.max(np.abs(pure - np.diag(dens).real))))

    ok = (
        worst_trace <= 1e-12
        and worst_herm <= 1e-12
        and worst_eig_defect <= 1e-10
        and worst_kraus <= 1e-12
        and worst_oracle <= 1e-12
        and worst_path <= 1e-12
    )
    report(
        8,
        ok,
        f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, eig {worst_eig_defect:.1e}, "
        f"kraus {worst_kraus:.1e}, sequence-oracle {worst_oracle:.1e}, path {worst_path:.1e}",
    )


def test_uncertainty_decreases_with_measurements(noiseless_rel):
    # supporting invariant: angle-averaged uncertainty falls as nu grows,
    # within 1 sigma between adjacent points, for every probe in the sweep
    for alpha in (0.0, 0.5):
        rows = [noiseless_rel[alpha, nu] for nu in range(1, 11)]
        for r_lo, r_hi in itertools.pairwise(rows):
            slack = math.hypot(mean_l_ci_sem(r_lo), mean_l_ci_sem(r_hi))
            assert r_hi.mean_mu_l_ci < r_lo.mean_mu_l_ci + slack


def test_noiseless_rows_match_exact_expectation(noiseless_rel):
    # supporting invariant: every mean row lies within k standard errors of
    # its exact expectation over all count records, k Bonferroni-corrected
    rows = list(noiseless_rel.values())
    k = NormalDist().inv_cdf(1 - FAMILY_WISE_LEVEL / (2 * len(rows)))
    worst = 0.0
    failures = []
    for row in rows:
        noise = NoiseModel(row.eta, row.n_steps)
        mean, var_per_trial = exact_mean_l_ci(
            row.alpha, noise, row.nu, row.phis, DEFAULT_DOMAIN, DEFAULT_GRID_SIZE, DEFAULT_Y, DEFAULT_TAU
        )
        sem = math.sqrt(var_per_trial / N_E)
        deviation = abs(row.mean_mu_l_ci - mean)
        if deviation > k * sem + EXACT_RTOL * mean:
            failures.append(f"alpha={row.alpha:.4g} nu={row.nu}: {row.mean_mu_l_ci:.6f} vs exact {mean:.6f}")
        elif sem > EXACT_RTOL * mean:  # rows of one repeated estimate have no z
            worst = max(worst, deviation / sem)
    print(f"{len(rows)} mean rows within {k:.2f} SEM of exact expectation; largest |z| {worst:.2f}")
    assert not failures, "; ".join(failures)


def test_criterion_9_determinism_across_workers(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("alphas=0,0.5\nnus=1,2,3\nn_e=20\nn_phi=4\ngrid_size=512\nseed=7\n")
    out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(["sweep", "--config", str(cfg), "--output", str(out1), "--workers", "1"]) == 0
    assert main(["sweep", "--config", str(cfg), "--output", str(out2), "--workers", "3"]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    report(9, identical, "sweep CSV byte-identical across worker counts")
