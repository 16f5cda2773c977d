"""Monte Carlo layer: sampling, trials, metrics, sweeps, and determinism."""

import math

import numpy as np
import pytest

from qmetro.ensemble import (
    _metrics_from_arrays,
    asymptotic_relative_bound,
    grid_tables,
    relative_uncertainty,
    sample_outcomes,
    sweep,
    sweep_angles,
    trial_stream,
)
from qmetro.quantum import NOISELESS, NoiseModel

HALF_PI = math.pi / 2


class TestSampleOutcomes:
    def test_deterministic_profile(self):
        counts = sample_outcomes(np.array([0, 1, 0, 0]), 7, trial_stream(1, 0))
        assert list(counts) == [0, 7, 0, 0]

    def test_zero_measurements(self):
        counts = sample_outcomes(np.array([0.25] * 4), 0, trial_stream(1, 0))
        assert list(counts) == [0, 0, 0, 0]

    def test_binomial_moments(self):
        nu = 100_000
        counts = sample_outcomes(np.array([0.25] * 4), nu, trial_stream(2, 0))
        sigma = math.sqrt(nu * 0.25 * 0.75)
        assert counts.sum() == nu
        assert np.all(np.abs(counts - nu * 0.25) < 5 * sigma)

    def test_negative_profile_entries_clamped(self):
        counts = sample_outcomes(np.array([-1e-13, 0.5, 0.5, 0.0]), 10, trial_stream(3, 0))
        assert counts.sum() == 10 and counts[0] == 0


class TestRunTrial:
    """Trials as the sweep runs them: a one-angle cell whose first true angle is
    the lower end of the domain."""

    def test_certain_outcome(self):
        row = sweep([1.0], NOISELESS, [50], n_phi=1, n_e=2, seed=5).row(1.0, 50)
        assert row.phis == (0.0,)
        assert row.per_phi[0].mu_phi_mp == 0.0 and row.per_phi[0].sigma_phi_mp == 0.0

    def test_no_information(self):
        row = sweep([0.5], NOISELESS, [0], n_phi=1, n_e=2, seed=6, grid_size=1024).row(0.5, 0)
        spacing = HALF_PI / (1024 - 1)
        assert row.per_phi[0].sigma_l_ci == 0.0
        assert abs(row.per_phi[0].mu_l_ci - 0.95 * HALF_PI) <= 2 * spacing

    def test_fixed_seed_repeatable(self):
        kwargs = dict(n_phi=2, n_e=5, seed=7, grid_size=256)
        a = sweep([0.4], NoiseModel(0.9, 2), [8], **kwargs)
        b = sweep([0.4], NoiseModel(0.9, 2), [8], **kwargs)
        assert a == b


class TestEnsembleMetrics:
    def test_identical_results(self):
        m = _metrics_from_arrays(np.full(5, 0.4), np.full(5, 0.2))
        assert m.sigma_phi_mp == 0.0 and m.sigma_l_ci == 0.0
        assert m.mu_phi_mp == 0.4 and m.mu_l_ci == 0.2 and m.n_trials == 5

    def test_hand_arithmetic(self):
        m = _metrics_from_arrays(np.array([0.1, 0.3]), np.array([0.2, 0.4]))
        assert m.mu_l_ci == pytest.approx(0.3)
        assert m.sigma_l_ci == pytest.approx(math.sqrt(0.02))

    def test_permutation_invariance(self):
        phi_mp, l_ci = np.array([0.1, 0.2, 0.4]), np.array([0.5, 0.3, 0.1])
        assert _metrics_from_arrays(phi_mp, l_ci) == _metrics_from_arrays(phi_mp[::-1], l_ci[::-1])


class TestSweep:
    def test_single_point_average(self):
        res = sweep([0.5], NOISELESS, [3], n_phi=1, n_e=20, seed=11)
        row = res.row(0.5, 3)
        assert len(row.per_phi) == 1
        assert row.mean_mu_l_ci == row.per_phi[0].mu_l_ci

    def test_angles_span_domain_open_at_top(self):
        phis = sweep_angles((0.0, HALF_PI), 20)
        assert phis[0] == 0.0 and phis[-1] < HALF_PI and len(phis) == 20

    def test_deterministic_across_workers(self):
        kwargs = dict(nus=[1, 2], n_phi=3, n_e=8, seed=99, grid_size=256)
        serial = sweep([0.0, 0.5], NOISELESS, workers=1, **kwargs)
        parallel = sweep([0.0, 0.5], NOISELESS, workers=2, **kwargs)
        assert serial == parallel

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep([0.5], NOISELESS, [1], n_phi=0, n_e=10, seed=1)
        with pytest.raises(ValueError):
            sweep([0.5], NOISELESS, [1], n_phi=1, n_e=1, seed=1)

    @pytest.mark.parametrize(
        "alphas, nus, name",
        [([0.0, 0.5, 0.0], [1, 2], "alphas"), ([0.5], [1, 2, 1], "nus")],
        ids=["alphas", "nus"],
    )
    def test_duplicates_rejected(self, alphas, nus, name):
        with pytest.raises(ValueError, match=f"{name} must be distinct"):
            sweep(alphas, NOISELESS, nus, n_phi=1, n_e=2, seed=1)

    def test_profile_shared_across_trials(self):
        grid_tables.cache_clear()
        sweep([0.3], NoiseModel(0.9, 2), [1, 2, 3], n_phi=2, n_e=10, seed=5, grid_size=128)
        # one grid-profile build per (alpha, noise, domain, grid) configuration
        assert grid_tables.cache_info().misses == 1

    def test_statistical_sanity(self):
        row = sweep([0.0], NOISELESS, [100], n_phi=2, n_e=300, seed=13).row(0.0, 100)
        assert row.phis[1] == math.pi / 4
        m = row.per_phi[1]
        assert abs(m.mu_phi_mp - math.pi / 4) <= 4 * m.sigma_phi_mp / math.sqrt(m.n_trials)


@pytest.fixture(scope="module")
def small_sweep():
    return sweep([0.0, 0.5], NOISELESS, [1, 2], n_phi=2, n_e=30, seed=21, grid_size=512)


class TestRelativeUncertainty:

    def test_self_ratio_is_one(self, small_sweep):
        rel = relative_uncertainty(small_sweep, 0.0)
        assert rel.row(0.0, 1).baseline_ratio == 1.0
        assert rel.row(0.0, 2).baseline_ratio == 1.0

    def test_ratio_values(self, small_sweep):
        rel = relative_uncertainty(small_sweep, 0.0)
        expected = small_sweep.row(0.5, 2).mean_mu_l_ci / small_sweep.row(0.0, 2).mean_mu_l_ci
        assert rel.row(0.5, 2).baseline_ratio == pytest.approx(expected)

    def test_missing_baseline(self, small_sweep):
        with pytest.raises(ValueError):
            relative_uncertainty(small_sweep, 0.25)


class TestAsymptoticBound:
    def test_values(self):
        assert asymptotic_relative_bound(2) == pytest.approx(0.70711, abs=5e-6)
        assert asymptotic_relative_bound(1) == 1.0
        assert asymptotic_relative_bound(4) == 0.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            asymptotic_relative_bound(0)
