"""Monte Carlo layer: sampling, trials, metrics, sweeps, and determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro.ensemble import (
    DEFAULT_DOMAIN,
    _angle_columns,
    asymptotic_relative_bound,
    grid_tables,
    relative_uncertainty,
    sample_outcomes,
    sweep,
    sweep_angles,
    trial_stream,
)
from qmetro.quantum import NOISELESS, NoiseModel

from oracles import sweep_row_loop

HALF_PI = math.pi / 2


class TestSampleOutcomes:
    def test_deterministic_profile(self):
        counts = sample_outcomes(np.array([0, 1, 0, 0]), 7, 5, trial_stream(1, 0))
        assert counts.tolist() == [[0, 7, 0, 0]] * 5

    def test_zero_measurements(self):
        counts = sample_outcomes(np.array([0.25] * 4), 0, 3, trial_stream(1, 0))
        assert counts.tolist() == [[0, 0, 0, 0]] * 3

    def test_binomial_moments(self):
        nu = 100_000
        counts = sample_outcomes(np.array([0.25] * 4), nu, 3, trial_stream(2, 0))
        sigma = math.sqrt(nu * 0.25 * 0.75)
        assert np.all(counts.sum(axis=1) == nu)
        assert np.all(np.abs(counts - nu * 0.25) < 5 * sigma)

    def test_negative_profile_entries_clamped(self):
        counts = sample_outcomes(np.array([-1e-13, 0.5, 0.5, 0.0]), 10, 20, trial_stream(3, 0))
        assert np.all(counts.sum(axis=1) == 10) and np.all(counts[:, 0] == 0)

    def test_one_record_per_row(self):
        counts = sample_outcomes(np.array([0.1, 0.2, 0.3, 0.4]), 9, 50, trial_stream(4, 0))
        assert counts.shape == (50, 4) and np.issubdtype(counts.dtype, np.integer)
        assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == 9)


class TestRunTrial:
    """Trials as the sweep runs them: a one-angle cell whose first true angle is
    the lower end of the domain."""

    def test_certain_outcome(self):
        row = sweep([1.0], NOISELESS, [50], n_phi=1, n_e=2, seed=5)[1.0, 50]
        assert row.phis == (0.0,)
        assert row.mu_phi_mp == (0.0,) and row.sigma_phi_mp == (0.0,)

    def test_no_information(self):
        row = sweep([0.5], NOISELESS, [0], n_phi=1, n_e=2, seed=6, grid_size=1024)[0.5, 0]
        spacing = HALF_PI / (1024 - 1)
        assert row.sigma_l_ci == (0.0,)
        assert abs(row.mu_l_ci[0] - 0.95 * HALF_PI) <= 2 * spacing

    def test_fixed_seed_repeatable(self):
        kwargs = dict(n_phi=2, n_e=5, seed=7, grid_size=256)
        a = sweep([0.4], NoiseModel(0.9, 2), [8], **kwargs)
        b = sweep([0.4], NoiseModel(0.9, 2), [8], **kwargs)
        assert a == b


class TestAngleColumns:
    """The per-angle columns of a sweep row: each angle's mean and sample
    standard deviation over its trials."""

    def test_identical_results(self):
        means, sigmas = _angle_columns(np.full((2, 5), 0.4))
        assert means == (0.4, 0.4) and sigmas == (0.0, 0.0)

    def test_hand_arithmetic(self):
        means, sigmas = _angle_columns(np.array([[0.1, 0.3], [0.2, 0.4]]))
        assert means == pytest.approx((0.2, 0.3))
        assert sigmas == pytest.approx((math.sqrt(0.02), math.sqrt(0.02)))

    def test_permutation_invariance(self):
        values = np.array([[0.1, 0.2, 0.4], [0.5, 0.3, 0.1]])
        assert _angle_columns(values) == _angle_columns(values[:, ::-1])

    @pytest.mark.parametrize(
        "alpha, noise, nu, n_phi, n_e",
        [
            (0.0, NOISELESS, 4, 3, 40),
            (0.5, NOISELESS, 4, 3, 40),
            (1.0, NOISELESS, 4, 3, 40),
            (0.3, NoiseModel(0.9, 2), 3, 3, 40),
            (0.5, NOISELESS, 0, 2, 10),
            (0.5, NOISELESS, 3, 3, 2),
            (1 / 3, NOISELESS, 5, 1, 40),
        ],
        ids=["alpha-0", "alpha-0.5", "alpha-1", "eta-0.9", "nu-0", "n_e-2", "n_phi-1"],
    )
    def test_sweep_matches_per_angle_reference(self, alpha, noise, nu, n_phi, n_e):
        # bit for bit: the columns reduce each angle's trials on their own
        args = dict(
            n_phi=n_phi, n_e=n_e, seed=17, domain=DEFAULT_DOMAIN, grid_size=256, y=0.95, tau=1e-3
        )
        row = sweep([alpha], noise, [nu], **args)[alpha, nu]
        assert row == sweep_row_loop(alpha, noise, nu, **args)


class TestSweep:
    def test_single_point_average(self):
        row = sweep([0.5], NOISELESS, [3], n_phi=1, n_e=20, seed=11)[0.5, 3]
        assert len(row.mu_l_ci) == 1
        assert row.mean_mu_l_ci == row.mu_l_ci[0]

    def test_rows_keyed_in_sweep_order(self):
        rows = sweep([0.5, 0.0], NOISELESS, [2, 1], n_phi=1, n_e=2, seed=1, grid_size=64)
        assert list(rows) == [(0.5, 2), (0.5, 1), (0.0, 2), (0.0, 1)]
        assert all((row.alpha, row.nu) == key for key, row in rows.items())

    def test_angles_span_domain_open_at_top(self):
        phis = sweep_angles((0.0, HALF_PI), 20)
        assert phis[0] == 0.0 and phis[-1] < HALF_PI and len(phis) == 20

    def test_deterministic_across_workers(self):
        kwargs = dict(nus=[1, 2], n_phi=3, n_e=8, seed=99, grid_size=256)
        serial = sweep([0.0, 0.5], NOISELESS, workers=1, **kwargs)
        parallel = sweep([0.0, 0.5], NOISELESS, workers=2, **kwargs)
        assert serial == parallel

    @settings(max_examples=10, deadline=None)  # an example of 2+ cells starts a 2-process pool
    @given(
        alphas=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3, unique=True),
        nus=st.lists(st.integers(0, 12), min_size=1, max_size=3, unique=True),
        eta=st.floats(0.5, 1.0),
        n_steps=st.integers(1, 3),
        n_phi=st.integers(1, 3),
        n_e=st.integers(2, 6),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_worker_count_invariance(self, alphas, nus, eta, n_steps, n_phi, n_e, seed):
        args = (alphas, NoiseModel(eta, n_steps), nus)
        kwargs = dict(n_phi=n_phi, n_e=n_e, seed=seed, grid_size=64)
        serial = sweep(*args, workers=1, **kwargs)
        assert list(sweep(*args, workers=2, **kwargs).items()) == list(serial.items())

    def test_cell_independent_of_sweep_layout(self):
        # a cell's stream is keyed on its (alpha, nu) values, not on their
        # positions in the sweep or on which worker runs it
        kwargs = dict(n_phi=3, n_e=8, seed=99, grid_size=256)
        alone = sweep([0.5], NOISELESS, [2], **kwargs)[0.5, 2]
        for workers in (1, 2):
            reversed_sweep = sweep([0.5, 1 / 3, 0.0], NOISELESS, [3, 2, 1], workers=workers, **kwargs)
            assert reversed_sweep[0.5, 2] == alone
        assert sweep([-0.0], NOISELESS, [2], **kwargs) == sweep([0.0], NOISELESS, [2], **kwargs)

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep([0.5], NOISELESS, [1], n_phi=0, n_e=10, seed=1)
        with pytest.raises(ValueError):
            sweep([0.5], NOISELESS, [1], n_phi=1, n_e=1, seed=1)

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError, match="got -1"):
            sweep([0.5], NOISELESS, [-1], n_phi=1, n_e=2, seed=1)

    @pytest.mark.parametrize(
        "alphas, nus, name",
        [([0.0, 0.5, 0.0], [1, 2], "alphas"), ([0.5], [1, 2, 1], "nus")],
        ids=["alphas", "nus"],
    )
    def test_duplicates_rejected(self, alphas, nus, name):
        with pytest.raises(ValueError, match=f"{name} must be distinct"):
            sweep(alphas, NOISELESS, nus, n_phi=1, n_e=2, seed=1)

    def test_bad_alpha_rejected_before_any_cell(self, monkeypatch):
        cells = []
        monkeypatch.setattr("qmetro.ensemble._run_cell", cells.append)
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\], got 1\.5"):
            sweep([0.0, 0.5, 1.5], NOISELESS, [1, 2], n_phi=1, n_e=2, seed=1, grid_size=16, workers=1)
        assert cells == []

    @pytest.mark.parametrize(
        "workers, nus, pools",
        [(64, [1, 2, 3], [3]), (2, [1, 2, 3], [2]), (64, [1], []), (1, [1, 2, 3], [])],
        ids=["capped", "below-cells", "one-cell-serial", "one-worker-serial"],
    )
    def test_pool_capped_at_cell_count(self, monkeypatch, workers, nus, pools):
        sizes = []

        class RecordingPool:  # records the pool size and runs the cells in this process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr("qmetro.ensemble.ProcessPoolExecutor", RecordingPool)
        rows = sweep([0.5], NOISELESS, nus, n_phi=1, n_e=2, seed=1, grid_size=16, workers=workers)
        assert sizes == pools and list(rows) == [(0.5, nu) for nu in nus]

    def test_profile_shared_across_trials(self):
        grid_tables.cache_clear()
        sweep([0.3], NoiseModel(0.9, 2), [1, 2, 3], n_phi=2, n_e=10, seed=5, grid_size=128)
        # one grid-profile build per (alpha, noise, domain, grid) configuration
        assert grid_tables.cache_info().misses == 1

    def test_statistical_sanity(self):
        n_e = 300
        row = sweep([0.0], NOISELESS, [100], n_phi=2, n_e=n_e, seed=13)[0.0, 100]
        assert row.phis[1] == math.pi / 4
        assert abs(row.mu_phi_mp[1] - math.pi / 4) <= 4 * row.sigma_phi_mp[1] / math.sqrt(n_e)


@pytest.fixture(scope="module")
def small_sweep():
    return sweep([0.0, 0.5], NOISELESS, [1, 2], n_phi=2, n_e=30, seed=21, grid_size=512)


class TestRelativeUncertainty:

    def test_self_ratio_is_one(self, small_sweep):
        rel = relative_uncertainty(small_sweep)
        assert rel[0.0, 1].baseline_ratio == 1.0
        assert rel[0.0, 2].baseline_ratio == 1.0

    def test_ratio_values(self, small_sweep):
        rel = relative_uncertainty(small_sweep)
        expected = small_sweep[0.5, 2].mean_mu_l_ci / small_sweep[0.0, 2].mean_mu_l_ci
        assert rel[0.5, 2].baseline_ratio == pytest.approx(expected)
        assert list(rel) == list(small_sweep)

    def test_missing_baseline(self, small_sweep):
        without_nu_2 = {key: row for key, row in small_sweep.items() if key != (0.0, 2)}
        with pytest.raises(ValueError, match="baseline alpha 0.0 missing nu=2"):
            relative_uncertainty(without_nu_2)
        entangled_only = {key: row for key, row in small_sweep.items() if key[0] != 0.0}
        with pytest.raises(ValueError, match="baseline alpha 0.0 missing nu=1"):
            relative_uncertainty(entangled_only)


class TestAsymptoticBound:
    def test_values(self):
        assert asymptotic_relative_bound(2) == pytest.approx(0.70711, abs=5e-6)
        assert asymptotic_relative_bound(1) == 1.0
        assert asymptotic_relative_bound(4) == 0.5

    def test_invalid(self):
        with pytest.raises(ValueError):
            asymptotic_relative_bound(0)
