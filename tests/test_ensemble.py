"""Monte Carlo layer: sampling, trials, metrics, sweeps, and determinism."""

import math
import os
import platform
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmetro.bayes import DEFAULT_GRID_SIZE, min_confidence_interval, posterior_from_log_profiles
from qmetro import ensemble
from qmetro.config import DEFAULT_DOMAIN, ExperimentConfig
from qmetro.ensemble import (
    PROFILE_MATCH,
    _distinct_records,
    _histogram_columns,
    _record_pmf,
    grid_tables,
    relative_uncertainty,
    sample_outcomes,
    sufficient_records,
    sweep,
    sweep_angles,
    trial_stream,
)
from qmetro.quantum import NOISELESS, NoiseModel, profile_grid

from oracles import count_records, record_pmf, sweep_row_loop

HALF_PI = math.pi / 2
EPS = np.finfo(float).eps
# a product probe's map: (dd, du, ud, uu) to its counts of flipped and unflipped qubits
BINOMIAL_MAP = [[1, 1], [2, 0], [0, 2], [1, 1]]


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

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4).filter(lambda p: sum(p) > 0),
            min_size=1,
            max_size=6,
        ),
        nu=st.integers(0, ensemble.MAX_COUNT),
        n_draws=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(rows=[[0.25] * 4, [0.0, 1.0, 0.0, 0.0]], nu=0, n_draws=3, seed=0)
    @example(rows=[[0.1, 0.2, 0.3, 0.4], [1e-300, 0.5, 0.5, 0.0]], nu=ensemble.MAX_COUNT, n_draws=2, seed=1)
    def test_table_draws_rows_in_order(self, rows, nu, n_draws, seed):
        # the seed contract: a cell's one draw over its angles' table takes the
        # same records as drawing each angle's row in turn from the same stream
        table = sample_outcomes(np.array(rows), nu, n_draws, trial_stream(seed, 0))
        stream = trial_stream(seed, 0)
        for drawn, row in zip(table, rows):
            assert drawn.tolist() == sample_outcomes(np.array(row), nu, n_draws, stream).tolist()
        assert table.shape == (len(rows), n_draws, 4) and np.all(table.sum(axis=2) == nu)

    @pytest.mark.parametrize(
        "alpha, noise, nu",
        [(0.0, NOISELESS, 0), (0.0, NOISELESS, 7), (0.5, NOISELESS, 10), (0.3, NoiseModel(0.9, 2), 12)],
    )
    def test_record_pmf_matches_oracle(self, alpha, noise, nu):
        # every record's pmf, in the oracle's record order; the angle 0 makes
        # outcomes impossible, whose records must have a pmf of exactly 0
        profiles = profile_grid(alpha, np.linspace(0.0, HALF_PI, 5, endpoint=False), noise)
        got = _record_pmf(profiles, nu)
        want = np.array([[record_pmf(p / p.sum(), r) for r in count_records(nu)] for p in profiles])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)
        assert np.array_equal(got == 0.0, want == 0.0)
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=1e-12)

    def test_one_record_per_row(self):
        counts = sample_outcomes(np.array([0.1, 0.2, 0.3, 0.4]), 9, 50, trial_stream(4, 0))
        assert counts.shape == (50, 4) and np.issubdtype(counts.dtype, np.integer)
        assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == 9)


def outcome_classes(alpha, noise, grid_size=DEFAULT_GRID_SIZE):
    """The outcomes (0=dd, 1=du, 2=ud, 3=uu) of each class of the table's merge map."""
    merge = grid_tables(alpha, noise, DEFAULT_DOMAIN, grid_size)[2]
    return [np.flatnonzero(column).tolist() for column in merge.T]


class TestSufficientRecords:
    @settings(max_examples=40, deadline=None)
    @given(alpha=st.floats(0.0, 1.0), eta=st.floats(0.0, 1.0), n_steps=st.integers(1, 5))
    def test_symmetric_outcomes_merge(self, alpha, eta, n_steps):
        noise = NoiseModel(eta, n_steps)
        assert any({0, 3} <= set(cls) for cls in outcome_classes(alpha, noise))
        assert [1, 2] in outcome_classes(0.5, noise)
        for near_bell in (0.5 - 1e-6, 0.5 + 1e-6):
            assert not any({1, 2} <= set(cls) for cls in outcome_classes(near_bell, noise))

    @pytest.mark.parametrize(
        "alpha, eta, classes",
        [
            (0.5, 1.0, [[0, 3], [1, 2]]),
            (0.5, 0.3, [[0, 3], [1, 2]]),
            (0.3, 1.0, [[0, 3], [1], [2]]),
        ],
    )
    def test_table_columns(self, alpha, eta, classes):
        noise = NoiseModel(eta, 5)
        nodes, log_profiles, merge = grid_tables(alpha, noise, DEFAULT_DOMAIN, 256)
        assert outcome_classes(alpha, noise, 256) == classes
        assert merge.shape == (4, len(classes)) and np.all(merge.sum(axis=1) == 1)
        # each class's column is the log probability of its first outcome
        with np.errstate(divide="ignore"):
            full = np.log(profile_grid(alpha, nodes, noise))
        assert np.array_equal(log_profiles, full[:, [cls[0] for cls in classes]])
        assert sufficient_records([[5, 2, 7, 1]], merge).tolist() == [
            [sum((5, 2, 7, 1)[i] for i in cls) for cls in classes]
        ]

    @pytest.mark.parametrize("alpha, eta", [(0.0, 1.0), (0.0, 0.9), (1.0, 1.0), (1.0, 0.9)])
    def test_product_table_columns(self, alpha, eta):
        # a product probe's outcomes are two qubit outcomes each: q1=d and
        # q2=u share one class, q1=u and q2=d the other
        noise = NoiseModel(eta, 5)
        nodes, log_profiles, merge = grid_tables(alpha, noise, DEFAULT_DOMAIN, 256)
        assert merge.tolist() == BINOMIAL_MAP
        # each class's column is half the log probability of the outcome
        # whose two qubits both fall in it: du for the first, ud for the second
        with np.errstate(divide="ignore"):
            half = 0.5 * np.log(profile_grid(alpha, nodes, noise))
        assert np.array_equal(log_profiles, half[:, [1, 2]])
        assert sufficient_records([[5, 2, 7, 1]], merge).tolist() == [[10, 20]]

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        entangled=st.floats(1e-6, 1 - 1e-6),
        eta=st.floats(0.0, 1.0),
        n_steps=st.integers(1, 5),
    )
    # within PROFILE_MATCH of a product at every node, but its halved du
    # column would score dd at 1.5e-8 where dd has probability 0
    @example(alpha=2.220446049250313e-16, entangled=0.5, eta=0.0, n_steps=1)
    def test_table_reproduces_profiles(self, alpha, entangled, eta, n_steps):
        noise = NoiseModel(eta, n_steps)
        nodes, log_profiles, merge = grid_tables(alpha, noise, DEFAULT_DOMAIN, 256)
        # each outcome's log probability is its map row times the log columns;
        # a column the row does not use (zero weight) may be log(0)
        weighted = merge[None] * np.where(merge[None] > 0, log_profiles[:, None, :], 0.0)
        probabilities = np.exp(weighted.sum(axis=2))
        assert np.abs(probabilities - profile_grid(alpha, nodes, noise)).max() <= PROFILE_MATCH
        for separable in (0.0, 1.0):
            assert grid_tables(separable, noise, DEFAULT_DOMAIN, 256)[2].tolist() == BINOMIAL_MAP
        # an entangled probe does not factor: each outcome lands in one class once
        assert np.all(grid_tables(entangled, noise, DEFAULT_DOMAIN, 256)[2].sum(axis=1) == 1)

    def test_asymmetric_profile_merges_nothing(self, monkeypatch):
        # a probe or channel without the symmetry gets one column per outcome
        def tilted(alpha, phis, noise):
            return profile_grid(alpha, phis, noise) * (1 + 1e-9 * np.arange(4))

        monkeypatch.setattr("qmetro.ensemble.profile_grid", tilted)
        grid_tables.cache_clear()
        try:
            assert outcome_classes(0.5, NOISELESS, 64) == [[0], [1], [2], [3]]
            cfg = ExperimentConfig(alphas=(0.5,), nus=(6,), n_phi=2, n_e=20, seed=3, grid_size=64)
            assert_matches_reference(cfg, 0.5, 6)
        finally:
            grid_tables.cache_clear()

    @pytest.mark.parametrize("width", [1, 2, 3, 4])
    def test_distinct_records_any_width(self, width):
        rng = np.random.default_rng(width)
        counts = rng.multinomial(6, np.full(width, 1.0 / width), size=200)
        records, inverse = _distinct_records(counts)
        expected, expected_inverse = np.unique(counts, axis=0, return_inverse=True)
        assert np.array_equal(records, expected)
        assert np.array_equal(inverse, expected_inverse.reshape(-1))

    @settings(max_examples=25, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        eta=st.sampled_from([1.0, 0.9, 0.3]),
        n_steps=st.integers(1, 5),
        nus=st.lists(st.integers(0, 3000), min_size=1, max_size=40),
        seed=st.integers(0, 2**32 - 1),
    )
    # the product tables at their largest records, where the half-log columns
    # round furthest from the unmerged table
    @example(alpha=0.0, eta=0.9, n_steps=5, nus=[3000, 2990, 2950, 2900], seed=0)
    @example(alpha=1.0, eta=0.9, n_steps=5, nus=[3000, 2990, 2950, 2900], seed=0)
    def test_matches_unmerged_table(self, alpha, eta, n_steps, nus, seed):
        # against every outcome's own column, as sweepbench/oracle.py builds the table
        noise = NoiseModel(eta, n_steps)
        nodes = np.linspace(*DEFAULT_DOMAIN, DEFAULT_GRID_SIZE)
        with np.errstate(divide="ignore"):
            full = np.log(profile_grid(alpha, nodes, noise))
        _, log_profiles, merge = grid_tables(alpha, noise, DEFAULT_DOMAIN, DEFAULT_GRID_SIZE)
        rng = np.random.default_rng(seed)
        records = np.array([rng.multinomial(nu, rng.dirichlet(np.ones(4))) for nu in nus])
        ref = posterior_from_log_profiles(nodes, full, records)
        got = posterior_from_log_profiles(nodes, log_profiles, sufficient_records(records, merge))
        # a log likelihood sums nu terms, each rounded at EPS; relative to the peak
        tol = np.maximum(1e-12, 8 * EPS * np.array(nus)) * ref.density.max(axis=1)
        assert np.all(np.abs(got.density - ref.density).max(axis=1) <= tol)
        ref_ci, got_ci = min_confidence_interval(ref), min_confidence_interval(got)
        np.testing.assert_allclose(got_ci.length, ref_ci.length, rtol=1e-12, atol=0.0)
        # the most probable node moves only between nodes the unmerged density ties
        rows = np.arange(len(records))
        ref_mp, got_mp = np.argmax(ref.density, axis=1), np.argmax(got.density, axis=1)
        moved = ref_mp != got_mp
        assert np.all(np.abs(ref_mp - got_mp)[moved] == 1)
        assert np.all((np.abs(ref.density[rows, ref_mp] - ref.density[rows, got_mp]) <= tol)[moved])


class TestRunTrial:
    """Trials as the sweep runs them: a one-angle cell whose first true angle is
    the lower end of the domain."""

    def test_certain_outcome(self):
        row = sweep(ExperimentConfig(alphas=(1.0,), nus=(50,), n_phi=1, n_e=2, seed=5))[1.0, 50]
        assert row.phis == (0.0,)
        assert row.mu_phi_mp == (0.0,) and row.sigma_phi_mp == (0.0,)

    def test_no_information(self):
        row = sweep(ExperimentConfig(alphas=(0.5,), nus=(0,), n_phi=1, n_e=2, seed=6, grid_size=1024))[0.5, 0]
        spacing = HALF_PI / (1024 - 1)
        assert row.sigma_l_ci == (0.0,)
        assert abs(row.mu_l_ci[0] - 0.95 * HALF_PI) <= 2 * spacing

    def test_fixed_seed_repeatable(self):
        cfg = ExperimentConfig(
            alphas=(0.4,), eta=0.9, n_steps=2, nus=(8,), n_phi=2, n_e=5, seed=7, grid_size=256
        )
        assert sweep(cfg) == sweep(cfg)


def assert_matches_reference(cfg, alpha, nu):
    """The sweep's cell against tests/oracles.sweep_row_loop, which reduces
    each angle's trials with np.mean and np.std, within 4 n_e roundings of the
    largest value: the standard deviations, which the sweep takes about a
    drawn value, and for a histogram cell, whose sums weight each record by
    its count and so add in another order, the means too. Every other field
    matches bit for bit."""
    got, want = sweep(cfg)[alpha, nu], sweep_row_loop(cfg, alpha, nu)
    columns = ("sigma_phi_mp", "sigma_l_ci")
    if math.comb(nu + 3, 3) <= 4 * cfg.n_e:
        columns += ("mu_phi_mp", "mu_l_ci", "mean_mu_l_ci")
    assert replace(got, **dict.fromkeys(columns)) == replace(want, **dict.fromkeys(columns))
    tol = 4 * cfg.n_e * EPS * max(map(abs, cfg.domain))
    for name in columns:
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=0.0, atol=tol)


def trial_columns(values):
    """The per-angle columns of an (n_phi, n_e) array of one estimate's
    trials: each trial counted once."""
    return _histogram_columns(np.ones(values.shape, dtype=np.int64), values)


class TestAngleColumns:
    """The per-angle columns of a sweep row: each angle's mean and sample
    standard deviation over its trials, from a table of trial counts."""

    def test_identical_results(self):
        means, sigmas = trial_columns(np.full((2, 5), 0.4))
        assert means == (0.4, 0.4) and sigmas == (0.0, 0.0)

    def test_hand_arithmetic(self):
        means, sigmas = trial_columns(np.array([[0.1, 0.3], [0.2, 0.4]]))
        assert means == pytest.approx((0.2, 0.3))
        assert sigmas == pytest.approx((math.sqrt(0.02), math.sqrt(0.02)))

    def test_permutation_invariance(self):
        values = np.array([[0.1, 0.2, 0.4], [0.5, 0.3, 0.1]])
        assert trial_columns(values) == trial_columns(values[:, ::-1])

    def test_histogram_hand_arithmetic(self):
        # the trials (0.1, 0.3, 0.3) and (0.2, 0.2, 0.2), as counts of the values 0.1, 0.2 and 0.3
        values = np.array([0.1, 0.2, 0.3])
        means, sigmas = _histogram_columns(np.array([[1, 0, 2], [0, 3, 0]]), values)
        assert means == pytest.approx((0.7 / 3, 0.2))
        assert sigmas == pytest.approx((math.sqrt(0.04 / 3), 0.0))
        assert _histogram_columns(np.array([[5]]), np.array([0.4])) == ((0.4,), (0.0,))

    def test_shared_value_has_zero_deviation(self):
        # the mean of three 0.1s rounds to 0.10000000000000002, and
        # deviations about it left 1.7e-17; about the drawn value they are 0
        assert _histogram_columns(np.array([[3]]), np.array([0.1]))[1] == (0.0,)
        # a histogram cell whose du and ud records share one sufficient record
        row = sweep(ExperimentConfig(alphas=(0.5,), nus=(1,), n_phi=1, n_e=1000, seed=1))[0.5, 1]
        assert row.sigma_phi_mp == row.sigma_l_ci == (0.0,)
        # a cell that draws trials, every one of them the same record
        cfg = ExperimentConfig(alphas=(0.0,), nus=(300,), n_phi=1, n_e=20, grid_size=256, seed=1)
        assert sweep(cfg)[0.0, 300].sigma_l_ci == (0.0,)

    @pytest.mark.parametrize("n_e, histogram", [(14, True), (13, False)], ids=["histogram", "per-trial"])
    def test_trial_table_shapes(self, monkeypatch, n_e, histogram):
        # C(5 + 3, 3) = 56 records: a histogram cell reduces at most that many
        # columns per angle, a cell that draws trials its n_e trials, so the
        # table grows linearly in n_e
        shapes = []

        def spy(histograms, values):
            shapes.append(histograms.shape)
            return _histogram_columns(histograms, values)

        monkeypatch.setattr(ensemble, "_histogram_columns", spy)
        sweep(ExperimentConfig(alphas=(1 / 3,), nus=(5,), n_phi=3, n_e=n_e, seed=8, grid_size=128))
        (n_phi, columns), other = shapes
        assert n_phi == 3 and other == (n_phi, columns)
        assert columns <= math.comb(5 + 3, 3) if histogram else columns == n_e

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
            (0.0, NOISELESS, 12, 2, 40),
            (0.3, NoiseModel(0.9, 2), 9, 2, 50),
        ],
        ids=[
            "alpha-0", "alpha-0.5", "alpha-1", "eta-0.9", "nu-0", "n_e-2", "n_phi-1",
            "per-trial-alpha-0", "per-trial-eta-0.9",
        ],
    )
    def test_sweep_matches_per_angle_reference(self, alpha, noise, nu, n_phi, n_e):
        # n_e-2 and the per-trial cases have more than 4 n_e records, so they
        # draw trials; the others draw histograms
        cfg = ExperimentConfig(
            alphas=(alpha,), eta=noise.eta, n_steps=noise.n_steps, nus=(nu,), n_phi=n_phi, n_e=n_e, seed=17,
            grid_size=256,
        )
        assert_matches_reference(cfg, alpha, nu)

    @pytest.mark.parametrize("n_e, draw", [(14, (14, 1)), (13, (5, 13))], ids=["at-rule", "above-rule"])
    def test_histogram_rule(self, monkeypatch, n_e, draw):
        # C(5 + 3, 3) = 56 records: a histogram of n_e trials at 4 n_e = 56,
        # n_e records of nu = 5 outcomes each at 4 n_e = 52
        draws = []

        def spy(profiles, nu, n_draws, stream):
            draws.append((nu, n_draws))
            return sample_outcomes(profiles, nu, n_draws, stream)

        monkeypatch.setattr(ensemble, "sample_outcomes", spy)
        cfg = ExperimentConfig(alphas=(1 / 3,), nus=(5,), n_phi=2, n_e=n_e, seed=8, grid_size=128)
        assert_matches_reference(cfg, 1 / 3, 5)
        assert draws == [draw]


class TestSweep:
    def test_single_point_average(self):
        row = sweep(ExperimentConfig(alphas=(0.5,), nus=(3,), n_phi=1, n_e=20, seed=11))[0.5, 3]
        assert len(row.mu_l_ci) == 1
        assert row.mean_mu_l_ci == row.mu_l_ci[0]

    def test_rows_keyed_in_sweep_order(self):
        rows = sweep(ExperimentConfig(alphas=(0.5, 0.0), nus=(2, 1), n_phi=1, n_e=2, seed=1, grid_size=64))
        assert list(rows) == [(0.5, 2), (0.5, 1), (0.0, 2), (0.0, 1)]
        assert all((row.alpha, row.nu) == key for key, row in rows.items())

    def test_angles_span_domain_open_at_top(self):
        phis = sweep_angles(ExperimentConfig(domain=(0.0, HALF_PI), n_phi=20))
        assert phis[0] == 0.0 and phis[-1] < HALF_PI and len(phis) == 20

    def test_deterministic_across_workers(self):
        cfg = ExperimentConfig(alphas=(0.0, 0.5), nus=(1, 2), n_phi=3, n_e=8, seed=99, grid_size=256)
        assert sweep(cfg, workers=1) == sweep(cfg, workers=2)

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
        cfg = ExperimentConfig(
            alphas=tuple(alphas), eta=eta, n_steps=n_steps, nus=tuple(nus), n_phi=n_phi, n_e=n_e, seed=seed,
            grid_size=64,
        )
        serial = sweep(cfg, workers=1)
        assert list(sweep(cfg, workers=2).items()) == list(serial.items())

    def test_cell_independent_of_sweep_layout(self):
        # a cell's stream is keyed on its (alpha, nu) values, not on their
        # positions in the sweep or on which worker runs it
        kwargs = dict(n_phi=3, n_e=8, seed=99, grid_size=256)
        alone = sweep(ExperimentConfig(alphas=(0.5,), nus=(2,), **kwargs))[0.5, 2]
        for workers in (1, 2):
            reversed_cfg = ExperimentConfig(alphas=(0.5, 1 / 3, 0.0), nus=(3, 2, 1), **kwargs)
            assert sweep(reversed_cfg, workers=workers)[0.5, 2] == alone
        negative_zero = sweep(ExperimentConfig(alphas=(-0.0,), nus=(2,), **kwargs))
        assert negative_zero == sweep(ExperimentConfig(alphas=(0.0,), nus=(2,), **kwargs))

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(ExperimentConfig(alphas=(0.5,), nus=(1,), n_phi=0, n_e=10, seed=1))
        with pytest.raises(ValueError):
            sweep(ExperimentConfig(alphas=(0.5,), nus=(1,), n_phi=1, n_e=1, seed=1))

    def test_negative_nu_rejected(self):
        with pytest.raises(ValueError, match="got -1"):
            sweep(ExperimentConfig(alphas=(0.5,), nus=(-1,), n_phi=1, n_e=2, seed=1))

    @pytest.mark.parametrize(
        "alphas, nus, name",
        [([0.0, 0.5, 0.0], [1, 2], "alphas"), ([0.5], [1, 2, 1], "nus")],
        ids=["alphas", "nus"],
    )
    def test_duplicates_rejected(self, alphas, nus, name):
        with pytest.raises(ValueError, match=f"{name} must be distinct"):
            sweep(ExperimentConfig(alphas=tuple(alphas), nus=tuple(nus), n_phi=1, n_e=2, seed=1))

    def test_bad_alpha_rejected_before_any_cell(self, monkeypatch):
        cells = []
        monkeypatch.setattr("qmetro.ensemble._run_cell", cells.append)
        cfg = ExperimentConfig(alphas=(0.0, 0.5, 1.5), nus=(1, 2), n_phi=1, n_e=2, seed=1, grid_size=16)
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\], got 1\.5"):
            sweep(cfg, workers=1)
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

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(alphas=(0.5,), nus=tuple(nus), n_phi=1, n_e=2, seed=1, grid_size=16)
        rows = sweep(cfg, workers=workers)
        assert sizes == pools and list(rows) == [(0.5, nu) for nu in nus]

    def test_profile_shared_across_trials(self):
        grid_tables.cache_clear()
        cfg = ExperimentConfig(
            alphas=(0.3,), eta=0.9, n_steps=2, nus=(1, 2, 3), n_phi=2, n_e=10, seed=5, grid_size=128
        )
        sweep(cfg)
        # one grid-profile build per (alpha, noise, domain, grid) configuration
        assert grid_tables.cache_info().misses == 1

    def test_one_channel_evaluation_per_cell(self, monkeypatch):
        # a cell evaluates the channel once, on all of its angles; grid_tables
        # adds one evaluation per table it builds
        calls = {"profile_grid": 0, "measurement_probabilities": 0}

        def spy(name):
            wrapped = getattr(ensemble, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return wrapped(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(ensemble, name, spy(name))
        grid_tables.cache_clear()
        cfg = ExperimentConfig(
            alphas=(0.0, 0.5), eta=0.9, nus=(1, 2, 3), n_phi=4, n_e=5, seed=2, grid_size=64
        )
        sweep(cfg)
        cells = len(cfg.alphas) * len(cfg.nus)
        misses = grid_tables.cache_info().misses
        assert calls == {"profile_grid": cells + misses, "measurement_probabilities": 0}

    def test_statistical_sanity(self):
        n_e = 300
        row = sweep(ExperimentConfig(alphas=(0.0,), nus=(100,), n_phi=2, n_e=n_e, seed=13))[0.0, 100]
        assert row.phis[1] == math.pi / 4
        assert abs(row.mu_phi_mp[1] - math.pi / 4) <= 4 * row.sigma_phi_mp[1] / math.sqrt(n_e)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap-trim threshold")
    def test_warm_sweeps_reuse_the_block_tables(self):
        # Each block's posterior tables take 512 KiB, at the edge of glibc's
        # heap-trim threshold: a block whose tables are still held when the
        # next block's are built makes the heap hand memory back to the
        # system and fault it in again, about 1,400 minor faults per warm
        # sweep of this config (large-nu's) against at most a few dozen
        code = """if True:
            import resource
            from qmetro.config import ExperimentConfig
            from qmetro.ensemble import sweep
            cfg = ExperimentConfig(alphas=(0.0, 0.5), nus=(100, 300, 1000, 3000), n_phi=4, n_e=800, seed=1)
            for _ in range(6):
                before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                sweep(cfg)
                print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        """
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env["PYTHONPATH"] = str(Path(ensemble.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        faults = [int(line) for line in proc.stdout.split()]
        assert len(faults) == 6 and max(faults[2:]) <= 300, faults


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(ExperimentConfig(alphas=(0.0, 0.5), nus=(1, 2), n_phi=2, n_e=30, seed=21, grid_size=512))


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
