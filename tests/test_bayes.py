"""Posterior construction, most-probable value, and confidence-interval search."""

import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from qmetro.bayes import (
    DEFAULT_GRID_SIZE,
    ConfidenceInterval,
    ConvergenceError,
    DegenerateEvidenceError,
    min_confidence_interval,
    most_probable,
    posterior_from_log_profiles,
)
from qmetro.ensemble import grid_tables, sufficient_records
from qmetro.quantum import NOISELESS, NoiseModel, measurement_probabilities

from oracles import (
    interval_probability,
    likelihood,
    min_confidence_interval_loop,
    posterior_loop,
)

HALF_PI = np.pi / 2


def probe_profile(alpha, noise=NOISELESS):
    return lambda phi: measurement_probabilities(alpha, phi, noise)


def posterior(alpha, counts, domain=(0.0, HALF_PI), grid_size=DEFAULT_GRID_SIZE):
    """Noiseless-probe posterior through the table builder the sweep uses."""
    nodes, log_profiles, merge = grid_tables(alpha, NOISELESS, domain, grid_size)
    return posterior_from_log_profiles(nodes, log_profiles, sufficient_records(counts, merge))


def custom_posterior(profile_at, counts):
    """Posterior for an arbitrary outcome-probability function on the default grid."""
    nodes = np.linspace(0.0, HALF_PI, DEFAULT_GRID_SIZE)
    with np.errstate(divide="ignore"):
        log_profiles = np.log([profile_at(x) for x in nodes])
    return posterior_from_log_profiles(nodes, log_profiles, counts)


def cos4_cdf(b):
    """Closed-form integral of cos(phi/2)**4 from 0 to b."""
    return 3 * b / 8 + np.sin(b) / 2 + np.sin(2 * b) / 16


class TestLikelihood:
    def test_empty_record_is_one(self):
        f = probe_profile(0.5)
        for phi in (0.0, 0.4, 1.3):
            assert likelihood(f, [0, 0, 0, 0], phi) == 1.0

    def test_single_count_closed_form(self):
        f = probe_profile(1.0)  # probe |du>: second outcome has probability cos(phi/2)**4
        for phi in np.linspace(0, np.pi, 7):
            assert likelihood(f, [0, 1, 0, 0], phi) == pytest.approx(np.cos(phi / 2) ** 4, abs=1e-12)

    def test_multinomial_prefactor(self):
        f = probe_profile(0.3)
        phi = 0.8
        p = f(phi)
        assert likelihood(f, [1, 1, 0, 0], phi) == pytest.approx(2 * p[0] * p[1], abs=1e-14)


class TestPosterior:
    def test_no_data_uniform(self):
        grid = posterior(0.5, [0, 0, 0, 0], grid_size=257)
        assert np.allclose(grid.density, 2 / np.pi, atol=1e-12)
        assert grid.cumulative[-1] == pytest.approx(1.0, abs=1e-9)

    def test_cos4_closed_form(self):
        # normalization over [0, pi] is 3*pi/8
        grid = posterior(1.0, [0, 1, 0, 0], (0.0, np.pi), grid_size=2048)
        expected = (8 / (3 * np.pi)) * np.cos(grid.nodes / 2) ** 4
        assert np.max(np.abs(grid.density - expected)) <= 1e-4

    def test_cumulative_normalized(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            counts = rng.multinomial(int(rng.integers(1, 30)), [0.25] * 4)
            grid = posterior(rng.uniform(0, 1), counts)
            assert grid.cumulative[-1] == pytest.approx(1.0, abs=1e-9)
            assert np.all(np.diff(grid.cumulative) >= 0)
            assert np.all(grid.density >= 0)

    def test_degenerate_evidence(self):
        dead = lambda phi: np.array([0.0, 1.0, 0.0, 0.0])
        with pytest.raises(DegenerateEvidenceError):
            custom_posterior(dead, [1, 0, 0, 0])

    def test_prefactor_cancels(self):
        f = probe_profile(0.4)
        counts = [3, 1, 2, 4]
        grid = posterior(0.4, counts, grid_size=301)
        # normalize raw likelihood values (prefactor included) independently
        raw = np.array([likelihood(f, counts, x) for x in grid.nodes])
        raw /= np.trapezoid(raw, grid.nodes)
        assert np.max(np.abs(grid.density - raw)) <= 1e-12

    def test_bad_grid_size(self):
        with pytest.raises(ValueError, match="grid_size must be >= 3, got 2"):
            posterior(0.5, [0, 0, 0, 0], grid_size=2)


class TestMostProbable:
    def test_uniform_tie_breaks_low(self):
        grid = posterior(0.5, [0, 0, 0, 0], (0.25, HALF_PI))
        assert most_probable(grid) == 0.25

    def test_decreasing_density_argmax_at_zero(self):
        grid = posterior(1.0, [0, 1, 0, 0], (0.0, np.pi))
        assert most_probable(grid) == 0.0

    def test_sin_squared_argmax_at_upper_edge(self):
        f = lambda phi: np.array([np.sin(phi) ** 2, np.cos(phi) ** 2, 0.0, 0.0])
        grid = custom_posterior(f, [1, 0, 0, 0])
        assert most_probable(grid) == pytest.approx(HALF_PI)


class TestIntervalProbability:
    @pytest.fixture
    def uniform(self):
        return posterior(0.5, [0, 0, 0, 0])

    def test_full_domain(self, uniform):
        assert interval_probability(uniform, 0.0, HALF_PI) == pytest.approx(1.0, abs=1e-9)

    def test_empty_interval(self, uniform):
        assert interval_probability(uniform, 0.3, 0.3) == 0.0

    def test_half_domain(self, uniform):
        assert interval_probability(uniform, 0.0, np.pi / 4) == pytest.approx(0.5, abs=1e-12)

    def test_reversed_endpoints(self, uniform):
        with pytest.raises(ValueError):
            interval_probability(uniform, 0.4, 0.1)


class TestMinConfidenceInterval:
    def test_uniform_length(self):
        grid = posterior(0.5, [0, 0, 0, 0])
        ci = min_confidence_interval(grid, y=0.95, tau=1e-3)
        spacing = grid.nodes[1] - grid.nodes[0]
        assert abs(ci.length - 0.95 * HALF_PI) <= 2 * spacing
        assert abs(ci.mass - 0.95) <= 1e-3

    def test_cos4_against_root_finding(self):
        grid = posterior(1.0, [0, 1, 0, 0], (0.0, np.pi), grid_size=2048)
        ci = min_confidence_interval(grid, y=0.95, tau=1e-3)
        # density decreases on [0, pi]: optimal interval is anchored at 0
        norm = cos4_cdf(np.pi)
        b_exact = brentq(lambda b: cos4_cdf(b) / norm - 0.95, 0.0, np.pi)
        spacing = grid.nodes[1] - grid.nodes[0]
        assert abs(ci.a - 0.0) <= 2 * spacing
        assert abs(ci.length - b_exact) <= 2 * spacing

    def test_mass_postcondition(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            counts = rng.multinomial(int(rng.integers(0, 12)), [0.25] * 4)
            grid = posterior(rng.uniform(0, 1), counts)
            ci = min_confidence_interval(grid, y=0.95, tau=1e-3)
            assert abs(ci.mass - 0.95) <= 1e-3
            assert abs(interval_probability(grid, ci.a, ci.b) - ci.mass) <= 1e-12

    def test_grid_level_optimality(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            counts = rng.multinomial(8, [0.25] * 4)
            grid = posterior(0.35, counts, grid_size=256)
            ci = min_confidence_interval(grid, y=0.95, tau=1e-3)
            # scan threshold is the target mass y itself; see decisions ledger
            c, nodes = grid.cumulative, grid.nodes
            for i in range(len(nodes)):
                for j in range(i + 1, len(nodes)):
                    if c[j] - c[i] >= 0.95:
                        assert nodes[j] - nodes[i] >= ci.length - 1e-12

    def test_invalid_arguments(self):
        grid = posterior(0.5, [0, 0, 0, 0])
        for y in (1.2, np.nan):
            with pytest.raises(ValueError, match=rf"y must be in \(0, 1\), got {y}"):
                min_confidence_interval(grid, y=y)
        for tau in (0.0, np.nan):
            with pytest.raises(ValueError, match=f"tau must be positive, got {tau}"):
                min_confidence_interval(grid, y=0.95, tau=tau)

    def test_more_data_shrinks_expected_interval(self):
        # paired trials: extending a count record at the same true angle must
        # not increase the expected interval length (3 sigma, 200 pairs)
        rng = np.random.default_rng(24)
        f = probe_profile(0.3)
        p = f(0.6)
        diffs = []
        for _ in range(200):
            c5 = rng.multinomial(5, p)
            c10 = c5 + rng.multinomial(5, p)
            l5 = min_confidence_interval(posterior(0.3, c5, grid_size=512)).length
            l10 = min_confidence_interval(posterior(0.3, c10, grid_size=512)).length
            diffs.append(l10 - l5)
        diffs = np.array(diffs)
        sem = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert diffs.mean() <= 3 * sem


def sampled_records(alpha, noise, nus, per_nu, seed):
    """Count records drawn from the probe's own outcome distribution at random angles."""
    rng = np.random.default_rng(seed)
    records = []
    for nu in nus:
        for phi in rng.uniform(0.0, HALF_PI, per_nu):
            p = np.clip(measurement_probabilities(alpha, phi, noise), 0.0, None)
            records.append(rng.multinomial(nu, p / p.sum()))
    return np.array(records)


def solve(nodes, log_profiles, counts):
    grid = posterior_from_log_profiles(nodes, log_profiles, counts)
    ci = min_confidence_interval(grid)
    return most_probable(grid), ci


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


# the sweep's block: 32 rows of a 1024-node grid
BLOCK = 32768 // DEFAULT_GRID_SIZE


class TestBlocks:
    @pytest.mark.parametrize(
        "alpha, noise",
        [(0.0, NOISELESS), (0.5, NOISELESS), (1 / 3, NoiseModel(0.9, 5))],
        ids=["separable", "bell", "eta-0.9"],
    )
    def test_rows_match_single_records(self, alpha, noise):
        nodes, log_profiles, merge = grid_tables(alpha, noise, (0.0, HALF_PI), DEFAULT_GRID_SIZE)
        records = sufficient_records(
            np.concatenate(
                (
                    [[0, 0, 0, 0]],
                    # zero counts sit against the -inf log profiles at phi = 0
                    [[0, 0, 7, 0] if alpha == 0.0 else [0, 4, 3, 0]],
                    sampled_records(alpha, noise, (1, 3, 10, 300, 3000), 7, seed=5),
                )
            ),
            merge,
        )
        assert len(records) > BLOCK + 1
        single = [solve(nodes, log_profiles, r) for r in records]
        for record, (mp, ci) in zip(records, single):
            # a lone record matches the step-by-step reference bit for bit
            density, cumulative = posterior_loop(nodes, log_profiles, record)
            grid = posterior_from_log_profiles(nodes, log_profiles, record)
            assert bits(grid.density) == bits(density)
            assert bits(grid.cumulative) == bits(cumulative)
            assert bits(mp) == bits(nodes[np.argmax(density)])
            assert bits((ci.a, ci.b, ci.mass)) == bits(
                min_confidence_interval_loop(nodes, density, cumulative, 0.95, 1e-3)
            )
        for size in (1, BLOCK - 1, BLOCK, BLOCK + 1):
            for start in range(0, len(records), size):
                mp, ci = solve(nodes, log_profiles, records[start : start + size])
                assert isinstance(mp, np.ndarray) and mp.shape == (len(records[start : start + size]),)
                for r, (mp_r, ci_r) in enumerate(single[start : start + size]):
                    assert bits(mp[r]) == bits(mp_r)
                    assert bits(ci.length[r]) == bits(ci_r.length)
                    assert bits(ci.mass[r]) == bits(ci_r.mass)
        # the records cover a node-aligned hit and a bisection of either endpoint
        ends = {(ci.a in nodes, ci.b in nodes) for _, ci in single}
        assert ends == {(True, True), (False, True), (True, False)}

    def test_single_record_returns_floats(self):
        grid = posterior(0.4, [3, 1, 2, 4])
        ci = min_confidence_interval(grid)
        assert grid.density.shape == grid.cumulative.shape == (DEFAULT_GRID_SIZE,)
        assert type(most_probable(grid)) is float
        assert all(type(v) is float for v in (ci.a, ci.b, ci.mass))

    def test_block_shapes(self):
        grid = posterior(0.4, [[3, 1, 2, 4], [0, 0, 0, 0], [1, 1, 1, 1]])
        assert grid.density.shape == grid.cumulative.shape == (3, DEFAULT_GRID_SIZE)
        assert most_probable(grid).shape == min_confidence_interval(grid).length.shape == (3,)

    @pytest.mark.parametrize("counts", [[[1, 2, 3]], np.zeros((0, 4), dtype=int), [[1, 2, 3, -1]]])
    def test_bad_block_rejected(self, counts):
        with pytest.raises(ValueError, match="counts must be"):
            posterior(0.4, counts)

    @pytest.mark.parametrize("width, counts", [(3, [1, 2, 3, 4]), (4, [1, 2, 3])], ids=["4-of-3", "3-of-4"])
    def test_record_width_must_match_table(self, width, counts):
        nodes = np.linspace(0.0, HALF_PI, 16)
        log_profiles = np.log(np.full((16, width), 1.0 / width))
        message = f"counts must be {width} nonnegative integers or rows of them, got {counts!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            posterior_from_log_profiles(nodes, log_profiles, counts)

    def test_impossible_record_named(self):
        dead = lambda phi: np.array([0.0, 1.0, 0.0, 0.0])
        block = [[0, 3, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0], [0, 1, 0, 0]]
        with pytest.raises(DegenerateEvidenceError, match=r"counts \[2, 0, 0, 0\]$"):
            custom_posterior(dead, block)
        custom_posterior(dead, [block[0], block[1], block[3]])

    def test_unconverged_row_named(self):
        grid = posterior(0.5, [[0, 0, 0, 0], [300, 40, 50, 310]])
        alone = posterior(0.5, [300, 40, 50, 310])
        # the record needs bisection, so it cannot converge without a refinement step
        assert min_confidence_interval(alone).a not in alone.nodes
        with pytest.raises(ConvergenceError, match="row 1 of the block") as err:
            min_confidence_interval(grid, max_refine=0)
        with pytest.raises(ConvergenceError) as err_alone:
            min_confidence_interval(alone, max_refine=0)
        assert err.value.best == err_alone.value.best
        assert "row" not in str(err_alone.value)

    @settings(max_examples=40, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        eta=st.sampled_from([1.0, 0.9]),
        nus=st.lists(st.integers(0, 400), min_size=1, max_size=2 * BLOCK),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_properties(self, alpha, eta, nus, seed):
        noise = NoiseModel(eta, 5)
        nodes, log_profiles, merge = grid_tables(alpha, noise, (0.0, HALF_PI), 257)
        records = sufficient_records(sampled_records(alpha, noise, nus, 1, seed), merge)
        grid = posterior_from_log_profiles(nodes, log_profiles, records)
        assert np.allclose(np.trapezoid(grid.density, nodes, axis=1), 1.0, rtol=0.0, atol=1e-9)
        ci = min_confidence_interval(grid, y=0.95, tau=1e-3)
        assert np.all(np.abs(ci.mass - 0.95) <= 1e-3)


def test_convergence_error_pickles():
    err = ConvergenceError("no luck", ConfidenceInterval(0.1, 0.4, 0.93))
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is ConvergenceError
    assert str(back) == "no luck"
    assert back.best == err.best
