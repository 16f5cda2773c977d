"""Posterior construction, most-probable value, and confidence-interval search."""

import numpy as np
import pytest
from scipy.optimize import brentq

from qmetro.bayes import (
    DEFAULT_GRID_SIZE,
    DegenerateEvidenceError,
    interval_probability,
    min_confidence_interval,
    most_probable,
    posterior_from_log_profiles,
)
from qmetro.ensemble import grid_tables
from qmetro.quantum import NOISELESS, measurement_probabilities

from oracles import likelihood

HALF_PI = np.pi / 2


def probe_profile(alpha, noise=NOISELESS):
    return lambda phi: measurement_probabilities(alpha, phi, noise)


def posterior(alpha, counts, domain=(0.0, HALF_PI), grid_size=DEFAULT_GRID_SIZE):
    """Noiseless-probe posterior through the table builder the sweep uses."""
    nodes, log_profiles = grid_tables(alpha, NOISELESS, domain, grid_size)
    return posterior_from_log_profiles(nodes, log_profiles, counts)


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
        with pytest.raises(ValueError):
            min_confidence_interval(grid, y=1.2)
        with pytest.raises(ValueError):
            min_confidence_interval(grid, y=0.95, tau=0.0)

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
