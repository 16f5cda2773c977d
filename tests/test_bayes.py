"""Posterior construction, most-probable value, and confidence-interval search."""

import itertools
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from qmetro.bayes import (
    DEFAULT_GRID_SIZE,
    MIN_Y,
    ConvergenceError,
    DegenerateEvidenceError,
    min_confidence_interval,
    most_probable,
    posterior_from_log_profiles,
)
from qmetro.ensemble import MAX_COUNT, grid_tables, sufficient_records
from qmetro.quantum import NOISELESS, NoiseModel, measurement_probabilities

from oracles import (
    binomial_interval,
    interval_probability,
    likelihood,
    min_confidence_interval_loop,
    posterior_loop,
)

HALF_PI = np.pi / 2
# the end-cell root places an interval's mass within this many ulps of its target
ROOT_ULPS = 4


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
        assert abs(ci.mass - 0.95) <= ROOT_ULPS * np.spacing(0.95)

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
            assert abs(ci.mass - 0.95) <= ROOT_ULPS * np.spacing(0.95)
            assert abs(interval_probability(grid, ci.a, ci.b) - ci.mass) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(0.0, 1.0),
        eta=st.floats(0.5, 1.0),
        nu=st.integers(0, 300),
        phi=st.floats(0.0, HALF_PI),
        y=st.floats(0.05, 0.99),
        grid_size=st.sampled_from([64, 256]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_grid_level_optimality(self, alpha, eta, nu, phi, y, grid_size, seed):
        noise = NoiseModel(eta, 5)
        nodes, log_profiles, merge = grid_tables(alpha, noise, (0.0, HALF_PI), grid_size)
        p = measurement_probabilities(alpha, phi, noise)
        record = np.random.default_rng(seed).multinomial(nu, p / p.sum())
        grid = posterior_from_log_profiles(nodes, log_profiles, sufficient_records(record, merge))
        ci = min_confidence_interval(grid, y)
        a, b, _ = min_confidence_interval_loop(grid.nodes, grid.density, grid.cumulative, y, 1e-12)
        assert ci.length == pytest.approx(b - a, rel=1e-9, abs=0.0)
        # A node-aligned interval that holds y can be shaved at either end
        # to one that holds y exactly, and the search returns the shortest
        # such shave. It compares masses with y itself, not y - tau, so no
        # node-aligned interval holding y is shorter.
        c, x = grid.cumulative, grid.nodes
        spans = (x[None, :] - x[:, None])[c[None, :] - c[:, None] >= y]
        assert spans.min() >= ci.length - 1e-12

    @pytest.mark.parametrize(
        "alpha, counts, y, ends",
        [
            (0.0, [0, 0, 0, 30], 0.01, (1.569185, HALF_PI)),
            (0.5, [4, 2, 0, 4], 0.95, (0.796914, 1.371238)),
            (1 / 3, [82, 254, 572, 92], 0.95, (0.406852, 0.469857)),
        ],
        ids=["peak-at-end", "bell", "nu-1000"],
    )
    def test_shortest_shave_of_tied_intervals(self, alpha, counts, y, ends):
        # the node-aligned intervals of fewest cells tie in cells, not in the
        # length left once an end is shaved: a fixed rule for which start,
        # or which end, to shave returns a longer interval here
        grid = posterior(alpha, counts)
        ci = min_confidence_interval(grid, y)
        a, b, _ = min_confidence_interval_loop(grid.nodes, grid.density, grid.cumulative, y, 1e-12)
        assert ci.length == pytest.approx(b - a, rel=1e-9, abs=0.0)
        assert (ci.a, ci.b) == pytest.approx(ends, abs=1e-6)
        if ends[1] == HALF_PI:
            # the density peaks at the last node, where the interval ends
            assert ci.b == grid.nodes[-1] == grid.nodes[np.argmax(grid.density)]

    @pytest.mark.parametrize("y", [0.01, 1e-4])
    def test_one_cell_interval_at_density_peak(self, y):
        # below the densest cell's mass, every cell that holds y alone ties
        # at one cell width; the shortest part holding y starts at the peak
        grid = posterior(0.5, [300, 40, 50, 310])
        peak = np.argmax(grid.density)
        assert grid.nodes[peak] == pytest.approx(1.2038, abs=1e-4)
        ci = min_confidence_interval(grid, y)
        assert grid.nodes[peak] in (ci.a, ci.b)
        assert ci.length == pytest.approx(y / grid.density[peak], rel=0.01)

    def test_invalid_arguments(self):
        grid = posterior(0.5, [0, 0, 0, 0])
        # below MIN_Y, c + y rounds to c for a cumulative mass c near 1
        for y in (1.2, np.nan, 0.0, MIN_Y, 1e-17):
            with pytest.raises(ValueError, match=rf"y must be in \(1\.11022e-16, 1\), got {y}"):
                min_confidence_interval(grid, y=y)
        for tau in (0.0, np.nan):
            with pytest.raises(ValueError, match=f"tau must be positive, got {tau}"):
                min_confidence_interval(grid, y=0.95, tau=tau)

    def test_least_target_mass(self):
        # just above MIN_Y every start's target still exceeds its own
        # cumulative mass, so no interval comes out reversed or outside the grid
        grid = posterior(0.5, [[0, 0, 0, 0], [300, 40, 50, 310], [3, 1, 2, 4]])
        y = np.nextafter(MIN_Y, 1.0)
        ci = min_confidence_interval(grid, y)
        assert np.all((grid.nodes[0] <= ci.a) & (ci.a <= ci.b) & (ci.b <= grid.nodes[-1]))
        assert np.all(np.abs(ci.mass - y) <= np.spacing(1.0))

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


# the grid's interval length over the gridless one, less 1, in units of
# nu / G^2: at most 2.03 over binomial_records() at G = 1024 and 2048
GRID_EXCESS = 2.5


def binomial_records():
    """(alpha, nu, sufficient record) of the binomial probes, from the edge
    phi = 0 to a separable record whose density peaks past pi/2."""
    for nu in (1, 10, 100, 1000):
        for share in (0.0, 0.05, 0.3, 0.5, 1.0):
            m = round(share * nu)
            yield 0.5, nu, (m, nu - m)
        for share in (0.0, 0.05, 0.3, 0.6):
            m = round(share * 2 * nu)
            yield 0.0, nu, (m, 2 * nu - m)
            yield 1.0, nu, (2 * nu - m, m)


def grid_excess(alpha, record, grid_size, length):
    """How much longer the grid's shortest 95% interval of a sufficient record is than length, relatively."""
    nodes, log_profiles, _ = grid_tables(alpha, NOISELESS, (0.0, HALF_PI), grid_size)
    grid = posterior_from_log_profiles(nodes, log_profiles, record)
    return min_confidence_interval(grid, 0.95).length / length - 1.0


class TestGridlessReference:
    def test_grid_overstates_length_by_its_resolution(self):
        # every grid interval is longer than the exact one, by O(nu / G^2)
        shrink = []
        for alpha, nu, record in binomial_records():
            a, b = binomial_interval(alpha, record, 0.95)
            excess = [grid_excess(alpha, record, g, b - a) for g in (1024, 2048)]
            for g, e in zip((1024, 2048), excess):
                assert 0.0 < e <= GRID_EXCESS * nu / g**2, (alpha, record, g)
            shrink.append(excess[0] / excess[1])
        # doubling G shrinks the excess of a record by 1.6x to 7.1x, 3.8x on average
        assert min(shrink) > 1.0
        assert 3.0 <= np.exp(np.mean(np.log(shrink))) <= 5.0

    @pytest.mark.parametrize("alpha, nu, record", [(0.5, 10, (3, 7)), (0.0, 10, (2, 18))], ids=["bell", "separable"])
    def test_brute_force_on_a_fine_grid(self, alpha, nu, record):
        # the independent brute force on 16384 nodes, where it takes ~0.5 s
        grid_size = 16384
        nodes, log_profiles, _ = grid_tables(alpha, NOISELESS, (0.0, HALF_PI), grid_size)
        density, cumulative = posterior_loop(nodes, log_profiles, np.array(record))
        a, b, _ = min_confidence_interval_loop(nodes, density, cumulative, 0.95, 1e-12)
        exact_a, exact_b = binomial_interval(alpha, record, 0.95)
        assert 0.0 < (b - a) / (exact_b - exact_a) - 1.0 <= GRID_EXCESS * nu / grid_size**2

    def test_unsolvable_records_rejected(self):
        for alpha, record in ((0.3, (3, 7)), (0.5, (0, 0))):
            with pytest.raises(ValueError, match="need alpha"):
                binomial_interval(alpha, record, 0.95)
        # its mass below t = 1/2 is about 1e-602
        with pytest.raises(ValueError, match="underflows"):
            binomial_interval(0.0, (2000, 0), 0.95)


def sampled_records(alpha, noise, nus, per_nu, seed):
    """Count records drawn from the probe's own outcome distribution at random angles."""
    rng = np.random.default_rng(seed)
    records = []
    for nu in nus:
        for phi in rng.uniform(0.0, HALF_PI, per_nu):
            p = measurement_probabilities(alpha, phi, noise)
            records.append(rng.multinomial(nu, p / p.sum()))
    return np.array(records)


def solve(nodes, log_profiles, counts):
    grid = posterior_from_log_profiles(nodes, log_profiles, counts)
    ci = min_confidence_interval(grid, 0.95, 1e-3)
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
        references = [posterior_loop(nodes, log_profiles, record) for record in records]
        for record, (density, cumulative) in zip(records, references):
            # a lone record, solved over every node, matches the step-by-step
            # reference bit for bit
            grid = posterior_from_log_profiles(nodes, log_profiles, record)
            assert bits(grid.density) == bits(density)
            assert bits(grid.cumulative) == bits(cumulative)
        single = [solve(nodes, log_profiles, r) for r in records]
        for (density, cumulative), (mp, ci) in zip(references, single):
            assert bits(mp) == bits(nodes[np.argmax(density)])
            # the root is the endpoint that bisection to a tight tolerance approaches
            a, b, _ = min_confidence_interval_loop(nodes, density, cumulative, 0.95, 1e-12)
            assert ci.length == pytest.approx(b - a, rel=1e-9, abs=0.0)
        for size in (1, BLOCK - 1, BLOCK, BLOCK + 1):
            for start in range(0, len(records), size):
                mp, ci = solve(nodes, log_profiles, records[start : start + size])
                assert isinstance(mp, np.ndarray) and mp.shape == (len(records[start : start + size]),)
                for r, (mp_r, ci_r) in enumerate(single[start : start + size]):
                    assert bits(mp[r]) == bits(mp_r)
                    assert bits((ci.a[r], ci.b[r], ci.mass[r])) == bits((ci_r.a, ci_r.b, ci_r.mass))
        # one endpoint stays a node; the other is one only where the root
        # lands on it, when the node-aligned interval already holds y
        ends = set()
        for (_, cumulative), (_, ci) in zip(references, single):
            at_a, at_b = ci.a in nodes, ci.b in nodes
            assert at_a or at_b
            if at_a and at_b:
                i, j = np.searchsorted(nodes, (ci.a, ci.b))
                assert abs(cumulative[j] - cumulative[i] - 0.95) <= ROOT_ULPS * np.spacing(0.95)
            ends.add((at_a, at_b))
        # the records move either endpoint
        assert {(False, True), (True, False)} <= ends

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1 / 3], ids=["separable", "bell", "third"])
    def test_underflowing_block_matches_posterior_loop(self, alpha):
        # a block of nu = 3000 records, whose exp rounds to 0 at many nodes
        # and to a subnormal at some, solved over the whole grid (the union
        # of its rows' supports), matches the loop posterior bit for bit
        nodes, log_profiles, merge = grid_tables(alpha, NOISELESS, (0.0, HALF_PI), DEFAULT_GRID_SIZE)
        records = sufficient_records(sampled_records(alpha, NOISELESS, (3000,), BLOCK, seed=3), merge)
        grid = posterior_from_log_profiles(nodes, log_profiles, records)
        assert bits(grid.nodes) == bits(nodes)
        for record, density, cumulative in zip(records, grid.density, grid.cumulative):
            reference = posterior_loop(nodes, log_profiles, record)
            assert bits(density) == bits(reference[0]) and bits(cumulative) == bits(reference[1])
        nonzero = records > 0
        shifted = np.array([log_profiles[:, sel] @ k[sel] for k, sel in zip(records.astype(float), nonzero)])
        shifted -= shifted.max(axis=1, keepdims=True)
        # exp is exactly 0.0 below about -745.13 (half the least subnormal, 2**-1075)
        assert (shifted < -746.0).mean() > 0.25
        assert np.any((shifted > -746.0) & (shifted < np.log(np.finfo(float).tiny)))

    def test_single_record_returns_floats(self):
        grid = posterior(0.4, [3, 1, 2, 4])
        ci = min_confidence_interval(grid)
        assert grid.density.shape == grid.cumulative.shape == (len(grid.nodes),)
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
        # Records of 2 MAX_COUNT outcomes, the most a product table's map
        # makes, meet log 0 with positive counts (row 0 at both ends, row 1 at
        # phi = 0, row 2 everywhere) and with zero counts (every row): no sum
        # overflows, only the row impossible everywhere is named, and each
        # other row, solved alone over every node, is exactly 0 where it is
        # impossible
        ends = lambda phi: np.array([phi / HALF_PI, 1.0 - phi / HALF_PI, 0.0, 0.0])
        most = 2 * MAX_COUNT
        block = [[most // 2, most - most // 2, 0, 0], [most, 0, 0, 0], [0, 0, 1, most - 1]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateEvidenceError, match=rf"counts \[0, 0, 1, {most - 1}\]$"):
                custom_posterior(ends, block)
            rows = [custom_posterior(ends, record).density for record in block[:2]]
            # the separable probe's flipped class is log 0 at phi = 0; its
            # records of MAX_COUNT outcomes become 2 MAX_COUNT qubit outcomes
            nodes, log_profiles, merge = grid_tables(0.0, NOISELESS, (0.0, HALF_PI), DEFAULT_GRID_SIZE)
            records = sufficient_records([[0, 0, MAX_COUNT, 0], [MAX_COUNT, 0, 0, 0]], merge)
            separable = [posterior_from_log_profiles(nodes, log_profiles, r).density for r in records]
        for density in rows + separable:
            assert np.all(np.isfinite(density)) and density.max() > 0.0
        assert rows[0][0] == rows[0][-1] == rows[1][0] == 0.0
        assert rows[1][-1] > 0.0
        # the zero count leaves phi = 0 the mode; the positive one rules it out
        assert separable[0][0] > 0.0 and separable[1][0] == 0.0

    def test_unconverged_row_named(self):
        # the root lands an ulp off y = 1e-3 for this record and on it for the
        # uniform one, so a tolerance below that ulp fails the record alone
        record, y = [9, 8, 4, 6], 1e-3
        grid = posterior(0.5, [[0, 0, 0, 0], record])
        alone = posterior(0.5, record)
        residual = abs(min_confidence_interval(alone, y).mass - y)
        assert residual > 0.0
        with pytest.raises(ConvergenceError, match="row 1 of the block"):
            min_confidence_interval(grid, y, residual / 2)
        with pytest.raises(ConvergenceError) as err_alone:
            min_confidence_interval(alone, y, residual / 2)
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
        assert np.allclose(np.trapezoid(grid.density, grid.nodes, axis=1), 1.0, rtol=0.0, atol=1e-9)
        ci = min_confidence_interval(grid, y=0.95, tau=1e-3)
        assert np.all(np.abs(ci.mass - 0.95) <= ROOT_ULPS * np.spacing(0.95))


# the target masses the support test spans, from the least to the most allowed
SUPPORT_YS = (2.0**-52, 0.05, 0.95, 1 - 2.0**-53)


class TestSupport:
    @pytest.mark.parametrize("alpha", [0.0, 1 / 6, 0.5, 1.0])
    def test_support_solve_matches_every_node_solve(self, alpha):
        # A block, or a block of one row, solved on its support gives each
        # row's record solved alone, over every node, its most probable value
        # and interval bit for bit, and drops only columns below 2**-100 of
        # each row's peak. On (0, pi) the entangled probes' posteriors can
        # have two modes, and a window then spans both.
        rng = np.random.default_rng(24)
        widths, two_modes = {}, False
        cases = itertools.product((1.0, 0.9), ((0.0, HALF_PI), (0.0, np.pi)), (3, 64, 1024))
        for eta, domain, grid_size in cases:
            noise = NoiseModel(eta, 5)
            nodes, log_profiles, merge = grid_tables(alpha, noise, domain, grid_size)
            for nu in (0, 1, 10, 300, 3000, 10**8):
                records = []
                for phi in rng.uniform(*domain, BLOCK):
                    p = measurement_probabilities(alpha, phi, noise)
                    records.append(rng.multinomial(nu, p / p.sum()))
                records = sufficient_records(np.array(records), merge)
                for counts in (records, records[:1]):
                    grid = posterior_from_log_profiles(nodes, log_profiles, counts)
                    alone = [posterior_from_log_profiles(nodes, log_profiles, record) for record in counts]
                    lo = np.searchsorted(nodes, grid.nodes[0])
                    window = slice(lo, lo + len(grid.nodes))
                    assert bits(grid.nodes) == bits(nodes[window])
                    widths.setdefault(nu, []).append(len(grid.nodes) / grid_size)
                    density = np.array([every.density for every in alone])
                    outside = np.ones(grid_size, dtype=bool)
                    outside[window] = False
                    floor = 2.0**-100 * density.max(axis=1, keepdims=True)
                    assert np.all(density[:, outside] < floor)
                    if domain[1] == np.pi:
                        # a row whose live columns leave a gap inside the window
                        live = density[:, window] >= floor
                        first, last = live.argmax(axis=1), live.shape[1] - live[:, ::-1].argmax(axis=1)
                        two_modes |= bool(np.any(last - first > live.sum(axis=1)))
                    assert bits(most_probable(grid)) == bits([most_probable(every) for every in alone])
                    for y in SUPPORT_YS:
                        ci, each = min_confidence_interval(grid, y), [min_confidence_interval(e, y) for e in alone]
                        assert bits((ci.a, ci.b, ci.mass)) == bits(np.transpose([(c.a, c.b, c.mass) for c in each]))
        assert min(widths[3000]) < 1.0
        assert max(widths[0]) == min(widths[0]) == 1.0
        assert two_modes == (alpha in (1 / 6, 0.5))

    def test_record_alone_is_solved_over_all_nodes(self):
        # the counts' shape picks the grid: a concentrated record alone gets
        # every node, and as a block of one row its shorter support, with
        # the same most probable value and interval bits
        nodes, log_profiles, merge = grid_tables(0.5, NOISELESS, (0.0, HALF_PI), DEFAULT_GRID_SIZE)
        record = sufficient_records([1200, 300, 300, 1200], merge)
        alone = posterior_from_log_profiles(nodes, log_profiles, record)
        row = posterior_from_log_profiles(nodes, log_profiles, record[None, :])
        assert bits(alone.nodes) == bits(nodes) and alone.density.shape == (DEFAULT_GRID_SIZE,)
        assert len(row.nodes) < DEFAULT_GRID_SIZE / 4 and row.density.shape == (1, len(row.nodes))
        assert bits(most_probable(row)) == bits(most_probable(alone))
        ci, ci_alone = min_confidence_interval(row), min_confidence_interval(alone)
        assert bits((ci.a, ci.b, ci.mass)) == bits(([ci_alone.a], [ci_alone.b], [ci_alone.mass]))


def scaled(mantissa, exponent):
    return mantissa * 10.0**exponent


# magnitudes from subnormal to past the largest domain end, 1e100
MAGNITUDES = st.builds(scaled, st.floats(1.0, 10.0), st.integers(-320, 101))


@st.composite
def domains(draw):
    """(lo, hi) of any magnitude, some as narrow as the float resolution at lo."""
    lo = draw(st.one_of(st.just(0.0), MAGNITUDES, MAGNITUDES.map(lambda x: -x)))
    relative = st.builds(scaled, st.floats(1.0, 10.0), st.integers(-17, -9)).map(lambda r: r * abs(lo))
    return lo, lo + draw(st.one_of(MAGNITUDES, relative))


@settings(max_examples=300, deadline=None)
@given(
    domain=domains(),
    grid_size=st.integers(8, 64),
    alpha=st.floats(0.0, 1.0),
    record=st.lists(st.integers(0, 5), min_size=4, max_size=4),
)
def test_grid_boundary(domain, grid_size, alpha, record):
    # grid_tables rejects a domain by name, or its grid gives finite
    # estimates inside it; pytest turns any numpy warning into a failure
    try:
        nodes, log_profiles, merge = grid_tables(alpha, NOISELESS, domain, grid_size)
    except ValueError as exc:
        assert str(domain) in str(exc)
        return
    try:
        grid = posterior_from_log_profiles(nodes, log_profiles, sufficient_records(record, merge))
    except DegenerateEvidenceError:
        # near 0 the probability of an outcome can underflow at every node
        return
    assert np.isfinite(grid.density).all() and np.isfinite(grid.cumulative).all()
    assert domain[0] <= most_probable(grid) <= domain[1]
    ci = min_confidence_interval(grid, 0.95, 1e-3)
    assert domain[0] <= ci.a <= ci.b <= domain[1]
    assert abs(ci.mass - 0.95) <= ROOT_ULPS * np.spacing(0.95)


def test_convergence_error_pickles():
    back = pickle.loads(pickle.dumps(ConvergenceError("no luck")))
    assert type(back) is ConvergenceError
    assert str(back) == "no luck"


def check_end_cell_root(grid, y, ci):
    """The properties of each block row's shortest interval that the end-cell root guarantees."""
    nodes = grid.nodes
    for c, a, b, mass in zip(grid.cumulative, ci.a, ci.b, ci.mass):
        assert abs(mass - y) <= ROOT_ULPS * np.spacing(y)
        assert nodes[0] <= a <= b <= nodes[-1]
        # [a, b] spans the node-aligned [i, j] but for the moving endpoint's
        # cell, so [i + 1, j] and [i, j - 1] hold less than y
        i = np.searchsorted(nodes, a, side="right") - 1
        j = np.searchsorted(nodes, b, side="left")
        assert a == nodes[i] or b == nodes[j]
        assert c[j] - c[i + 1] < y and c[j - 1] - c[i] < y
        # no node-aligned interval holding y is shorter, from any start
        right = np.searchsorted(c, c + y, side="left")
        reach = right < len(nodes)
        assert b - a <= np.min(nodes[right[reach]] - nodes[reach])


@settings(max_examples=100, deadline=None)
@given(
    alpha=st.one_of(st.just(0.5), st.floats(0.0, 1.0)),
    eta=st.sampled_from([1.0, 0.9]),
    grid_size=st.integers(8, 1024),
    # a target far above the cumulative table's rounding, 2^-53 near mass 1,
    # which can otherwise decide whether an end cell holds it
    y=st.one_of(st.sampled_from([0.5, 0.999]), st.floats(1e-12, 1.0, exclude_max=True)),
    nus=st.lists(st.integers(0, 400), max_size=6),
    tie=st.integers(0, 250),
    seed=st.integers(0, 2**32 - 1),
)
def test_end_cell_root(alpha, eta, grid_size, y, nus, tie, seed):
    # the shortest interval's moving endpoint is the root of its end cell's
    # quadratic: its mass is y to a few ulps, inside the cell the scan picked
    noise = NoiseModel(eta, 5)
    nodes, log_profiles, merge = grid_tables(alpha, noise, (0.0, HALF_PI), grid_size)
    # concentrated at pi/4, so that the lowest starts share start 0's target
    p = measurement_probabilities(alpha, np.pi / 4, noise)
    concentrated = np.random.default_rng(seed).multinomial(400, p / p.sum())
    # a tied posterior, and equal counts: symmetric about pi/4 for the Bell probe
    records = [[0, 0, 0, 0], [tie] * 4, concentrated, *sampled_records(alpha, noise, nus, 1, seed)]
    grid = posterior_from_log_profiles(nodes, log_profiles, sufficient_records(records, merge))
    check_end_cell_root(grid, y, min_confidence_interval(grid, y, 1e-3))


def test_posteriors_concentrated_away_from_zero():
    # their lowest starts share start 0's target and so its end: of them,
    # only the last can hold y in the fewest cells; (500, 500) is symmetric
    # about pi/4
    grid = posterior(0.5, [[0, 0, 0, 0], [250] * 4, [20, 0, 0, 30]])
    c = grid.cumulative[1:]
    assert np.all(c[:, 1] + 0.95 == 0.95)
    check_end_cell_root(grid, 0.95, min_confidence_interval(grid))
