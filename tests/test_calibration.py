"""Simulation-based calibration of the whole estimator.

Draw the true angle from the prior, uniform on the domain, and one record at
it. Then the 95% interval holds the angle in 95% of draws, and the posterior
CDF at the angle is uniform on [0, 1], up to grid error. This checks the
probe table, the merge map, the posterior, its quadrature and the interval
search together against the model that profile_grid evaluates, for any probe
and any dephasing.
"""

import numpy as np
import pytest
from scipy.stats import kstest

from qmetro.bayes import DEFAULT_GRID_SIZE, DEFAULT_Y, min_confidence_interval, posterior_from_log_profiles
from qmetro.ensemble import grid_tables, sufficient_records
from qmetro.quantum import NoiseModel, profile_grid

DOMAIN = (0.0, np.pi / 2)
DRAWS = 20_000
BLOCK = 256
# both set before looking at any result: coverage within 4 standard errors
# (a two-sided false alarm of 6e-5), and a KS p-value of the CDF values
# above 1e-4
K_SE = 4.0
MIN_KS_P = 1e-4


def cdf_at(nodes, density, cumulative, phi):
    """Each row's posterior mass below its phi: the density is linear in phi's cell."""
    k = np.clip(np.searchsorted(nodes, phi, side="right") - 1, 0, len(nodes) - 2)
    rows = np.arange(len(phi))
    h, width = phi - nodes[k], nodes[k + 1] - nodes[k]
    d_0, d_1 = density[rows, k], density[rows, k + 1]
    return cumulative[rows, k] + h * (d_0 + 0.5 * (d_1 - d_0) * h / width)


@pytest.mark.parametrize(
    "alpha, eta, nu",
    [(1 / 6, 0.5, 10), (0.5, 1.0, 1000), (0.0, 1.0, 3000)],
    ids=["sixth-eta-0.5-nu-10", "bell-nu-1000", "separable-nu-3000"],
)
def test_simulation_based_calibration(alpha, eta, nu):
    rng = np.random.default_rng(20261019)
    noise = NoiseModel(eta, 5)
    nodes, log_profiles, merge = grid_tables(alpha, noise, DOMAIN, DEFAULT_GRID_SIZE)
    phis = rng.uniform(*DOMAIN, size=DRAWS)
    p = profile_grid(alpha, phis, noise)
    records = sufficient_records(rng.multinomial(nu, p / p.sum(axis=1, keepdims=True)), merge)
    covered, cdf = np.empty(DRAWS, dtype=bool), np.empty(DRAWS)
    for start in range(0, DRAWS, BLOCK):
        rows = slice(start, start + BLOCK)
        grid = posterior_from_log_profiles(nodes, log_profiles, records[rows])
        ci = min_confidence_interval(grid, DEFAULT_Y)
        covered[rows] = (ci.a <= phis[rows]) & (phis[rows] <= ci.b)
        cdf[rows] = cdf_at(nodes, grid.density, grid.cumulative, phis[rows])
    se = np.sqrt(DEFAULT_Y * (1 - DEFAULT_Y) / DRAWS)
    assert abs(covered.mean() - DEFAULT_Y) < K_SE * se
    assert kstest(cdf, "uniform").pvalue > MIN_KS_P
