"""Grid-based Bayesian posterior over a rotation angle and its minimal confidence interval.

The posterior lives on a uniform grid with trapezoid quadrature. Likelihoods
are accumulated in log space so large measurement counts do not underflow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_GRID_SIZE = 1024
DEFAULT_Y = 0.95  # posterior mass of the confidence interval
DEFAULT_TAU = 1e-3  # tolerance on that mass


class DegenerateEvidenceError(ValueError):
    """The likelihood is identically zero on the grid: the count record is
    impossible under the model."""


class ConvergenceError(RuntimeError):
    """Confidence-interval refinement failed to reach tolerance."""

    def __init__(self, message: str, best: "ConfidenceInterval"):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class ConfidenceInterval:
    a: float
    b: float
    mass: float

    @property
    def length(self) -> float:
        return self.b - self.a


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized posterior density on ascending nodes with its cumulative-mass table."""

    nodes: np.ndarray
    density: np.ndarray
    cumulative: np.ndarray

    @property
    def domain(self) -> tuple[float, float]:
        return float(self.nodes[0]), float(self.nodes[-1])


def _as_counts(counts: Sequence[int]) -> np.ndarray:
    k = np.asarray(counts)
    if k.shape != (4,) or np.any(k < 0) or not np.issubdtype(k.dtype, np.integer):
        raise ValueError(f"counts must be 4 nonnegative integers, got {counts!r}")
    return k


def posterior_from_log_profiles(
    nodes: np.ndarray,
    log_profiles: np.ndarray,
    counts: Sequence[int],
) -> PosteriorGrid:
    """Posterior from per-node log outcome probabilities (shape (G, 4)), as built
    by ensemble.grid_tables.

    The multinomial prefactor is omitted; it cancels in normalization.
    """
    k = _as_counts(counts)
    sel = k > 0
    if sel.any():
        log_post = log_profiles[:, sel] @ k[sel].astype(float)
    else:
        log_post = np.zeros(len(nodes))
    peak = np.max(log_post)
    if not np.isfinite(peak):
        raise DegenerateEvidenceError(f"likelihood is zero everywhere for counts {list(k)}")
    density = np.exp(log_post - peak)
    segment_mass = 0.5 * (density[1:] + density[:-1]) * np.diff(nodes)
    cumulative = np.concatenate(([0.0], np.cumsum(segment_mass)))
    norm = cumulative[-1]
    if norm <= 0.0:
        raise DegenerateEvidenceError(f"posterior mass is zero for counts {list(k)}")
    return PosteriorGrid(nodes=nodes, density=density / norm, cumulative=cumulative / norm)


def most_probable(grid: PosteriorGrid) -> float:
    """Node maximizing the posterior density; ties break toward the smallest angle."""
    return float(grid.nodes[int(np.argmax(grid.density))])


def _cumulative_at(grid: PosteriorGrid, x: float) -> float:
    """Cumulative mass up to x, with linear density interpolation inside a cell."""
    nodes, density, cumulative = grid.nodes, grid.density, grid.cumulative
    if x <= nodes[0]:
        return 0.0
    if x >= nodes[-1]:
        return float(cumulative[-1])
    j = int(np.searchsorted(nodes, x, side="right")) - 1
    h = nodes[j + 1] - nodes[j]
    t = x - nodes[j]
    d_at_x = density[j] + (density[j + 1] - density[j]) * t / h
    return float(cumulative[j] + 0.5 * (density[j] + d_at_x) * t)


def interval_probability(grid: PosteriorGrid, a: float, b: float) -> float:
    """Posterior mass of [a, b] under trapezoid quadrature."""
    if a > b:
        raise ValueError(f"interval endpoints out of order: a={a} > b={b}")
    lo, hi = grid.domain
    if a < lo - 1e-12 or b > hi + 1e-12:
        raise ValueError(f"interval [{a}, {b}] outside domain [{lo}, {hi}]")
    return _cumulative_at(grid, b) - _cumulative_at(grid, a)


def min_confidence_interval(
    grid: PosteriorGrid,
    y: float = DEFAULT_Y,
    tau: float = DEFAULT_TAU,
    max_refine: int = 100,
) -> ConfidenceInterval:
    """Shortest interval whose posterior mass is within tau of the target y.

    A two-pointer scan over the cumulative table finds the shortest
    node-aligned interval with mass >= y; if its mass overshoots y + tau,
    the lower-density endpoint is bisected inward until the mass lands
    within tolerance.
    """
    if not 0.0 < y < 1.0:
        raise ValueError(f"y must be in (0, 1), got {y}")
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    nodes, density, cumulative = grid.nodes, grid.density, grid.cumulative
    n = len(nodes)
    right = np.searchsorted(cumulative, cumulative + y, side="left")
    valid = right < n
    if not valid.any():
        raise ConvergenceError(
            f"no interval reaches mass {y}",
            ConfidenceInterval(float(nodes[0]), float(nodes[-1]), float(cumulative[-1])),
        )
    lengths = np.where(valid, nodes[np.minimum(right, n - 1)] - nodes, np.inf)
    i = int(np.argmin(lengths))
    j = int(right[i])
    a, b = float(nodes[i]), float(nodes[j])
    mass = float(cumulative[j] - cumulative[i])
    if abs(mass - y) <= tau:
        return ConfidenceInterval(a, b, mass)

    # mass > y + tau: shave the endpoint sitting in lower density, which
    # sheds the excess mass over the greatest length
    move_left = density[i] <= density[j] and j > i + 1
    if move_left:
        lo_x, hi_x = float(nodes[i]), float(nodes[i + 1])
    else:
        lo_x, hi_x = float(nodes[j - 1]), float(nodes[j])
    best = ConfidenceInterval(a, b, mass)
    for _ in range(max_refine):
        mid = 0.5 * (lo_x + hi_x)
        if move_left:
            mass = _cumulative_at(grid, b) - _cumulative_at(grid, mid)
            candidate = ConfidenceInterval(mid, b, mass)
        else:
            mass = _cumulative_at(grid, mid) - _cumulative_at(grid, a)
            candidate = ConfidenceInterval(a, mid, mass)
        if abs(mass - y) <= tau:
            return candidate
        if abs(candidate.mass - y) < abs(best.mass - y):
            best = candidate
        if (mass > y) == move_left:
            lo_x = mid
        else:
            hi_x = mid
    raise ConvergenceError(
        f"confidence interval did not reach |mass - {y}| <= {tau} "
        f"after {max_refine} bisections (best mass {best.mass})",
        best,
    )
