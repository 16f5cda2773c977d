"""Grid-based Bayesian posterior over a rotation angle and its minimal confidence interval.

The posterior lives on a uniform grid with trapezoid quadrature. Likelihoods
are accumulated in log space so large measurement counts do not underflow.

Every function takes one count record (shape (K,)) or a block of R records
(shape (R, K)), one count per column of the log-probability table, and works
row by row on the block; a single record is a block of one, and each row's
result is bit-identical to that record solved alone.
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

    def __reduce__(self):
        # rebuilt from (message, best), so it survives a pool worker's pickling
        return type(self), (str(self), self.best)


@dataclass(frozen=True)
class ConfidenceInterval:
    """Interval [a, b] and its posterior mass: floats for one record, arrays of R for a block."""

    a: float | np.ndarray
    b: float | np.ndarray
    mass: float | np.ndarray

    @property
    def length(self) -> float | np.ndarray:
        return self.b - self.a


@dataclass(frozen=True)
class PosteriorGrid:
    """Normalized posterior density on ascending nodes with its cumulative-mass
    table, each of shape (G,) for one record or (R, G) for a block."""

    nodes: np.ndarray
    density: np.ndarray
    cumulative: np.ndarray


def check_counts(counts: Sequence[int], width: int) -> np.ndarray:
    """counts as an array: one record of `width` nonnegative integers, or rows of them."""
    k = np.asarray(counts)
    if (
        k.ndim not in (1, 2)
        or k.shape[-1] != width
        or k.size == 0
        or np.any(k < 0)
        or not np.issubdtype(k.dtype, np.integer)
    ):
        raise ValueError(f"counts must be {width} nonnegative integers or rows of them, got {counts!r}")
    return k


def _per_record(grid: PosteriorGrid, values: np.ndarray):
    """values (one per row) as a float for a single-record grid, else as they are."""
    return float(values[0]) if grid.density.ndim == 1 else values


def posterior_from_log_profiles(
    nodes: np.ndarray,
    log_profiles: np.ndarray,
    counts: Sequence[int],
) -> PosteriorGrid:
    """Posterior from per-node log outcome probabilities (shape (G, K)), as built
    by ensemble.grid_tables, for one count record or a block of them; a
    record holds one count per column of the table.

    The multinomial prefactor is omitted; it cancels in normalization.
    """
    k = check_counts(counts, log_profiles.shape[1])
    block = np.atleast_2d(k)
    # the block's density and cumulative tables share one allocation; the
    # density rows first hold the log posterior
    density, cumulative = np.empty((2, len(block), len(nodes)))
    nonzero = block > 0
    patterns = (nonzero @ (1 << np.arange(block.shape[1]))).tolist()
    columns = {}  # log_profiles restricted to each pattern of nonzero counts
    for row, sel, pattern, out in zip(block.astype(float), nonzero, patterns, density):
        if not pattern:
            out[:] = 0.0
            continue
        # one BLAS matvec over the row's nonzero counts, the same call for a
        # lone record and for a block row: zeros never meet a log(0), and
        # every row keeps the BLAS kernel's rounding (fused multiply-adds),
        # which an element-wise sum over the outcomes would not reproduce
        if pattern not in columns:
            columns[pattern] = log_profiles[:, sel]
        np.matmul(columns[pattern], row[sel], out=out)
    peak = np.max(density, axis=1)
    dead = np.flatnonzero(~np.isfinite(peak))
    if dead.size:
        raise DegenerateEvidenceError(f"likelihood is zero everywhere for counts {block[dead[0]].tolist()}")
    density -= peak[:, None]
    np.exp(density, out=density)
    # trapezoid segment masses, segment k at column k + 1, summed along the
    # flat buffer so no step is strided; the sums that straddle two rows
    # land in column 0, which the zero width of its step clears
    flat_cumulative, flat_density = cumulative.reshape(-1), density.reshape(-1)
    flat_cumulative[0] = 0.0
    np.add(flat_density[1:], flat_density[:-1], out=flat_cumulative[1:])
    cumulative *= 0.5
    cumulative *= np.concatenate(([0.0], np.diff(nodes)))
    np.cumsum(cumulative, axis=1, out=cumulative)
    norm = cumulative[:, -1:].copy()
    dead = np.flatnonzero(norm[:, 0] <= 0.0)
    if dead.size:
        raise DegenerateEvidenceError(f"posterior mass is zero for counts {block[dead[0]].tolist()}")
    density /= norm
    cumulative /= norm
    if k.ndim == 1:
        density, cumulative = density[0], cumulative[0]
    return PosteriorGrid(nodes=nodes, density=density, cumulative=cumulative)


def most_probable(grid: PosteriorGrid) -> float | np.ndarray:
    """Node maximizing the posterior density of each record; ties break toward
    the smallest angle."""
    return _per_record(grid, grid.nodes[np.argmax(np.atleast_2d(grid.density), axis=1)])


def _cumulative_at(nodes, density, cumulative, rows, x) -> np.ndarray:
    """Cumulative mass of each given row up to its own x, with linear density
    interpolation inside a cell."""
    cell = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, len(nodes) - 2)
    h = nodes[cell + 1] - nodes[cell]
    t = x - nodes[cell]
    d_j, d_next = density[rows, cell], density[rows, cell + 1]
    d_at_x = d_j + (d_next - d_j) * t / h
    inside = cumulative[rows, cell] + 0.5 * (d_j + d_at_x) * t
    return np.where(x <= nodes[0], 0.0, np.where(x >= nodes[-1], cumulative[rows, -1], inside))


def check_interval_target(y: float, tau: float) -> None:
    """Reject a target mass y outside (0, 1) or a tolerance tau that is not positive."""
    if not 0.0 < y < 1.0:
        raise ValueError(f"y must be in (0, 1), got {y}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")


def min_confidence_interval(
    grid: PosteriorGrid,
    y: float = DEFAULT_Y,
    tau: float = DEFAULT_TAU,
    max_refine: int = 100,
) -> ConfidenceInterval:
    """Shortest interval whose posterior mass is within tau of the target y,
    for each record of the grid.

    A two-pointer scan over the cumulative table finds the shortest
    node-aligned interval with mass >= y; if its mass overshoots y + tau,
    the lower-density endpoint is bisected inward until the mass lands
    within tolerance. The rows of a block that still need bisection are
    refined together, each with its own endpoint and step budget.
    """
    check_interval_target(y, tau)
    nodes = grid.nodes
    density, cumulative = np.atleast_2d(grid.density), np.atleast_2d(grid.cumulative)
    n_rows, n = cumulative.shape
    i = np.empty(n_rows, dtype=np.intp)
    j = np.empty(n_rows, dtype=np.intp)
    for r, c in enumerate(cumulative):
        targets = c + y
        # The starts that reach mass y are those whose target stays within
        # the total: a prefix of n_valid. The starts up to `first` share the
        # target of start 0 (their mass is below its rounding), hence one end
        # and lengths that fall towards `first`: only `first` needs a search,
        # unless it ties with an earlier start.
        first, n_valid = np.searchsorted(targets, (targets[0], c[-1]), side="right")
        first -= 1
        if not n_valid:
            raise ConvergenceError(
                f"no interval reaches mass {y}",
                ConfidenceInterval(float(nodes[0]), float(nodes[-1]), float(c[-1])),
            )
        right = np.searchsorted(c, targets[first:n_valid], side="left")
        k = np.argmin(nodes[right] - nodes[first:n_valid])
        # at k = 0 an earlier start of equal length wins the tie
        i[r] = first + k if k else np.argmin(nodes[right[0]] - nodes[: first + 1])
        j[r] = right[k]
    every_row = np.arange(n_rows)
    a, b = nodes[i], nodes[j]
    mass = cumulative[every_row, j] - cumulative[every_row, i]

    # rows whose mass overshoots y + tau: shave the endpoint sitting in lower
    # density, which sheds the excess mass over the greatest length; the
    # other endpoint stays put, and so does the cumulative mass up to it
    rows = np.flatnonzero(np.abs(mass - y) > tau)
    i, j = i[rows], j[rows]
    move_left = (density[rows, i] <= density[rows, j]) & (j > i + 1)
    lo_x = np.where(move_left, nodes[i], nodes[j - 1])
    hi_x = np.where(move_left, nodes[i + 1], nodes[j])
    fixed_mass = _cumulative_at(nodes, density, cumulative, rows, np.where(move_left, b[rows], a[rows]))
    best_x, best_mass = np.where(move_left, a[rows], b[rows]), mass[rows]
    active = np.ones(len(rows), dtype=bool)
    for _ in range(max_refine):
        if not active.any():
            break
        mid = 0.5 * (lo_x + hi_x)
        at_mid = _cumulative_at(nodes, density, cumulative, rows, mid)
        candidate = np.where(move_left, fixed_mass - at_mid, at_mid - fixed_mass)
        miss = np.abs(candidate - y)
        # a hit retires its row; a miss still replaces a worse best
        hit = active & (miss <= tau)
        take = hit | (active & (miss < np.abs(best_mass - y)))
        best_x, best_mass = np.where(take, mid, best_x), np.where(take, candidate, best_mass)
        raise_lo = (candidate > y) == move_left
        lo_x, hi_x = np.where(raise_lo, mid, lo_x), np.where(raise_lo, hi_x, mid)
        active &= ~hit
    a[rows] = np.where(move_left, best_x, a[rows])
    b[rows] = np.where(move_left, b[rows], best_x)
    mass[rows] = best_mass
    if active.any():
        r = rows[np.argmax(active)]
        best = ConfidenceInterval(float(a[r]), float(b[r]), float(mass[r]))
        where = f" (row {r} of the block)" if grid.density.ndim == 2 else ""
        raise ConvergenceError(
            f"confidence interval did not reach |mass - {y}| <= {tau} "
            f"after {max_refine} bisections (best mass {best.mass}){where}",
            best,
        )
    return ConfidenceInterval(_per_record(grid, a), _per_record(grid, b), _per_record(grid, mass))
