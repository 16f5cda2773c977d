"""Grid-based Bayesian posterior over a rotation angle and its minimal confidence interval.

The posterior lives on a uniform grid with trapezoid quadrature, so its
density is linear between nodes and an interval's mass up to an endpoint is a
quadratic in it. Likelihoods are accumulated in log space so large
measurement counts do not underflow.

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
DEFAULT_TAU = 1e-3  # tolerance the interval's mass is checked against
# the least target mass that changes a cumulative mass it is added to, 1 included
MIN_Y = 2.0**-53


class DegenerateEvidenceError(ValueError):
    """The likelihood is identically zero on the grid: the count record is
    impossible under the model."""


class ConvergenceError(RuntimeError):
    """A confidence interval's mass missed its target by more than the tolerance."""


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
    """Normalized posterior density on the nodes of ensemble.grid_tables, which
    increase strictly by at least the smallest normal float, with its
    cumulative-mass table, each of shape (G,) for one record or (R, G) for a block."""

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
    record holds one count per column of the table. The nodes must increase
    strictly by at least the smallest normal float (grid_tables checks), which
    keeps the normalized density finite.

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
        # one BLAS matvec over the row's nonzero counts, the same call for a
        # lone record and for a block row: zeros never meet a log(0), and
        # every row keeps the BLAS kernel's rounding (fused multiply-adds),
        # which an element-wise sum over the outcomes would not reproduce;
        # an all-zero record selects no column, and the product writes 0.0
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
    density /= norm
    cumulative /= norm
    if k.ndim == 1:
        density, cumulative = density[0], cumulative[0]
    return PosteriorGrid(nodes=nodes, density=density, cumulative=cumulative)


def most_probable(grid: PosteriorGrid) -> float | np.ndarray:
    """Node maximizing the posterior density of each record; ties break toward
    the smallest angle."""
    return _per_record(grid, grid.nodes[np.argmax(np.atleast_2d(grid.density), axis=1)])


def check_interval_target(y: float, tau: float) -> None:
    """Reject a target mass y outside (MIN_Y, 1) or a tolerance tau that is not positive."""
    if not MIN_Y < y < 1.0:
        raise ValueError(f"y must be in ({MIN_Y:.6g}, 1), got {y}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")


def _cell_root(p_0, p_1, q):
    """The stable root u of s(u) = p_0 u + (p_1 - p_0) u^2 / 2 = q, for
    densities p_0 and p_1 in [0, 1] at the ends of a cell and q in
    [0, (p_0 + p_1) / 2], with its denominator den: u = 2 q / den."""
    den = p_0 + np.sqrt(p_0 * p_0 + 2.0 * (p_1 - p_0) * q)
    return np.divide(2.0 * q, den, out=np.zeros_like(q), where=den > 0.0), den


def min_confidence_interval(
    grid: PosteriorGrid,
    y: float = DEFAULT_Y,
    tau: float = DEFAULT_TAU,
) -> ConfidenceInterval:
    """Shortest interval with a node at one end that holds posterior mass y,
    for each record of the grid; a ConvergenceError names any record whose
    mass misses y by more than tau.

    A scan of the cumulative table gives each start node i the interval
    [i, j] of fewest cells that holds y. Each interval of the fewest cells,
    m, is shaved at either end to where it holds y, at the stable root of a
    quadratic, as the density is linear in the end cell. The shortest shave
    wins; ties go to the smaller start, then to the right end. Any other
    interval with a node at one end spans m + k cells, k >= 1, so it is
    longer than m + k - 1 >= m cells, and no shave is longer than m cells.
    That needs cells of equal width, which grid_tables' evenly spaced nodes
    have to about 1e-6 of a cell (its MIN_CELL_FLOATS floor).
    """
    check_interval_target(y, tau)
    nodes = grid.nodes
    density, cumulative = np.atleast_2d(grid.density), np.atleast_2d(grid.cumulative)
    # Each row's targets are nondecreasing, so a count of those at most a
    # value is where a right-sided search would put it. The starts that
    # reach mass y are those whose target stays within the total c[-1] = 1:
    # a prefix of n_valid >= 1, as c[0] = 0. The starts up to `first` share
    # the target of start 0 (their mass is below its rounding), hence one end
    # and more cells than `first`: only `first` needs a search.
    targets = cumulative + y
    first = np.count_nonzero(targets <= targets[:, :1], axis=1) - 1
    n_valid = np.count_nonzero(targets <= cumulative[:, -1:], axis=1)
    # freed before the cells table is built: with both block-sized tables
    # held at once, the allocator hands memory back after every block of a
    # sweep and takes page faults to get it again
    del targets
    # the fewest cells from each searched start that hold y; a start not
    # searched gets more cells than any interval spans
    cells = np.full(cumulative.shape, len(nodes))
    for c, f, n, out in zip(cumulative, first.tolist(), n_valid.tolist(), cells):
        out[f:n] = np.searchsorted(c, c[f:n] + y, side="left") - np.arange(f, n)
    fewest = cells.min(axis=1)
    # the tied starts, by row and then by start
    rows, i = np.divmod(np.flatnonzero(cells == fewest[:, None]), len(nodes))
    rows, i, j = rows[:, None], i[:, None], (i + fewest[rows])[:, None]
    # Shave each tied [i, j] at its right end (column 0) and its left end
    # (column 1): grow [i, j - 1], or [i + 1, j], which holds less than y
    # (else start i + 1 would need fewer cells), from its node `near` towards
    # `far` = j, or i, to x = near + u (far - near), where [near, x] holds
    # |far - near| D s(u): D, the larger density at near and far, scales
    # them to p_0 and p_1, so that nothing overflows, and s is _cell_root's.
    move_left = np.array([False, True])
    lo, hi = i + move_left, j - 1 + move_left
    near, far = np.where(move_left, lo, hi), np.where(move_left, i, j)
    step = nodes[far] - nodes[near]
    d_0, d_1 = density[rows, near], density[rows, far]
    top = np.maximum(d_0, d_1)  # > 0: the end cell holds mass
    p_0, p_1, unit = d_0 / top, d_1 / top, np.abs(step) * top
    kept = cumulative[rows, hi] - cumulative[rows, lo]
    u, den = _cell_root(p_0, p_1, np.clip((y - kept) / unit, 0.0, 0.5 * (p_0 + p_1)))
    # rounding can carry the end past the far node
    x = np.clip(nodes[near] + u * step, nodes[np.minimum(near, far)], nodes[np.maximum(near, far)])
    # s(u) is u den / 2 at the root, which takes fewer roundings than its terms
    mass = (kept + 0.5 * unit * u * den).ravel()
    # the candidates in tie order, by start, the right end's shave first: a
    # stable sort by row, then length, puts each row's winner at its first
    a, b = np.where(move_left, x, nodes[i]).ravel(), np.where(move_left, nodes[j], x).ravel()
    best = np.lexsort((b - a, np.repeat(rows, 2)))[2 * np.searchsorted(rows[:, 0], np.arange(len(cumulative)))]
    a, b, mass = a[best], b[best], mass[best]
    missed = np.flatnonzero(np.abs(mass - y) > tau)
    if missed.size:
        r = missed[0]
        where = f" (row {r} of the block)" if grid.density.ndim == 2 else ""
        raise ConvergenceError(f"confidence interval mass {mass[r]} is not within {tau} of {y}{where}")
    return ConfidenceInterval(_per_record(grid, a), _per_record(grid, b), _per_record(grid, mass))
