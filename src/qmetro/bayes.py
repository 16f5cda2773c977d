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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

DEFAULT_GRID_SIZE = 1024
DEFAULT_Y = 0.95  # posterior mass of the confidence interval
DEFAULT_TAU = 1e-3  # tolerance the interval's mass is checked against
# the least target mass that changes a cumulative mass it is added to, 1 included
MIN_Y = 2.0**-53
# a block is solved on the columns where some row's shifted log density
# exceeds this: a density of 2**-100 of that row's peak
SUPPORT_CUT = -100.0 * math.log(2.0)
# log 0 in a log-probability table counts as this: a zero count adds exactly
# -0.0, and any int64 counts in 4 columns times it sum to a finite float
LOG_FLOOR = -1e280


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
    """Normalized posterior density on a run of G >= 2 of the nodes of
    ensemble.grid_tables (a block's support, or the columns its caller
    names), which increase strictly by at least the smallest normal float,
    with its cumulative-mass table, each of shape (G,) for one record or
    (R, G) for a block."""

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
    *,
    columns: slice | None = None,
) -> PosteriorGrid:
    """Posterior of one count record or a block of them, from per-node log
    outcome probabilities (shape (G, K)), as built by ensemble.grid_tables; a
    record holds one count per column of the table. The multinomial prefactor
    is omitted; it cancels in normalization.

    The grid is the given columns of the nodes, a step-1 slice of at least
    two (slice(None) for all of them), or by default the block's support:
    the columns where some row's density is above SUPPORT_CUT of its peak,
    and one node on each side, clipped to the grid. most_probable and
    min_confidence_interval give the bits of the every-node posterior on
    the support.

    Why the bits agree. A dropped column's density is below 2**-100 of each
    row's peak, while the segments beside the peak alone hold at least half
    of peak * dx, so the dropped mass is at most 2 G 2**-100 of a row's
    total (2**-88 at G = 1024). Each segment past the window is below half
    an ulp of the running sum it would be added to, so it leaves that sum,
    the total and the normalization as they are. The segments before the
    window shift each cumulative value by at most that 2 G 2**-100 of the
    total. Near y and 1 - y, which the search compares with and which are
    both at least 2**-53, that is at most 2**-35 of a value at G = 1024, so
    a comparison or a rounding can change only where a value lies that
    close to y or to a rounding boundary. The mode is the same node: each
    row's peak, at shifted log density 0, is in the support.
    tests/test_bayes.py checks both solves bit for bit.
    """
    k = check_counts(counts, log_profiles.shape[1])
    block = np.atleast_2d(k)
    size = len(log_profiles)
    # one allocation per block: the shifted log densities fill table[0]; the
    # window's density is then copied to the front of table[1], and its
    # cumulative table written over the front of table[0]
    table = np.empty((2, len(block), size))
    log_density = table[0]
    # one contraction per block and no BLAS call: each node's log likelihood
    # is the column-ordered sum of count times log probability, each product
    # and sum rounded once, so a block row keeps the bits of its lone record
    np.einsum("rk,kg->rg", block.astype(float), np.maximum(log_profiles.T, LOG_FLOOR, order="C"), out=log_density)
    peak = np.max(log_density, axis=1)
    # an impossible record peaks at or below the floor, any possible node above -7e21
    dead = np.flatnonzero(peak <= 0.5 * LOG_FLOOR)
    if dead.size:
        raise DegenerateEvidenceError(f"likelihood is zero everywhere for counts {block[dead[0]].tolist()}")
    log_density -= peak[:, None]
    if columns is None:
        support = np.flatnonzero(log_density.max(axis=0) > SUPPORT_CUT)
        columns = slice(max(support[0] - 1, 0), support[-1] + 2)
    window = range(size)[columns] if isinstance(columns, slice) and columns.step in (None, 1) else range(0)
    if len(window) < 2:
        raise ValueError(f"columns must be a step-1 slice of at least 2 of the {size} grid nodes, got {columns!r}")
    lo, hi = window.start, window.stop
    rows, width = len(block), hi - lo
    # views of both fronts; the log densities are copied out before the
    # cumulative table is written over them
    cumulative, density = table.reshape(2, -1)[:, : rows * width].reshape(2, rows, width)
    density[...] = log_density[:, lo:hi]
    nodes = nodes[lo:hi]
    np.exp(density, out=density)
    # trapezoid segment masses, segment k at column k + 1
    cumulative[:, 0] = 0.0
    np.add(density[:, 1:], density[:, :-1], out=cumulative[:, 1:])
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
