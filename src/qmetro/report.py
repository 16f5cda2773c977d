"""Flat CSV serialization of sweep results.

One row per (alpha, nu, true angle) plus one 'mean' row per (alpha, nu).
Numbers carry 12 significant digits so files round-trip exactly.
"""

from __future__ import annotations

from typing import NamedTuple

from .ensemble import SweepRow

MEAN_TOKEN = "mean"


def format_number(x: float) -> str:
    return f"{x:.12g}"


class ResultRow(NamedTuple):
    """One CSV row, its fields in column order."""

    alpha: float
    eta: float
    n_steps: int
    nu: int
    phi_true: float | None  # None marks the per-(alpha, nu) mean row
    mu_phi_mp: float | None
    sigma_phi_mp: float | None
    mu_l_ci: float
    sigma_l_ci: float | None
    baseline_ratio: float | None


CSV_HEADER = ",".join(ResultRow._fields)


def rows_from_sweep(result: dict[tuple[float, int], SweepRow]) -> list[ResultRow]:
    rows: list[ResultRow] = []
    for cell in result.values():
        head = (cell.alpha, cell.eta, cell.n_steps, cell.nu)
        columns = zip(cell.phis, cell.mu_phi_mp, cell.sigma_phi_mp, cell.mu_l_ci, cell.sigma_l_ci)
        rows += [ResultRow(*head, *values, None) for values in columns]
        rows.append(ResultRow(*head, None, None, None, cell.mean_mu_l_ci, None, cell.baseline_ratio))
    return rows


def _optional_text(value: float | None) -> str:
    return "" if value is None else format_number(value)


def _phi_text(phi: float | None) -> str:
    return MEAN_TOKEN if phi is None else format_number(phi)


# the formatter of each ResultRow field; ints are written whole, since
# format_number would write a nu of 10**12 or more in exponent form
_FORMATTERS = (
    format_number,
    format_number,
    str,
    str,
    _phi_text,
    _optional_text,
    _optional_text,
    format_number,
    _optional_text,
    _optional_text,
)


def render_csv(rows: list[ResultRow]) -> str:
    lines = [CSV_HEADER]
    lines += [",".join(fmt(v) for fmt, v in zip(_FORMATTERS, r)) for r in rows]
    return "\n".join(lines) + "\n"
