"""Flat key=value experiment configuration.

Parsing checks syntax only, for config lines and the CLI flags that set a key
alike. The library code that takes a value checks its range.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .bayes import DEFAULT_GRID_SIZE, DEFAULT_TAU, DEFAULT_Y
from .quantum import NoiseModel

DEFAULT_DOMAIN = (0.0, math.pi / 2)


class ConfigError(ValueError):
    """Malformed or unknown configuration entry."""


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of an experiment, one field per config key: the one record
    a sweep and each of its cells read their settings from.

    n_e and n_phi left as None resolve by eta when the record is built: 1000
    trials at 20 angles without dephasing (eta = 1), else 500 at 10. output
    left as None is each command's own default path.
    """

    alphas: tuple[float, ...] = (0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5)
    eta: float = 1.0
    n_steps: int = 5
    nus: tuple[int, ...] = tuple(range(1, 11))
    n_e: int | None = None
    n_phi: int | None = None
    grid_size: int = DEFAULT_GRID_SIZE
    y: float = DEFAULT_Y
    tau: float = DEFAULT_TAU
    domain: tuple[float, float] = DEFAULT_DOMAIN
    seed: int = 0
    output: str | None = None

    def __post_init__(self):
        noiseless = self.eta == 1.0
        if self.n_e is None:
            object.__setattr__(self, "n_e", 1000 if noiseless else 500)
        if self.n_phi is None:
            object.__setattr__(self, "n_phi", 20 if noiseless else 10)

    @property
    def noise(self) -> NoiseModel:
        """The dephasing channel; NoiseModel checks eta and n_steps."""
        return NoiseModel(self.eta, self.n_steps)


def _float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not finite: {raw!r}")
    return value


def _int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None


def _list(parse):
    return lambda raw: tuple(parse(part) for part in raw.split(","))


def _domain(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected 'lo,hi', got {raw!r}")
    return _float(parts[0]), _float(parts[1])


def _path(raw: str) -> str:
    if not raw:
        raise ValueError("empty path")
    return raw


# the parser of each key, which is also the name of its ExperimentConfig field
PARSERS = {
    "alphas": _list(_float), "eta": _float, "n_steps": _int, "nus": _list(_int),
    "n_e": _int, "n_phi": _int, "grid_size": _int, "y": _float, "tau": _float,
    "domain": _domain, "seed": _int, "output": _path,
}


def _entries(source: str, flags: dict[str, str | None]):
    """(key, raw value, where it was set) for each config line, then each flag given."""
    set_on = {}
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        # a '#' inside a value, as in output=run#3.csv, is part of the value
        line = re.split(r"(?:^|\s)#", raw_line, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in PARSERS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if set_on.setdefault(key, line_no) != line_no:
            raise ConfigError(f"line {line_no}: key '{key}' is already set on line {set_on[key]}")
        yield key, raw, f"line {line_no}: key '{key}'"
    for key, raw in flags.items():
        if raw is not None:
            yield key, raw, "--" + key.replace("_", "-")


def parse_config(source: str, flags: dict[str, str | None] | None = None) -> ExperimentConfig:
    """Parse a key=value document (one entry per line; a '#' at the start of
    a line or after whitespace opens a comment), then the raw values of CLI
    flags by key, which override it; a None flag is not given.

    Unknown or repeated keys and malformed values raise ConfigError naming the
    offending key and line, or the flag (--n-steps for n_steps).
    """
    values = {}
    for key, raw, where in _entries(source, flags or {}):
        try:
            values[key] = PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return ExperimentConfig(**values)
