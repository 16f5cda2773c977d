"""Flat key=value experiment configuration with validated defaults."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bayes import DEFAULT_GRID_SIZE, DEFAULT_TAU, DEFAULT_Y
from .ensemble import DEFAULT_DOMAIN


class ConfigError(ValueError):
    """Malformed, out-of-range, or unknown configuration entry."""


DEFAULT_ALPHAS = (0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5)
DEFAULT_NUS = tuple(range(1, 11))


@dataclass
class ExperimentConfig:
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    eta: float = 1.0
    n_steps: int = 5
    nus: tuple[int, ...] = DEFAULT_NUS
    n_e: int | None = None  # defaults depend on eta, see resolved_n_e
    n_phi: int | None = None
    grid_size: int = DEFAULT_GRID_SIZE
    y: float = DEFAULT_Y
    tau: float = DEFAULT_TAU
    domain: tuple[float, float] = DEFAULT_DOMAIN
    seed: int = 0
    output_path: str = "results.csv"

    @property
    def resolved_n_e(self) -> int:
        if self.n_e is not None:
            return self.n_e
        return 1000 if self.eta == 1.0 else 500

    @property
    def resolved_n_phi(self) -> int:
        if self.n_phi is not None:
            return self.n_phi
        return 20 if self.eta == 1.0 else 10


def _fail(key: str, line_no: int, detail: str) -> None:
    raise ConfigError(f"line {line_no}: key '{key}': {detail}")


def _parse_float(key, line_no, raw, lo=None, hi=None) -> float:
    try:
        value = float(raw)
    except ValueError:
        _fail(key, line_no, f"not a number: {raw!r}")
    if not math.isfinite(value):
        _fail(key, line_no, f"not finite: {raw!r}")
    if lo is not None and value < lo or hi is not None and value > hi:
        _fail(key, line_no, f"value {value} outside range [{lo}, {hi}]")
    return value


def _parse_int(key, line_no, raw, lo=None, hi=None) -> int:
    try:
        value = int(raw)
    except ValueError:
        _fail(key, line_no, f"not an integer: {raw!r}")
    if lo is not None and value < lo or hi is not None and value > hi:
        _fail(key, line_no, f"value {value} outside range [{lo}, {hi}]")
    return value


def _parse_list(key, line_no, raw, parse, lo=None, hi=None) -> tuple:
    values = tuple(parse(key, line_no, part, lo, hi) for part in raw.split(","))
    if len(set(values)) < len(values):
        _fail(key, line_no, f"duplicate values in {raw!r}")
    return values


def parse_config(source: str) -> ExperimentConfig:
    """Parse a key=value document (one entry per line, '#' comments).

    Unknown keys and out-of-range values raise ConfigError naming the
    offending key and line.
    """
    cfg = ExperimentConfig()
    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key == "alphas":
            cfg.alphas = _parse_list(key, line_no, raw, _parse_float, 0.0, 1.0)
        elif key == "eta":
            cfg.eta = _parse_float(key, line_no, raw, 0.0, 1.0)
        elif key == "n_steps":
            cfg.n_steps = _parse_int(key, line_no, raw, 1)
        elif key == "nus":
            cfg.nus = _parse_list(key, line_no, raw, _parse_int, 0)
        elif key == "n_e":
            cfg.n_e = _parse_int(key, line_no, raw, 2)
        elif key == "n_phi":
            cfg.n_phi = _parse_int(key, line_no, raw, 1)
        elif key == "grid_size":
            cfg.grid_size = _parse_int(key, line_no, raw, 3)
        elif key == "y":
            cfg.y = _parse_float(key, line_no, raw)
            if not 0.0 < cfg.y < 1.0:
                _fail(key, line_no, f"value {cfg.y} outside open range (0, 1)")
        elif key == "tau":
            cfg.tau = _parse_float(key, line_no, raw)
            if cfg.tau <= 0:
                _fail(key, line_no, f"value {cfg.tau} must be positive")
        elif key == "domain":
            parts = raw.split(",")
            if len(parts) != 2:
                _fail(key, line_no, f"expected 'lo,hi', got {raw!r}")
            lo = _parse_float(key, line_no, parts[0])
            hi = _parse_float(key, line_no, parts[1])
            if lo >= hi:
                _fail(key, line_no, f"requires lo < hi, got {lo} >= {hi}")
            cfg.domain = (lo, hi)
        elif key == "seed":
            cfg.seed = _parse_int(key, line_no, raw, 0, 2**64 - 1)
        elif key == "output":
            if not raw:
                _fail(key, line_no, "empty path")
            cfg.output_path = raw
        else:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
    return cfg
