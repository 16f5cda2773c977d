"""The benchmark's workloads: one `qmetro sweep --plot` configuration each.

Every config key is written out explicitly, so a change to the program's
defaults cannot silently change what a workload measures. `n_e` is sized so
that one sweep takes a few seconds on a 2-core host, which lets a run take
the median of several sweeps.

`paper-noisy-w2` is not listed in BENCHMARK.json. With two workers on a
2-core host it has no spare core, and the spread of its run medians over
ten runs reached 0.29, above the largest bound (0.25) a listed workload
may have. Run it with `--workload paper-noisy-w2` or `--all`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

PAPER_ALPHAS = (0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5)
HALF_PI = math.pi / 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    alphas: tuple[float, ...]
    eta: float
    n_steps: int
    nus: tuple[int, ...]
    n_phi: int
    n_e: int
    workers: int
    # large-nu only: mean rows fall with nu, and the Bell/separable ratio
    # approaches 1/sqrt(2)
    asymptote_check: bool = False
    grid_size: int = 1024
    y: float = 0.95
    tau: float = 1e-3
    domain: tuple[float, float] = (0.0, HALF_PI)

    def trials_at(self, n_e: int) -> int:
        return len(self.alphas) * len(self.nus) * self.n_phi * n_e

    def config_text(self, n_e: int, output: str) -> str:
        """The sweep config file; the seed is passed on the command line."""
        keys = {
            "alphas": ",".join(repr(a) for a in self.alphas),
            "eta": repr(self.eta),
            "n_steps": str(self.n_steps),
            "nus": ",".join(str(nu) for nu in self.nus),
            "n_e": str(n_e),
            "n_phi": str(self.n_phi),
            "grid_size": str(self.grid_size),
            "y": repr(self.y),
            "tau": repr(self.tau),
            "domain": f"{self.domain[0]!r},{self.domain[1]!r}",
            "output": output,
        }
        return "".join(f"{k}={v}\n" for k, v in keys.items())


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-noiseless",
            why="README default sweep (the paper's headline curve), 1 worker; per-trial sampling"
            " dominates and most records repeat within a phi batch",
            alphas=PAPER_ALPHAS,
            eta=1.0,
            n_steps=5,
            nus=tuple(range(1, 11)),
            n_phi=20,
            n_e=100,
            workers=1,
        ),
        Workload(
            name="paper-noisy-w2",
            why="eta=0.9 density-matrix path with 2 pool workers over 40 cells of unequal cost;"
            " the only workload with pool balance, per-worker table rebuilds and IPC",
            alphas=PAPER_ALPHAS,
            eta=0.9,
            n_steps=5,
            nus=tuple(range(1, 11)),
            n_phi=10,
            n_e=300,
            workers=2,
        ),
        Workload(
            name="large-nu",
            why="nu from 100 to 3000 with 1 worker; most records are fresh, so the posterior"
            " and CI search dominate and repeated-record tables are bypassed",
            alphas=(0.0, 0.5),
            eta=1.0,
            n_steps=5,
            nus=(100, 300, 1000, 3000),
            n_phi=4,
            n_e=800,
            workers=1,
            asymptote_check=True,
        ),
    )
}
