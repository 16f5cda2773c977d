"""What a user pays before the first trial of a sweep.

Imports the CLI, parses the workload config, and builds the outcome
probability table of every probe on the posterior grid, once each. The
benchmark times this script from launch to exit:

    python3 sweepbench/setup_probe.py sweep.cfg
"""

import sys
from pathlib import Path

import numpy as np
import qmetro.cli  # noqa: F401  (the import cost a sweep pays)
from qmetro import config, quantum

cfg = config.parse_config(Path(sys.argv[1]).read_text(encoding="utf-8"))
nodes = np.linspace(cfg.domain[0], cfg.domain[1], cfg.grid_size)
noise = quantum.NoiseModel(cfg.eta, cfg.n_steps)
for alpha in cfg.alphas:
    quantum.profile_grid(alpha, nodes, noise)
