"""Bayesian parameter estimation with two-qubit probes under dephasing noise.

The API is the submodules: quantum, bayes, ensemble, config, report,
svgplot and cli.
"""

__version__ = "0.1.0"
