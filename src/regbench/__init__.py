"""Deterministic bench for regularized reconstruction of linear inverse problems.

The package provides dense benchmark operators built with their singular systems,
source-condition data generators, Tikhonov and truncated-Tikhonov
reconstruction with closed-form worst-case error bounds, subspace dimension
scanning, a generalized-LASSO solver with KKT diagnostics, and a CLI harness
that reproduces the noise-mismatch and dimension-scan experiment grids.
"""

__version__ = "0.1.0"

# the CLI module ``harness`` is not imported here: ``python -m
# regbench.harness`` must find it unimported, and ``from regbench import
# harness`` loads it on demand
from . import datagen, dimscan, lasso, linop, tikhonov, truncated

__all__ = [
    "__version__",
    "datagen",
    "dimscan",
    "harness",
    "lasso",
    "linop",
    "tikhonov",
    "truncated",
]
