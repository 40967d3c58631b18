"""Intrinsic-dimension estimation by scanning truncation levels.

For each noise level, reconstructions restricted to the first M basis
vectors are averaged over noise realizations and compared against a
reference; the minimizing M estimates the intrinsic dimension.  A scan of
R realizations draws one (R + 1)-row noise block of sample 0, the sample it
reconstructs (:func:`~regbench.datagen.noise_block`): row 0 perturbs the
reference and rows 1..R are the realizations, shared by every noise level
(common random numbers), so the per-level argmins compare the same draws.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .datagen import Basis, noise_block
from .linop import DenseOperator, apply, compute_svd, filtered_solve
from .tikhonov import reconstruct
from .truncated import subspace_solver


@dataclass(frozen=True)
class DimScanConfig:
    """Scan grid and reference policy.

    With ``use_exact_truth`` the scan compares against the ground truth;
    otherwise against a full reconstruction at the (small) reference noise
    level, mimicking the practical situation where the truth is unknown.
    """

    m_grid: tuple[int, ...]
    alpha: float
    delta_list: tuple[float, ...]
    realizations: int = 100
    use_exact_truth: bool = False
    alpha_ref: float = 0.03
    delta_ref: float = 0.01
    consensus_delta_min: float = 0.05
    seed: int = 0

    def __post_init__(self):
        m_grid = tuple(int(m) for m in self.m_grid)
        if not m_grid or any(b <= a for a, b in zip(m_grid, m_grid[1:])):
            raise ValueError("m_grid must be nonempty and strictly increasing")
        if m_grid[0] < 0:
            raise ValueError("m_grid entries must be nonnegative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if not self.delta_list:
            raise ValueError("delta_list must be nonempty")
        if not all(0.0 <= d < math.inf for d in self.delta_list):
            raise ValueError("noise levels must be finite and nonnegative")
        object.__setattr__(self, "m_grid", m_grid)
        object.__setattr__(self, "delta_list", tuple(float(d) for d in self.delta_list))


@dataclass(frozen=True)
class DimScanResult:
    m_grid: tuple[int, ...]
    delta_list: tuple[float, ...]
    mean_errors: np.ndarray = field(repr=False)
    argmin_m: tuple[int, ...]
    estimated_n: int


def reference_reconstruction(op: DenseOperator, x_true: np.ndarray,
                             alpha_ref: float, delta_ref: float,
                             noise: np.ndarray) -> np.ndarray:
    """Full (untruncated) reconstruction of the clean data perturbed by
    ``delta_ref * noise``, used as a truth stand-in."""
    return reconstruct(op, apply(op, x_true) + delta_ref * noise, alpha_ref)


def scan(op: DenseOperator, basis: Basis, x_true: np.ndarray,
         config: DimScanConfig) -> DimScanResult:
    """Mean reconstruction error per (truncation level, noise level) and
    the resulting dimension estimate.

    For the ``"svd"`` basis, which must hold this operator's right singular
    vectors, each level is one call of the spectral-filter kernel; other
    bases solve the restricted normal equations.  Realization r at noise
    level delta is ``y + delta * block[r + 1]`` at every truncation level;
    ties in the per-level means break toward the smallest level.  The
    consensus estimate is the mode of the per-level argmins over noise
    levels at or above ``consensus_delta_min`` (all levels when none
    qualify).
    """
    x_true = np.asarray(x_true, dtype=float)
    svd = compute_svd(op)
    block = noise_block(config.seed, 0, config.realizations + 1, op.m)
    if config.use_exact_truth:
        reference = x_true
    else:
        reference = reference_reconstruction(op, x_true, config.alpha_ref,
                                             config.delta_ref, block[0])
    y_true = apply(op, x_true)
    noise = block[1:].T
    if basis.kind == "svd":
        # restricted to the operator's own right singular vectors, the
        # solve is the truncated spectral filter
        s = svd.sigma
        solvers = [partial(filtered_solve, svd, s[:m] / (s[:m] * s[:m] + config.alpha))
                   for m in config.m_grid]
    else:
        solvers = [subspace_solver(op, basis, m, config.alpha) for m in config.m_grid]
    root_n = np.sqrt(op.n)

    mean_errors = np.zeros((len(config.m_grid), len(config.delta_list)))
    for di, delta in enumerate(config.delta_list):
        noisy = y_true[:, None] + delta * noise
        for mi, solve in enumerate(solvers):
            diffs = solve(noisy) - reference[:, None]
            mean_errors[mi, di] = np.linalg.norm(diffs, axis=0).mean() / root_n

    # smallest level within 1e-12 of the column minimum wins, so exact
    # plateaus (noiseless case) resolve to the lowest dimension
    argmin_m = []
    for di in range(len(config.delta_list)):
        col = mean_errors[:, di]
        best = col.min()
        argmin_m.append(config.m_grid[int(np.argmax(col <= best + 1e-12))])
    argmin_m = tuple(argmin_m)

    eligible = [m for m, delta in zip(argmin_m, config.delta_list)
                if delta >= config.consensus_delta_min]
    if not eligible:
        eligible = list(argmin_m)
    counts = Counter(eligible)
    top = max(counts.values())
    consensus = min(m for m, cnt in counts.items() if cnt == top)

    return DimScanResult(
        m_grid=config.m_grid,
        delta_list=config.delta_list,
        mean_errors=mean_errors,
        argmin_m=argmin_m,
        estimated_n=consensus,
    )
