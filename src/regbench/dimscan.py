"""Intrinsic-dimension estimation by scanning truncation levels.

For each noise level, reconstructions restricted to the first M basis
vectors are averaged over independent noise realizations and compared
against a reference; the minimizing M estimates the intrinsic dimension.
Noise realizations are keyed by (seed, noise-level index, realization), so
the scan result is independent of evaluation order; the reference's noise
is the first realization of sample 0's noise block.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .datagen import Basis, add_noise, noise_block
from .linop import DenseOperator, apply, compute_svd, filtered_solve
from .tikhonov import reconstruct
from .truncated import subspace_solver

_CELL_TAG = 1


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
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
        if not self.delta_list:
            raise ValueError("delta_list must be nonempty")
        object.__setattr__(self, "m_grid", m_grid)
        object.__setattr__(self, "delta_list", tuple(float(d) for d in self.delta_list))


@dataclass(frozen=True)
class DimScanResult:
    m_grid: tuple[int, ...]
    delta_list: tuple[float, ...]
    mean_errors: np.ndarray = field(repr=False)
    argmin_m: tuple[int, ...]
    estimated_n_per_delta: tuple[int, ...]
    estimated_n: int


def reference_reconstruction(op: DenseOperator, x_true: np.ndarray,
                             alpha_ref: float, delta_ref: float,
                             seed: int) -> np.ndarray:
    """Full (untruncated) reconstruction of lightly perturbed clean data,
    used as a truth stand-in.  The scan reconstructs the first sample, so
    the perturbation is realization 0 of sample 0's noise block."""
    y = apply(op, x_true)
    return reconstruct(op, y + delta_ref * noise_block(seed, 0, 1, op.m)[0], alpha_ref)


def scan(op: DenseOperator, basis: Basis, x_true: np.ndarray,
         config: DimScanConfig) -> DimScanResult:
    """Mean reconstruction error per (truncation level, noise level) and
    the resulting dimension estimate.

    For the ``"svd"`` basis, which must hold this operator's right singular
    vectors, each level is one call of the spectral-filter kernel; other
    bases solve the restricted normal equations.  Within one (noise level,
    realization) cell every truncation level sees the same noise vector;
    ties in the per-level means break toward the smallest level.  The
    consensus estimate is the mode of the per-level argmins over noise
    levels at or above ``consensus_delta_min`` (all levels when none
    qualify).
    """
    x_true = np.asarray(x_true, dtype=float)
    svd = compute_svd(op)
    if config.use_exact_truth:
        reference = x_true
    else:
        reference = reference_reconstruction(op, x_true, config.alpha_ref,
                                             config.delta_ref, config.seed)
    y_true = apply(op, x_true)
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
        noisy = np.column_stack([
            add_noise(y_true, delta, (config.seed, _CELL_TAG, di, r)).y_noisy
            for r in range(config.realizations)
        ])
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
        estimated_n_per_delta=argmin_m,
        estimated_n=consensus,
    )
