"""Intrinsic-dimension estimation by scanning truncation levels.

For each noise level, the errors against a reference of reconstructions
restricted to the first M basis vectors are averaged over noise
realizations; the minimizing M estimates the intrinsic dimension.  A scan of
R realizations draws one (R + 1)-row noise block of sample 0, the sample it
reconstructs (:func:`~regbench.datagen.noise_block`): row 0 perturbs the
reference and rows 1..R are the realizations, shared by every noise level
(common random numbers), so the per-level argmins compare the same draws.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .datagen import Basis, noise_block
from .linop import DenseOperator, filtered_errors
from .tikhonov import reconstruct
from .truncated import restricted_system

if TYPE_CHECKING:
    from .harness import ExperimentConfig

# the consensus estimate counts the argmins of noise levels from here up
CONSENSUS_DELTA_MIN = 0.05


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
    return reconstruct(op, op.entries @ x_true + delta_ref * noise, alpha_ref)


def scan(op: DenseOperator, basis: Basis, x_true: np.ndarray,
         config: ExperimentConfig) -> DimScanResult:
    """Mean reconstruction error per (truncation level, noise level) and
    the resulting dimension estimate.

    Reads ``config.method``: ``m_grid`` (truncation levels), ``alpha``,
    ``exact_truth`` (compare against ``x_true`` itself, else against the
    reference reconstruction at ``alpha_ref`` and ``delta_ref``);
    ``config.grid``: ``delta`` (noise levels) and ``realizations``; and
    ``config.seed``.

    Each truncation level is one singular system
    (:func:`~regbench.truncated.restricted_system`; the ``"svd"`` basis must
    hold this operator's right singular vectors) with the Tikhonov filter
    ``s / (s^2 + alpha)``, and its errors at every noise level and
    realization are one call of the coefficient-space error kernel
    :func:`~regbench.linop.filtered_errors`; no reconstruction is built.
    Realization r at noise level delta is ``y + delta * block[r + 1]`` at
    every truncation level; ties in the per-level means break toward the
    smallest level.  The consensus estimate is the mode of the per-level
    argmins over noise levels at or above ``CONSENSUS_DELTA_MIN`` (all
    levels when none qualify).
    """
    method, m_grid, deltas = config.method, config.method.m_grid, config.grid.delta
    block = noise_block(config.seed, 0, config.grid.realizations + 1, op.m)
    if method.exact_truth:
        reference = x_true
    else:
        reference = reference_reconstruction(op, x_true, method.alpha_ref,
                                             method.delta_ref, block[0])
    y_true = op.entries @ x_true
    noise = block[1:].T

    mean_errors = np.zeros((len(m_grid), len(deltas)))
    for mi, m in enumerate(m_grid):
        system = restricted_system(op, basis, m)
        s, u, w = system.sigma, system.left_vectors, system.right_vectors
        if basis.kind == "svd":
            ref_coeff = w.T @ reference
        else:
            # W = B_m V is orthonormal only to round-off; a least-squares
            # residual is orthogonal to W, so the split below has no cross term
            ref_coeff = np.linalg.lstsq(w, reference, rcond=None)[0]
        outside = float(np.sum((reference - w @ ref_coeff) ** 2))
        errors = filtered_errors(s / (s * s + method.alpha), u.T @ y_true, u.T @ noise,
                                 deltas, ref_coeff, outside, op.n)
        mean_errors[mi] = errors.mean(axis=1)

    # smallest level within 1e-12 of the column minimum wins, so exact
    # plateaus (noiseless case) resolve to the lowest dimension
    best = np.argmax(mean_errors <= mean_errors.min(axis=0) + 1e-12, axis=0)
    argmin_m = tuple(m_grid[int(i)] for i in best)

    eligible = [m for m, delta in zip(argmin_m, deltas) if delta >= CONSENSUS_DELTA_MIN]
    counts = Counter(eligible or argmin_m)
    top = max(counts.values())
    consensus = min(m for m, cnt in counts.items() if cnt == top)
    return DimScanResult(m_grid=m_grid, delta_list=deltas, mean_errors=mean_errors,
                         argmin_m=argmin_m, estimated_n=consensus)
