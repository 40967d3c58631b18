"""Truncated Tikhonov regularization and its exact expected-error model.

Includes the singular system of an operator restricted to the first M
vectors of an orthonormal basis, the mode-wise expected squared error of
the noisy reconstruction, and the alpha threshold above which truncating
exactly at the intrinsic dimension is optimal.

On an orthonormal ``B_M`` the restricted Tikhonov problem is plain
Tikhonov on ``A B_M``, so its reconstruction is the spectral-filter kernel
:func:`~regbench.linop.filtered_solve` applied to the singular system of
``A B_M`` (:func:`restricted_system`) with the filter ``s / (s^2 + alpha)``,
and its errors are :func:`~regbench.linop.filtered_errors` on that system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import Basis
from .linop import DenseOperator, SvdSystem, _thin_svd, compute_svd


def restricted_system(op: DenseOperator, basis: Basis, m: int) -> SvdSystem:
    """Singular system of ``op`` restricted to the first ``m`` basis vectors,
    with right vectors in the operator's domain.

    The ``"svd"`` basis, which must hold this operator's right singular
    vectors, slices the operator's cached system; any other orthonormal
    basis takes one thin SVD of ``A B_m`` (:func:`~regbench.linop._thin_svd`)
    and maps its right vectors back through ``B_m``.
    """
    if m < 0 or m > basis.size:
        raise ValueError("basis truncation level out of range")
    if basis.kind == "svd":
        svd = compute_svd(op)
        return SvdSystem(svd.sigma[:m], svd.left_vectors[:, :m], svd.right_vectors[:, :m])
    b = basis.vectors[:, :m]
    svd = _thin_svd(op.entries @ b)
    return SvdSystem(svd.sigma, svd.left_vectors, b @ svd.right_vectors)


@dataclass(frozen=True)
class ExpectedErrorModel:
    """Mode-wise model of the expected squared reconstruction error.

    ``c`` holds the truth coefficients on the first ``len(c)`` right
    singular vectors, ``beta2`` the per-mode noise second moments, and
    ``sigma`` the singular values; all expansions are in the Euclidean norm
    of the singular basis, which keeps the identities exact.
    """

    c: np.ndarray
    beta2: np.ndarray
    sigma: np.ndarray
    alpha: float

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        beta2 = np.asarray(self.beta2, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if beta2.shape != sigma.shape:
            raise ValueError("beta2 and sigma must cover the same modes")
        if c.size > sigma.size:
            raise ValueError("more truth coefficients than modes")
        if (beta2 < 0).any() or (sigma < 0).any():
            raise ValueError("beta2 and sigma must be nonnegative")
        for arr in (c, beta2, sigma):
            arr.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "beta2", beta2)
        object.__setattr__(self, "sigma", sigma)

    @property
    def n_dim(self) -> int:
        return self.c.size

    @property
    def n_modes(self) -> int:
        return self.sigma.size

    @property
    def a_factors(self) -> np.ndarray:
        return self.alpha / (self.sigma ** 2 + self.alpha)

    @property
    def b_factors(self) -> np.ndarray:
        return self.sigma / (self.sigma ** 2 + self.alpha)


def expected_sq_error(model: ExpectedErrorModel, m: int) -> float:
    """Exact expected squared error of the level-``m`` truncated scheme.

    Retained truth modes contribute shrinkage plus noise, retained modes
    beyond the truth contribute pure noise, and truncated truth modes
    contribute their full squared coefficient.
    """
    if m < 0 or m > model.n_modes:
        raise ValueError("truncation level out of range")
    n = model.n_dim
    a2 = model.a_factors ** 2
    b2 = model.b_factors ** 2
    both = min(m, n)
    total = float(np.sum(a2[:both] * model.c[:both] ** 2 + b2[:both] * model.beta2[:both]))
    if m > n:
        total += float(np.sum(b2[n:m] * model.beta2[n:m]))
    if n > m:
        total += float(np.sum(model.c[m:n] ** 2))
    return total


def alpha_threshold(model: ExpectedErrorModel) -> float:
    """Smallest alpha above which the expected error is nonincreasing below
    the truth dimension, so its argmin over truncation levels is exact."""
    if (model.c == 0).any():
        raise ValueError("all truth coefficients must be nonzero")
    n = model.n_dim
    gaps = model.beta2[:n] / model.c ** 2 - model.sigma[:n] ** 2
    return max(0.0, float(gaps.max())) / 2.0


def argmin_expected_level(model: ExpectedErrorModel, m_grid) -> int:
    """Level minimizing the expected squared error; smallest level wins ties
    within an absolute 1e-12 tolerance."""
    m_grid = sorted(set(int(m) for m in m_grid))
    if not m_grid:
        raise ValueError("m_grid must be nonempty")
    values = [expected_sq_error(model, m) for m in m_grid]
    best = min(values)
    for m, val in zip(m_grid, values):
        if val <= best + 1e-12:
            return m
    return m_grid[0]
