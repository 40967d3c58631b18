"""Tikhonov reconstruction, closed-form worst-case bounds, parameter rules.

The worst-case bound and the mismatch ratio are evaluated exactly from
their piecewise closed forms; reconstruction is the SVD filter kernel
:func:`~regbench.linop.filtered_solve`.  The parameter rule gives
``alpha = inf`` where the optimal scheme returns the zero vector, and the
bound takes that alpha as its limit.
"""

from __future__ import annotations

import math

import numpy as np

from .linop import DenseOperator, compute_svd, filtered_solve


def reconstruct(op: DenseOperator, y: np.ndarray, alpha: float) -> np.ndarray:
    """Regularized reconstruction ``(A*A + alpha I)^-1 A* y``, summed as
    the filtered singular expansion."""
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    y = np.asarray(y, dtype=float)
    if y.shape[0] != op.m:
        raise ValueError(f"expected data of length {op.m}, got {y.shape[0]}")
    svd = compute_svd(op)
    s = svd.sigma
    return filtered_solve(svd, s / (s * s + alpha), y)


def wc_bound(alpha: float, delta, rho: float):
    """Closed-form worst-case reconstruction error for noise level ``delta``
    and source constant ``rho`` at regularization strength ``alpha``.

    ``alpha = inf`` is the zero reconstruction, whose bound is its limit
    ``rho``.  ``delta`` may be an array of noise levels; the result then has
    its shape, otherwise it is a float.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    delta_arr = np.asarray(delta, dtype=float)
    if (delta_arr < 0).any() or rho <= 0:
        raise ValueError("need delta >= 0 and rho > 0")
    if alpha <= 1.0:
        out = 0.5 * (delta_arr / math.sqrt(alpha) + math.sqrt(alpha) * rho)
    elif alpha < math.inf:
        out = (delta_arr + alpha * rho) / (1.0 + alpha)
    else:
        out = np.full(delta_arr.shape, float(rho))
    return float(out) if out.ndim == 0 else out


def optimal_alpha(delta: float, rho: float) -> float:
    """A-priori rule ``alpha = delta / rho``; ``inf``, the zero
    reconstruction, once the noise level exceeds the source bound."""
    if delta < 0 or rho <= 0:
        raise ValueError("need delta >= 0 and rho > 0")
    if delta > rho:
        return math.inf
    return delta / rho


def relative_wc(delta_bar: float, delta: float, rho: float) -> float:
    """Worst-case error ratio of the rule tuned at ``delta_bar`` applied at
    ``delta``, relative to the optimally tuned rule.

    Only the regime where both induced regularization strengths lie in
    (0, 1) is covered; anything else raises.
    """
    for name, level in (("delta_bar", delta_bar), ("delta", delta)):
        if not 0.0 < level / rho < 1.0:
            raise ValueError(f"{name} must give a regularization strength in (0, 1)")
    return 0.5 * (math.sqrt(delta / delta_bar) + math.sqrt(delta_bar / delta))
