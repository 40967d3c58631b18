"""Generalized-LASSO reconstruction with a fixed sparsifying matrix.

Minimizes ``||Ax - y||_2^2 + alpha ||Wx||_1`` (no 1/2 on the data term, so
the optimality relation carries a factor 2): x is optimal exactly when
``2 A^T (Ax - y) + alpha W^T gamma = 0`` for some ``gamma`` in the
subdifferential of the l1 norm at Wx.  W is a plain p x n array:
``np.eye(n)``, :func:`diff1d`, :func:`grad2d`, or any other matrix as wide
as the operator.

:func:`solve_batch` runs ADMM (Boyd et al. 2011) on the split ``Wx = z``
over an n x B block of independent problems, each column with its own
data and alpha.  With penalty rho and scaled dual u, one step is::

    x = (2 A^T A + rho W^T W)^+ (2 A^T y + rho W^T (z - u))
    z = soft(Wx + u, alpha / rho),    u = u + Wx - z

and the subgradient estimate is ``gamma = rho u / alpha``.  The penalty is
``rho = KAPPA * alpha``.  It needs no spectral information (a spectral
rule such as ``2 sigma_max sigma_min / ||W||^2`` crawls when sigma_min is
tiny, as on the Radon operator), and it makes the threshold
``alpha / rho`` and the dual box ``|u| <= 1 / KAPPA`` the same for every
column, so one soft-threshold serves the block.  Columns are grouped by
alpha, and each distinct alpha has one cached factor.  The factor is a
pseudoinverse: when null(A) and null(W) share a direction, the matrix is
singular, and the pseudoinverse still gives an exact (minimum-norm)
x-update.  Only Wx enters the z- and u-updates, so the loop runs on
p-vectors, ``Wx = c + H (z - u)`` with a per-column c and one p x p
matrix H per alpha; x itself is formed once per ``POLISH_EVERY`` steps.

Every ``POLISH_EVERY`` steps, each live column whose sign pattern of z
held over those steps (or whose KKT residual is already within ``tol``)
is polished by active set, as OSQP does (Stellato et al. 2020), on a
pattern it was not tried on before.  That is the sign pattern of z,
unless the column was tried on it already; then it is the sign pattern of
the x-update's Wx, as :func:`_kkt` reads it, once that pattern has held
since the previous polish step.  The second pattern catches a row of W
with a tiny norm, whose entry of z the soft-threshold can hold at 0 long
after Wx has settled off 0.  On a pattern's support S and its complement
C the polish solves the equality-constrained KKT system::

    [2 A^T A   W_C^T] [x ]   [2 A^T y - alpha W_S^T sign(z_S)]
    [W_C       0    ] [mu] = [0                              ]

and accepts the result when ``gamma_C = mu / alpha`` lies in [-1, 1], the
signs of ``W_S x`` are the pattern's, and the relative KKT residual is
within ``tol``.  Then ``gamma = (sign(z_S), gamma_C)`` is a subgradient at
Wx that makes x stationary: x is an exact optimum up to round-off, and the
column is *certified*, frozen and dropped from the block.  A column the
polish cannot certify (W_C with dependent rows, which grad2d can give,
leaves mu non-unique) stops once the relative KKT residual of its ADMM
iterate reaches ``tol``.

:func:`solve_batch` is the one way to solve: a single problem is a batch
of one column.  Alpha tuning and the sparse mismatch grid batch and score
their solves through one function of the harness
(:func:`regbench.harness.solve_lasso_samples`).  :class:`AlphaRule`
interpolates the tuned alphas over the noise level, and
:func:`solver_totals` sums the per-column diagnostics for a manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linop import DenseOperator

# ADMM penalty per unit of alpha (rho = KAPPA * alpha) and the number of
# ADMM steps between polish attempts
KAPPA = 2.0
POLISH_EVERY = 25
# default bound on the relative KKT residual of a converged column
TOL = 1e-10
# round-off allowance on |gamma| <= 1 off the support when certifying
GAMMA_SLACK = 1e-12


def diff1d(n: int) -> np.ndarray:
    """Forward differences of adjacent entries, an (n-1) x n matrix."""
    if n < 2:
        raise ValueError("need at least two entries for differences")
    eye = np.eye(n)
    return eye[1:] - eye[:-1]


def grad2d(side: int) -> np.ndarray:
    """Stacked horizontal and vertical first differences of a square image
    flattened row-major, a 2 side (side-1) x side^2 matrix."""
    if side < 2:
        raise ValueError("need at least a 2x2 image")
    diff, eye = diff1d(side), np.eye(side)
    # "+ 0.0" turns the -0.0 entries of the Kronecker products into 0.0
    return np.vstack([np.kron(eye, diff), np.kron(diff, eye)]) + 0.0


@dataclass(frozen=True)
class BatchSolution:
    """Per-column results of :func:`solve_batch`; column j solves problem j.

    ``residual`` is the relative KKT residual of the returned pair and
    ``kkt_residual`` the absolute one.  A column is ``certified`` when the
    polish proved it optimal, and ``converged`` when it is certified or its
    residual reached ``tol`` within ``max_iter`` steps.
    """

    x: np.ndarray
    gamma: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual: np.ndarray
    kkt_residual: np.ndarray
    certified: np.ndarray


def _on_support(wx: np.ndarray) -> np.ndarray:
    """Entries of Wx (one row per problem) significantly nonzero relative
    to the row's largest."""
    mag = np.abs(wx)
    return mag > 1e-6 * (1.0 + mag.max(axis=1, initial=0.0, keepdims=True))


def _row_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->i", v, v))


def _kkt(ata, w, x, aty, gamma, alphas):
    """Absolute and relative first-order optimality violations of the rows
    of x (B x n) with dual rows gamma (B x p), given ``2 A^T A`` and the
    rows ``2 A^T y``.

    The subgradient is first projected onto the face selected by the sign
    pattern of Wx: it is pinned to the sign on the support and clipped to
    [-1, 1] elsewhere.  The residual ``2 A^T (Ax - y) + alpha W^T g`` is
    made relative to the largest norm of its three terms.
    """
    wx = x @ w.T
    g = np.where(_on_support(wx), np.sign(wx), np.clip(gamma, -1.0, 1.0))
    fit, penalty = x @ ata, alphas[:, None] * (g @ w)
    absolute = _row_norms(fit - aty + penalty)
    scale = np.maximum(np.maximum(_row_norms(fit), _row_norms(aty)), _row_norms(penalty))
    return absolute, absolute / np.maximum(scale, np.finfo(float).tiny)


def _pinv_psd(m: np.ndarray) -> np.ndarray:
    """Pseudoinverse of a symmetric positive semidefinite matrix;
    eigenvalues below ``size * eps`` times the largest count as zero."""
    values, vectors = np.linalg.eigh(m)
    keep = values > values.size * np.finfo(float).eps * values[-1]
    return (vectors[:, keep] / values[keep]) @ vectors[:, keep].T


def _polish(ata, w, aty, alphas, signs, tol):
    """Solve the KKT system on each row's sign pattern (``signs``, B x p in
    {-1, 0, 1}) and check the result; returns x, gamma, whether each row is
    certified, and the absolute and relative KKT residuals.

    Each row is solved on its own, so its result does not depend on the
    other rows.  The matrix can be singular (W_C with dependent rows, or A
    and W_C sharing a null direction); where LAPACK reports it singular,
    the least-squares solution is taken.  Either way, only a result that
    passes the check is certified.
    """
    n = ata.shape[0]
    x, gamma = np.empty((len(signs), n)), signs.astype(float)
    for row, pattern in enumerate(signs):
        off = pattern == 0
        w_off = w[off]
        kkt = np.block([[ata, w_off.T], [w_off, np.zeros((w_off.shape[0],) * 2)]])
        rhs = np.concatenate([aty[row] - alphas[row] * (pattern @ w), np.zeros(w_off.shape[0])])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        x[row] = sol[:n]
        gamma[row, off] = sol[n:] / alphas[row]
    with np.errstate(invalid="ignore", over="ignore"):
        kept = np.where(signs != 0, np.sign(x @ w.T) == signs,
                        np.abs(gamma) <= 1.0 + GAMMA_SLACK).all(axis=1)
        gamma = np.clip(gamma, -1.0, 1.0)
        absolute, relative = _kkt(ata, w, x, aty, gamma, alphas)
    return x, gamma, kept & (relative <= tol), absolute, relative


def solve_batch(op: DenseOperator, w: np.ndarray, Y: np.ndarray,
                alphas, tol: float = TOL, max_iter: int = 20000) -> BatchSolution:
    """Solve the problem of each column of ``Y`` (m x B), column j with
    penalty ``alphas[j]``, by ADMM with active-set polish (see the module
    docstring).  This is the one solver entry point: a single problem is
    a one-column batch.

    Every column starts from ``x = z = u = 0``.  A column whose relative KKT
    residual at the start (with gamma = 0) is already within ``tol`` stops
    there, after 0 steps.  The others run in chunks of ``POLISH_EVERY``
    steps, fewer when ``max_iter`` leaves fewer.  After each chunk, every
    live column takes the x-update of its current (z, u) and
    ``gamma = KAPPA u``; the polish is tried where the module docstring
    says; and a column stops when it is certified or when its relative KKT
    residual (see :func:`_kkt`) is within ``tol``, by default
    ``TOL`` = 1e-10.  ``iterations`` counts the ADMM steps a column ran: 0,
    a multiple of ``POLISH_EVERY``, or ``max_iter``.  A column still live
    at ``max_iter`` returns its last x-update and is not converged.  A
    column's polished result does not depend on the other columns of the
    batch.  :class:`ValueError` is raised unless ``Y`` has m rows, there is
    one alpha per column and each is positive and finite, and the
    transform ``w`` is a matrix as wide as the operator.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, w = op.entries, np.asarray(w, dtype=float)
    y, alpha = np.asarray(Y, dtype=float), np.asarray(alphas, dtype=float)
    if y.ndim != 2 or y.shape[0] != op.m or alpha.shape != y.shape[1:]:
        raise ValueError("need (m, B) data and B penalties")
    if w.ndim != 2 or w.shape[1] != op.n:
        raise ValueError("the transform must be a matrix as wide as the operator")
    batch = y.shape[1]
    if not ((alpha > 0) & (alpha < np.inf)).all():
        raise ValueError("alpha must be positive and finite")

    # rows are problems: x is B x n, z, u and gamma are B x p.  einsum sums
    # each row of 2 A^T y in one fixed order, so a column's polish does not
    # depend on the other columns of the batch
    n = op.n
    ata, aty = 2.0 * (a.T @ a), 2.0 * np.einsum("mb,mn->bn", y, a)
    x = np.zeros((batch, n))
    z = x @ w.T
    gamma = np.zeros_like(z)
    kkt_abs, residual = _kkt(ata, w, x, aty, gamma, alpha)
    iterations = np.zeros(batch, dtype=int)
    certified = np.zeros(batch, dtype=bool)
    tried: list[set[bytes]] = [set() for _ in range(batch)]

    # live columns sorted by alpha, so that each distinct alpha is one range
    # of rows, with a factor mapping z - u to x and to Wx
    live = np.flatnonzero(residual > tol)
    live = live[np.argsort(alpha[live], kind="stable")]
    factors = {}
    for value in sorted(set(alpha[live].tolist())):
        rho = KAPPA * value
        inverse = _pinv_psd(ata + rho * (w.T @ w))
        to_x = rho * (w @ inverse)
        factors[value] = (inverse, to_x, to_x @ w.T)

    def groups():
        """(rows, factor) of each alpha that has live columns."""
        ordered, values = alpha[live], list(factors)
        bounds = zip(np.searchsorted(ordered, values, side="left"),
                     np.searchsorted(ordered, values, side="right"))
        return [(slice(lo, hi), f) for (lo, hi), f in zip(bounds, factors.values()) if hi > lo]

    b = np.empty((live.size, n))
    for rows, (inverse, _, _) in groups():
        b[rows] = aty[live[rows]] @ inverse  # x = b + (z - u) to_x
    c = b @ w.T                              # Wx = c + (z - u) H
    z, u = z[live], np.zeros((live.size, w.shape[0]))
    v, d = np.empty_like(z), np.empty_like(z)
    wx_signs = np.zeros_like(z)
    limit = 1.0 / KAPPA
    k = 0
    while live.size and k < max_iter:
        steps = min(POLISH_EVERY, max_iter - k)
        spans = groups()
        start = np.sign(z)
        for _ in range(steps):
            np.subtract(z, u, out=d)
            for rows, (_, _, h) in spans:
                np.matmul(d[rows], h, out=v[rows])
            v += c
            v += u
            np.clip(v, -limit, limit, out=u)
            np.subtract(v, u, out=z)
        k += steps

        x_live = np.empty_like(b)
        np.subtract(z, u, out=d)
        for rows, (_, to_x, _) in spans:
            np.matmul(d[rows], to_x, out=x_live[rows])
        x_live += b
        gamma_live = KAPPA * u
        abs_live, rel_live = _kkt(ata, w, x_live, aty[live], gamma_live, alpha[live])
        patterns = np.sign(z)
        ready = np.flatnonzero((patterns == start).all(axis=1) | (rel_live <= tol))
        # a ready column whose pattern of z was rejected before tries the
        # sign pattern of its x-update's Wx instead, once that has held
        # since the previous chunk
        wx = x_live @ w.T
        wx_signs, previous = np.where(_on_support(wx), np.sign(wx), 0.0), wx_signs
        stuck = [i for i in ready if patterns[i].tobytes() in tried[live[i]]
                 and (wx_signs[i] == previous[i]).all()]
        patterns[stuck] = wx_signs[stuck]
        fresh = [i for i in ready if patterns[i].tobytes() not in tried[live[i]]]
        for i in fresh:
            tried[live[i]].add(patterns[i].tobytes())
        if fresh:
            px, pg, ok, pabs, prel = _polish(ata, w, aty[live[fresh]], alpha[live[fresh]],
                                              patterns[fresh], tol)
            won = np.asarray(fresh)[ok]
            x_live[won], gamma_live[won] = px[ok], pg[ok]
            abs_live[won], rel_live[won] = pabs[ok], prel[ok]
            certified[live[won]] = True
        x[live], gamma[live], kkt_abs[live], residual[live] = x_live, gamma_live, abs_live, rel_live
        iterations[live] = k
        keep = ~certified[live] & (rel_live > tol)
        if not keep.all():
            live, z, u, b, c = live[keep], z[keep], u[keep], b[keep], c[keep]
            v, d, wx_signs = v[keep], d[keep], wx_signs[keep]

    return BatchSolution(x=x.T, gamma=gamma.T, iterations=iterations,
                         converged=certified | (residual <= tol), residual=residual,
                         kkt_residual=kkt_abs, certified=certified)


def solver_totals(iterations: np.ndarray, certified: np.ndarray, converged: np.ndarray,
                  kkt: np.ndarray) -> dict:
    """Manifest totals over solved columns, given the :class:`BatchSolution`
    vectors of the same name (``kkt`` is ``kkt_residual``): ``solves``,
    ``certified``, ``failures`` (not converged), the median and max of
    ``iterations``, and ``kkt_max``, the largest absolute KKT residual."""
    return {"solves": int(iterations.size), "certified": int(np.sum(certified)),
            "failures": int(np.sum(~converged)),
            "iterations_median": float(np.median(iterations)),
            "iterations_max": int(iterations.max()), "kkt_max": float(kkt.max())}


@dataclass(frozen=True)
class AlphaRule:
    """Piecewise-linear noise-level-to-alpha rule with constant tails."""

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(d), float(a)) for d, a in self.knots)
        if not knots:
            raise ValueError("rule needs at least one knot")
        deltas = [d for d, _ in knots]
        if any(b <= a for a, b in zip(deltas, deltas[1:])):
            raise ValueError("knots must be strictly increasing in delta")
        if not all(math.isfinite(d) and 0 < a < math.inf for d, a in knots):
            raise ValueError("knots need finite deltas and positive, finite alphas")
        object.__setattr__(self, "knots", knots)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("delta,alpha\n")
            for d, a in self.knots:
                fh.write(f"{d!r},{a!r}\n")

    @classmethod
    def from_csv(cls, path) -> "AlphaRule":
        knots = []
        with open(path) as fh:
            header = fh.readline().strip()
            if header != "delta,alpha":
                raise ValueError(f"{path}: unexpected header {header!r}")
            for line in fh:
                if line.strip():
                    d, a = line.split(",")
                    knots.append((float(d), float(a)))
        return cls(tuple(knots))


def alpha_for_delta(rule: AlphaRule, delta: float) -> float:
    """Interpolate the rule at ``delta``; clamps to the boundary knots."""
    deltas = np.array([d for d, _ in rule.knots])
    alphas = np.array([a for _, a in rule.knots])
    return float(np.interp(delta, deltas, alphas))
