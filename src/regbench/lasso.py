"""Generalized-LASSO reconstruction with a fixed sparsifying transform.

Minimizes ``||Ax - y||_2^2 + alpha ||Wx||_1`` (no 1/2 on the data term, so
the optimality relation carries a factor 2): x is optimal exactly when
``2 A^T (Ax - y) + alpha W^T gamma = 0`` for some ``gamma`` in the
subdifferential of the l1 norm at Wx.

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
held over those steps (or whose KKT residual is already within ``tol``),
and was not tried on that pattern before, is polished by active set, as
OSQP does (Stellato et al. 2020).  On the pattern's support S and
its complement C it solves the equality-constrained KKT system::

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

Ships KKT residuals, the dual subgradient bound, solution-set invariance
probing, alpha tuning by grid search with piecewise-linear interpolation,
and empirical stability estimation of the solution map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .datagen import rng_for
from .linop import DenseOperator, operator_norm

# ADMM penalty per unit of alpha (rho = KAPPA * alpha) and the number of
# ADMM steps between polish attempts
KAPPA = 2.0
POLISH_EVERY = 25
# default bound on the relative KKT residual of a converged column
TOL = 1e-10
# round-off allowance on |gamma| <= 1 off the support when certifying
GAMMA_SLACK = 1e-12


@dataclass(frozen=True)
class SparsifyingTransform:
    """Row-sparsifying matrix W; one of identity, 1-D difference, 2-D image
    gradient, or a custom externally supplied matrix.

    ``norm`` is the spectral norm of W: closed forms for the built-in
    kinds, computed once at construction otherwise.
    """

    kind: str
    matrix: np.ndarray
    norm: float | None = None

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.matrix, dtype=float))
        if w.ndim != 2:
            raise ValueError("transform matrix must be 2-D")
        w.setflags(write=False)
        object.__setattr__(self, "matrix", w)
        if self.norm is None:
            object.__setattr__(self, "norm", float(np.linalg.norm(w, 2)) if w.size else 0.0)

    @classmethod
    def identity(cls, n: int) -> "SparsifyingTransform":
        return cls("identity", np.eye(n), 1.0 if n else 0.0)

    @classmethod
    def diff1d(cls, n: int) -> "SparsifyingTransform":
        """Forward differences of adjacent entries, (n-1) x n; the norm is
        ``2 cos(pi / (2n))``."""
        if n < 2:
            raise ValueError("need at least two entries for differences")
        eye = np.eye(n)
        return cls("diff1d", eye[1:] - eye[:-1], 2.0 * math.cos(math.pi / (2 * n)))

    @classmethod
    def grad2d(cls, side: int) -> "SparsifyingTransform":
        """Stacked horizontal and vertical first differences of a square
        image flattened row-major; the norm is ``2 sqrt(2) cos(pi / (2 side))``."""
        if side < 2:
            raise ValueError("need at least a 2x2 image")
        diff, eye = cls.diff1d(side).matrix, np.eye(side)
        # "+ 0.0" turns the -0.0 entries of the Kronecker products into 0.0
        rows = np.vstack([np.kron(eye, diff), np.kron(diff, eye)]) + 0.0
        return cls("grad2d", rows, 2.0 * math.sqrt(2.0) * math.cos(math.pi / (2 * side)))

    @classmethod
    def custom(cls, matrix: np.ndarray) -> "SparsifyingTransform":
        return cls("custom", matrix)


@dataclass(frozen=True)
class LassoProblem:
    operator: DenseOperator
    y: np.ndarray
    alpha: float
    transform: SparsifyingTransform

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if y.shape[0] != self.operator.m:
            raise ValueError("data length does not match the operator")
        if self.transform.matrix.shape[1] != self.operator.n:
            raise ValueError("transform width does not match the operator")
        y.setflags(write=False)
        object.__setattr__(self, "y", y)

    def objective(self, x: np.ndarray) -> float:
        r = self.operator.entries @ x - self.y
        return float(r @ r + self.alpha * np.abs(self.transform.matrix @ x).sum())


@dataclass(frozen=True)
class PdSolution:
    """Converged primal-dual pair with diagnostics.

    ``gamma`` lives in the subdifferential of the l1 norm at Wx (entries in
    [-1, 1], equal to the sign on the support); ``support`` lists the rows
    of W with significantly nonzero response; ``certified`` tells whether
    the polish proved x optimal.
    """

    x: np.ndarray
    gamma: np.ndarray
    iterations: int
    kkt_residual: float
    objective: float
    objective_trace: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)
    certified: bool


class ConvergenceError(RuntimeError):
    """Solver hit the iteration cap; ``last`` carries the final iterate."""

    def __init__(self, message: str, last: PdSolution):
        super().__init__(message)
        self.last = last


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


def kkt_residual(problem: LassoProblem, x: np.ndarray, gamma: np.ndarray) -> float:
    """First-order optimality violation ``||2 A^T (Ax - y) + alpha W^T g||``.

    Before evaluating, the subgradient is projected onto the face selected
    by the sign pattern of Wx: it is pinned to the sign on the support and
    clipped to [-1, 1] elsewhere.
    """
    a = problem.operator.entries
    absolute, _ = _kkt(2.0 * (a.T @ a), problem.transform.matrix,
                       np.asarray(x, dtype=float)[None], 2.0 * (problem.y @ a)[None],
                       np.asarray(gamma, dtype=float)[None], np.array([problem.alpha]))
    return float(absolute[0])


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


def solve_batch(op: DenseOperator, transform: SparsifyingTransform, Y: np.ndarray,
                alphas, tol: float = TOL, max_iter: int = 20000,
                x0: np.ndarray | None = None, trace: np.ndarray | None = None) -> BatchSolution:
    """ADMM with active-set polish (see the module docstring) on the
    columns of ``Y`` (m x B), column j with penalty ``alphas[j]``.

    The start is ``x0`` (n x B) or zero, with ``z = W x0`` and ``u = 0``.  A
    column whose relative KKT residual at the start (with gamma = 0) is
    already within ``tol`` stops there, after 0 steps.  The others run in
    chunks of ``POLISH_EVERY`` steps, fewer when ``max_iter`` leaves fewer.
    After each chunk, every live column takes the x-update of its current
    (z, u) and ``gamma = KAPPA u``; the polish is tried where the module
    docstring says; and a column stops when it is certified or when its
    relative KKT residual (see :func:`_kkt`) is within ``tol``, by default
    ``TOL`` = 1e-10.  ``iterations`` counts the ADMM steps a column ran: 0,
    a multiple of ``POLISH_EVERY``, or ``max_iter``.  A column still live
    at ``max_iter`` returns its last x-update and is not converged.  A
    column's polished result does not depend on the other columns of the
    batch.  ``trace``, allowed only for a single column, receives the
    objective of the x-iterate of every step.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, w = op.entries, transform.matrix
    y, alpha = np.asarray(Y, dtype=float), np.asarray(alphas, dtype=float)
    if y.ndim != 2 or y.shape[0] != op.m or alpha.shape != y.shape[1:] or w.shape[1] != op.n:
        raise ValueError("need (m, B) data, B penalties and a transform as wide as the operator")
    batch = y.shape[1]
    if (alpha <= 0).any():
        raise ValueError("alpha must be positive")
    if trace is not None and batch != 1:
        raise ValueError("an objective trace needs a single column")

    # rows are problems: x is B x n, z, u and gamma are B x p.  einsum sums
    # each row of 2 A^T y in one fixed order, so a column's polish does not
    # depend on the other columns of the batch
    n = op.n
    ata, aty = 2.0 * (a.T @ a), 2.0 * np.einsum("mb,mn->bn", y, a)
    x = np.zeros((batch, n)) if x0 is None else np.array(x0, dtype=float).reshape(n, batch).T
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
    limit = 1.0 / KAPPA
    k = 0
    while live.size and k < max_iter:
        steps = min(POLISH_EVERY, max_iter - k)
        spans = groups()
        start = np.sign(z)
        for step in range(k, k + steps):
            np.subtract(z, u, out=d)
            for rows, (_, _, h) in spans:
                np.matmul(d[rows], h, out=v[rows])
            v += c
            if trace is not None:
                r = a @ (b[0] + d[0] @ factors[alpha[0]][1]) - y[:, 0]
                trace[step] = r @ r + alpha[0] * np.abs(v[0]).sum()
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
        signs = np.sign(z)
        ready = np.flatnonzero((signs == start).all(axis=1) | (rel_live <= tol))
        fresh = [i for i in ready if signs[i].tobytes() not in tried[live[i]]]
        for i in fresh:
            tried[live[i]].add(signs[i].tobytes())
        if fresh:
            px, pg, ok, pabs, prel = _polish(ata, w, aty[live[fresh]], alpha[live[fresh]],
                                              signs[fresh], tol)
            won = np.asarray(fresh)[ok]
            x_live[won], gamma_live[won] = px[ok], pg[ok]
            abs_live[won], rel_live[won] = pabs[ok], prel[ok]
            certified[live[won]] = True
        x[live], gamma[live], kkt_abs[live], residual[live] = x_live, gamma_live, abs_live, rel_live
        iterations[live] = k
        keep = ~certified[live] & (rel_live > tol)
        if not keep.all():
            live, z, u, b, c = live[keep], z[keep], u[keep], b[keep], c[keep]
            v, d = v[keep], d[keep]

    return BatchSolution(x=x.T, gamma=gamma.T, iterations=iterations,
                         converged=certified | (residual <= tol), residual=residual,
                         kkt_residual=kkt_abs, certified=certified)


def _columns(batch: BatchSolution, cols) -> BatchSolution:
    """The columns ``cols`` of a batch result."""
    return BatchSolution(**{f.name: getattr(batch, f.name)[..., cols]
                            for f in fields(BatchSolution)})


def solver_totals(iterations, certified, converged, kkt_residual) -> dict:
    """Manifest totals over solved columns, given per column: ``solves``,
    ``certified``, ``failures`` (not converged), the median and max of
    ``iterations``, and ``kkt_max``, the largest absolute KKT residual."""
    iterations, kkt = np.asarray(iterations), np.asarray(kkt_residual)
    return {"solves": int(iterations.size), "certified": int(np.sum(certified)),
            "failures": int(np.sum(~np.asarray(converged))),
            "iterations_median": float(np.median(iterations)),
            "iterations_max": int(iterations.max()), "kkt_max": float(kkt.max())}


def _no_convergence(max_iter: int, residual: float) -> str:
    return f"no convergence after {max_iter} iterations (residual {residual:.3e})"


def solve(problem: LassoProblem, tol: float = TOL, max_iter: int = 20000,
          x0: np.ndarray | None = None) -> PdSolution:
    """One generalized-LASSO problem through :func:`solve_batch`.

    Hitting ``max_iter`` before the column is certified or its relative
    KKT residual reaches ``tol`` raises :class:`ConvergenceError` carrying
    the last iterate.
    """
    trace = np.empty(max_iter)
    batch = solve_batch(problem.operator, problem.transform, problem.y[:, None],
                        [problem.alpha], tol, max_iter, x0, trace)
    x, iterations = batch.x[:, 0], int(batch.iterations[0])
    solution = PdSolution(
        x=x,
        gamma=batch.gamma[:, 0],
        iterations=iterations,
        kkt_residual=float(batch.kkt_residual[0]),
        objective=problem.objective(x),
        objective_trace=trace[:iterations].copy(),
        support=np.nonzero(_on_support((problem.transform.matrix @ x)[None])[0])[0],
        certified=bool(batch.certified[0]),
    )
    if not batch.converged[0]:
        raise ConvergenceError(_no_convergence(max_iter, batch.residual[0]), solution)
    return solution


def subgradient_bound_check(problem: LassoProblem, solution: PdSolution) -> bool:
    """Whether the returned dual satisfies
    ``||W^T gamma|| <= (2/alpha) ||A|| ||y||`` (with 1e-8 slack)."""
    lhs = float(np.linalg.norm(problem.transform.matrix.T @ solution.gamma))
    rhs = 2.0 / problem.alpha * operator_norm(problem.operator) * float(np.linalg.norm(problem.y))
    return lhs <= rhs + 1e-8


@dataclass(frozen=True)
class InvarianceReport:
    """Spread of the data image and the l1 value across restarted solves."""

    max_deviation_ax: float
    max_deviation_l1: float
    tolerance: float
    passed: bool


def solution_invariance_check(problem: LassoProblem, restarts: int, seed: int,
                              tol: float = TOL, max_iter: int = 20000) -> InvarianceReport:
    """Solve from several random starts; all minimizers must share the value
    of A x and of ||W x||_1 even when x itself is non-unique."""
    if restarts < 2:
        raise ValueError("need at least two restarts")
    a = problem.operator.entries
    w = problem.transform.matrix
    images, l1s = [], []
    for r in range(restarts):
        x0 = rng_for(seed, r).standard_normal(problem.operator.n)
        sol = solve(problem, tol=tol, max_iter=max_iter, x0=x0)
        images.append(a @ sol.x)
        l1s.append(float(np.abs(w @ sol.x).sum()))
    dev_ax = max(
        float(np.linalg.norm(images[i] - images[j]))
        for i in range(restarts) for j in range(i + 1, restarts)
    )
    dev_l1 = max(
        abs(l1s[i] - l1s[j])
        for i in range(restarts) for j in range(i + 1, restarts)
    )
    threshold = 1e-6 * (1.0 + float(np.linalg.norm(problem.y)))
    return InvarianceReport(max_deviation_ax=dev_ax, max_deviation_l1=dev_l1,
                            tolerance=threshold,
                            passed=dev_ax <= threshold and dev_l1 <= threshold)


@dataclass(frozen=True)
class GridSearchResult:
    """The chosen alpha, the mean error of every cell whose solves all
    converged, the failed cells, and ``solution``, the solver's columns of
    this search (its cells in grid order, tuples in order within a cell)."""

    alpha_star: float
    errors: tuple[tuple[float, float], ...]
    failures: tuple[tuple[float, str], ...]
    solution: BatchSolution = field(repr=False, compare=False)


def grid_search_alpha(op: DenseOperator, transform: SparsifyingTransform,
                      tuples, grid, tol: float = TOL,
                      max_iter: int = 20000) -> GridSearchResult:
    """Pick the grid alpha minimizing the mean reconstruction error over the
    supplied (truth, data) tuples.  A cell with any failed solve is
    recorded as failed and skipped; ties and duplicate entries resolve to
    the earliest grid position."""
    return grid_search_alphas(op, transform, [tuples], grid, tol, max_iter)[0]


def grid_search_alphas(op: DenseOperator, transform: SparsifyingTransform,
                       tuple_sets, grid, tol: float = TOL,
                       max_iter: int = 20000) -> tuple[GridSearchResult, ...]:
    """:func:`grid_search_alpha` for each set of tuples (one per noise
    level, say), with every (set, alpha, tuple) solve in one batch."""
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("alpha grid must be nonempty")
    if not tuple_sets or not all(tuple_sets):
        raise ValueError("need at least one (x, y) tuple")
    # columns ordered (set, alpha, tuple)
    pairs = [pair for tuples in tuple_sets for _ in grid for pair in tuples]
    alphas = [alpha for tuples in tuple_sets for alpha in grid for _ in tuples]
    truth = np.column_stack([np.asarray(x, dtype=float) for x, _ in pairs])
    batch = solve_batch(op, transform, np.column_stack([y for _, y in pairs]), alphas,
                        tol, max_iter)
    errors = _row_norms((batch.x - truth).T) / math.sqrt(op.n)

    results, start = [], 0
    for tuples in tuple_sets:
        first = start
        cells, failures = [], []
        for alpha in grid:
            cell = slice(start, start + len(tuples))
            start += len(tuples)
            failed = np.flatnonzero(~batch.converged[cell])
            if failed.size:
                failures.append((alpha, _no_convergence(max_iter, batch.residual[cell][failed[0]])))
            else:
                cells.append((alpha, float(np.mean(errors[cell]))))
        if not cells:
            raise RuntimeError("every grid cell failed to converge")
        # min keeps the first of equal errors, so ties go to the earlier alpha
        best = min(cells, key=lambda cell: cell[1])
        results.append(GridSearchResult(alpha_star=best[0], errors=tuple(cells),
                                        failures=tuple(failures),
                                        solution=_columns(batch, slice(first, start))))
    return tuple(results)


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
        if any(a <= 0 for _, a in knots):
            raise ValueError("knot alphas must be positive")
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


def empirical_lipschitz(problem: LassoProblem, n_probes: int, radius: float,
                        seed: int, tol: float = TOL,
                        max_iter: int = 50000) -> float:
    """Largest observed solution-change rate over random data perturbations.

    Probes the solution map at ``y + r * direction`` with unit Gaussian
    directions and radii in [radius/2, radius]; reports the max ratio of
    solution change to data change.  This is an empirical lower estimate of
    the stability constant, not an upper bound.
    """
    if n_probes < 1 or radius <= 0:
        raise ValueError("need n_probes >= 1 and radius > 0")
    base = solve(problem, tol=tol, max_iter=max_iter)
    worst = 0.0
    for p in range(n_probes):
        rng = rng_for(seed, p)
        direction = rng.standard_normal(problem.y.size)
        direction /= np.linalg.norm(direction)
        r = radius * rng.uniform(0.5, 1.0)
        shifted = LassoProblem(problem.operator, problem.y + r * direction,
                               problem.alpha, problem.transform)
        sol = solve(shifted, tol=tol, max_iter=max_iter)
        worst = max(worst, float(np.linalg.norm(sol.x - base.x)) / r)
    return worst
