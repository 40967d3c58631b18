"""Generalized-LASSO reconstruction with a fixed sparsifying transform.

Minimizes ``||Ax - y||_2^2 + alpha ||Wx||_1`` (no 1/2 on the data term, so
the optimality relation carries a factor 2) by the Condat-Vu primal-dual
splitting: explicit gradient steps on the quadratic, proximal steps on the
l1 term composed with W.  :func:`solve_batch` iterates on an n x B block of
independent problems, each column with its own data and alpha (the dual
clip broadcasts alpha per column).  The step sizes depend only on A and W,
so one set serves the batch, and so does the fused primal step: one
product of the precomputed ``[I - 2 tau A^T A | -tau W^T]`` with the
stacked state ``[x; dual]``, plus a per-column shift.  The loop does only
these updates, in chunks of at most 32 steps whose states fit a fixed
byte budget (``HISTORY_BYTES``); convergence is found once per chunk, in
one vectorized pass over its residuals.  A column whose relative
fixed-point residual reaches ``tol`` is frozen at its first converged
step: stored and dropped from the working block.  :func:`solve` is the
one-column case that records the objective trace.
Ships KKT residuals, the dual subgradient bound, solution-set invariance
probing, alpha tuning by grid search with piecewise-linear interpolation,
and empirical stability estimation of the solution map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import rng_for
from .linop import DenseOperator, operator_norm

# Chunk sizing of solve_batch: the history of states and its differences
# share this byte budget, and a chunk runs at most MAX_CHUNK steps.
HISTORY_BYTES = 256 * 1024
MAX_CHUNK = 32


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
    of W with significantly nonzero response.
    """

    x: np.ndarray
    gamma: np.ndarray
    iterations: int
    kkt_residual: float
    objective: float
    objective_trace: np.ndarray = field(repr=False)
    support: np.ndarray = field(repr=False)


class ConvergenceError(RuntimeError):
    """Solver hit the iteration cap; ``last`` carries the final iterate."""

    def __init__(self, message: str, last: PdSolution):
        super().__init__(message)
        self.last = last


@dataclass(frozen=True)
class BatchSolution:
    """Per-column results of :func:`solve_batch`; column j solves problem j.

    ``residual`` is the relative fixed-point residual at the last
    iteration; a column is ``converged`` when it reached ``tol`` within
    ``max_iter`` iterations.
    """

    x: np.ndarray
    gamma: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    residual: np.ndarray
    kkt_residual: np.ndarray


def _on_support(wx: np.ndarray) -> np.ndarray:
    """Entries of Wx (per column) significantly nonzero relative to the
    column's largest."""
    mag = np.abs(wx)
    return mag > 1e-6 * (1.0 + mag.max(axis=0, initial=0.0))


def _col_norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", v, v))


def _kkt_residuals(a, w, x, y, gamma, alphas) -> np.ndarray:
    wx = w @ x
    g = np.where(_on_support(wx), np.sign(wx), np.clip(gamma, -1.0, 1.0))
    grad = 2.0 * (a.T @ (a @ x - y))
    return _col_norms(grad + alphas * (w.T @ g))


def kkt_residual(problem: LassoProblem, x: np.ndarray, gamma: np.ndarray) -> float:
    """First-order optimality violation ``||2 A^T (Ax - y) + alpha W^T g||``.

    Before evaluating, the subgradient is projected onto the face selected
    by the sign pattern of Wx: it is pinned to the sign on the support and
    clipped to [-1, 1] elsewhere.
    """
    return float(_kkt_residuals(problem.operator.entries, problem.transform.matrix,
                                np.asarray(x, dtype=float)[:, None], problem.y[:, None],
                                np.asarray(gamma, dtype=float)[:, None],
                                np.array([problem.alpha]))[0])


def solve_batch(op: DenseOperator, transform: SparsifyingTransform, Y: np.ndarray,
                alphas, tol: float = 1e-8, max_iter: int = 20000,
                x0: np.ndarray | None = None, trace: np.ndarray | None = None) -> BatchSolution:
    """Primal-dual splitting on the columns of ``Y`` (m x B), column j with
    penalty ``alphas[j]``, started from ``x0`` (n x B) or zero.

    Step sizes satisfy ``tau * (L/2 + s ||W||^2) <= 1`` with ``L = 2||A||^2``.
    The state is one stacked block ``z = [x; dual]`` ((n + p) x B).  One
    fused step is ``x' = P z + 2 tau A^T y`` with the precomputed
    ``P = [I - 2 tau A^T A | -tau W^T]``, then ``dual' = clip(dual +
    s W (2x' - x), -alpha, alpha)``.  Steps run in chunks of K into a
    history of K + 1 states; after each chunk one vectorized pass computes
    all K relative fixed-point residuals, and a column whose residual
    reached ``tol`` at step i of the chunk is stored as it was after that
    step (so iteration counts are those of a per-step test) and dropped
    from the working block.  K is at most 32, at most the iterations left,
    and as large as lets the history and its differences fit in
    ``HISTORY_BYTES`` (at least 1).  ``trace``, allowed only for a single
    column, receives the objective after every iteration, filled from the
    history one chunk at a time.  KKT residuals are evaluated in one pass
    at the end.
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

    lip = 2.0 * operator_norm(op) ** 2
    w_norm = transform.norm
    s = 1.0 / w_norm if w_norm > 0 else 1.0
    tau = 1.0 / (lip / 2.0 + s * w_norm ** 2) if (lip > 0 or w_norm > 0) else 1.0

    n = op.n
    step_x = np.hstack([np.eye(n) - 2.0 * tau * (a.T @ a), -tau * w.T])
    s_w = s * w
    shift = 2.0 * tau * (a.T @ y)
    # squared residual weights: x differences by 1/tau, dual ones by 1/s
    weight = np.concatenate([np.full(n, tau ** -2), np.full(w.shape[0], s ** -2)])
    ones = np.ones(weight.size)
    z = np.zeros((n + w.shape[0], batch))
    if x0 is not None:
        z[:n] = np.asarray(x0, dtype=float).reshape(n, batch)
    out_z = z.copy()
    iterations = np.full(batch, max_iter)
    residual = np.full(batch, np.inf)
    rel_last = residual.copy()
    live = np.arange(batch)
    alpha_all = alpha
    k = 0
    while live.size and k < max_iter:
        steps = min(MAX_CHUNK, max_iter - k, max(1, (HISTORY_BYTES // z.nbytes - 1) // 2))
        hist = np.empty((steps + 1,) + z.shape)
        hist[0] = z
        x_bar = np.empty((n, z.shape[1]))
        for cur, nxt in zip(hist[:-1], hist[1:]):
            x_new, dual_new = nxt[:n], nxt[n:]
            np.matmul(step_x, cur, out=x_new)
            x_new += shift
            np.multiply(x_new, 2.0, out=x_bar)
            x_bar -= cur[:n]
            np.matmul(s_w, x_bar, out=dual_new)
            dual_new += cur[n:]
            # the dual clip to [-alpha, alpha], per column (np.clip is slower)
            np.maximum(dual_new, -alpha, out=dual_new)
            np.minimum(dual_new, alpha, out=dual_new)
        # (K, B) residuals: weighted sums of squares over the rows
        sq = np.square(np.subtract(hist[1:], hist[:-1]))
        step = np.sqrt(weight @ sq)
        rel = step / (1.0 + np.sqrt(ones @ np.square(hist[1:], out=sq)))
        if trace is not None:
            xs = hist[1:, :n, 0]
            r = xs @ a.T - y[:, 0]
            trace[k:k + steps] = (np.einsum("km,km->k", r, r)
                                  + alpha[0] * np.abs(xs @ w.T).sum(axis=1))
        done = rel <= tol
        hit = done.any(axis=0)
        z, rel_last = hist[-1], rel[-1]
        if hit.any():
            # store each converged column as it was after its first
            # converged step, then keep the block contiguous
            cols = np.flatnonzero(hit)
            first = done[:, cols].argmax(axis=0)
            out_z[:, live[cols]] = hist[first + 1, :, cols].T
            iterations[live[cols]] = k + first + 1
            residual[live[cols]] = rel[first, cols]
            keep = ~hit
            live, z, alpha, shift, rel_last = (live[keep], z[:, keep], alpha[keep],
                                               shift[:, keep], rel_last[keep])
        k += steps
    out_z[:, live] = z
    residual[live] = rel_last

    out_x, out_dual = out_z[:n], out_z[n:]
    gamma = out_dual / alpha_all
    return BatchSolution(x=out_x, gamma=gamma, iterations=iterations,
                         converged=residual <= tol, residual=residual,
                         kkt_residual=_kkt_residuals(a, w, out_x, y, gamma, alpha_all))


def _no_convergence(max_iter: int, residual: float) -> str:
    return f"no convergence after {max_iter} iterations (residual {residual:.3e})"


def solve(problem: LassoProblem, tol: float = 1e-8, max_iter: int = 20000,
          x0: np.ndarray | None = None) -> PdSolution:
    """One generalized-LASSO problem through :func:`solve_batch`.

    Hitting ``max_iter`` before the residual reaches ``tol`` raises
    :class:`ConvergenceError` carrying the last iterate.
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
        support=np.nonzero(_on_support(problem.transform.matrix @ x))[0],
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
                              tol: float = 1e-8, max_iter: int = 20000) -> InvarianceReport:
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
    alpha_star: float
    errors: tuple[tuple[float, float], ...]
    failures: tuple[tuple[float, str], ...]


def grid_search_alpha(op: DenseOperator, transform: SparsifyingTransform,
                      tuples, grid, tol: float = 1e-8,
                      max_iter: int = 20000) -> GridSearchResult:
    """Pick the grid alpha minimizing the mean reconstruction error over the
    supplied (truth, data) tuples.  A cell with any failed solve is
    recorded as failed and skipped; ties and duplicate entries resolve to
    the earliest grid position."""
    return grid_search_alphas(op, transform, [tuples], grid, tol, max_iter)[0]


def grid_search_alphas(op: DenseOperator, transform: SparsifyingTransform,
                       tuple_sets, grid, tol: float = 1e-8,
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
    errors = _col_norms(batch.x - truth) / math.sqrt(op.n)

    results, start = [], 0
    for tuples in tuple_sets:
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
                                        failures=tuple(failures)))
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
                        seed: int, tol: float = 1e-10,
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
