import dataclasses
import json
from functools import partial

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from regbench import harness, lasso
from regbench.datagen import noise_block, rng_for
from regbench.lasso import AlphaRule, BatchSolution, alpha_for_delta, diff1d, grad2d, solve_batch
from regbench.linop import DenseOperator


def soft(v, threshold):
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


def identity_problem(y):
    """Operator, transform and data of the separable problem A = W = I."""
    n = len(y)
    return DenseOperator(np.eye(n)), np.eye(n), np.asarray(y, dtype=float)


def random_problem(seed, n=16, m=24, kind="diff1d"):
    rng = rng_for(seed)
    a = rng.standard_normal((m, n))
    a /= np.linalg.norm(a, 2)
    op = DenseOperator(a)
    transform = diff1d(n) if kind == "diff1d" else np.eye(n)
    return op, transform, rng.standard_normal(m)


def solve_one(op, transform, y, alpha, **kwargs):
    """One problem as a one-column batch."""
    return solve_batch(op, transform, np.asarray(y, dtype=float)[:, None], [alpha], **kwargs)


def objective(op, transform, y, alpha, x):
    r = op.entries @ x - y
    return float(r @ r + alpha * np.abs(transform @ x).sum())


def kkt_absolute(op, transform, y, alpha, x, gamma):
    """The absolute KKT residual of one (x, gamma) pair."""
    a = op.entries
    absolute, _ = lasso._kkt(2.0 * (a.T @ a), transform, np.asarray(x, dtype=float)[None],
                             2.0 * (y @ a)[None], np.asarray(gamma, dtype=float)[None],
                             np.array([alpha]))
    return float(absolute[0])


def capped_objectives(op, transform, y, alpha, steps):
    """Objective of the x a one-column solve returns at each cap 1, ...,
    steps - 1, and whether that x is the ADMM iterate of its last step
    (the column ran to the cap uncertified)."""
    values, iterates = [], []
    for cap in range(1, steps):
        sol = solve_one(op, transform, y, alpha, max_iter=cap)
        values.append(objective(op, transform, y, alpha, sol.x[:, 0]))
        iterates.append(sol.iterations[0] == cap and not sol.certified[0])
    return np.array(values), np.array(iterates)


class TestTransforms:
    def test_diff1d_rows(self):
        w = diff1d(4)
        assert w.shape == (3, 4)
        assert np.array_equal(w[1], [0, -1, 1, 0])
        assert np.array_equal(w @ np.ones(4), np.zeros(3))

    def test_grad2d_stacks_both_directions(self):
        w = grad2d(3)
        assert w.shape == (12, 9)
        img = np.arange(9.0)  # rows increase by 3, columns by 1
        out = w @ img
        assert np.allclose(out[:6], 1.0)   # horizontal differences
        assert np.allclose(out[6:], 3.0)   # vertical differences
        assert np.allclose(w @ np.ones(9), 0.0)
        assert not np.signbit(w[w == 0]).any()  # no -0.0 entries

    def test_identity(self):
        assert np.array_equal(harness._build_transform("identity", DenseOperator(np.eye(3))),
                              np.eye(3))

    def test_custom_passthrough(self):
        # any 2-D array-like as wide as the operator is W, taken as given
        op, _, y = random_problem(12, n=3, m=5)
        listed = solve_one(op, [[-1, 1, 0], [0, -1, 1]], y, 0.2)
        built = solve_one(op, diff1d(3), y, 0.2)
        assert np.array_equal(listed.x, built.x) and listed.certified[0]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 30, 50])
    def test_diff1d_and_identity_norms_are_exact(self, n):
        # the spectra of the plain matrices have closed forms
        assert abs(np.linalg.norm(np.eye(n), 2) - 1.0) <= 1e-12
        if n >= 2:
            assert abs(np.linalg.norm(diff1d(n), 2) - 2.0 * np.cos(np.pi / (2 * n))) <= 1e-12

    @pytest.mark.parametrize("side", [2, 3, 5, 8, 12])
    def test_grad2d_norm_is_exact(self, side):
        closed = 2.0 * np.sqrt(2.0) * np.cos(np.pi / (2 * side))
        assert abs(np.linalg.norm(grad2d(side), 2) - closed) <= 1e-12

    def test_problem_validation(self):
        op = DenseOperator(np.eye(3))
        with pytest.raises(ValueError):
            solve_one(op, np.eye(3), np.zeros(3), 0.0)
        with pytest.raises(ValueError):
            solve_one(op, np.eye(3), np.zeros(4), 0.1)
        with pytest.raises(ValueError):
            solve_one(op, np.eye(4), np.zeros(3), 0.1)
        with pytest.raises(ValueError, match="matrix"):
            solve_one(op, np.ones(3), np.zeros(3), 0.1)
        with pytest.raises(ValueError, match="matrix"):
            solve_one(op, np.eye(3)[None], np.zeros(3), 0.1)


class TestSolve:
    def test_separable_hand_solution(self):
        sol = solve_one(*identity_problem([2.0, -0.5, 0.1]), 1.0, tol=1e-12)
        assert np.allclose(sol.x[:, 0], [1.5, 0.0, 0.0], atol=1e-9)

    def test_zero_data(self):
        sol = solve_one(*identity_problem(np.zeros(4)), 0.3)
        assert np.allclose(sol.x, 0.0, atol=1e-12)

    def test_vanishing_penalty_gives_least_squares(self):
        rng = rng_for(12)
        a = rng.standard_normal((10, 6))
        a /= np.linalg.norm(a, 2)
        op = DenseOperator(a)
        y = rng.standard_normal(10)
        sol = solve_one(op, diff1d(6), y, 1e-12, tol=1e-12, max_iter=100000)
        lsq = np.linalg.lstsq(a, y, rcond=None)[0]
        assert np.abs(sol.x[:, 0] - lsq).max() <= 1e-4

    def test_soft_threshold_oracle_random(self):
        for trial in range(100):
            rng = rng_for(1000, trial)
            n = int(rng.integers(2, 9))
            y = rng.uniform(-2.0, 2.0, n)
            alpha = float(rng.uniform(0.05, 1.5))
            sol = solve_one(*identity_problem(y), alpha, tol=1e-11)
            assert np.abs(sol.x[:, 0] - soft(y, alpha / 2.0)).max() <= 1e-8

    def test_nonconvergence_carries_last_iterate(self):
        sol = solve_one(*random_problem(3), 0.1, tol=1e-14, max_iter=3)
        assert not sol.converged[0] and sol.residual[0] > 1e-14
        assert sol.x.shape == (16, 1)
        assert sol.iterations[0] == 3

    def test_dual_always_feasible(self):
        for trial in range(5):
            sol = solve_one(*random_problem(trial), 0.1)
            assert np.abs(sol.gamma).max() <= 1.0 + 1e-10

    def test_objective_windowed_trend(self):
        problem = random_problem(21)
        steps = int(solve_one(*problem, 0.3, tol=1e-10).iterations[0])
        trace, _ = capped_objectives(*problem, 0.3, steps)
        windows = [trace[i:i + 10].mean() for i in range(0, len(trace) - 9, 10)]
        assert len(windows) >= 2
        for a, b in zip(windows, windows[1:]):
            assert b <= a + 1e-8 * (1 + windows[0])

    def test_kkt_scales_with_tolerance(self):
        for trial in range(5):
            op, transform, y = random_problem(trial + 40)
            sol = solve_one(op, transform, y, 0.1, tol=1e-8)
            assert sol.kkt_residual[0] <= 10 * 1e-8 * (1 + np.linalg.norm(y))


def batch_case(kind):
    """Operator, transform, data block, mixed alphas and iteration cap of
    one batch; the "diff1d" case's cap of one polish period stops some
    columns.  Column 1 is zero data, whose optimum is the zero start.  Every
    operator has full column rank, so the exact reference applies; the
    "grad2d" case is a 6 x 6 Radon operator."""
    rng = rng_for(77, len(kind))
    if kind == "identity":
        n = m = 6
        op = DenseOperator(np.eye(n))
        transform = np.eye(n)
    elif kind == "diff1d":
        n, m = 16, 24
        a = rng.standard_normal((m, n))
        op = DenseOperator(a / np.linalg.norm(a, 2))
        transform = diff1d(n)
    else:
        op = harness.build_operator(harness.OperatorSpec(kind="radon", side=6, angles=8, offsets=11))
        n, m = op.n, op.m
        transform = grad2d(6)
    y = rng.standard_normal((m, 5))
    y[:, 1] = 0.0
    alphas = np.array([0.01, 0.3, 0.05, 1.0, 0.1])
    return op, transform, y, alphas, lasso.POLISH_EVERY if kind == "diff1d" else 20000


class TestSolveBatch:
    @pytest.mark.parametrize("kind", ["diff1d", "grad2d", "identity"])
    def test_matches_column_by_column_solve(self, kind):
        op, transform, y, alphas, max_iter = batch_case(kind)
        batch = solve_batch(op, transform, y, alphas, tol=1e-9, max_iter=max_iter)
        for j, alpha in enumerate(alphas):
            single = solve_one(op, transform, y[:, j], alpha, tol=1e-9, max_iter=max_iter)
            assert batch.converged[j] == single.converged[0]
            assert batch.iterations[j] == single.iterations[0]
            assert np.abs(batch.x[:, j] - single.x[:, 0]).max() <= 1e-8
            assert np.abs(batch.gamma[:, j] - single.gamma[:, 0]).max() <= 1e-8
            assert batch.kkt_residual[j] == pytest.approx(single.kkt_residual[0], rel=1e-6, abs=1e-12)
        if kind == "diff1d":
            assert not batch.converged.all() and batch.converged.any()
            assert (batch.iterations[~batch.converged] == max_iter).all()
            assert (batch.residual[~batch.converged] > 1e-9).all()

    def test_kkt_within_tolerance_bound_per_column(self):
        for trial in range(5):
            op, transform, _ = random_problem(trial + 40)
            y = np.column_stack([random_problem(trial + 40 + k)[2] for k in range(4)])
            batch = solve_batch(op, transform, y, [0.01, 0.1, 0.5, 2.0], tol=1e-8)
            assert batch.converged.all()
            bound = 10 * 1e-8 * (1 + np.linalg.norm(y, axis=0))
            assert (batch.kkt_residual <= bound).all()

    def test_converged_column_is_frozen(self):
        # the zero-data column is optimal at the zero start, so it stops
        # before the first step and must not move while the others iterate
        op, transform, y, alphas, _ = batch_case("diff1d")
        batch = solve_batch(op, transform, y, alphas, tol=1e-9)
        assert batch.iterations[1] == 0 and batch.iterations.max() > 0
        assert np.array_equal(batch.x[:, 1], np.zeros(op.n))

    def test_rejects_bad_input(self):
        op, transform, y, alphas, _ = batch_case("identity")
        with pytest.raises(ValueError):
            solve_batch(op, transform, y, alphas[:-1])
        with pytest.raises(ValueError):
            solve_batch(op, transform, y, -alphas)
        with pytest.raises(ValueError, match="positive and finite"):
            solve_batch(op, transform, y, np.full(5, np.inf))
        with pytest.raises(ValueError):
            solve_batch(op, transform, y[:, 0], alphas[:1])
        with pytest.raises(ValueError):
            solve_batch(op, transform, y[:-1], alphas)
        with pytest.raises(ValueError, match="as wide as the operator"):
            solve_batch(op, np.eye(op.n + 1), y, alphas)


def bvls_reference(op, transform, y, alpha):
    """The exact minimizer for an operator of full column rank, from the
    box-constrained dual solved by BVLS.

    With ``A = U S V^T``, stationarity gives
    ``x = V S^-1 (U^T y - D gamma)`` with ``D = (alpha / 2) S^-1 V^T W^T``,
    and gamma minimizes ``||D gamma - U^T y||`` over ``[-1, 1]^p``.  x is
    unique even where gamma is not.

    Read off gamma, x carries gamma's error times ``S^-2``, up to 1e-10
    relative at ``cond(A) = 1e3``.  So BVLS only picks the active set: the
    bound entries B of gamma are held at exactly +-1, the free rows F
    constrain ``W_F x = 0``, and x is the minimizer of
    ``||Ax - y||^2 + alpha gamma_B^T W_B x`` over null(W_F), taken from
    the SVD of A restricted to that null space.  It must agree with the
    x read off gamma to 1e-6, which guards the active set.
    """
    u, s, vt = np.linalg.svd(op.entries, full_matrices=False)
    assert s.size == op.n and s[-1] > 1e-8 * s[0], "needs full column rank"
    design = (alpha / 2.0) * (vt @ transform.T) / s[:, None]
    target = u.T @ y
    gamma, bound = np.zeros(design.shape[1]), np.zeros(design.shape[1], dtype=bool)
    if gamma.size:
        # BVLS stops after p iterations by default, which can be too few
        dual = scipy.optimize.lsq_linear(design, target, bounds=(-1.0, 1.0), method="bvls",
                                         tol=1e-14, max_iter=1000)
        assert dual.status > 0, dual.message
        gamma, bound = dual.x, dual.active_mask != 0
    from_gamma = vt.T @ ((target - design @ gamma) / s)

    _, sw, wvt = np.linalg.svd(transform[~bound])
    null = wvt[(sw > 1e-12 * sw.max(initial=0.0)).sum():].T
    x = np.zeros(op.n)
    if null.shape[1]:
        un, sn, vnt = np.linalg.svd(op.entries @ null, full_matrices=False)
        pull = null.T @ (transform[bound].T @ gamma[bound])
        x = null @ (vnt.T @ ((un.T @ y) / sn - (alpha / 2.0) * (vnt @ pull) / sn ** 2))
    scale = max(1.0, np.abs(from_gamma).max(initial=0.0))
    assert np.abs(x - from_gamma).max(initial=0.0) <= 1e-6 * scale, "active set off"
    return x


def deviations(batch, op, transform, y, alphas):
    """Per column: max |x - x_exact| over max(1, max |x_exact|)."""
    exact = np.column_stack([bvls_reference(op, transform, y[:, j], alpha)
                             for j, alpha in enumerate(alphas)])
    return np.abs(batch.x - exact).max(axis=0, initial=0.0) / np.maximum(
        1.0, np.abs(exact).max(axis=0, initial=0.0))


def assert_certified_exact(batch, op, transform, y, alphas, tol):
    """Certified columns equal the exact minimizer to 1e-10 relative; every
    converged column has its relative KKT residual within ``tol``."""
    assert (batch.converged == (batch.certified | (batch.residual <= tol))).all()
    assert (batch.residual[batch.converged] <= tol).all()
    assert (deviations(batch, op, transform, y, alphas)[batch.certified] <= 1e-10).all()


def staggered_case():
    """Twenty columns on a small diff1d problem that the polish certifies
    after different numbers of steps."""
    rng = rng_for(78)
    a = rng.standard_normal((9, 7))
    op = DenseOperator(a / np.linalg.norm(a, 2))
    y = rng.standard_normal((9, 20)) * np.geomspace(0.01, 10.0, 20)
    alphas = np.geomspace(0.02, 3.0, 20)
    return op, diff1d(7), y, alphas


def tiny_row_case():
    """Twenty columns with n = 1, m = 4 and a six-row custom W whose first
    row has norm 5.4e-4.  That row's entry of z stays at 0 long after Wx
    has left 0, so for two of the columns the sign pattern of z never
    reaches the optimal one within 20,000 steps; the sign pattern of Wx
    does."""
    rng = rng_for(82)
    a = rng.standard_normal((4, 1))
    w = rng.standard_normal((6, 1))
    w[0] *= 5.4e-4 / np.linalg.norm(w[0])
    y = rng.standard_normal((4, 20))
    return DenseOperator(a), w, y, rng.uniform(0.05, 2.0, 20)


def reference_admm_objectives(op, transform, y, alpha, steps):
    """Objective of the x-iterate of each of the first ``steps`` ADMM steps,
    one plain step at a time: x from the normal equations, then the
    soft-threshold and the dual update."""
    a, w = op.entries, transform
    rho = lasso.KAPPA * alpha
    normal = 2.0 * a.T @ a + rho * w.T @ w
    z = u = np.zeros(w.shape[0])
    objectives = []
    for _ in range(steps):
        x = np.linalg.solve(normal, 2.0 * a.T @ y + rho * w.T @ (z - u))
        objectives.append(objective(op, transform, y, alpha, x))
        z = soft(w @ x + u, alpha / rho)
        u = u + w @ x - z
    return np.array(objectives)


class TestEngineMatchesReference:
    """The engine against the exact BVLS reference, with the polish tried
    every ``POLISH_EVERY`` steps (default), every step and every 5 steps."""

    @pytest.fixture(params=[None, 1, 5], ids=["default", "one-step", "few-steps"])
    def budget(self, request, monkeypatch):
        if request.param is not None:
            monkeypatch.setattr(lasso, "POLISH_EVERY", request.param)
        return request.param

    @pytest.mark.parametrize("kind", ["diff1d", "grad2d", "identity"])
    def test_batch_cases(self, kind, budget):
        op, transform, y, alphas, _ = batch_case(kind)
        batch = solve_batch(op, transform, y, alphas, tol=1e-10)
        assert batch.converged.all()
        assert_certified_exact(batch, op, transform, y, alphas, 1e-10)
        # a grad2d column the polish cannot certify stops at KKT <= tol; its
        # distance to the exact minimizer is reported, not pinned to 1e-10
        worst = deviations(batch, op, transform, y, alphas).max()
        assert worst <= 1e-7, f"{kind}: max deviation from BVLS {worst:.2e}"

    @pytest.mark.parametrize("max_iter", [0, 1, 5])
    def test_short_caps(self, max_iter, budget):
        op, transform, y, alphas, _ = batch_case("grad2d")
        batch = solve_batch(op, transform, y, alphas, tol=1e-10, max_iter=max_iter)
        assert (batch.iterations <= max_iter).all()
        assert (batch.iterations[~batch.converged] == max_iter).all()
        assert (batch.residual[~batch.converged] > 1e-10).all()
        assert_certified_exact(batch, op, transform, y, alphas, 1e-10)
        if max_iter == 0:
            # x stays at the zero start, optimal only for the zero data
            assert not batch.x.any()
            assert batch.converged.tolist() == [False, True, False, False, False]

    def test_columns_converging_inside_one_chunk(self, budget):
        # every column is certified at the end of its own chunk and frozen
        # there while the others keep iterating
        op, transform, y, alphas = staggered_case()
        batch = solve_batch(op, transform, y, alphas, tol=1e-10)
        assert batch.certified.all()
        assert_certified_exact(batch, op, transform, y, alphas, 1e-10)
        assert (batch.iterations % lasso.POLISH_EVERY == 0).all()
        assert np.unique(batch.iterations).size >= 3

    def test_row_of_w_with_tiny_norm(self, budget):
        op, transform, y, alphas = tiny_row_case()
        batch = solve_batch(op, transform, y, alphas, tol=1e-10)
        assert batch.converged.all() and batch.certified.any()
        assert_certified_exact(batch, op, transform, y, alphas, 1e-10)
        assert deviations(batch, op, transform, y, alphas).max() <= 1e-7

    def test_capped_iterates_follow_plain_admm(self, budget):
        # a column stopped by its cap k returns the x-update of its (z, u)
        # after k steps, which is the x-iterate of plain ADMM's step k + 1
        problem = random_problem(21)
        sol = solve_one(*problem, 0.3, tol=1e-10)
        steps = int(sol.iterations[0])
        reference = reference_admm_objectives(*problem, 0.3, steps)
        values, iterates = capped_objectives(*problem, 0.3, steps)
        assert iterates.sum() >= 10
        assert np.allclose(values[iterates], reference[1:][iterates], rtol=1e-9, atol=0.0)
        assert (reference >= objective(*problem, 0.3, sol.x[:, 0]) * (1 - 1e-12)).all()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), extra=st.integers(0, 3),
           p=st.integers(0, 6), batch=st.integers(1, 5), max_iter=st.integers(0, 400))
    def test_random_problems(self, seed, n, extra, p, batch, max_iter):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((n + extra, n))
        sigma = np.linalg.svd(a, compute_uv=False)
        assume(sigma[-1] >= 1e-3 * sigma[0])
        op = DenseOperator(a)
        transform = rng.standard_normal((p, n))
        y = rng.standard_normal((n + extra, batch))
        alphas = rng.uniform(0.05, 2.0, batch)
        sol = solve_batch(op, transform, y, alphas, tol=1e-10, max_iter=max_iter)
        assert (sol.iterations <= max_iter).all()
        assert_certified_exact(sol, op, transform, y, alphas, 1e-10)


class TestPolish:
    """The certificate on the separable problem A = W = I, alpha = 1, whose
    optimum soft-thresholds y at 1/2; each check is shown rejecting a
    result that the other two accept."""

    @staticmethod
    def polish(y, pattern):
        y = np.asarray(y, dtype=float)
        eye = np.eye(y.size)
        return lasso._polish(2.0 * eye, eye, 2.0 * y[None], np.array([1.0]),
                             np.array([pattern], dtype=float), 1e-10)

    def test_optimal_pattern_is_certified(self):
        x, gamma, certified, _, relative = self.polish([2.0, -0.5, 0.1], [1, 0, 0])
        assert certified[0] and relative[0] <= 1e-15
        assert np.allclose(x[0], [1.5, 0.0, 0.0], rtol=0.0, atol=1e-15)
        assert np.allclose(gamma[0], [1.0, -1.0, 0.2], rtol=0.0, atol=1e-15)

    def test_flipped_sign_is_not_certified(self):
        # the second entry comes out at -1e-9 against the pattern's +1
        x, _, certified, _, relative = self.polish([2.0, 0.5 - 1e-9, 0.1], [1, 1, 0])
        assert x[0, 1] < 0 and relative[0] <= 1e-10
        assert not certified[0]

    def test_subgradient_outside_the_box_is_not_certified(self):
        # off the support gamma would be 1 + 4e-11; clipped, the residual
        # is still within tol
        _, _, certified, _, relative = self.polish([2.0, 0.5 + 2e-11, 0.1], [1, 0, 0])
        assert relative[0] <= 1e-10
        assert not certified[0]

    def test_inexact_solve_is_not_certified(self, monkeypatch):
        # signs and box hold, but the equations miss by 1e-6 relative
        exact = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda k, r: exact(k, r) * (1.0 + 1e-6))
        _, _, certified, _, relative = self.polish([2.0, -0.3, 0.1], [1, 0, 0])
        assert relative[0] > 1e-10
        assert not certified[0]


class TestKktResidual:
    def test_hand_solution_is_stationary(self):
        x = np.array([1.5, 0.0, 0.0])
        gamma = np.array([1.0, -1.0, 0.2])  # interior values chosen per optimality
        assert kkt_absolute(*identity_problem([2.0, -0.5, 0.1]), 1.0, x, gamma) <= 1e-10

    def test_zero_everything(self):
        assert kkt_absolute(*identity_problem(np.zeros(3)), 0.5, np.zeros(3), np.zeros(3)) == 0.0

    def test_non_optimal_point_is_flagged(self):
        problem = identity_problem([2.0, -0.5, 0.1])
        assert kkt_absolute(*problem, 1.0, np.array([2.0, 1.0, -1.0]), np.zeros(3)) > 0.1


class TestSubgradientBound:
    def test_holds_on_solved_instances(self):
        # alpha W^T gamma = -2 A^T (Ax - y) and ||Ax - y|| <= ||y|| at the
        # optimum, so ||W^T gamma|| <= (2 / alpha) ||A|| ||y||
        for (op, transform, y), alpha in ((identity_problem([2.0, -0.5, 0.1]), 1.0),
                                          (random_problem(7), 0.1),
                                          (random_problem(8, kind="identity"), 0.1)):
            sol = solve_one(op, transform, y, alpha)
            lhs = np.linalg.norm(transform.T @ sol.gamma[:, 0])
            assert lhs <= 2.0 / alpha * op.svd.sigma[0] * np.linalg.norm(y) + 1e-8


def restarts(op, transform, y, alpha, count, seed):
    """``count`` solves of one problem, each from the zero start in its own
    coordinates ``x = P x'``: solve r minimizes over x' with ``A P`` and
    ``W P``, the same objective and the same subgradients, for a strictly
    diagonally dominant P drawn from stream (seed, r).  The change of
    coordinates changes the ADMM path into the solution set.  Returns the
    solves stacked as the columns of one solution, x mapped back, and the
    largest spread of Ax and of ||Wx||_1 across them."""
    solves = []
    for r in range(count):
        p = np.eye(op.n) + rng_for(seed, r).uniform(-0.5, 0.5, (op.n, op.n)) / op.n
        sol = solve_one(DenseOperator(op.entries @ p), transform @ p, y, alpha)
        solves.append(dataclasses.replace(sol, x=p @ sol.x))
    batch = BatchSolution(**{f.name: np.concatenate([getattr(s, f.name) for s in solves], axis=-1)
                             for f in dataclasses.fields(BatchSolution)})
    assert batch.converged.all()
    images = op.entries @ batch.x
    l1 = np.abs(transform @ batch.x).sum(axis=0)
    spread_ax = np.linalg.norm(images[:, :, None] - images[:, None, :], axis=0).max()
    return batch, spread_ax, np.ptp(l1)


class TestInvariance:
    """Minimizers share Ax and ||Wx||_1 even where x is not unique; the
    spreads across restarts in changed coordinates must stay within
    1e-6 (1 + ||y||)."""

    def test_unique_minimizer_agrees_everywhere(self):
        op, transform, y = random_problem(31, n=8, m=12)
        batch, spread_ax, spread_l1 = restarts(op, transform, y, 0.2, 3, seed=0)
        assert max(spread_ax, spread_l1) <= 1e-6 * (1.0 + np.linalg.norm(y))
        assert np.abs(batch.x - batch.x[:, :1]).max() <= 1e-6

    def test_rank_deficient_shares_image_and_l1(self):
        # nullspace direction (1, -1, 0): minimizers form a segment
        a = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        op = DenseOperator(a / np.linalg.norm(a, 2))
        y = np.array([2.0, -1.0])
        batch, spread_ax, spread_l1 = restarts(op, np.eye(3), y, 0.05,
                                               5, seed=3)
        assert max(spread_ax, spread_l1) <= 1e-6 * (1.0 + np.linalg.norm(y))
        # LP oracle: the shared l1 value solves min ||x||_1 s.t. Ax = u*
        x = batch.x[:, 0]
        res = scipy.optimize.linprog(
            c=np.ones(6),
            A_eq=np.hstack([op.entries, -op.entries]),
            b_eq=op.entries @ x,
            bounds=[(0, None)] * 6,
        )
        assert res.success
        assert abs(np.abs(x).sum() - res.fun) <= 1e-6

    def test_operator_and_transform_share_a_null_direction(self):
        # A 1 = 0 and W 1 = 0 under diff1d: the ADMM matrix and every polish
        # system are singular, and minimizers differ by multiples of 1
        a = rng_for(34).standard_normal((12, 8))
        a -= a.mean(axis=1, keepdims=True)
        op = DenseOperator(a / np.linalg.norm(a, 2))
        assert np.abs(op.entries @ np.ones(8)).max() <= 1e-14
        y = rng_for(35).standard_normal(12)
        batch, spread_ax, spread_l1 = restarts(op, diff1d(8), y, 0.05,
                                               4, seed=1)
        assert max(spread_ax, spread_l1) <= 1e-6 * (1.0 + np.linalg.norm(y))
        assert (batch.kkt_residual <= 1e-9).all()

    def test_identical_seeds_identical_solutions(self):
        op, transform, y = random_problem(32, n=6, m=9)
        first, _, _ = restarts(op, transform, y, 0.1, 2, seed=5)
        second, _, _ = restarts(op, transform, y, 0.1, 2, seed=5)
        assert np.array_equal(first.x, second.x) and np.array_equal(first.gamma, second.gamma)


TUNE_CONFIG = """
[operator]
kind = integration
n = {n}

[data]
count = 3

[method]
kind = lasso
transform = {transform}
"""


def alpha_tune(tmp_path, capsys, *args, n=12, transform="identity"):
    """Run ``alpha-tune`` at seed 0; returns the exit code, stdout, stderr,
    the rule CSV (None when none was written) and the
    :func:`~regbench.harness.solve_lasso_samples` results it scored."""
    tmp_path.mkdir(parents=True, exist_ok=True)
    config = tmp_path / "tune.cfg"
    config.write_text(TUNE_CONFIG.format(n=n, transform=transform))
    out = tmp_path / "tune"
    scores, score = [], harness.solve_lasso_samples

    def recording(*a, **k):
        scores.append(score(*a, **k))
        return scores[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "solve_lasso_samples", recording)
        code = harness.cli_main(["alpha-tune", "--config", str(config), "--out", str(out),
                                 "--seed", "0", *args])
    captured = capsys.readouterr()
    rule = out / "alpha_rule.csv"
    return code, captured.out, captured.err, rule.read_text() if rule.exists() else None, scores


def capped(monkeypatch, max_iter):
    """Cap every solve of the harness at ``max_iter`` ADMM steps."""
    monkeypatch.setattr(harness, "solve_batch", partial(solve_batch, max_iter=max_iter))


class TestGridSearch:
    """``alpha-tune``'s choice per noise level: the first grid alpha of the
    smallest mean error among the cells whose solves all converged."""

    def test_singleton_grid(self, tmp_path, capsys):
        code, out, err, rule, _ = alpha_tune(tmp_path, capsys, "--delta-grid", "0.01 0.1",
                                             "--alpha-grid", "0.7")
        assert (code, err) == (0, "")
        assert rule == "delta,alpha\n0.01,0.7\n0.1,0.7\n"
        assert out.startswith("delta=0.01 alpha=0.7\ndelta=0.1 alpha=0.7\n")

    def test_noiseless_prefers_smallest_alpha(self, tmp_path, capsys):
        code, _, err, rule, (scores,) = alpha_tune(tmp_path, capsys, "--delta-grid", "0",
                                                   "--alpha-grid", "0.05 1e-6 0.5", n=8)
        assert (code, err) == (0, "")
        assert rule == "delta,alpha\n0.0,1e-06\n"
        assert scores.converged.all()
        assert scores.errors[:, 1].mean() < 1e-4 < scores.errors[:, 0].mean()

    def test_duplicate_entries_take_first(self, tmp_path, capsys):
        # alphas 100 and 1000 both give x = 0, so their cells tie exactly
        for grid, first in (("1000 100 100", 1000.0), ("100 1000 100", 100.0)):
            code, _, _, rule, (scores,) = alpha_tune(tmp_path, capsys, "--delta-grid", "0.1",
                                                     "--alpha-grid", grid)
            assert code == 0
            assert rule == f"delta,alpha\n0.1,{first!r}\n"
            assert scores.errors.shape == (3, 2, 1)  # the repeated 100 is scored once
            assert np.array_equal(scores.errors[:, 0], scores.errors[:, 1])

    def test_failures_recorded_and_all_failed_raises(self, tmp_path, capsys, monkeypatch):
        code, _, err, _, _ = alpha_tune(tmp_path, capsys, "--delta-grid", "0.01 0.1",
                                        "--alpha-grid", "0.001 0.01 0.1")
        assert (code, err) == (0, "")
        # one step certifies none of these cells
        capped(monkeypatch, 1)
        code, out, err, rule, (scores,) = alpha_tune(tmp_path / "capped", capsys,
                                                     "--delta-grid", "0.01 0.1",
                                                     "--alpha-grid", "0.001 0.01 0.1")
        assert code == 2
        # the failed level's cells are reported, and the error names the level
        *failures, last = err.splitlines()
        assert out == "" and len(failures) == 3
        for line, alpha in zip(failures, ("0.001", "0.01", "0.1")):
            assert line.startswith(f"delta=0.01 alpha={alpha}: no convergence after 1 iterations ")
        assert last == "numerical failure: every grid cell failed to converge at delta=0.01"
        assert rule is None
        assert not scores.converged.any()

    def test_one_failing_tuple_fails_the_cell(self, tmp_path, capsys, monkeypatch):
        # under a 75-step cap only the first tuple at alpha 0.001 fails (it
        # needs 100 steps); the knot comes from the other three cells
        capped(monkeypatch, 75)
        code, out, err, rule, (scores,) = alpha_tune(tmp_path, capsys, "--delta-grid", "0.01",
                                                     "--alpha-grid", "0.001 0.01 0.1 1")
        assert code == 0
        assert scores.converged[:, :, 0].tolist() == [[False, True, True, True],
                                                      [True, True, True, True],
                                                      [True, True, True, True]]
        assert err.startswith("delta=0.01 alpha=0.001: no convergence after 75 iterations (residual ")
        assert len(err.splitlines()) == 1
        op = harness.build_operator(harness.OperatorSpec(n=12))
        truths, _ = harness.build_dataset(op, harness.DataSpec(count=3), 0)
        means = {}
        for ai, alpha in ((1, 0.01), (2, 0.1), (3, 1.0)):
            errs = []
            for i in range(3):
                # tuple i's data is row 0 of its common-random-number block
                y = op.entries @ truths[:, i] + 0.01 * noise_block(0, i, 1, op.m)[0]
                x = solve_one(op, np.eye(12), y, alpha).x[:, 0]
                errs.append(np.linalg.norm(x - truths[:, i]) / np.sqrt(12))
            means[alpha] = np.mean(errs)
            assert scores.errors[:, ai, 0].mean() == pytest.approx(means[alpha], rel=1e-12)
        assert rule == f"delta,alpha\n0.01,{min(means, key=means.get)!r}\n"

    def test_sets_share_one_batch_and_match_separate_searches(self, tmp_path, capsys,
                                                              monkeypatch):
        # every problem in one solve_batch call, or one call per tuple: the
        # same rule and the same cell means up to round-off
        args = ("--delta-grid", "0.1 0.2 0.5", "--alpha-grid", "0.001 0.1 1")
        calls = []

        def counting(op, w, y, alphas, **kwargs):
            calls.append(y.shape[1])
            return solve_batch(op, w, y, alphas, **kwargs)

        monkeypatch.setattr(harness, "solve_batch", counting)
        code, _, _, together, (one,) = alpha_tune(tmp_path / "one", capsys, *args, n=30,
                                                  transform="diff1d")
        monkeypatch.setattr(harness, "LASSO_BATCH_COLUMNS", 1)
        code_each, _, _, alone, (each,) = alpha_tune(tmp_path / "each", capsys, *args, n=30,
                                                     transform="diff1d")
        assert code == code_each == 0
        assert calls == [27, 9, 9, 9]
        assert together == alone
        assert one.converged.all() and each.converged.all()
        assert np.allclose(one.errors.mean(axis=0), each.errors.mean(axis=0), rtol=1e-10, atol=0.0)

    def test_repeated_delta_is_config_error(self, tmp_path, capsys):
        # refused before any solve, and no rule is written
        code, out, err, rule, scores = alpha_tune(tmp_path, capsys, "--delta-grid", "0.1 0.1")
        assert (code, out, rule, scores) == (1, "", None, [])
        assert err == "config error: --delta-grid repeats a level\n"

    def test_repeated_alphas_are_solved_once(self, tmp_path, capsys):
        runs = []
        for name, grid in (("repeated", "0.1 0.1 1"), ("distinct", "0.1 1")):
            code, out, err, rule, (scores,) = alpha_tune(
                tmp_path / name, capsys, "--delta-grid", "0.01 0.1", "--tuples", "2",
                "--alpha-grid", grid)
            solver = json.loads((tmp_path / name / "tune" / "manifest.json").read_text())["solver"]
            runs.append((code, out.replace(str(tmp_path / name), "DIR"), err, rule, solver))
        assert runs[0] == runs[1]
        # 2 tuples x 2 distinct alphas x 2 levels
        assert runs[0][0] == 0 and runs[0][4]["solves"] == 8

    def test_empty_inputs_rejected(self, tmp_path, capsys):
        for args in (("--alpha-grid", ""), ("--delta-grid", ","), ("--tuples", "0"),
                     ("--alpha-grid", "0.1 -1")):
            code, out, err, rule, scores = alpha_tune(tmp_path, capsys, *args)
            assert (code, out, rule, scores) == (1, "", None, [])
            assert err.startswith("config error: ")


class TestAlphaRule:
    def test_knot_and_midpoint(self):
        rule = AlphaRule(((0.1, 1.0), (0.3, 3.0)))
        assert alpha_for_delta(rule, 0.1) == 1.0
        assert alpha_for_delta(rule, 0.2) == pytest.approx(2.0)

    def test_constant_extrapolation(self):
        rule = AlphaRule(((0.1, 1.0), (0.3, 3.0)))
        assert alpha_for_delta(rule, 0.01) == 1.0
        assert alpha_for_delta(rule, 9.0) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AlphaRule(())
        with pytest.raises(ValueError):
            AlphaRule(((0.2, 1.0), (0.1, 2.0)))
        for knots in (((0.1, 0.0),), ((0.1, np.inf),), ((0.1, np.nan),), ((np.nan, 0.1),),
                      ((0.1, 1.0), (np.inf, 2.0))):
            with pytest.raises(ValueError, match="finite"):
                AlphaRule(knots)

    def test_csv_roundtrip(self, tmp_path):
        rule = AlphaRule(((0.001, 0.02), (0.1, 0.7)))
        harness._write_csv(tmp_path / "rule.csv", "delta,alpha", rule.knots)
        assert harness._read_alpha_rule(tmp_path / "rule.csv") == rule
        header = (tmp_path / "rule.csv").read_text().splitlines()[0]
        assert header == "delta,alpha"


def solution_map_rate(op, transform, y, alpha, n_probes, radius, seed):
    """Largest observed ``||x(y + r d) - x(y)|| / r`` over unit Gaussian
    directions d and radii r in [radius/2, radius], probe p drawn from
    stream (seed, p), with the base and every probe in one batch.  An
    empirical lower estimate of the stability constant of the solution
    map, not an upper bound."""
    columns, radii = [y], []
    for p in range(n_probes):
        rng = rng_for(seed, p)
        direction = rng.standard_normal(y.size)
        direction /= np.linalg.norm(direction)
        radii.append(radius * rng.uniform(0.5, 1.0))
        columns.append(y + radii[-1] * direction)
    batch = solve_batch(op, transform, np.column_stack(columns), np.full(n_probes + 1, alpha),
                        max_iter=50000)
    assert batch.converged.all()
    return max(np.linalg.norm(batch.x[:, p + 1] - batch.x[:, 0]) / r for p, r in enumerate(radii))


class TestEmpiricalLipschitz:
    def test_separable_prox_is_nonexpansive(self):
        problem = identity_problem([1.5, -0.2, 0.8, 0.05])
        rate = solution_map_rate(*problem, 0.5, n_probes=15, radius=0.5, seed=2)
        assert rate <= 1.0 + 1e-6

    def test_huge_penalty_pins_solution(self):
        problem = identity_problem([0.3, -0.1])
        rate = solution_map_rate(*problem, 50.0, n_probes=5, radius=0.2, seed=3)
        assert rate <= 1e-8

    def test_bounded_by_inverse_smallest_singular_value(self):
        op, transform, y = random_problem(66, n=6, m=10, kind="identity")
        sigma_min = op.svd.sigma[-1]
        rate = solution_map_rate(op, transform, y, 0.2, n_probes=10, radius=0.3, seed=4)
        assert rate <= (1.0 + 1e-3) / sigma_min
