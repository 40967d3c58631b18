import math

import numpy as np
import pytest

from regbench.datagen import rng_for, sample_source_data
from regbench.linop import DenseOperator, compute_svd, weighted_norm
from regbench.tikhonov import (
    optimal_alpha,
    reconstruct,
    relative_wc,
    wc_bound,
)


class TestFilter:
    """The Tikhonov filter ``F(s) = s^2 / (s^2 + alpha)`` as
    :func:`reconstruct` applies it: exact data ``A v_j`` comes back as
    ``F(sigma_j) v_j``, and data ``u_j`` as ``F(sigma_j) / sigma_j v_j``."""

    def test_midpoint(self):
        # a mode at sigma = sqrt(alpha) is halved
        op = DenseOperator(np.diag([1.0, 0.5]))
        x = np.array([0.0, 1.0])
        assert np.allclose(reconstruct(op, op.entries @ x, 0.25), 0.5 * x, rtol=0.0, atol=1e-15)

    def test_zero_sigma(self):
        # data along a zero singular direction is not inverted
        op = DenseOperator(np.diag([1.0, 0.0]))
        assert np.array_equal(reconstruct(op, np.array([0.0, 1.0]), 0.3), np.zeros(2))

    def test_sup_of_filter_over_sigma(self):
        # grid-search oracle: the data gain sup F(s)/s = 1 / (2 sqrt(alpha))
        # is attained at s = sqrt(alpha)
        for alpha in (0.01, 0.1, 0.5, 1.0):
            grid = np.append(np.linspace(1e-3, 1.0, 200), math.sqrt(alpha))
            gains = np.abs(reconstruct(DenseOperator(np.diag(grid)), np.eye(grid.size), alpha))
            assert gains.max() == pytest.approx(1.0 / (2.0 * math.sqrt(alpha)), rel=1e-12)
            assert gains.max() == pytest.approx(gains[-1, -1], rel=1e-12)

    def test_rejects_bad_alpha(self):
        # a negative alpha puts a pole in the filter at s = sqrt(-alpha)
        with pytest.raises(ValueError):
            reconstruct(DenseOperator(np.eye(2)), np.ones(2), -0.25)


def cholesky_reconstruct(op, y, alpha):
    """``(A^T A + alpha I)^-1 A^T y`` through a Cholesky factorization of
    the normal matrix, independent of the singular system."""
    a = op.entries
    lower = np.linalg.cholesky(a.T @ a + alpha * np.eye(op.n))
    return np.linalg.solve(lower.T, np.linalg.solve(lower, a.T @ y))


class TestReconstruct:
    def test_zero_data(self, op50):
        assert np.array_equal(reconstruct(op50, np.zeros(50), 0.4), np.zeros(50))

    def test_identity_halves(self):
        op = DenseOperator(np.eye(4))
        y = np.arange(4.0)
        assert np.allclose(reconstruct(op, y, 1.0), y / 2, atol=1e-12)

    def test_svd_matches_direct_solve(self, op50):
        rng = np.random.default_rng(17)
        for alpha in (1e-3, 0.05, 0.7):
            y = rng.standard_normal(50)
            a = reconstruct(op50, y, alpha)
            b = cholesky_reconstruct(op50, y, alpha)
            assert np.abs(a - b).max() <= 1e-8

    def test_rejects_nonpositive_alpha(self, op50):
        with pytest.raises(ValueError):
            reconstruct(op50, np.zeros(50), 0.0)


class TestWcBound:
    def test_continuity_at_one(self):
        for delta, rho in ((1.0, 1.0), (0.2, 0.7), (3.0, 4.0)):
            left = wc_bound(1.0, delta, rho)
            right = (delta + rho) / 2.0
            assert abs(left - right) <= 1e-12

    def test_optimal_rule_value(self):
        # substituting alpha = delta/rho into the small-alpha branch
        delta, rho = 0.04, 0.9
        assert wc_bound(delta / rho, delta, rho) == pytest.approx(
            math.sqrt(delta * rho), abs=1e-12)

    def test_large_alpha_branch(self):
        assert wc_bound(4.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_minimized_at_rule_alpha(self):
        delta, rho = 0.07, 1.3
        best = delta / rho
        grid = sorted(set(np.geomspace(1e-4, 1.0, 300)) | {best})
        values = [wc_bound(a, delta, rho) for a in grid]
        assert grid[int(np.argmin(values))] == best

    def test_record_form(self):
        # the fields of a bound record are the function's keywords
        assert wc_bound(alpha=0.5, delta=0.1, rho=1.0) == wc_bound(0.5, 0.1, 1.0)

    @pytest.mark.parametrize("alpha", [0.03, 1.0, 4.0, math.inf])
    def test_array_delta_matches_scalar(self, alpha):
        deltas = np.array([0.0, 0.01, 0.2, 1.5])
        values = wc_bound(alpha, deltas, 0.8)
        assert isinstance(values, np.ndarray) and values.shape == deltas.shape
        assert values.tolist() == [wc_bound(alpha, float(d), 0.8) for d in deltas]

    def test_scalar_delta_returns_float(self):
        assert type(wc_bound(0.5, 0.1, 1.0)) is float

    def test_array_delta_validated(self):
        with pytest.raises(ValueError):
            wc_bound(0.5, np.array([0.1, -1e-3]), 1.0)
        with pytest.raises(ValueError):
            wc_bound(0.0, np.array([0.1]), 1.0)
        with pytest.raises(ValueError):
            wc_bound(0.5, np.array([0.1]), 0.0)


class TestOptimalAlpha:
    def test_rule_value(self):
        assert optimal_alpha(0.1, 1.0) == pytest.approx(0.1)

    def test_sentinel_beyond_rho(self):
        # alpha = inf is the zero reconstruction
        assert optimal_alpha(2.0, 1.0) == math.inf
        assert optimal_alpha(delta=2.0, rho=1.0) == math.inf

    def test_boundary(self):
        assert optimal_alpha(1.0, 1.0) == 1.0

    def test_zero_reconstruction_bound_is_rho(self):
        # the bound at alpha = inf is its alpha -> inf limit rho, the error
        # bound of the zero reconstruction, for scalar and array levels
        alpha = optimal_alpha(2.0, 0.5)
        assert wc_bound(alpha, 2.0, 0.5) == 0.5
        bounds = wc_bound(alpha, np.array([0.0, 0.6, 3.0]), 0.5)
        assert bounds.dtype == float and bounds.tolist() == [0.5, 0.5, 0.5]
        assert wc_bound(1e12, 2.0, 0.5) == pytest.approx(0.5, rel=1e-11)


class TestRelativeWc:
    def test_equal_levels(self):
        assert relative_wc(0.01, 0.01, 1.0) == 1.0

    def test_factor_four(self):
        assert relative_wc(0.01, 0.04, 1.0) == pytest.approx(1.25, abs=1e-12)

    def test_factor_hundred(self):
        assert relative_wc(0.001, 0.1, 1.0) == pytest.approx(5.05, abs=1e-12)

    def test_symmetry_and_lower_bound(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            db, d = rng.uniform(0.001, 0.9, 2)
            r = relative_wc(db, d, 1.0)
            assert r == pytest.approx(relative_wc(d, db, 1.0), abs=1e-12)
            assert r >= 1.0
        assert relative_wc(0.3, 0.3, 1.0) == 1.0

    def test_outside_first_branch_rejected(self):
        with pytest.raises(ValueError):
            relative_wc(1.5, 0.1, 1.0)
        with pytest.raises(ValueError):
            relative_wc(0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            relative_wc(0.0, 0.1, 1.0)


class TestFilterEstimates:
    def test_sup_bounds_on_actual_spectrum(self, op50):
        # the classical filter estimates hold mode-wise on the real spectrum
        sigma = compute_svd(op50).sigma
        for alpha in np.geomspace(1e-4, 1.0, 25):
            data_gain = np.abs(sigma / (sigma ** 2 + alpha)).max()
            approx_gain = np.abs((1 - sigma ** 2 / (sigma ** 2 + alpha)) * sigma).max()
            assert data_gain <= 1.0 / (2.0 * math.sqrt(alpha)) + 1e-12
            assert approx_gain <= math.sqrt(alpha) / 2.0 + 1e-12


class TestBoundValidity:
    def test_realized_error_below_bound(self, op50):
        # deterministic inequality with realized noise norms and true rho
        truths, rho = sample_source_data(op50, 4, seed=21)
        for si, x in enumerate(truths.T):
            y = op50.entries @ x
            for ai, alpha in enumerate((0.003, 0.05, 0.4, 1.0)):
                for r in range(5):
                    noisy = y + 0.1 * rng_for(55, si, ai, r).standard_normal(y.size)
                    err = weighted_norm(reconstruct(op50, noisy, alpha) - x)
                    realized = weighted_norm(noisy - y)
                    assert err <= wc_bound(alpha, realized, rho[si]) + 1e-9
