import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regbench.datagen import Basis, coordinate_basis, rng_for, svd_basis
from regbench.harness import ConfigError, MethodSpec, load_config
from regbench.linop import DenseOperator, filtered_solve, integration_matrix
from regbench.tikhonov import reconstruct
from regbench.truncated import (
    ExpectedErrorModel,
    alpha_threshold,
    argmin_expected_level,
    expected_sq_error,
    restricted_system,
)


def restricted_normal_solve(op, b, alpha, y):
    """Tikhonov reconstruction restricted to the span of the orthonormal
    columns of ``b``, from the normal equations of ``A b``."""
    composed = op.entries @ b
    gram = composed.T @ composed + alpha * np.eye(b.shape[1])
    return b @ np.linalg.solve(gram, composed.T @ y)


def restricted_tikhonov(system, alpha, y):
    """Tikhonov reconstruction on a restricted singular system: the filter
    ``s / (s^2 + alpha)`` through the spectral-filter kernel."""
    s = system.sigma
    return filtered_solve(system, s / (s * s + alpha), y)


def svd_truncated(op, m, alpha, y):
    return restricted_tikhonov(restricted_system(op, svd_basis(op), m), alpha, y)


@pytest.fixture()
def frozen_model():
    # ten 1/j modes, five truth coefficients bounded away from zero
    return ExpectedErrorModel(
        c=np.array([0.83, -0.56, 0.47, -0.91, 0.62]),
        beta2=np.full(10, 0.01),
        sigma=1.0 / np.arange(1.0, 11.0),
        alpha=0.05,
    )


class TestTruncatedReconstruct:
    def test_zero_level(self, op50):
        out = svd_truncated(op50, 0, 0.1, np.ones(50))
        assert np.array_equal(out, np.zeros(50))

    def test_alpha_zero_full_rank_is_pseudoinverse(self):
        # the alpha -> 0 limit of the filter is 1 / s
        op = DenseOperator(integration_matrix(12) / np.linalg.norm(integration_matrix(12), 2))
        y = np.random.default_rng(2).standard_normal(12)
        system = restricted_system(op, svd_basis(op), 12)
        out = filtered_solve(system, 1.0 / system.sigma, y)
        assert np.allclose(out, np.linalg.pinv(op.entries) @ y, atol=1e-9)

    def test_full_level_matches_tikhonov(self, op50):
        y = np.random.default_rng(3).standard_normal(50)
        full = svd_truncated(op50, 50, 0.2, y)
        assert np.abs(full - reconstruct(op50, y, 0.2)).max() <= 1e-10

    def test_level_beyond_modes_rejected(self, op50):
        with pytest.raises(ValueError):
            restricted_system(op50, svd_basis(op50), 51)

    def test_alpha_zero_beyond_rank_rejected(self):
        # a truncation level beyond the rank would need alpha > 0; the
        # method spec refuses alpha = 0 before any level is solved
        with pytest.raises(ConfigError, match="alpha must be positive"):
            MethodSpec(kind="truncated", alpha=0.0)

    def test_scheme_validation(self, op50):
        with pytest.raises(ValueError):
            restricted_system(op50, svd_basis(op50), -1)
        with pytest.raises(ConfigError, match="alpha must be positive"):
            MethodSpec(kind="truncated", alpha=-0.1)


class TestExpectedError:
    def test_hand_computed_single_mode(self):
        model = ExpectedErrorModel(c=np.array([1.0]), beta2=np.array([0.01]),
                                   sigma=np.array([1.0]), alpha=0.1)
        assert expected_sq_error(model, 1) == pytest.approx(0.02 / 1.21, abs=1e-15)

    def test_zero_level_is_pure_truncation(self, frozen_model):
        assert expected_sq_error(frozen_model, 0) == pytest.approx(
            float(np.sum(frozen_model.c ** 2)), abs=1e-15)

    def test_noiseless_small_alpha_limit(self):
        # shrinkage factor obeys a_i <= alpha / sigma_i^2, so the error
        # vanishes quadratically in alpha once every truth mode is retained
        c = np.array([0.5, -0.4])
        sigma = np.array([1.0, 0.5, 0.25])
        cap = float(np.sum((c / sigma[:2] ** 2) ** 2))
        for alpha in (1e-4, 1e-6, 1e-8):
            model = ExpectedErrorModel(c=c, beta2=np.zeros(3), sigma=sigma, alpha=alpha)
            assert expected_sq_error(model, 3) <= alpha ** 2 * cap

    def test_increments_above_dimension_are_exact(self, frozen_model):
        b2 = frozen_model.b_factors ** 2
        for m in range(frozen_model.n_dim, frozen_model.n_modes):
            inc = expected_sq_error(frozen_model, m + 1) - expected_sq_error(frozen_model, m)
            assert abs(inc - b2[m] * frozen_model.beta2[m]) <= 1e-14

    def test_descent_below_dimension_and_argmin(self, frozen_model):
        assert frozen_model.alpha >= alpha_threshold(frozen_model)
        values = [expected_sq_error(frozen_model, m) for m in range(frozen_model.n_dim + 1)]
        assert all(b <= a + 1e-14 for a, b in zip(values, values[1:]))
        assert argmin_expected_level(frozen_model, range(11)) == frozen_model.n_dim

    def test_monte_carlo_consistency(self, frozen_model):
        rng = rng_for(77)
        eta = 0.1 * rng.standard_normal((20000, 10))
        a, b, c = frozen_model.a_factors, frozen_model.b_factors, frozen_model.c
        for m in (0, 2, 5, 8, 10):
            both = min(m, 5)
            sq = np.zeros(eta.shape[0])
            if both:
                sq += (((-a[:both] * c[:both])[None, :] + b[None, :both] * eta[:, :both]) ** 2).sum(axis=1)
            if m > 5:
                sq += ((b[None, 5:m] * eta[:, 5:m]) ** 2).sum(axis=1)
            if m < 5:
                sq += float(np.sum(c[m:5] ** 2))
            assert sq.mean() == pytest.approx(expected_sq_error(frozen_model, m), rel=0.02)

    def test_level_out_of_range(self, frozen_model):
        with pytest.raises(ValueError):
            expected_sq_error(frozen_model, 11)


class TestAlphaThreshold:
    def test_matched_noise_gives_zero(self):
        sigma = np.array([1.0, 0.5])
        c = np.array([0.3, -0.2])
        model = ExpectedErrorModel(c=c, beta2=(c * sigma) ** 2, sigma=sigma, alpha=1.0)
        assert alpha_threshold(model) == 0.0

    def test_single_mode_hand_value(self):
        model = ExpectedErrorModel(c=np.array([0.1]), beta2=np.array([0.04]),
                                   sigma=np.array([0.5]), alpha=1.0)
        assert alpha_threshold(model) == pytest.approx(1.875, abs=1e-12)

    def test_noiseless_gives_zero(self):
        model = ExpectedErrorModel(c=np.array([0.4, 0.2]), beta2=np.zeros(2),
                                   sigma=np.array([1.0, 0.5]), alpha=1.0)
        assert alpha_threshold(model) == 0.0

    def test_zero_coefficient_rejected(self):
        model = ExpectedErrorModel(c=np.array([0.4, 0.0]), beta2=np.full(2, 0.01),
                                   sigma=np.array([1.0, 0.5]), alpha=1.0)
        with pytest.raises(ValueError):
            alpha_threshold(model)


class TestSubspaceReconstruct:
    def test_svd_basis_equals_truncated(self, op50):
        # the sliced system of the svd basis and the factorized system of
        # the same vectors under another kind give one reconstruction
        basis = svd_basis(op50)
        general = Basis(kind="pca", vectors=basis.vectors)
        y = np.random.default_rng(5).standard_normal(50)
        for m, alpha in ((3, 0.5), (10, 0.02), (50, 0.2)):
            a = restricted_tikhonov(restricted_system(op50, general, m), alpha, y)
            b = svd_truncated(op50, m, alpha, y)
            assert np.abs(a - b).max() <= 1e-8
            assert np.abs(a - restricted_normal_solve(op50, basis.vectors[:, :m], alpha, y)).max() <= 1e-8

    def test_full_orthonormal_basis_equals_tikhonov(self, op50):
        basis = coordinate_basis(50, seed=1)
        y = np.random.default_rng(6).standard_normal(50)
        a = restricted_tikhonov(restricted_system(op50, basis, 50), 0.3, y)
        assert np.abs(a - reconstruct(op50, y, 0.3)).max() <= 1e-8

    def test_zero_data(self, op50):
        for basis in (svd_basis(op50), coordinate_basis(50, seed=2)):
            out = restricted_tikhonov(restricted_system(op50, basis, 7), 0.1, np.zeros(50))
            assert np.abs(out).max() == 0.0

    def test_singular_normal_matrix_rejected(self, tmp_path):
        # alpha = 0 on a rank-deficient restriction has no unique solution,
        # so a config asking for it is refused; at alpha > 0 the zero mode
        # is filtered to zero and the normal equations are solved
        path = tmp_path / "scan.cfg"
        path.write_text("[method]\nkind = truncated\nalpha = 0\n")
        with pytest.raises(ConfigError, match="alpha must be positive"):
            load_config(path)
        op = DenseOperator(np.array([[1.0, 0.0], [0.0, 0.0]]))
        basis = coordinate_basis(2, seed=0)
        system = restricted_system(op, basis, 2)
        assert system.sigma[-1] == 0.0
        y = np.array([1.0, 1.0])
        assert np.allclose(restricted_tikhonov(system, 0.1, y),
                           restricted_normal_solve(op, basis.vectors, 0.1, y), atol=1e-15)

    def test_composed_operator_columns(self, op50):
        # with the alpha -> 0 filter 1 / s the restricted solve inverts A on
        # the span of the first m basis vectors, so it maps column j of
        # A B_m back to b_j
        for basis in (svd_basis(op50), coordinate_basis(50, seed=3)):
            system = restricted_system(op50, basis, 4)
            for j in range(4):
                column = op50.entries @ basis.vectors[:, j]
                recovered = filtered_solve(system, 1.0 / system.sigma, column)
                assert np.abs(recovered - basis.vectors[:, j]).max() <= 1e-8

    @pytest.mark.parametrize("m", [-1, 51])
    def test_level_out_of_range_rejected(self, op50, m):
        for basis in (svd_basis(op50), coordinate_basis(50, seed=4)):
            with pytest.raises(ValueError, match="out of range"):
                restricted_system(op50, basis, m)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), level=st.integers(0, 8),
       alpha=st.floats(1e-3, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_restricted_reconstruction_solves_the_normal_equations(rows, cols, level, alpha, seed):
    # on a random orthonormal basis of a random tall or wide operator
    rng = np.random.default_rng(seed)
    op = DenseOperator(rng.standard_normal((rows, cols)))
    b = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    m = min(level, cols)
    y = rng.standard_normal(rows)
    got = restricted_tikhonov(restricted_system(op, Basis(kind="pca", vectors=b), m), alpha, y)
    want = restricted_normal_solve(op, b[:, :m], alpha, y)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), level=st.integers(0, 8),
       alpha=st.floats(1e-3, 10.0), seed=st.integers(0, 2 ** 32 - 1))
def test_svd_basis_system_is_a_prefix_of_the_operator_svd(rows, cols, level, alpha, seed):
    rng = np.random.default_rng(seed)
    op = DenseOperator(rng.standard_normal((rows, cols)))
    full = op.svd
    m = min(level, full.n_modes)
    system = restricted_system(op, svd_basis(op), m)
    assert system.sigma.tobytes() == full.sigma[:m].tobytes()
    assert system.left_vectors.tobytes() == full.left_vectors[:, :m].tobytes()
    assert system.right_vectors.tobytes() == full.right_vectors[:, :m].tobytes()
    y = rng.standard_normal(rows)
    want = restricted_normal_solve(op, full.right_vectors[:, :m], alpha, y)
    assert np.linalg.norm(restricted_tikhonov(system, alpha, y) - want) <= 1e-10 * np.linalg.norm(want)


class TestRestrictedOperatorBound:
    def test_restricted_gain_bounded_by_inverse_sigma(self, op50):
        # the Tikhonov gain on the leading n_dim modes never exceeds the
        # reciprocal of their smallest singular value, uniformly in alpha
        sigma = op50.svd.sigma
        n_dim = 8
        for alpha in np.geomspace(1e-4, 1.0, 30):
            gain = np.abs(sigma[:n_dim] / (sigma[:n_dim] ** 2 + alpha)).max()
            assert gain <= 1.0 / sigma[n_dim - 1] + 1e-12
