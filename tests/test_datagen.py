import struct

import numpy as np
import pytest

from regbench import datagen, dimscan
from regbench.datagen import (
    NOISE_TAG,
    PINV_REL_TOL,
    coordinate_basis,
    estimate_source_constant,
    load_idx_images,
    noise_block,
    pca_basis,
    phantom_images,
    rng_for,
    sample_source_data,
    svd_basis,
)
from regbench.harness import ConfigError, DataSpec, ExperimentConfig, GridSpec, MethodSpec
from regbench.linop import DenseOperator, weighted_norm
from regbench.truncated import ExpectedErrorModel


def write_idx(path, images):
    """Independent IDX3 writer used as the round-trip oracle."""
    images = np.asarray(images, dtype=np.uint8)
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, count, rows, cols))
        fh.write(images.tobytes())


class TestRng:
    def test_same_path_same_stream(self):
        a = rng_for(42, 1, 2).standard_normal(8)
        b = rng_for(42, 1, 2).standard_normal(8)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = rng_for(42, 1, 2).standard_normal(8)
        b = rng_for(42, 1, 3).standard_normal(8)
        c = rng_for(43, 1, 2).standard_normal(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestSourceData:
    def test_source_condition_holds(self, op50):
        # z_i rebuilt from the documented stream (seed, i) and all left vectors
        truths, rho = sample_source_data(op50, 5, seed=0)
        assert truths.shape == (50, 5) and rho.shape == (5,)
        u = op50.svd.left_vectors
        for i in range(5):
            z = u @ rng_for(0, i).uniform(-1.0, 1.0, size=50)
            assert np.linalg.norm(truths[:, i] - op50.entries.T @ z) <= 1e-10
            assert rho[i] == pytest.approx(weighted_norm(z), abs=1e-12)

    def test_mean_rho_near_analytic_value(self, op50):
        # E[rho^2] = 1/3 for uniform coefficients, so the mean is ~0.577
        _, rho = sample_source_data(op50, 50, seed=123)
        assert 0.52 <= rho.mean() <= 0.64

    def test_bit_reproducible(self, op50):
        a = sample_source_data(op50, 3, seed=9)
        b = sample_source_data(op50, 3, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])


class TestSubspaceData:
    def test_full_spec_matches_source_protocol(self, op50):
        # same coefficient draws, same construction (equal up to BLAS path)
        a = sample_source_data(op50, 2, seed=4, indices=range(50))
        b = sample_source_data(op50, 2, seed=4)
        assert np.abs(a[0] - b[0]).max() <= 1e-12
        assert np.abs(a[1] - b[1]).max() <= 1e-12

    def test_orthogonal_complement_is_empty(self, op50):
        indices = (0, 3, 7)
        svd = op50.svd
        others = np.setdiff1d(np.arange(50), indices)
        truths, _ = sample_source_data(op50, 4, seed=1, indices=indices)
        offplane = svd.right_vectors[:, others].T @ truths
        assert np.abs(offplane).max() <= 1e-10

    def test_mean_rho_scales_with_dimension(self, op50):
        # E[rho^2] = N / (3 n): for N=8, n=50 the mean is ~0.231
        _, rho = sample_source_data(op50, 50, seed=7, indices=range(8))
        assert 0.20 <= rho.mean() <= 0.27

    def test_invalid_specs(self, op50):
        # the config rejects repeated, negative and empty index lists;
        # the sampler rejects indices beyond the singular modes
        for indices in ((1, 1), (-1,), ()):
            with pytest.raises(ConfigError, match="indices"):
                DataSpec(kind="subspace", indices=indices)
        for indices in ((77,), (-1,)):
            with pytest.raises(ValueError, match="singular modes"):
                sample_source_data(op50, 1, seed=0, indices=indices)


class TestBasisCoefficientData:
    """Subspace data as coefficient data on the singular basis: truth i is
    ``V[:, idx] (sigma[idx] * d_i)`` with d_i uniform on [-1, 1]."""

    def test_samples_stay_in_span(self, op50):
        indices = (5, 1, 9, 2)
        svd = op50.svd
        truths, _ = sample_source_data(op50, 4, seed=2, indices=indices)
        v, s = svd.right_vectors[:, indices], svd.sigma[list(indices)]
        for i in range(4):
            expected = v @ (s * rng_for(2, i).uniform(-1.0, 1.0, size=4))
            assert np.abs(truths[:, i] - expected).max() <= 1e-12

    def test_zero_dimension_gives_zero(self, op50):
        truths, rho = sample_source_data(op50, 1, seed=2, indices=())
        assert np.array_equal(truths, np.zeros((50, 1)))
        assert np.array_equal(rho, [0.0])

    def test_coefficient_variance_is_one_third(self, op50):
        svd = op50.svd
        truths, _ = sample_source_data(op50, 10**4, seed=5, indices=(0,))
        coeffs = svd.right_vectors[:, 0] @ truths / svd.sigma[0]
        assert np.var(coeffs) == pytest.approx(1.0 / 3.0, rel=0.05)

    def test_dimension_exceeds_basis(self, op50):
        with pytest.raises(ValueError):
            sample_source_data(op50, 1, seed=0, indices=(50,))


class TestAddNoise:
    """Measurement noise: realization r of a level delta is
    ``y + delta * noise_block(...)[r]``."""

    def test_deterministic_given_path(self):
        a = noise_block(8, 2, 3, 10)
        assert np.array_equal(a, noise_block(8, 2, 3, 10))
        assert not np.array_equal(a, noise_block(9, 2, 3, 10))

    def test_stream_is_keyed_by_noise_tag(self):
        block = noise_block(8, 2, 3, 10)
        assert np.array_equal(block, rng_for(8, NOISE_TAG, 2).standard_normal((3, 10)))

    def test_weighted_noise_level_matches_delta(self):
        # Monte-Carlo oracle for the chi-square mean: E ||delta g||_Y^2 = delta^2
        delta = 0.37
        levels = [weighted_norm(delta * row) ** 2 for row in noise_block(99, 0, 10**4, 40)]
        assert np.mean(levels) == pytest.approx(delta ** 2, rel=0.03)

    def test_zero_delta_is_exact(self, op50, monkeypatch):
        # at level 0 every realization the scan measures is the clean data:
        # its errors equal those of zero noise, bit for bit
        seen = []
        real = dimscan.filtered_errors

        def recording(filt, data_coeff, noise_coeff, deltas, ref_coeff, outside, n):
            errors = real(filt, data_coeff, noise_coeff, deltas, ref_coeff, outside, n)
            clean = real(filt, data_coeff, np.zeros_like(noise_coeff), deltas, ref_coeff, outside, n)
            seen.append((tuple(deltas), errors, clean))
            return errors

        monkeypatch.setattr(dimscan, "filtered_errors", recording)
        x = np.linspace(0.0, 1.0, 50)
        config = ExperimentConfig(
            method=MethodSpec(kind="truncated", m_grid=(2, 4), alpha=0.05, exact_truth=True),
            grid=GridSpec(delta=(0.0,), realizations=3),
            seed=3)
        dimscan.scan(op50, svd_basis(op50), x, config)
        assert len(seen) == 2
        for deltas, errors, clean in seen:
            assert deltas == (0.0,) and errors.shape == (1, 3)
            assert np.array_equal(errors, clean)

    def test_negative_delta_rejected(self):
        # the grid spec checks the levels of every command that reads a config
        with pytest.raises(ConfigError, match="nonnegative"):
            GridSpec(delta=(-0.1, 0.1))
        with pytest.raises(ConfigError, match="nonnegative"):
            GridSpec(delta_bar=(-0.1,))


class TestSourceConstant:
    def test_recovers_true_rho_on_generated_data(self, op50):
        truths, rho = sample_source_data(op50, 10, seed=31)
        values = estimate_source_constant(op50, truths)
        np.testing.assert_allclose(values, rho, rtol=0.0, atol=1e-8)
        assert values.max() == pytest.approx(rho.max(), abs=1e-12)

    def test_zero_sample(self, op50):
        assert np.array_equal(estimate_source_constant(op50, np.zeros((50, 1))), [0.0])

    def test_integration_protocol_window(self, op50):
        values = estimate_source_constant(op50, sample_source_data(op50, 50, seed=0)[0])
        assert 0.52 <= values.mean() <= 0.64

    def test_empty_rejected(self, op50):
        with pytest.raises(ValueError):
            estimate_source_constant(op50, np.zeros((50, 0)))

    @pytest.mark.parametrize("case", ["integration", "rank-deficient"])
    def test_block_matches_per_sample_loop(self, op50, case):
        if case == "integration":
            op = op50
            truths, _ = sample_source_data(op50, 12, seed=4)
        else:
            # wide operator of rank 4 with one mode below the cut
            rng = np.random.default_rng(21)
            a = rng.standard_normal((6, 4)) @ np.diag([3.0, 1.0, 0.2, 1e-13]) @ rng.standard_normal((4, 9))
            op = DenseOperator(a)
            truths = rng.standard_normal((5, 9)).T
        values = estimate_source_constant(op, truths)
        svd = op.svd
        keep = svd.sigma > PINV_REL_TOL * svd.sigma[0]
        assert 0 < keep.sum() < svd.sigma.size or case == "integration"
        for i, x in enumerate(truths.T):
            z = svd.left_vectors[:, keep] @ ((svd.right_vectors[:, keep].T @ x) / svd.sigma[keep])
            assert values[i] == pytest.approx(weighted_norm(z), rel=1e-12, abs=0.0)


class TestPcaBasis:
    def test_orthonormal_columns(self):
        rng = np.random.default_rng(0)
        basis = pca_basis(rng.standard_normal((40, 12)), 5)
        gram = basis.vectors.T @ basis.vectors
        assert np.abs(gram - np.eye(5)).max() <= 1e-8

    def test_planted_plane_recovered(self):
        # data constructed inside a fixed 2-plane plus nothing else
        rng = np.random.default_rng(1)
        u = np.zeros(10); u[0] = 3 / 5; u[3] = 4 / 5
        v = np.zeros(10); v[5] = 1.0
        data = np.outer(rng.uniform(-1, 1, 60), u) + np.outer(rng.uniform(-1, 1, 60), v)
        basis = pca_basis(data, 2)
        plane = np.column_stack([u, v])
        # principal angles between recovered span and the planted plane
        sines = np.linalg.svd((np.eye(10) - plane @ plane.T) @ basis.vectors,
                              compute_uv=False)
        assert sines.max() <= 1e-6

    def test_stops_at_the_numerical_rank(self):
        # 30 samples in a 3-plane: the components past it are LAPACK's choice
        rng = np.random.default_rng(2)
        data = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 10))
        assert pca_basis(data, 8).vectors.shape == (10, 3)
        assert pca_basis(data, 2).vectors.shape == (10, 2)

    def test_empty_basis(self):
        basis = pca_basis(np.ones((3, 4)), 0)
        assert basis.vectors.shape == (4, 0)

    def test_too_many_components(self):
        with pytest.raises(ValueError):
            pca_basis(np.ones((10, 4)), 5)
        with pytest.raises(ValueError):
            pca_basis(np.ones((2, 6)), 4)

    def test_captures_most_variance(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((80, 9)) * np.array([5, 3, 2, 1, 1, 1, 0.5, 0.2, 0.1])
        centered = data - data.mean(axis=0)
        basis = pca_basis(data, 3)
        captured = np.linalg.norm(centered @ basis.vectors) ** 2
        for trial in range(100):
            q, _ = np.linalg.qr(rng.standard_normal((9, 3)))
            assert captured >= np.linalg.norm(centered @ q) ** 2 - 1e-9


class TestCoordinateBasis:
    def test_columns_are_unit_vectors(self):
        basis = coordinate_basis(9, seed=5)
        assert np.abs(basis.vectors.sum(axis=0) - 1.0).max() == 0.0
        assert set(np.abs(basis.vectors).sum(axis=1)) == {1.0}

    def test_permutation_persisted_and_deterministic(self):
        # column j is the unit vector at entry j of the stream's permutation
        a = coordinate_basis(9, seed=5)
        assert np.array_equal(a.vectors, coordinate_basis(9, seed=5).vectors)
        for j, k in enumerate(rng_for(5).permutation(9)):
            assert a.vectors[k, j] == 1.0

    def test_different_seed_different_order(self):
        a = coordinate_basis(30, seed=5)
        b = coordinate_basis(30, seed=6)
        assert not np.array_equal(a.vectors, b.vectors)


class TestIdxImages:
    def test_roundtrip(self, tmp_path):
        raw = np.array([[[0, 128], [255, 64]], [[1, 2], [3, 4]]], dtype=np.uint8)
        write_idx(tmp_path / "imgs.idx3", raw)
        images = load_idx_images(tmp_path / "imgs.idx3")
        assert images.shape == (2, 4)
        assert np.array_equal(images[0], raw[0].ravel() / 255.0)
        assert images[0][2] == 1.0  # pixel 255 scales to exactly one
        assert np.array_equal(images[1], raw[1].ravel() / 255.0)

    def test_zero_image(self, tmp_path):
        write_idx(tmp_path / "z.idx3", np.zeros((1, 3, 3), dtype=np.uint8))
        (img,) = load_idx_images(tmp_path / "z.idx3")
        assert np.array_equal(img, np.zeros(9))

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.idx3").write_bytes(struct.pack(">IIII", 0x00000801, 1, 2, 2) + bytes(4))
        with pytest.raises(ValueError, match="magic"):
            load_idx_images(tmp_path / "bad.idx3")

    def test_truncated(self, tmp_path):
        (tmp_path / "cut.idx3").write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(3))
        with pytest.raises(ValueError, match="truncated"):
            load_idx_images(tmp_path / "cut.idx3")


def test_phantom_images_piecewise_constant():
    images = phantom_images(8, 5, seed=2)
    again = phantom_images(8, 5, seed=2)
    assert images.shape == (5, 64)
    for a, b in zip(images, again):
        assert np.array_equal(a, b)
        assert a.shape == (64,)
        assert a.min() >= 0.0 and a.max() <= 1.0
        assert len(np.unique(a)) <= 8  # few constant plateaus


def test_noise_model_validation():
    # isotropic noise of level 0.2 has second moment 0.04 in every
    # coordinate; the expected-error model takes those moments and
    # rejects a negative one
    rows = 0.2 * noise_block(12, 0, 10**4, 5)
    assert np.allclose(np.mean(rows ** 2, axis=0), 0.04, rtol=0.05)
    model = ExpectedErrorModel(c=np.array([1.0]), beta2=np.array([0.04]),
                               sigma=np.array([1.0]), alpha=0.1)
    assert np.allclose(model.beta2, 0.04)
    with pytest.raises(ValueError, match="nonnegative"):
        ExpectedErrorModel(c=np.array([1.0]), beta2=np.array([-1.0]),
                           sigma=np.array([1.0]), alpha=0.1)


def test_basis_requires_sane_vectors(op50):
    basis = svd_basis(op50)
    assert basis.kind == "svd"
    assert basis.size == 50
