import dataclasses
import math
import tempfile
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regbench import linop
from regbench.linop import (
    DenseOperator,
    filtered_errors,
    filtered_solve,
    integration_matrix,
    load_matrix,
    pinv_adjoint_apply,
    radon_matrix,
    read_svd,
    save_matrix,
    spectral_normalize,
    weighted_norm,
    write_svd,
)


def normalized(matrix):
    """``matrix`` as an operator scaled to spectral norm one."""
    return spectral_normalize(DenseOperator(matrix))


def power_iteration_norm(mat, iters=500, seed=0):
    """Independent spectral-norm estimate for cross-checking the SVD."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(mat.shape[1])
    v /= np.linalg.norm(v)
    gram = mat.T @ mat
    for _ in range(iters):
        v = gram @ v
        v /= np.linalg.norm(v)
    return math.sqrt(float(v @ (gram @ v)))


def chord_length(theta, offset, side):
    """Analytic length of the line {p . n = offset} inside [-side/2, side/2]^2
    (Liang-Barsky clip), independent of the traced matrix."""
    nx, ny = math.cos(theta), math.sin(theta)
    px, py = offset * nx, offset * ny
    dx, dy = -ny, nx
    t0, t1 = -math.inf, math.inf
    for p, d in ((px, dx), (py, dy)):
        if abs(d) < 1e-15:
            if abs(p) > side / 2:
                return 0.0
            continue
        a, b = (-side / 2 - p) / d, (side / 2 - p) / d
        t0, t1 = max(t0, min(a, b)), min(t1, max(a, b))
    return max(0.0, t1 - t0)


class TestIntegrationOperator:
    def test_pattern_n3(self):
        assert np.array_equal(integration_matrix(3),
                              [[1, 0, 0], [1, 1, 0], [1, 1, 1]])

    def test_n1_normalizes_to_one(self):
        op = normalized(integration_matrix(1))
        assert op.entries[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert op.svd.sigma[0] == pytest.approx(1.0, abs=1e-12)

    def test_n2_singular_values_golden(self):
        # eigenvalues of [[2,1],[1,1]] are (3 +- sqrt(5))/2 by hand
        svd = DenseOperator(integration_matrix(2)).svd
        golden = (1 + math.sqrt(5)) / 2
        assert svd.sigma[0] == pytest.approx(golden, abs=1e-12)
        assert svd.sigma[1] == pytest.approx(golden - 1, abs=1e-12)

    def test_prefix_sums(self):
        op = DenseOperator(integration_matrix(3))
        assert np.allclose(op.entries @ np.ones(3), [1, 2, 3])

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            integration_matrix(0)


def loop_radon_matrix(img_side, n_angles, n_offsets):
    """Reference projector traced one ray and one grid crossing at a time;
    the array implementation must reproduce it bit for bit."""
    side = img_side
    half = side / 2.0
    eps = 1e-12
    diag = side * math.sqrt(2.0)
    if n_offsets == 1:
        offsets = np.array([0.0])
    else:
        offsets = np.linspace(-diag / 2.0, diag / 2.0, n_offsets)
    mat = np.zeros((n_angles * n_offsets, side * side))
    for ai in range(n_angles):
        theta = ai * math.pi / n_angles
        nx, ny = math.cos(theta), math.sin(theta)
        dir_x, dir_y = -ny, nx
        for oi, t in enumerate(offsets):
            point_x, point_y = t * nx, t * ny
            row = mat[ai * n_offsets + oi]
            taus = []
            if abs(dir_x) > eps:
                for i in range(side + 1):
                    taus.append((i - half - point_x) / dir_x)
            if abs(dir_y) > eps:
                for j in range(side + 1):
                    taus.append((j - half - point_y) / dir_y)
            taus = np.unique(np.asarray(taus))
            for a, b in zip(taus[:-1], taus[1:]):
                length = b - a
                if length <= eps:
                    continue
                mid = 0.5 * (a + b)
                i = int(math.floor(point_x + mid * dir_x + half))
                j = int(math.floor(point_y + mid * dir_y + half))
                if 0 <= i < side and 0 <= j < side:
                    row[j * side + i] += length
    return mat


@pytest.fixture(scope="module")
def small_raw():
    return radon_matrix(8, 6, 9)


class TestRadonOperator:
    def test_paper_scale_shape(self):
        op = normalized(radon_matrix(28, 30, 41))
        assert op.shape == (1230, 784)
        assert abs(op.svd.sigma[0] - 1.0) <= 1e-10

    def test_nonnegative_entries(self, small_raw):
        assert (small_raw >= 0).all()

    def test_row_sparsity(self, small_raw):
        nnz = (small_raw != 0).sum(axis=1)
        assert nnz.max() <= 2 * 8

    def test_constant_image_gives_chord_lengths(self, small_raw):
        side, n_angles, n_offsets = 8, 6, 9
        sino = small_raw @ np.ones(side * side)
        diag = side * math.sqrt(2)
        offsets = np.linspace(-diag / 2, diag / 2, n_offsets)
        for ai in range(n_angles):
            theta = ai * math.pi / n_angles
            for oi, t in enumerate(offsets):
                assert sino[ai * n_offsets + oi] == pytest.approx(
                    chord_length(theta, t, side), abs=1e-9)

    def test_adjoint_identity(self):
        op = normalized(radon_matrix(6, 4, 7))
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal(op.n), rng.standard_normal(op.m)
        assert abs((op.entries @ x) @ y - x @ (op.entries.T @ y)) <= 1e-10

    # angle 0 runs parallel to the x grid lines, which exercises the
    # skipped-direction branch; (7, 5, 9) has an odd side
    @pytest.mark.parametrize("shape", [(28, 30, 41), (8, 6, 9), (8, 6, 1), (7, 5, 9)])
    def test_matches_loop_reference(self, shape):
        assert np.array_equal(radon_matrix(*shape), loop_radon_matrix(*shape))

    @pytest.mark.parametrize("shape", [(28, 30, 41), (12, 9, 13)])
    def test_bytes_match_add_at(self, monkeypatch, shape):
        # np.bincount sums each entry's pieces in index order, as np.add.at
        # does, so the matrix the SVD cache key hashes keeps its bytes
        pieces = []
        real = np.bincount

        def spy(index, weights, minlength):
            pieces.append((index, weights, minlength))
            return real(index, weights=weights, minlength=minlength)

        monkeypatch.setattr(np, "bincount", spy)
        mat = radon_matrix(*shape)
        ((index, weights, size),) = pieces
        want = np.zeros(size)
        np.add.at(want, index, weights)
        assert mat.shape == (shape[1] * shape[2], shape[0] ** 2)
        assert mat.tobytes() == want.tobytes()

    def test_preconditions(self):
        with pytest.raises(ValueError):
            radon_matrix(1, 4, 5)
        with pytest.raises(ValueError):
            radon_matrix(4, 0, 5)


class TestSvd:
    def test_identity(self):
        svd = DenseOperator(np.eye(3)).svd
        assert np.allclose(svd.sigma, 1.0)

    def test_diagonal_sorted(self):
        svd = DenseOperator(np.diag([3.0, 2.0, 1.0])).svd
        assert np.array_equal(svd.sigma, [3.0, 2.0, 1.0])
        # axes are permuted so that A v_j = sigma_j u_j still holds
        mat = np.diag([3.0, 2.0, 1.0])
        for j in range(3):
            assert np.allclose(mat @ svd.right_vectors[:, j],
                               svd.sigma[j] * svd.left_vectors[:, j])

    def test_reconstruction_and_orthonormality(self, op50):
        svd = op50.svd
        rebuilt = svd.left_vectors @ np.diag(svd.sigma) @ svd.right_vectors.T
        assert np.abs(rebuilt - op50.entries).max() <= 1e-8 * svd.sigma[0]
        assert np.abs(svd.left_vectors.T @ svd.left_vectors - np.eye(50)).max() <= 1e-8
        assert np.abs(svd.right_vectors.T @ svd.right_vectors - np.eye(50)).max() <= 1e-8
        for j in range(50):
            assert np.allclose(op50.entries @ svd.right_vectors[:, j],
                               svd.sigma[j] * svd.left_vectors[:, j], atol=1e-8)

    def test_sign_convention(self, op50):
        svd = op50.svd
        for j in range(svd.n_modes):
            col = svd.right_vectors[:, j]
            nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[nz[0]] > 0

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 7), cols=st.integers(0, 7), seed=st.integers(0, 2 ** 32 - 1))
    def test_orientation_matches_the_column_loop(self, rows, cols, seed):
        # the column-by-column loop is the reference; zero columns, entries
        # below the 1e-12 cut-off and signed zeros keep their exact bits
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((rows, cols)) * rng.choice([0.0, 1e-14, 1.0], size=(rows, cols))
        vectors[:, ::3] = 0.0
        vectors[0, ::2] *= -0.0
        paired = rng.standard_normal((rows + 1, cols))
        want, want_paired = vectors.copy(), paired.copy()
        for j in range(cols):
            col = want[:, j]
            scale = np.abs(col).max()
            if scale == 0.0:
                continue
            nz = np.nonzero(np.abs(col) > 1e-12 * scale)[0]
            if col[nz[0]] < 0.0:
                want[:, j] = -col
                want_paired[:, j] = -want_paired[:, j]
        linop._orient_columns(vectors, paired)
        assert vectors.tobytes() == want.tobytes()
        assert paired.tobytes() == want_paired.tobytes()

    def test_bitwise_determinism(self):
        mat = integration_matrix(17)
        a = DenseOperator(mat).svd
        b = DenseOperator(mat.copy()).svd
        assert np.array_equal(a.sigma, b.sigma)
        assert np.array_equal(a.left_vectors, b.left_vectors)
        assert np.array_equal(a.right_vectors, b.right_vectors)

    def test_nonfinite_rejected(self):
        # at construction, which factors the entries
        with pytest.raises(ValueError, match="operator has non-finite entries"):
            DenseOperator(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_norm_matches_power_iteration(self, op50):
        assert op50.svd.sigma[0] == pytest.approx(
            power_iteration_norm(op50.entries), rel=1e-6)


def lapack_svd(a):
    """LAPACK's thin SVD with the sign convention: the factorization every
    operator took before the Gram route, and the fallback's exact form."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T.copy()
    linop._orient_columns(v, u)
    return u, s, v


def graded(kappa, seed, rows=300, cols=200):
    """A random ``rows x cols`` matrix with singular values geometric from
    1 down to ``1 / kappa``."""
    rng = np.random.default_rng(seed)
    left = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
    right = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
    return (left * np.geomspace(1.0, 1.0 / kappa, cols)) @ right.T


@pytest.fixture(scope="module")
def paper_radon():
    return radon_matrix(28, 30, 41)


def rank_deficient_product():
    rng = np.random.default_rng(5)
    return rng.standard_normal((20, 6)) @ rng.standard_normal((6, 10))


class TestGramRoute:
    """``_thin_svd`` factors well-conditioned tall operators through their
    Gram matrix and leaves every other matrix to LAPACK."""

    # cond(A) < 1e3, so lambda_min / lambda_max of A^T A exceeds GRAM_TOL
    GRAM = {
        "integration-50": lambda: integration_matrix(50),
        "radon-8-12-13": lambda: radon_matrix(8, 12, 13),
        **{f"graded-{kappa:g}": partial(graded, kappa, 0) for kappa in (10, 100, 500, 990)},
        # all singular values 1: the column norms differ only by round-off,
        # so eigh's order is not theirs and the modes must be sorted
        "orthonormal-columns": partial(graded, 1, 6, 30, 20),
    }
    FALLBACK = {
        "radon-6-5-9": lambda: radon_matrix(6, 5, 9),  # rank-deficient
        "wide": lambda: np.random.default_rng(4).standard_normal((5, 9)),
        "rank-deficient-product": rank_deficient_product,
        "beyond-tolerance": partial(graded, 1010, 0),
        "no-columns": lambda: np.zeros((4, 0)),
        "zero": lambda: np.zeros((3, 2)),
    }

    @staticmethod
    def gram_route(a, monkeypatch):
        calls = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *x, **k: calls.append(1) or real_svd(*x, **k))
        svd = linop._thin_svd(a)
        monkeypatch.undo()
        assert calls == [], "took LAPACK's SVD, not the Gram route"
        return svd

    def check_against_lapack(self, a, monkeypatch):
        svd = self.gram_route(a, monkeypatch)
        _, s0, _ = lapack_svd(a)
        s, u, v = svd.sigma, svd.left_vectors, svd.right_vectors
        eye = np.eye(s.size)
        assert np.max(np.abs(s - s0) / s0) <= 1e-13
        assert np.abs(u.T @ u - eye).max() <= 1e-14
        assert np.abs(v.T @ v - eye).max() <= 1e-14
        assert np.abs(a @ v - u * s).max() <= 1e-14 * s[0]
        assert (np.diff(s) <= 0).all()
        assert u.flags.c_contiguous and v.flags.c_contiguous

    @pytest.mark.parametrize("name", GRAM)
    def test_matches_lapack(self, name, monkeypatch):
        self.check_against_lapack(self.GRAM[name](), monkeypatch)

    def test_matches_lapack_on_the_paper_radon_operator(self, paper_radon, monkeypatch):
        self.check_against_lapack(paper_radon, monkeypatch)

    @pytest.mark.parametrize("name", FALLBACK)
    def test_fallback_is_lapack_bit_for_bit(self, name):
        a = self.FALLBACK[name]()
        svd = linop._thin_svd(a)
        for got, want in zip((svd.left_vectors, svd.sigma, svd.right_vectors), lapack_svd(a)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_tall_zero_operator_rejected(self):
        with pytest.raises(ValueError, match="zero operator"):
            spectral_normalize(DenseOperator(np.zeros((3, 2))))

    def test_repeats_are_bit_identical(self, paper_radon):
        # large enough for BLAS to run on several threads
        first, second = linop._thin_svd(paper_radon), linop._thin_svd(paper_radon.copy())
        for field in ("sigma", "left_vectors", "right_vectors"):
            assert getattr(first, field).tobytes() == getattr(second, field).tobytes()

    def test_paper_radon_sidecar_round_trip(self, paper_radon, tmp_path):
        # an SVD cache entry, which read_svd validates
        op = spectral_normalize(DenseOperator(paper_radon))
        write_svd(tmp_path / "op.svd", op.svd)
        loaded = read_svd(tmp_path / "op.svd", op.entries)
        for field in ("sigma", "left_vectors", "right_vectors"):
            assert getattr(loaded, field).tobytes() == getattr(op.svd, field).tobytes()


class TestApply:
    def test_identity_roundtrip(self):
        op = DenseOperator(np.eye(4))
        x = np.arange(4.0)
        assert np.array_equal(op.entries @ x, x)
        assert np.array_equal(op.entries.T @ x, x)

    def test_adjoint_pairing(self, op50):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(50), rng.standard_normal(50)
        assert abs((op50.entries @ x) @ y - x @ (op50.entries.T @ y)) <= 1e-10


class TestPinvAdjoint:
    def test_recovers_source_on_range(self, op50):
        svd = op50.svd
        rng = np.random.default_rng(5)
        z = svd.left_vectors @ rng.uniform(-1, 1, 50)
        x = op50.entries.T @ z
        assert np.abs(pinv_adjoint_apply(op50, x) - z).max() <= 1e-8

    def test_zero_maps_to_zero(self, op50):
        assert np.array_equal(pinv_adjoint_apply(op50, np.zeros(50)), np.zeros(50))

    def test_identity_operator(self):
        op = DenseOperator(np.eye(6))
        x = np.random.default_rng(7).standard_normal(6)
        assert np.allclose(pinv_adjoint_apply(op, x), x, atol=1e-12)

    def test_truncation_for_tiny_modes(self):
        op = DenseOperator(np.diag([1.0, 1e-14]))
        out = pinv_adjoint_apply(op, np.array([1.0, 1.0]), rel_tol=1e-10)
        # second mode truncated, not inverted
        assert np.allclose(out, [1.0, 0.0])

    @staticmethod
    def masked_loop(op, x, rel_tol):
        """Per-column reference: the kept modes selected by a mask."""
        svd = op.svd
        keep = svd.sigma > rel_tol * svd.sigma[0]
        return np.column_stack([
            svd.left_vectors[:, keep] @ ((svd.right_vectors[:, keep].T @ col) / svd.sigma[keep])
            for col in x.T])

    @pytest.mark.parametrize("rel_tol", [1e-12, 1e-3, 0.5])
    def test_block_matches_column_loop(self, op50, rel_tol):
        x = np.random.default_rng(8).standard_normal((50, 7))
        block = pinv_adjoint_apply(op50, x, rel_tol)
        reference = self.masked_loop(op50, x, rel_tol)
        assert block.shape == (50, 7)
        assert np.abs(block - reference).max() <= 1e-12 * np.abs(reference).max()
        column = pinv_adjoint_apply(op50, x[:, 3], rel_tol)
        assert np.abs(column - reference[:, 3]).max() <= 1e-12 * np.abs(reference).max()

    def test_block_truncates_rank_deficient_modes(self):
        # a wide rank-2 operator: the zero and tiny modes are dropped
        a = np.zeros((3, 5))
        a[0, 0], a[1, 1], a[2, 2] = 2.0, 0.5, 1e-15
        x = np.random.default_rng(9).standard_normal((5, 4))
        out = pinv_adjoint_apply(DenseOperator(a), x, rel_tol=1e-10)
        expected = np.zeros((3, 4))
        expected[0], expected[1] = x[0] / 2.0, x[1] / 0.5
        assert np.allclose(out, expected, rtol=1e-14, atol=0.0)
        assert np.array_equal(pinv_adjoint_apply(DenseOperator(np.zeros((2, 3))), x[:3]),
                              np.zeros((2, 4)))


class TestFilteredSolve:
    def test_batched_equals_columnwise(self, op50):
        svd = op50.svd
        rng = np.random.default_rng(13)
        y = rng.standard_normal((50, 7))
        filt = rng.uniform(0.0, 2.0, size=(30, 7))
        batched = filtered_solve(svd, filt, y)
        for c in range(7):
            single = filtered_solve(svd, filt[:, c], y[:, c])
            assert np.abs(batched[:, c] - single).max() <= 1e-12 * np.abs(single).max()

    def test_shared_filter_broadcasts_over_columns(self, op50):
        svd = op50.svd
        rng = np.random.default_rng(17)
        y = rng.standard_normal((50, 4))
        filt = rng.uniform(0.0, 2.0, size=50)
        assert np.array_equal(filtered_solve(svd, filt, y),
                              filtered_solve(svd, np.repeat(filt[:, None], 4, axis=1), y))

    def test_inverse_filter_inverts_the_operator(self, op50):
        svd = op50.svd
        x = np.random.default_rng(19).standard_normal(50)
        recovered = filtered_solve(svd, 1.0 / svd.sigma, op50.entries @ x)
        assert np.abs(recovered - x).max() <= 1e-8

    def test_empty_filter_gives_zero(self, op50):
        svd = op50.svd
        out = filtered_solve(svd, np.zeros(0), np.ones((50, 3)))
        assert np.array_equal(out, np.zeros((50, 3)))


class TestFilteredErrors:
    def test_matches_the_weighted_norm_of_the_reconstruction(self):
        # a wide operator, so the reference has a part outside the span of
        # the right vectors
        rng = np.random.default_rng(23)
        op = DenseOperator(rng.standard_normal((6, 9)))
        svd = op.svd
        filt = rng.uniform(0.0, 2.0, size=5)
        y, ref, noise = rng.standard_normal(6), rng.standard_normal(9), rng.standard_normal((6, 4))
        u, v = svd.left_vectors[:, :5], svd.right_vectors[:, :5]
        deltas = (0.0, 0.3, 2.0)
        errors = filtered_errors(filt, u.T @ y, u.T @ noise, deltas, v.T @ ref,
                                 float(np.sum((ref - v @ (v.T @ ref)) ** 2)), op.n)
        assert errors.shape == (3, 4)
        for di, delta in enumerate(deltas):
            for r in range(4):
                want = weighted_norm(filtered_solve(svd, filt, y + delta * noise[:, r]) - ref)
                assert errors[di, r] == pytest.approx(want, rel=1e-12)


    @staticmethod
    def broadcast_reference(filt, data_coeff, noise_coeff, deltas, ref_coeff, outside, n):
        """The kernel as one (levels, modes, realizations) broadcast."""
        diff = ((filt * data_coeff - ref_coeff)[None, :, None]
                + np.asarray(deltas)[:, None, None] * (filt[:, None] * noise_coeff))
        return np.sqrt(np.sum(diff * diff, axis=1) + outside) / np.sqrt(n)

    @settings(max_examples=60, deadline=None)
    @given(levels=st.integers(1, 4), k=st.integers(1, 24), r=st.integers(1, 7),
           layout=st.sampled_from(["contiguous", "column slice", "transposed"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_the_broadcast(self, levels, k, r, layout, seed):
        rng = np.random.default_rng(seed)
        filt, data_coeff, ref_coeff = (rng.standard_normal(k) for _ in range(3))
        if layout == "contiguous":
            noise_coeff = rng.standard_normal((k, r))
        elif layout == "column slice":
            noise_coeff = rng.standard_normal((k, r + 3))[:, :r]
        else:
            noise_coeff = rng.standard_normal((r, k)).T
        deltas = (0.0, *rng.uniform(0.0, 2.0, size=levels - 1))
        args = (filt, data_coeff, noise_coeff, deltas, ref_coeff, float(rng.uniform(0.0, 3.0)), 37)
        assert np.array_equal(filtered_errors(*args), self.broadcast_reference(*args))

    def test_bit_identical_on_a_slice_of_the_left_vectors(self):
        # the dimension scan's shapes: the first m modes of a singular system
        rng = np.random.default_rng(29)
        svd = normalized(radon_matrix(8, 12, 13)).svd
        for m in (1, 17, 64):
            u, v = svd.left_vectors[:, :m], svd.right_vectors[:, :m]
            filt = svd.sigma[:m] / (svd.sigma[:m] ** 2 + 0.01)
            y, ref = rng.standard_normal(u.shape[0]), rng.standard_normal(v.shape[0])
            args = (filt, u.T @ y, u.T @ rng.standard_normal((u.shape[0], 9)),
                    (0.001, 0.1, 1.0), v.T @ ref, float(np.sum((ref - v @ (v.T @ ref)) ** 2)),
                    v.shape[0])
            assert np.array_equal(filtered_errors(*args), self.broadcast_reference(*args))

    def test_allocates_no_array_per_level(self):
        # filt * g, one work buffer and numpy's small iteration buffers;
        # the broadcast held three (levels, k, R) arrays
        k, r, levels = 400, 300, 6
        rng = np.random.default_rng(31)
        args = (rng.standard_normal(k), rng.standard_normal(k), rng.standard_normal((k, r)),
                np.linspace(0.0, 1.0, levels), rng.standard_normal(k), 0.5, k)
        tracemalloc.start()
        try:
            errors = filtered_errors(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - errors.nbytes < 3 * k * r * 8


class TestNormalization:
    def test_reuses_the_raw_svd(self, monkeypatch):
        raw = DenseOperator(radon_matrix(6, 4, 7))
        raw_svd = raw.svd
        calls = []
        real_svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or real_svd(*a, **k))
        op = spectral_normalize(raw)
        svd = op.svd
        assert calls == []
        top = raw_svd.sigma[0]
        assert np.array_equal(op.entries, raw.entries / top)
        assert np.array_equal(svd.sigma, raw_svd.sigma / top)
        assert svd.sigma[0] == 1.0
        assert svd.left_vectors is raw_svd.left_vectors
        assert svd.right_vectors is raw_svd.right_vectors

    def test_attached_svd_is_a_singular_system(self):
        op = normalized(radon_matrix(6, 4, 7))
        svd = op.svd
        rebuilt = svd.left_vectors @ np.diag(svd.sigma) @ svd.right_vectors.T
        assert np.abs(rebuilt - op.entries).max() <= 1e-12

    def test_zero_operator_rejected(self):
        with pytest.raises(ValueError, match="zero operator"):
            spectral_normalize(DenseOperator(np.zeros((2, 3))))

    def test_idempotent(self):
        op = normalized(integration_matrix(20))
        again = spectral_normalize(op)
        assert np.abs(again.entries - op.entries).max() <= 1e-12

    def test_unit_norm_flag(self):
        op = normalized(integration_matrix(20))
        assert abs(op.svd.sigma[0] - 1.0) <= 1e-10


class TestWeightedNorm:
    def test_mean_square_identity(self):
        rng = np.random.default_rng(11)
        v = rng.standard_normal(37)
        assert weighted_norm(v) ** 2 == pytest.approx(np.mean(v ** 2), abs=1e-12)

    def test_callable_form(self):
        # one function serves vectors of every length, the empty one included
        assert weighted_norm(np.array([2.0, 2.0, 2.0, 2.0])) == pytest.approx(2.0)
        assert weighted_norm(np.full(5, 2.0)) == pytest.approx(2.0)
        assert weighted_norm(np.zeros(0)) == 0.0


class TestContainer:
    def test_matrix_roundtrip(self, tmp_path):
        mat = np.arange(12.0).reshape(3, 4)
        save_matrix(tmp_path / "m.rgb", mat)
        assert np.array_equal(load_matrix(tmp_path / "m.rgb"), mat)

    def test_header_layout(self, tmp_path):
        save_matrix(tmp_path / "m.rgb", np.ones((2, 1)))
        blob = (tmp_path / "m.rgb").read_bytes()
        assert blob[:4] == b"RGB1"
        assert int.from_bytes(blob[4:12], "little") == 2
        assert int.from_bytes(blob[12:20], "little") == 1
        assert len(blob) == 20 + 2 * 8

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_payload_rejected(self, tmp_path, value):
        mat = np.ones((3, 4))
        mat[2, 1] = value
        save_matrix(tmp_path / "m.rgb", mat)
        with pytest.raises(ValueError) as info:
            load_matrix(tmp_path / "m.rgb")
        assert str(info.value) == f"{tmp_path / 'm.rgb'}: non-finite container payload"

    def test_row_blocks_are_one_matrix(self, tmp_path):
        # blocks of one width are written under one header, as if stacked
        top, bottom = np.arange(6.0).reshape(2, 3), np.arange(3.0).reshape(1, 3)
        save_matrix(tmp_path / "blocks.rgb", top, bottom)
        save_matrix(tmp_path / "stacked.rgb", np.vstack([top, bottom]))
        assert (tmp_path / "blocks.rgb").read_bytes() == (tmp_path / "stacked.rgb").read_bytes()
        for blocks in [(top, bottom.T), (top.ravel(),), ()]:
            with pytest.raises(ValueError, match="only 2-D arrays of one width"):
                save_matrix(tmp_path / "bad.rgb", *blocks)

    def test_svd_entry_is_one_matrix(self, tmp_path):
        # sigma over U over V, byte for byte, read back by load_matrix
        svd = DenseOperator(radon_matrix(3, 4, 5)).svd
        write_svd(tmp_path / "op.svd", svd)
        stacked = load_matrix(tmp_path / "op.svd")
        assert stacked.shape == (1 + 20 + 9, 9)
        assert stacked.tobytes() == np.vstack([svd.sigma, svd.left_vectors,
                                               svd.right_vectors]).tobytes()

    def test_operator_roundtrip_with_svd(self, tmp_path):
        op = normalized(integration_matrix(9))
        svd = op.svd
        save_matrix(tmp_path / "op.rgb", op.entries)
        write_svd(tmp_path / "op.svd", svd)
        entries = load_matrix(tmp_path / "op.rgb")
        loaded = read_svd(tmp_path / "op.svd", entries)
        assert np.array_equal(entries, op.entries)
        assert np.array_equal(loaded.sigma, svd.sigma)
        assert np.array_equal(loaded.left_vectors, svd.left_vectors)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.rgb").write_bytes(b"NOPE" + bytes(16))
        with pytest.raises(ValueError, match="magic"):
            load_matrix(tmp_path / "bad.rgb")

    def test_trailing_bytes_rejected(self, tmp_path):
        save_matrix(tmp_path / "m.rgb", np.ones((2, 2)))
        blob = (tmp_path / "m.rgb").read_bytes()
        (tmp_path / "long.rgb").write_bytes(blob + bytes(8))
        with pytest.raises(ValueError, match="trailing"):
            load_matrix(tmp_path / "long.rgb")

    def test_truncated_payload(self, tmp_path):
        save_matrix(tmp_path / "m.rgb", np.ones((4, 4)))
        blob = (tmp_path / "m.rgb").read_bytes()
        (tmp_path / "cut.rgb").write_bytes(blob[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_matrix(tmp_path / "cut.rgb")


def test_operator_entries_are_readonly(op50):
    with pytest.raises(ValueError):
        op50.entries[0, 0] = 5.0


class TestOperatorValue:
    """An operator is one immutable value, built with its singular system."""

    def test_built_with_its_svd(self):
        m = radon_matrix(6, 4, 7)
        op = DenseOperator(m)
        assert op.svd_source == "computed"
        want = linop._thin_svd(m)
        for field in ("sigma", "left_vectors", "right_vectors"):
            assert getattr(op.svd, field).tobytes() == getattr(want, field).tobytes()

    def test_given_svd_is_not_factored_again(self, monkeypatch):
        m = radon_matrix(6, 4, 7)
        svd = linop._thin_svd(m)
        monkeypatch.setattr(linop, "_thin_svd", None)
        op = DenseOperator(m, svd, "cache")
        assert op.svd is svd and op.svd_source == "cache"

    def test_frozen(self):
        op = DenseOperator(np.eye(3))
        for name, value in [("svd", None), ("entries", np.eye(3)), ("svd_source", "cache")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(op, name, value)


class TestSvdSidecar:
    """An SVD cache entry (:func:`write_svd`, one matrix container) must
    describe exactly one full singular system of the operator it is read
    for."""

    @pytest.fixture()
    def saved(self, tmp_path):
        entries = normalized(integration_matrix(4)).entries
        write_svd(tmp_path / "op.svd", DenseOperator(entries).svd)
        return entries, tmp_path / "op.svd"

    def test_too_many_modes_rejected(self, saved):
        # 5 modes of a 4x4 operator, stacked as an entry would stack them
        entries, path = saved
        save_matrix(path, np.ones((1 + 4 + 4, 5)))
        with pytest.raises(ValueError, match=r"SVD entry of shape \(9, 5\), expected \(9, 4\)"):
            read_svd(path, entries)

    def test_nonfinite_payload_rejected(self, saved):
        entries, path = saved
        blob = bytearray(path.read_bytes())
        start = 4 + linop._HEADER.size
        blob[start + 8:start + 16] = np.array([np.nan]).astype("<f8").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="non-finite"):
            read_svd(path, entries)

    def test_trailing_bytes_rejected(self, saved):
        entries, path = saved
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(ValueError, match="trailing"):
            read_svd(path, entries)

    def test_unsorted_singular_values_rejected(self, saved):
        entries, path = saved
        blob = bytearray(path.read_bytes())
        start = 4 + linop._HEADER.size
        first, last = bytes(blob[start:start + 8]), bytes(blob[start + 24:start + 32])
        blob[start:start + 8], blob[start + 24:start + 32] = last, first
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="nonincreasing"):
            read_svd(path, entries)

    def test_truncated_header_rejected(self, saved):
        entries, path = saved
        path.write_bytes(b"RGB1" + bytes(8))
        with pytest.raises(ValueError, match="truncated"):
            read_svd(path, entries)

    def test_bad_magic_rejected(self, saved):
        entries, path = saved
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="magic"):
            read_svd(path, entries)

    def test_other_shape_rejected(self, saved):
        entries, path = saved
        with pytest.raises(ValueError, match=r"SVD entry of shape \(9, 4\), expected \(10, 4\) "
                                             r"for operator \(4, 5\)"):
            read_svd(path, np.hstack([entries, entries[:, :1]]))

    @pytest.mark.parametrize("shape", [(4, 6), (6, 4)])
    def test_transposed_operators_system_rejected(self, tmp_path, shape):
        # A^T's system stacks to A's shape, (1 + m + n) x min(m, n), but its
        # first m rows of vectors are not A's orthonormal left vectors
        entries = np.random.default_rng(3).standard_normal(shape)
        write_svd(tmp_path / "op.svd", DenseOperator(entries.T).svd)
        assert load_matrix(tmp_path / "op.svd").shape == (1 + sum(shape), min(shape))
        with pytest.raises(ValueError, match="orthonormal singular system"):
            read_svd(tmp_path / "op.svd", entries)

    def test_another_operators_system_rejected(self, saved):
        # a valid singular system of the same shape, but of another matrix
        entries, path = saved
        write_svd(path, DenseOperator(radon_matrix(2, 2, 2)).svd)
        with pytest.raises(ValueError, match="orthonormal singular system"):
            read_svd(path, entries)

    def test_vectors_that_factor_but_are_not_singular_rejected(self, saved):
        # V orthonormal and A V = U S hold exactly, but U is not orthonormal
        entries, path = saved
        right = np.linalg.qr(np.random.default_rng(1).standard_normal((4, 4)))[0]
        sigma = np.array([4.0, 3.0, 2.0, 1.0])
        write_svd(path, linop.SvdSystem(sigma, entries @ right / sigma, right))
        with pytest.raises(ValueError, match="orthonormal singular system"):
            read_svd(path, entries)

    def test_scaled_right_vectors_and_values_rejected(self, saved):
        # U orthonormal and A V = U S hold, but V is not orthonormal
        entries, path = saved
        svd = read_svd(path, entries)
        write_svd(path, linop.SvdSystem(2.0 * svd.sigma, svd.left_vectors, 2.0 * svd.right_vectors))
        with pytest.raises(ValueError, match="orthonormal singular system"):
            read_svd(path, entries)

    def test_scaled_left_vectors_rejected(self, saved):
        entries, path = saved
        svd = read_svd(path, entries)
        write_svd(path, linop.SvdSystem(svd.sigma, 3.0 * svd.left_vectors, svd.right_vectors))
        with pytest.raises(ValueError, match="orthonormal singular system"):
            read_svd(path, entries)

    def test_nonfinite_operator_behind_a_valid_sidecar_rejected(self, saved):
        entries, path = saved
        entries = entries.copy()
        entries[0, 0] = np.nan
        with pytest.raises(ValueError, match="orthonormal singular system"):
            read_svd(path, entries)


class TestBlockedSidecarChecks:
    """:func:`read_svd` checks U^T U and V^T V in blocks of 128 columns and
    A V - U S in blocks of 256 rows; a defect past the first block of each
    is still rejected."""

    SHAPES = [(300, 129), (340, 144), (300, 256)]

    @staticmethod
    def system(m, n):
        """An m x n operator built from orthonormal factors and a
        geometric spectrum from 1 down to 0.1, and those factors."""
        rng = np.random.default_rng(m * 1000 + n)
        k = min(m, n)
        left = np.linalg.qr(rng.standard_normal((m, k)))[0]
        right = np.linalg.qr(rng.standard_normal((n, k)))[0]
        sigma = np.geomspace(1.0, 0.1, k)
        return (left * sigma) @ right.T, sigma, left, right

    @staticmethod
    def rotate_last_two(vectors, angle=0.3):
        """``vectors`` with its last two columns turned by ``angle``."""
        c, s = math.cos(angle), math.sin(angle)
        turned = vectors.copy()
        turned[:, -2:] = vectors[:, -2:] @ np.array([[c, -s], [s, c]])
        return turned

    @staticmethod
    def read(tmp_path, entries, sigma, left, right):
        write_svd(tmp_path / "op.svd", linop.SvdSystem(sigma, left, right))
        return read_svd(tmp_path / "op.svd", entries)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_valid_system_accepted(self, tmp_path, shape):
        entries, sigma, left, right = self.system(*shape)
        svd = self.read(tmp_path, entries, sigma, left, right)
        assert np.array_equal(svd.left_vectors, left) and np.array_equal(svd.right_vectors, right)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_left_vectors_off_orthogonal_in_the_last_block(self, tmp_path, shape):
        # V orthonormal and A V = U S to round-off; U^T U is off only
        # between the last two modes
        entries, sigma, _, right = self.system(*shape)
        right = self.rotate_last_two(right)
        with pytest.raises(ValueError, match="orthonormal singular system"):
            self.read(tmp_path, entries, sigma, entries @ right / sigma, right)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_right_vectors_off_orthogonal_in_the_last_block(self, tmp_path, shape):
        # U orthonormal and A V = U S to round-off, with V = V S^-1 G S for
        # a rotation G of the last two modes; V^T V is off only there
        entries, sigma, left, right = self.system(*shape)
        turned = self.rotate_last_two(left)
        right = self.rotate_last_two(right / sigma) * sigma
        assert np.abs(entries @ right - turned * sigma).max() <= 1e-12
        with pytest.raises(ValueError, match="orthonormal singular system"):
            self.read(tmp_path, entries, sigma, turned, right)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_residual_only_in_the_last_row_block(self, tmp_path, shape):
        entries, sigma, left, right = self.system(*shape)
        entries[-1, 0] += 1e-4
        with pytest.raises(ValueError, match="orthonormal singular system"):
            self.read(tmp_path, entries, sigma, left, right)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_nonfinite_last_row_behind_a_valid_sidecar(self, tmp_path, shape):
        entries, sigma, left, right = self.system(*shape)
        entries[-1, -1] = np.nan
        with pytest.raises(ValueError, match="orthonormal singular system"):
            self.read(tmp_path, entries, sigma, left, right)

    def test_write_allocates_no_stacked_copy(self, tmp_path):
        svd = linop.SvdSystem(*self.system(1000, 300)[1:])
        tracemalloc.start()
        try:
            write_svd(tmp_path / "op.svd", svd)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 300 * 300 // 10  # a tenth of V

    def test_checks_allocate_less_than_one_left_vector_array(self, tmp_path):
        m, n = 1000, 300
        entries, sigma, left, right = self.system(m, n)
        write_svd(tmp_path / "op.svd", linop.SvdSystem(sigma, left, right))
        payload = 8 * (n + m * n + n * n)
        tracemalloc.start()
        try:
            read_svd(tmp_path / "op.svd", entries)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - payload < 8 * m * n


@settings(max_examples=25, deadline=None)
@given(rows=st.integers(1, 8), cols=st.integers(1, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_containers_round_trip_and_reject_every_prefix(rows, cols, seed):
    entries = np.random.default_rng(seed).standard_normal((rows, cols))
    svd = DenseOperator(entries).svd
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.rgb"
        svd_path = Path(tmp) / "op.svd"
        save_matrix(path, entries)
        write_svd(svd_path, svd)
        assert load_matrix(path).tobytes() == entries.tobytes()
        loaded = read_svd(svd_path, entries)
        for name in ("sigma", "left_vectors", "right_vectors"):
            assert getattr(loaded, name).tobytes() == getattr(svd, name).tobytes()
        for target, load in ((path, load_matrix), (svd_path, partial(read_svd, entries=entries))):
            blob = target.read_bytes()
            for cut in range(len(blob)):
                target.write_bytes(blob[:cut])
                with pytest.raises(ValueError):
                    load(target)
            target.write_bytes(blob)
