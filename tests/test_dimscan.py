import numpy as np
import pytest

from regbench.datagen import Basis, noise_block, pca_basis, rng_for, svd_basis
from regbench.dimscan import CONSENSUS_DELTA_MIN, reference_reconstruction, scan
from regbench.harness import (
    DataSpec,
    ExperimentConfig,
    GridSpec,
    MethodSpec,
    OperatorSpec,
    build_dataset,
    build_operator,
)
from regbench.linop import weighted_norm
from regbench.tikhonov import reconstruct
from regbench.truncated import ExpectedErrorModel, alpha_threshold, argmin_expected_level


@pytest.fixture()
def planted_sample(op50):
    # one sample spanning exactly the first eight singular directions
    basis = svd_basis(op50)
    x = basis.vectors[:, :8] @ rng_for(2024, 0).uniform(-1.0, 1.0, size=8)
    return basis, x


def scan_config(m_grid, alpha, delta_list, realizations=100, exact_truth=False, seed=0):
    """A config holding what :func:`scan` reads."""
    return ExperimentConfig(
        method=MethodSpec(kind="truncated", m_grid=m_grid, alpha=alpha, exact_truth=exact_truth),
        grid=GridSpec(delta=delta_list, realizations=realizations),
        seed=seed)


def test_noiseless_scan_recovers_dimension_exactly(op50, planted_sample):
    basis, x = planted_sample
    config = scan_config(tuple(range(1, 17)), 1e-6, (0.0,), realizations=1,
                         exact_truth=True, seed=0)
    result = scan(op50, basis, x, config)
    assert result.estimated_n == 8
    assert result.argmin_m == (8,)


def test_noisy_scan_single_level(op50, planted_sample):
    basis, x = planted_sample
    svd = op50.svd
    c = svd.right_vectors[:, :8].T @ x
    model = ExpectedErrorModel(c=c, beta2=np.full(50, 0.01), sigma=svd.sigma, alpha=1.0)
    alpha = max(2.0 * alpha_threshold(model), 0.5)
    config = scan_config((2, 4, 6, 8, 10, 12, 14, 16), alpha, (0.1,), realizations=100,
                         exact_truth=True, seed=5)
    result = scan(op50, basis, x, config)
    assert result.estimated_n == 8
    # closed-form argmin agrees with the theorem's prediction
    tuned = ExpectedErrorModel(c=c, beta2=np.full(50, 0.01), sigma=svd.sigma, alpha=alpha)
    assert argmin_expected_level(tuned, config.method.m_grid) == 8


def test_singleton_grid(op50, planted_sample):
    basis, x = planted_sample
    config = scan_config((8,), 0.5, (0.1,), realizations=3, exact_truth=True, seed=1)
    assert scan(op50, basis, x, config).estimated_n == 8


def test_scan_is_reproducible(op50, planted_sample):
    basis, x = planted_sample
    config = scan_config((4, 8, 12), 0.5, (0.05, 0.1), realizations=10, exact_truth=True, seed=3)
    a = scan(op50, basis, x, config)
    b = scan(op50, basis, x, config)
    assert np.array_equal(a.mean_errors, b.mean_errors)
    assert a.estimated_n == b.estimated_n


@pytest.mark.parametrize("exact_truth", [True, False])
def test_svd_kernel_matches_restricted_normal_equations(op50, planted_sample, exact_truth):
    # the same vectors under another kind are factorized as A B_m instead
    # of sliced from the operator's singular system
    basis, x = planted_sample
    config = scan_config((0, 2, 8, 20, 50), 0.05, (0.0, 0.1, 0.5), realizations=6,
                         exact_truth=exact_truth, seed=2)
    kernel = scan(op50, basis, x, config)
    composed = scan(op50, Basis(kind="pca", vectors=basis.vectors), x, config)
    assert np.abs(kernel.mean_errors - composed.mean_errors).max() <= 1e-10
    assert kernel.argmin_m == composed.argmin_m


def test_svd_kernel_matches_composed_svd_on_radon():
    op = build_operator(OperatorSpec(kind="radon", side=6, angles=5, offsets=9))
    basis = svd_basis(op)
    x = basis.vectors[:, :5] @ rng_for(3, 0).uniform(-1.0, 1.0, size=5)
    config = scan_config((1, 5, 12, 36), 0.01, (0.05, 0.2), realizations=4, seed=4)
    kernel = scan(op, basis, x, config)
    composed = scan(op, Basis(kind="coordinate", vectors=basis.vectors), x, config)
    assert np.abs(kernel.mean_errors - composed.mean_errors).max() <= 1e-10


def extended_mean_errors(op, basis, x, reference, config):
    """The scan's mean errors from the restricted normal equations, solved
    by Gaussian elimination in ``np.longdouble``."""
    ld = np.longdouble
    a, ref = op.entries.astype(ld), reference.astype(ld)
    block = noise_block(config.seed, 0, config.grid.realizations + 1, op.m).astype(ld)
    means = np.zeros((len(config.method.m_grid), len(config.grid.delta)))
    for mi, m in enumerate(config.method.m_grid):
        b = basis.vectors[:, :m].astype(ld)
        ab = a @ b
        for di, delta in enumerate(config.grid.delta):
            gram = ab.T @ ab + ld(config.method.alpha) * np.eye(m, dtype=ld)
            rhs = ab.T @ (a @ x.astype(ld) + ld(delta) * block[1:]).T
            for i in range(m):  # partial pivoting
                p = i + int(np.argmax(np.abs(gram[i:, i])))
                gram[[i, p]], rhs[[i, p]] = gram[[p, i]], rhs[[p, i]]
                factor = gram[i + 1:, i:i + 1] / gram[i, i]
                gram[i + 1:] -= factor * gram[i]
                rhs[i + 1:] -= factor * rhs[i]
            coeff = np.zeros_like(rhs)
            for i in reversed(range(m)):
                coeff[i] = (rhs[i] - gram[i, i + 1:] @ coeff[i + 1:]) / gram[i, i]
            err = b @ coeff - ref[:, None]
            means[mi, di] = float(np.mean(np.sqrt(np.mean(err * err, axis=0))))
    return means


def test_pca_scan_matches_extended_precision():
    # W = B_m V is orthonormal only to round-off; the least-squares
    # reference coefficients keep the error split free of a cross term
    op = build_operator(OperatorSpec(kind="integration", n=50))
    errors = []
    for seed in range(10):
        truths, _ = build_dataset(op, DataSpec(kind="subspace", count=20, n_dim=16), seed)
        basis, x = pca_basis(truths.T, 20), truths[:, 0].copy()
        config = scan_config((8, 14), 0.01, (0.001,), realizations=20, seed=seed)
        block = noise_block(seed, 0, 21, op.m)
        reference = reference_reconstruction(op, x, 0.03, 0.01, block[0])
        want = extended_mean_errors(op, basis, x, reference, config)
        errors.extend(np.abs(scan(op, basis, x, config).mean_errors / want - 1).ravel())
    eps = np.finfo(float).eps
    assert np.median(errors) <= 2e-15 and max(errors) <= 20 * eps


def test_reference_shift_is_bounded_by_reference_error(op50, planted_sample):
    # swapping the exact truth for a reference moves every cell by at most
    # the reference's own distance to the truth
    basis, x = planted_sample
    args = ((2, 6, 8, 12), 0.5, (0.1,))
    with_truth = scan(op50, basis, x, scan_config(*args, realizations=20, exact_truth=True, seed=9))
    with_ref = scan(op50, basis, x, scan_config(*args, realizations=20, exact_truth=False, seed=9))
    reference = reference_reconstruction(op50, x, 0.03, 0.01, noise_block(9, 0, 1, 50)[0])
    gap = weighted_norm(reference - x)
    assert np.abs(with_ref.mean_errors - with_truth.mean_errors).max() <= gap + 1e-12


def test_reference_reconstruction_deterministic(op50, planted_sample):
    _, x = planted_sample
    a = reference_reconstruction(op50, x, 0.03, 0.01, noise_block(4, 0, 1, 50)[0])
    b = reference_reconstruction(op50, x, 0.03, 0.01, noise_block(4, 0, 1, 50)[0])
    assert np.array_equal(a, b)
    c = reference_reconstruction(op50, x, 0.03, 0.01, noise_block(5, 0, 1, 50)[0])
    assert not np.array_equal(a, c)


def test_reference_reconstruction_perturbs_the_clean_data(op50, planted_sample):
    _, x = planted_sample
    noise = noise_block(4, 0, 1, 50)[0]
    ref = reference_reconstruction(op50, x, 0.03, 0.01, noise)
    assert np.array_equal(ref, reconstruct(op50, op50.entries @ x + 0.01 * noise, 0.03))
    assert not np.array_equal(ref, reference_reconstruction(op50, x, 0.03, 0.01, 2 * noise))


def test_noiseless_reference_approaches_truth(op50, planted_sample):
    _, x = planted_sample
    ref = reference_reconstruction(op50, x, 1e-9, 0.0, noise_block(0, 0, 1, 50)[0])
    assert weighted_norm(ref - x) <= 1e-6


def test_consensus_prefers_levels_above_floor(op50, planted_sample):
    basis, x = planted_sample
    config = scan_config((2, 8), 0.5, (0.01, 0.1, 0.2), realizations=5, exact_truth=True, seed=11)
    result = scan(op50, basis, x, config)
    assert CONSENSUS_DELTA_MIN == 0.05
    eligible = [m for m, d in zip(result.argmin_m, result.delta_list) if d >= CONSENSUS_DELTA_MIN]
    assert result.estimated_n in eligible


def test_config_validation():
    with pytest.raises(ValueError):
        scan_config((), 0.5, (0.1,))
    with pytest.raises(ValueError):
        scan_config((3, 3), 0.5, (0.1,))
    with pytest.raises(ValueError):
        scan_config((1, 2), 0.0, (0.1,))
    with pytest.raises(ValueError):
        scan_config((1, 2), 0.5, (0.1,), realizations=0)
    with pytest.raises(ValueError):
        scan_config((1, 2), 0.5, ())


@pytest.mark.parametrize("m_grid, delta_list", [
    ((-3, 4, 8), (0.1,)),
    ((1, 2), (-0.1, 0.1)),
    ((1, 2), (0.1, float("nan"))),
    ((1, 2), (float("inf"),)),
])
def test_config_rejects_negative_levels(m_grid, delta_list):
    with pytest.raises(ValueError, match="nonnegative"):
        scan_config(m_grid, 0.5, delta_list)
