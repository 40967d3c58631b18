"""Common-random-number noise: the coefficient-space Tikhonov grid and the
dimension scan.

The references below work in data space on noise drawn exactly as the
harness documents it: sample s owns the block
``rng_for(seed, NOISE_TAG, s).standard_normal((rows, m))``.  In a grid cell
realization r at level delta is ``y_s + delta * block[r]``; a scan of R
realizations draws R + 1 rows of sample 0, perturbs its reference with row
0 and sees ``y_0 + delta * block[r + 1]`` as realization r.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regbench import datagen, dimscan
from regbench.datagen import NOISE_TAG, coordinate_basis, noise_block, pca_basis, rng_for, svd_basis
from regbench.dimscan import scan
from regbench.harness import (
    ConfigError,
    DataSpec,
    ExperimentConfig,
    GridSpec,
    MethodSpec,
    OperatorSpec,
    build_dataset,
    build_operator,
    cli_main,
    run_dim_experiment,
    run_mismatch_grid,
)
from regbench.linop import compute_svd, filtered_solve, weighted_norm
from regbench.tikhonov import optimal_alpha, reconstruct, wc_bound
from test_truncated import restricted_normal_solve

REL_TOL = 1e-12

# per-sample source constants straddle delta_bar = 0.6, so some samples
# take the zero reconstruction
INTEGRATION = ExperimentConfig(
    operator=OperatorSpec(kind="integration", n=20),
    data=DataSpec(kind="source", count=5),
    grid=GridSpec(delta_bar=(0.01, 0.1, 0.6), delta=(0.01, 0.1, 0.6), realizations=6),
    method=MethodSpec(kind="tikhonov", rho="per-sample"),
    seed=0)

# 15 measurements of a 64-pixel image: most of every phantom lies outside
# the operator's row space
WIDE_RADON = ExperimentConfig(
    operator=OperatorSpec(kind="radon", side=8, angles=3, offsets=5),
    data=DataSpec(kind="phantom", count=4),
    grid=GridSpec(delta_bar=(0.01, 0.1, 0.5), delta=(0.01, 0.1, 0.5, 0.2), realizations=5),
    method=MethodSpec(kind="tikhonov", rho="estimate"),
    seed=3)

# 156 measurements of a 64-pixel image with source data: the bound is
# checked with each sample's own source constant, which the estimated rule
# constant is not, and in pixel-weighted errors, sqrt(m / n) above the
# data-weighted bound
TALL_RADON = ExperimentConfig(
    operator=OperatorSpec(kind="radon", side=8, angles=12, offsets=13),
    data=DataSpec(kind="source", count=4),
    grid=GridSpec(delta_bar=(0.01, 0.1, 0.5, 1.0), delta=(0.01, 0.1, 0.5, 1.0), realizations=5),
    method=MethodSpec(kind="tikhonov", rho="estimate"),
    seed=0)


def reference_grid(config, draw=None):
    """Mean errors and bound margins; ``draw`` realizations are drawn per
    sample and the first ``R`` used.  A realization's bound is
    ``sqrt(m / n) * wc_bound`` at the rule's alpha, its realized noise level
    and its sample's own source constant."""
    op = build_operator(config.operator)
    svd = compute_svd(op)
    truths, sample_rho = build_dataset(op, config.data, config.seed)
    count = truths.shape[1]
    if config.method.rho == "per-sample":
        rhos = sample_rho
    else:
        rhos = [datagen.estimate_source_constant(op, truths).mean()] * count
    bars, deltas, reps = config.grid.delta_bar, config.grid.delta, config.grid.realizations
    errors = np.zeros((len(bars), len(deltas), count, reps))
    margins = []
    s, scale = svd.sigma, np.sqrt(op.m / op.n)
    for si, x in enumerate(truths.T):
        y = op.entries @ x
        block = rng_for(config.seed, NOISE_TAG, si).standard_normal((draw or reps, op.m))[:reps]
        for bi, delta_bar in enumerate(bars):
            alpha = optimal_alpha(delta_bar, rhos[si])
            for di, delta in enumerate(deltas):
                noisy = y[:, None] + delta * block.T
                realized = np.linalg.norm(noisy - y[:, None], axis=0) / np.sqrt(op.m)
                if alpha == np.inf:
                    errors[bi, di, si] = weighted_norm(x)
                else:
                    rec = filtered_solve(svd, s / (s * s + alpha), noisy)
                    errors[bi, di, si] = np.linalg.norm(rec - x[:, None], axis=0) / np.sqrt(op.n)
                if sample_rho is not None:
                    bounds = scale * wc_bound(alpha, realized, sample_rho[si])
                    margins.append(bounds - errors[bi, di, si])
    margins = np.concatenate(margins) if margins else np.zeros(0)
    return errors.mean(axis=(2, 3)), margins


@pytest.mark.parametrize("config", [INTEGRATION, WIDE_RADON, TALL_RADON],
                         ids=["integration", "wide-radon", "tall-radon"])
def test_grid_matches_data_space_reference(config):
    grid = run_mismatch_grid(config, build_operator(config.operator))
    mean_errors, margins = reference_grid(config)
    np.testing.assert_allclose(grid.mean_errors, mean_errors, rtol=REL_TOL, atol=0.0)
    assert grid.checked == margins.size
    assert grid.violations == int((margins < -1e-9).sum()) == 0
    if margins.size:
        assert abs(grid.min_margin - margins.min()) <= 1e-12


def test_integration_case_has_sentinels_and_wide_case_leaves_the_row_space():
    # some, not all, samples take the zero reconstruction at delta_bar 0.6
    op = build_operator(INTEGRATION.operator)
    sample_rho = build_dataset(op, INTEGRATION.data, INTEGRATION.seed)[1]
    zero = [optimal_alpha(0.6, rho) == np.inf for rho in sample_rho]
    assert 0 < sum(zero) < len(zero)
    assert run_mismatch_grid(INTEGRATION, op).checked == 5 * 6 * 9
    op = build_operator(WIDE_RADON.operator)
    assert op.m < op.n
    v = compute_svd(op).right_vectors
    x = build_dataset(op, WIDE_RADON.data, WIDE_RADON.seed)[0][:, 0]
    assert np.linalg.norm(x - v @ (v.T @ x)) > 0.1 * np.linalg.norm(x)


def test_every_cell_sees_the_same_noise():
    # a cell's noise does not depend on its place in the grid: each cell of
    # the full grid equals the grid of that one cell
    op = build_operator(WIDE_RADON.operator)
    grid = run_mismatch_grid(WIDE_RADON, op)
    for bi, delta_bar in enumerate(WIDE_RADON.grid.delta_bar):
        for di, delta in enumerate(WIDE_RADON.grid.delta):
            cell = replace(WIDE_RADON, grid=replace(WIDE_RADON.grid, delta_bar=(delta_bar,),
                                                    delta=(delta,)))
            np.testing.assert_allclose(run_mismatch_grid(cell, op).mean_errors[0, 0],
                                       grid.mean_errors[bi, di], rtol=REL_TOL, atol=0.0)


def test_noise_block_rows_are_prefix_stable():
    short = noise_block(5, 2, 3, 11)
    long = noise_block(5, 2, 8, 11)
    assert short.shape == (3, 11) and long.shape == (8, 11)
    assert np.array_equal(long[:3], short)
    assert not np.array_equal(noise_block(5, 3, 3, 11), short)


def test_grid_realizations_are_prefix_stable():
    # a one-realization grid uses the first row of each sample's longer block
    one = ExperimentConfig(operator=INTEGRATION.operator, data=INTEGRATION.data,
                           grid=GridSpec(delta_bar=(0.1,), delta=(0.1,), realizations=1),
                           method=INTEGRATION.method, seed=INTEGRATION.seed)
    mean_errors, _ = reference_grid(one, draw=INTEGRATION.grid.realizations)
    np.testing.assert_allclose(run_mismatch_grid(one, build_operator(one.operator)).mean_errors,
                               mean_errors, rtol=REL_TOL, atol=0.0)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 60), seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 6),
       realizations=st.integers(1, 8),
       bars=st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=3),
       deltas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3))
def test_grid_never_violates_the_worst_case_bound(n, seed, count, realizations, bars, deltas):
    # with each sample's own source constant the bound holds for every
    # realized noise level, including the zero-reconstruction cells
    config = ExperimentConfig(
        operator=OperatorSpec(kind="integration", n=n),
        data=DataSpec(kind="source", count=count),
        grid=GridSpec(delta_bar=tuple(bars), delta=tuple(deltas), realizations=realizations),
        method=MethodSpec(kind="tikhonov", rho="per-sample"),
        seed=seed)
    grid = run_mismatch_grid(config, build_operator(config.operator))
    assert grid.checked == len(bars) * len(deltas) * count * realizations
    assert grid.violations == 0


def scan_basis(op, truths, config):
    """The basis ``dim-scan`` builds for ``config``."""
    if config.method.basis == "svd":
        return svd_basis(op).vectors
    if config.method.basis == "coordinate":
        return coordinate_basis(op.n, config.seed).vectors
    return pca_basis(truths.T, min(truths.shape)).vectors


def reference_scan(config):
    """Mean errors of ``dim-scan`` on the first sample: every (level,
    realization) reconstructed in pixel space on its own through the
    restricted normal equations of the configured basis."""
    op = build_operator(config.operator)
    truths = build_dataset(op, config.data, config.seed)[0]
    x = truths[:, 0]
    basis = scan_basis(op, truths, config)
    reps = config.grid.realizations
    block = rng_for(config.seed, NOISE_TAG, 0).standard_normal((reps + 1, op.m))
    y = op.entries @ x
    if config.method.exact_truth:
        truth = x
    else:
        truth = reconstruct(op, y + config.method.delta_ref * block[0], config.method.alpha_ref)
    m_grid, deltas = config.method.m_grid, config.grid.delta
    errors = np.zeros((len(m_grid), len(deltas), reps))
    for mi, m in enumerate(m_grid):
        for di, delta in enumerate(deltas):
            for r in range(reps):
                x_hat = restricted_normal_solve(op, basis[:, :m], config.method.alpha,
                                                y + delta * block[r + 1])
                errors[mi, di, r] = weighted_norm(x_hat - truth)
    return errors.mean(axis=2)


SCAN_RADON = ExperimentConfig(
    operator=OperatorSpec(kind="radon", side=8, angles=10, offsets=13),
    data=DataSpec(kind="phantom", count=2),
    grid=GridSpec(delta=(0.01, 0.1, 0.5), realizations=8),
    method=MethodSpec(kind="truncated", basis="svd", alpha=0.01, m_grid=(2, 4, 8, 16, 32)),
    seed=0)

SCAN_INTEGRATION = ExperimentConfig(
    operator=OperatorSpec(kind="integration", n=30),
    data=DataSpec(kind="subspace", count=3, n_dim=6),
    grid=GridSpec(delta=(0.0, 0.05, 0.3), realizations=7),
    method=MethodSpec(kind="truncated", basis="svd", alpha=0.01, m_grid=(2, 4, 6, 8, 12),
                      exact_truth=True),
    seed=4)


@pytest.mark.parametrize("config", [SCAN_RADON, SCAN_INTEGRATION], ids=["radon", "integration"])
def test_scan_matches_data_space_reference(config):
    result = run_dim_experiment(config, build_operator(config.operator))
    np.testing.assert_allclose(result.mean_errors, reference_scan(config),
                               rtol=REL_TOL, atol=0.0)


# subspace data of dimension 5 under 12 samples; level 0 reconstructs zero.
# The pca basis stops at the rank 5 of the centred samples, so its scan
# stops there too
SCAN_BASES = ExperimentConfig(
    operator=OperatorSpec(kind="integration", n=30),
    data=DataSpec(kind="subspace", count=12, n_dim=5),
    grid=GridSpec(delta=(0.0, 0.01, 0.2), realizations=6),
    method=MethodSpec(kind="truncated", alpha=0.02, m_grid=(0, 2, 5, 8, 12)),
    seed=1)


@pytest.mark.parametrize("exact_truth", [True, False], ids=["exact", "reference"])
@pytest.mark.parametrize("basis", ["svd", "pca", "coordinate"])
def test_scan_matches_pixel_space_reference_on_every_basis(basis, exact_truth):
    m_grid = (0, 2, 4, 5) if basis == "pca" else SCAN_BASES.method.m_grid
    config = replace(SCAN_BASES, method=replace(SCAN_BASES.method, basis=basis, m_grid=m_grid,
                                                exact_truth=exact_truth))
    result = run_dim_experiment(config, build_operator(config.operator))
    np.testing.assert_allclose(result.mean_errors, reference_scan(config),
                               rtol=REL_TOL, atol=0.0)


def test_pca_levels_past_the_centred_rank_are_rejected():
    config = replace(SCAN_BASES, method=replace(SCAN_BASES.method, basis="pca"))
    with pytest.raises(ConfigError, match="m_grid level 12 exceeds the basis size 5, "
                                          "the numerical rank of the centred samples"):
        run_dim_experiment(config, build_operator(config.operator))


@pytest.mark.parametrize("exact_truth", [True, False])
def test_scan_draws_one_noise_block(op50, monkeypatch, exact_truth):
    paths = []
    real = datagen.rng_for

    def recording(seed, *path):
        paths.append((int(seed),) + tuple(int(p) for p in path))
        return real(seed, *path)

    monkeypatch.setattr(datagen, "rng_for", recording)
    config = ExperimentConfig(
        method=MethodSpec(kind="truncated", m_grid=(2, 4, 8), alpha=0.05, exact_truth=exact_truth),
        grid=GridSpec(delta=(0.01, 0.1, 0.5), realizations=5),
        seed=6)
    scan(op50, svd_basis(op50), np.linspace(0.0, 1.0, 50), config)
    assert paths == [(6, NOISE_TAG, 0)]


def test_scan_realization_r_is_row_r_plus_one(op50, monkeypatch):
    # each truncation level makes one kernel call holding every noise level,
    # so all levels share its noise coefficients, whose column r is row
    # r + 1 of the block in the level's left singular vectors
    calls = []
    real = dimscan.filtered_errors

    def recording(filt, data_coeff, noise_coeff, deltas, ref_coeff, outside, n):
        calls.append((data_coeff, noise_coeff, tuple(deltas)))
        return real(filt, data_coeff, noise_coeff, deltas, ref_coeff, outside, n)

    monkeypatch.setattr(dimscan, "filtered_errors", recording)
    x = np.linspace(0.0, 1.0, 50)
    config = ExperimentConfig(
        method=MethodSpec(kind="truncated", m_grid=(2, 4), alpha=0.05),
        grid=GridSpec(delta=(0.0, 0.1, 0.5), realizations=4),
        seed=8)
    scan(op50, svd_basis(op50), x, config)
    block = noise_block(8, 0, 5, op50.m)
    y = op50.entries @ x
    assert len(calls) == 2
    for (data_coeff, noise_coeff, deltas), m in zip(calls, config.method.m_grid):
        u = compute_svd(op50).left_vectors[:, :m]
        assert deltas == config.grid.delta
        assert np.array_equal(data_coeff, u.T @ y)
        assert noise_coeff.shape == (m, 4)
        assert np.array_equal(noise_coeff, u.T @ block[1:].T)
        for r in range(4):
            np.testing.assert_allclose(noise_coeff[:, r], u.T @ block[r + 1], rtol=0.0, atol=1e-14)


LASSO_CFG = """
[operator]
kind = integration
n = 12

[data]
kind = source
count = 3

[grid]
delta_bar = 0.01 0.1
delta = 0.01 0.1
realizations = 2

[method]
kind = tikhonov
rho = per-sample
alpha = 0.05
transform = identity
m_grid = 2 4 8
basis = svd
"""


@pytest.mark.parametrize("command, kind, args", [
    ("mismatch-grid", "tikhonov", []),
    ("dim-scan", "truncated", []),
    ("lasso-solve", "lasso", ["--sample", "1"]),
    ("alpha-tune", "lasso", []),
])
def test_no_random_stream_is_used_twice(tmp_path, monkeypatch, command, kind, args):
    paths = []
    real = datagen.rng_for

    def recording(seed, *path):
        paths.append((int(seed),) + tuple(int(p) for p in path))
        return real(seed, *path)

    monkeypatch.setattr(datagen, "rng_for", recording)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG.replace("kind = tikhonov", f"kind = {kind}"))
    assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "0"] + args) == 0
    assert paths
    assert len(set(paths)) == len(paths), sorted(p for p in paths if paths.count(p) > 1)
