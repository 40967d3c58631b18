"""Common-random-number noise and the coefficient-space Tikhonov grid.

The reference below reconstructs every cell in data space with the filter
kernel, on noise drawn exactly as the harness documents it: sample s owns
the block ``rng_for(seed, NOISE_TAG, s).standard_normal((R, m))`` and
realization r at level delta is ``y_s + delta * block[r]``.
"""

import numpy as np
import pytest

from regbench import datagen, lasso
from regbench.datagen import NOISE_TAG, noise_block, rng_for
from regbench.harness import (
    DataSpec,
    ExperimentConfig,
    GridSpec,
    MethodSpec,
    OperatorSpec,
    build_dataset,
    build_operator,
    cli_main,
    run_mismatch_grid,
)
from regbench.linop import compute_svd, filtered_solve, weighted_norm
from regbench.tikhonov import ZERO_RECONSTRUCTION, optimal_alpha, wc_bound

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


def reference_grid(config, draw=None):
    """Mean errors, mean realized noise levels and bound margins; ``draw``
    realizations are drawn per sample and the first ``R`` used."""
    op = build_operator(config.operator)
    svd = compute_svd(op)
    samples = build_dataset(op, config.data, config.seed)
    have_z = hasattr(samples[0], "z")
    if config.method.rho == "per-sample":
        rhos = [s.rho for s in samples]
    else:
        rhos = [datagen.estimate_source_constant(op, samples).mean] * len(samples)
    bars, deltas, reps = config.grid.delta_bar, config.grid.delta, config.grid.realizations
    errors = np.zeros((len(bars), len(deltas), len(samples), reps))
    realized = np.zeros_like(errors)
    margins = []
    s = svd.sigma
    for si, sample in enumerate(samples):
        x = np.asarray(getattr(sample, "x_true", sample), dtype=float)
        y = op.entries @ x
        block = rng_for(config.seed, NOISE_TAG, si).standard_normal((draw or reps, op.m))[:reps]
        for bi, delta_bar in enumerate(bars):
            alpha = optimal_alpha(delta_bar, rhos[si])
            for di, delta in enumerate(deltas):
                noisy = y[:, None] + delta * block.T
                realized[bi, di, si] = np.linalg.norm(noisy - y[:, None], axis=0) / np.sqrt(op.m)
                if alpha is ZERO_RECONSTRUCTION:
                    errors[bi, di, si] = weighted_norm(x)
                    bounds = np.full(reps, rhos[si])
                else:
                    rec = filtered_solve(svd, s / (s * s + alpha), noisy)
                    errors[bi, di, si] = np.linalg.norm(rec - x[:, None], axis=0) / np.sqrt(op.n)
                    bounds = wc_bound(alpha, realized[bi, di, si], rhos[si])
                if have_z:
                    margins.append(bounds - errors[bi, di, si])
    margins = np.concatenate(margins) if margins else np.zeros(0)
    return errors.mean(axis=(2, 3)), realized.mean(axis=(2, 3)), margins


@pytest.mark.parametrize("config", [INTEGRATION, WIDE_RADON], ids=["integration", "wide-radon"])
def test_grid_matches_data_space_reference(config):
    grid = run_mismatch_grid(config)
    mean_errors, realized, margins = reference_grid(config)
    np.testing.assert_allclose(grid.mean_errors, mean_errors, rtol=REL_TOL, atol=0.0)
    np.testing.assert_allclose(grid.mean_realized_delta, realized, rtol=REL_TOL, atol=0.0)
    assert grid.checked == margins.size
    assert grid.violations == int((margins < -1e-9).sum()) == 0
    if margins.size:
        assert abs(grid.min_margin - margins.min()) <= 1e-12


def test_integration_case_has_sentinels_and_wide_case_leaves_the_row_space():
    grid = run_mismatch_grid(INTEGRATION)
    assert 0.0 < grid.sentinel_fraction[2, 0] < 1.0
    assert grid.checked == 5 * 6 * 9
    op = build_operator(WIDE_RADON.operator)
    assert op.m < op.n
    v = compute_svd(op).right_vectors
    x = build_dataset(op, WIDE_RADON.data, WIDE_RADON.seed)[0]
    assert np.linalg.norm(x - v @ (v.T @ x)) > 0.1 * np.linalg.norm(x)


def test_every_cell_sees_the_same_noise():
    grid = run_mismatch_grid(WIDE_RADON)
    ratios = grid.mean_realized_delta / np.asarray(grid.delta)
    np.testing.assert_allclose(ratios, ratios[0, 0], rtol=1e-14, atol=0.0)


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
    mean_errors, _, _ = reference_grid(one, draw=INTEGRATION.grid.realizations)
    np.testing.assert_allclose(run_mismatch_grid(one).mean_errors, mean_errors,
                               rtol=REL_TOL, atol=0.0)


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
])
def test_no_random_stream_is_used_twice(tmp_path, monkeypatch, command, kind, args):
    paths = []
    real = datagen.rng_for

    def recording(seed, *path):
        paths.append((int(seed),) + tuple(int(p) for p in path))
        return real(seed, *path)

    monkeypatch.setattr(datagen, "rng_for", recording)
    monkeypatch.setattr(lasso, "rng_for", recording)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(LASSO_CFG.replace("kind = tikhonov", f"kind = {kind}"))
    assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--seed", "0"] + args) == 0
    assert paths
    assert len(set(paths)) == len(paths), sorted(p for p in paths if paths.count(p) > 1)
