import hashlib
import json
import os
import platform
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import fields, is_dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from regbench import harness, lasso, linop
from regbench.datagen import phantom_images, sample_source_data
from regbench.harness import (
    ConfigError,
    DataSpec,
    ErrorGrid,
    ExperimentConfig,
    GridSpec,
    MethodSpec,
    OperatorSpec,
    build_dataset,
    build_operator,
    cli_main,
    config_hash,
    emit_mismatch_csv,
    load_config,
    make_manifest,
    run_dim_experiment,
    run_mismatch_grid,
)
from regbench.tikhonov import wc_bound

SMALL_CONFIG = """
[operator]
kind = integration
n = 25

[data]
kind = source
count = 6

[grid]
delta_bar = 0.01, 0.1, 0.5
delta = 0.01, 0.1, 0.5
realizations = 10

[method]
kind = tikhonov
rho = estimate
"""


# one valid non-default value per key, as written in a file and as loaded
NON_DEFAULT = {
    ("operator", "kind"): ("radon", "radon"),
    ("operator", "n"): ("12", 12),
    ("operator", "side"): ("9", 9),
    ("operator", "angles"): ("4", 4),
    ("operator", "offsets"): ("5", 5),
    ("operator", "path"): ("op.rgb", "op.rgb"),
    ("data", "kind"): ("subspace", "subspace"),
    ("data", "count"): ("3", 3),
    ("data", "n_dim"): ("2", 2),
    ("data", "indices"): ("3, 1 2", (3, 1, 2)),
    ("data", "path"): ("images.idx", "images.idx"),
    ("grid", "delta_bar"): ("0.1, 0.2", (0.1, 0.2)),
    ("grid", "delta"): ("0 0.3", (0.0, 0.3)),
    ("grid", "realizations"): ("7", 7),
    ("method", "kind"): ("lasso", "lasso"),
    ("method", "rho"): ("per-sample", "per-sample"),
    ("method", "alpha"): ("0.25", 0.25),
    ("method", "m_grid"): ("0, 3 5", (0, 3, 5)),
    ("method", "basis"): ("pca", "pca"),
    ("method", "exact_truth"): ("Yes", True),
    ("method", "alpha_ref"): ("0.5", 0.5),
    ("method", "delta_ref"): ("0", 0.0),
    ("method", "transform"): ("diff1d", "diff1d"),
    ("method", "alpha_rule"): ("rule.csv", "rule.csv"),
}

SPEC_KEYS = [(section.name, key.name) for section in fields(ExperimentConfig)
             if is_dataclass(section.default) for key in fields(section.default)]


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(SMALL_CONFIG)
    return load_config(path, seed=7)


class TestConfig:
    def test_reads_sections(self, small_config):
        assert small_config.operator.kind == "integration"
        assert small_config.operator.n == 25
        assert small_config.grid.delta_bar == (0.01, 0.1, 0.5)
        assert small_config.grid.realizations == 10
        assert small_config.method.rho == "estimate"
        assert small_config.seed == 7

    def test_defaults_mirror_reference_levels(self, tmp_path):
        path = tmp_path / "defaults.cfg"
        path.write_text("[operator]\nkind = integration\nn = 10\n")
        config = load_config(path)
        assert config.grid.delta_bar == harness.DEFAULT_LEVELS
        assert config.grid.delta == harness.DEFAULT_LEVELS
        assert config.grid.realizations == 100
        assert config.data.count == 50

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[wormhole]\nx = 1\n")
        with pytest.raises(ConfigError, match="unknown sections"):
            load_config(path)

    def test_bad_values_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[operator]\nkind = integration\nn = soon\n")
        with pytest.raises(ConfigError):
            load_config(path)
        path.write_text("[method]\nrho = maybe\n")
        with pytest.raises(ConfigError, match="rho"):
            load_config(path)
        path.write_text("[operator]\nkind = fft\n")
        with pytest.raises(ConfigError, match="operator kind"):
            load_config(path)

    def test_numeric_rho(self, tmp_path):
        path = tmp_path / "r.cfg"
        path.write_text("[method]\nrho = 0.75\n")
        assert load_config(path).method.rho == 0.75

    def test_hash_stability(self, small_config):
        assert config_hash(small_config) == config_hash(small_config)
        bumped = ExperimentConfig(operator=small_config.operator,
                                  data=small_config.data,
                                  grid=small_config.grid,
                                  method=small_config.method,
                                  seed=small_config.seed + 1)
        assert config_hash(bumped) != config_hash(small_config)

    def test_hash_is_pinned(self, small_config):
        # manifests of an unchanged config keep their hash across releases
        assert config_hash(small_config) == \
            "f632c8ca701d82fc5d136c4323321732eb662cf7bae6d58ea830a3404ce1b14d"

    @pytest.mark.parametrize("key, value", [
        ("delta_bar", "-0.1 0.1"), ("delta", "0.1 -0.1"), ("delta", "0.1 nan"),
        ("delta_bar", "inf"),
    ])
    def test_bad_noise_levels_rejected(self, tmp_path, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[grid]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match="noise levels"):
            load_config(path)

    def test_negative_truncation_level_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[method]\nm_grid = -3 4 8\n")
        with pytest.raises(ConfigError, match="m_grid"):
            load_config(path)

    @pytest.mark.parametrize("section, key", SPEC_KEYS, ids=[f"{s}.{k}" for s, k in SPEC_KEYS])
    def test_every_key_round_trips(self, tmp_path, section, key):
        # a field added without a parser, or without a row here, fails
        text, expected = NON_DEFAULT[section, key]
        spec = getattr(ExperimentConfig(), section)
        assert expected != getattr(spec, key)
        path = tmp_path / "one.cfg"
        path.write_text(f"[{section}]\n{key} = {text}\n")
        value = getattr(getattr(load_config(path), section), key)
        assert value == expected and type(value) is type(expected)
        path.write_text(f"[{section}]\n{key} =\n")
        assert getattr(load_config(path), section) == spec

    @pytest.mark.parametrize("text, words", [
        ("[method]\nalpha = small\n", ["[method] alpha"]),
        ("[data]\nindices = 1 two\n", ["[data] indices"]),
        ("[DEFAULT]\nkind = radon\n", ["unknown sections ['DEFAULT']"]),
    ], ids=["bad-float", "bad-int-list", "default-section"])
    def test_unparsable_value_or_default_section_rejected(self, tmp_path, text, words):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert all(word in str(info.value) for word in words)

    @pytest.mark.parametrize("section, key, value, message", [
        ("operator", "kind", "file", "needs a path"),
        ("operator", "n", "0", "operator sizes"),
        ("operator", "side", "1", "operator sizes"),
        ("data", "kind", "mnist", "data kind"),
        ("data", "count", "0", "at least one sample"),
        ("grid", "realizations", "0", "at least one realization"),
        ("grid", "delta", ",", "nonempty"),
        ("method", "kind", "ridge", "method kind"),
        ("method", "kind", "subspace", "unknown method kind 'subspace'"),
        ("method", "basis", "fourier", "basis kind"),
        ("method", "transform", "tv", "transform kind"),
        ("method", "rho", "-1", "rho"),
        ("method", "rho", "nan", "rho"),
        ("method", "m_grid", "8 4", "m_grid must be nonempty and strictly increasing"),
        ("method", "m_grid", "3 3", "m_grid must be nonempty and strictly increasing"),
        ("method", "m_grid", ",", "m_grid must be nonempty and strictly increasing"),
        ("method", "alpha", "0", "alpha must be positive"),
        ("method", "alpha", "-0.5", "alpha must be positive"),
        ("method", "alpha_ref", "0", "alpha_ref must be positive"),
        ("method", "delta_ref", "-0.01", "delta_ref must be finite and nonnegative"),
        ("method", "delta_ref", "inf", "delta_ref must be finite and nonnegative"),
    ])
    def test_spec_checks_reject(self, tmp_path, section, key, value, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=message):
            load_config(path)


class TestDatasets:
    def test_source_and_subspace(self, small_config):
        op = build_operator(small_config.operator)
        truths, rho = build_dataset(op, small_config.data, seed=0)
        expected = sample_source_data(op, 6, seed=0)
        assert np.array_equal(truths, expected[0]) and np.array_equal(rho, expected[1])
        truths, rho = build_dataset(op, DataSpec(kind="subspace", count=2, n_dim=3), seed=0)
        expected = sample_source_data(op, 2, seed=0, indices=(0, 1, 2))
        assert np.array_equal(truths, expected[0]) and np.array_equal(rho, expected[1])

    @pytest.mark.parametrize("kind", ["source", "subspace", "idx", "phantom"])
    def test_build_dataset_contract(self, tmp_path, kind):
        # every protocol gives its truths as the columns of a C-contiguous
        # float (n, count) matrix; only generated data has source constants
        op = build_operator(OperatorSpec(kind="integration", n=16))
        path = tmp_path / "imgs.idx3"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 4, 4, 4) + bytes(range(64)))
        truths, rho = build_dataset(op, DataSpec(kind=kind, count=3, n_dim=2, path=str(path)), seed=5)
        assert truths.shape == (16, 3) and truths.dtype == np.float64
        assert truths.flags.c_contiguous
        if kind in ("source", "subspace"):
            assert rho.shape == (3,) and rho.dtype == np.float64
        else:
            assert rho is None
        # image i is column i
        if kind == "idx":
            assert np.array_equal(truths, np.arange(48).reshape(3, 16).T / 255.0)
        if kind == "phantom":
            assert np.array_equal(truths, phantom_images(4, 3, seed=5).T)

    def test_missing_idx_is_config_error(self, tmp_path):
        # IDX data never turns into phantoms: a path naming no file and a
        # missing path are both refused; kind = phantom is the offline choice
        op = build_operator(OperatorSpec(kind="integration", n=16))
        with pytest.raises(ConfigError, match="no such IDX file"):
            build_dataset(op, DataSpec(kind="idx", count=3, path="/no/such/file.idx3"), seed=1)
        with pytest.raises(ConfigError, match="'idx' needs a path"):
            DataSpec(kind="idx", count=3)
        cfg = tmp_path / "idx.cfg"
        cfg.write_text("[operator]\nn = 16\n\n[data]\nkind = idx\ncount = 3\npath = missing.idx3\n")
        assert cli_main(["mismatch-grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert not (tmp_path / "out").exists()

    def test_phantom_requires_square(self):
        op = build_operator(OperatorSpec(kind="integration", n=10))
        with pytest.raises(ConfigError, match="square"):
            build_dataset(op, DataSpec(kind="phantom", count=1), seed=0)

    def test_operator_file_roundtrip(self, tmp_path):
        linop.save_matrix(tmp_path / "op.rgb", linop.integration_matrix(8))
        op = build_operator(OperatorSpec(kind="integration", n=8))
        loaded = build_operator(OperatorSpec(kind="file", path=str(tmp_path / "op.rgb")))
        assert loaded.entries.tobytes() == op.entries.tobytes()


class TestMismatchGrid:
    @pytest.fixture(scope="class")
    def grid(self):
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=25),
            data=DataSpec(kind="source", count=6),
            grid=GridSpec(delta_bar=(0.01, 0.1, 0.5), delta=(0.01, 0.1, 0.5),
                          realizations=10),
            method=MethodSpec(kind="tikhonov", rho="estimate"),
            seed=7)
        return run_mismatch_grid(config, build_operator(config.operator))

    def test_relative_diagonal_is_one(self, grid):
        assert np.abs(np.diag(grid.relative_errors) - 1.0).max() <= 1e-12

    def test_grid_shapes(self, grid):
        assert grid.mean_errors.shape == (3, 3)
        assert grid.checked == 6 * 10 * 9
        assert grid.violations == 0

    def test_overlay_matches_closed_form(self, grid):
        for bi, delta_bar in enumerate(grid.delta_bar):
            for di, delta in enumerate(grid.delta):
                alpha = grid.alphas[bi, di]
                if np.isinf(alpha):
                    expected = grid.rho_overlay
                else:
                    expected = wc_bound(alpha, delta, grid.rho_overlay)
                assert abs(grid.wc_overlay[bi, di] - expected) <= 1e-15

    def test_rerun_is_identical(self, grid):
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=25),
            data=DataSpec(kind="source", count=6),
            grid=GridSpec(delta_bar=(0.01, 0.1, 0.5), delta=(0.01, 0.1, 0.5),
                          realizations=10),
            method=MethodSpec(kind="tikhonov", rho="estimate"),
            seed=7)
        again = run_mismatch_grid(config, build_operator(config.operator))
        assert np.array_equal(again.mean_errors, grid.mean_errors)

    def test_sentinel_flagged_for_large_delta_bar(self):
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=20),
            data=DataSpec(kind="source", count=4),
            grid=GridSpec(delta_bar=(0.01, 2.0), delta=(0.01,), realizations=3),
            method=MethodSpec(kind="tikhonov", rho="per-sample"),
            seed=1)
        op = build_operator(config.operator)
        truths, sample_rho = build_dataset(op, config.data, config.seed)
        assert sample_rho.max() < 2.0
        grid = run_mismatch_grid(config, op)
        # every sample takes the zero reconstruction at delta_bar 2, none at 0.01
        assert np.isinf(grid.alphas[1, 0])
        assert np.isfinite(grid.alphas[0, 0])
        assert grid.mean_errors[1, 0] == pytest.approx(
            np.mean(np.linalg.norm(truths, axis=0)) / np.sqrt(op.n), rel=1e-12)
        assert grid.mean_errors[0, 0] < grid.mean_errors[1, 0]
        assert grid.violations == 0

    def test_per_sample_requires_source_elements(self):
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=16),
            data=DataSpec(kind="phantom", count=2),
            grid=GridSpec(delta_bar=(0.1,), delta=(0.1,), realizations=2),
            method=MethodSpec(kind="tikhonov", rho="per-sample"),
            seed=1)
        with pytest.raises(ConfigError, match="per-sample"):
            run_mismatch_grid(config, build_operator(config.operator))

    def test_lasso_grid_runs(self):
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=12),
            data=DataSpec(kind="source", count=2),
            grid=GridSpec(delta_bar=(0.01, 0.1), delta=(0.01, 0.1), realizations=2),
            method=MethodSpec(kind="lasso", transform="identity", alpha=0.05),
            seed=3)
        grid = run_mismatch_grid(config, build_operator(config.operator))
        assert grid.mean_errors.shape == (2, 2)
        assert np.abs(np.diag(grid.relative_errors) - 1.0).max() <= 1e-12

    def test_lasso_grid_has_no_worst_case_overlay(self):
        # the Tikhonov worst-case bound says nothing about the sparse method
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=12),
            data=DataSpec(kind="source", count=1),
            grid=GridSpec(delta_bar=(0.01, 0.1), delta=(0.1,), realizations=1),
            method=MethodSpec(kind="lasso", transform="identity", alpha=0.05),
            seed=3)
        grid = run_mismatch_grid(config, build_operator(config.operator))
        assert np.isnan(grid.wc_overlay).all()
        assert (grid.alphas == 0.05).all()

    def test_diagonal_found_despite_float_rounding(self):
        # 0.1 + 0.2 != 0.3 in binary floating point
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=12),
            data=DataSpec(kind="source", count=2),
            grid=GridSpec(delta_bar=(0.1, 0.1 + 0.2), delta=(0.3, 0.1), realizations=2),
            method=MethodSpec(kind="tikhonov", rho=2.0),
            seed=3)
        grid = run_mismatch_grid(config, build_operator(config.operator))
        assert grid.relative_errors[1, 0] == 1.0
        assert grid.relative_errors[0, 1] == 1.0
        assert grid.relative_errors[0, 0] == grid.mean_errors[0, 0] / grid.mean_errors[1, 0]


class TestCsvEmission:
    def test_schema_and_row_count(self, tmp_path):
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=16),
            data=DataSpec(kind="source", count=2),
            grid=GridSpec(delta_bar=(0.01, 0.1), delta=(0.01, 0.1, 0.2), realizations=2),
            seed=2)
        grid = run_mismatch_grid(config, build_operator(config.operator))
        emit_mismatch_csv(grid, tmp_path / "grid.csv")
        lines = (tmp_path / "grid.csv").read_text().splitlines()
        assert lines[0] == "delta_bar,delta,mean_error,relative_error,wc_bound,alpha"
        assert len(lines) == 1 + 2 * 3
        # shortest round-trip decimals parse back exactly
        for line in lines[1:]:
            cells = line.split(",")
            assert float(cells[2]) == grid.mean_errors[
                list(grid.delta_bar).index(float(cells[0])),
                list(grid.delta).index(float(cells[1]))]

    def test_empty_grid_header_only(self, tmp_path):
        empty = ErrorGrid(delta_bar=(), delta=(), mean_errors=np.zeros((0, 0)),
                          relative_errors=np.zeros((0, 0)), wc_overlay=np.zeros((0, 0)),
                          alphas=np.zeros((0, 0)), rho_overlay=1.0,
                          violations=0, checked=0, min_margin=np.inf)
        emit_mismatch_csv(empty, tmp_path / "empty.csv")
        assert (tmp_path / "empty.csv").read_text() == (
            "delta_bar,delta,mean_error,relative_error,wc_bound,alpha\n")

    def test_reemission_identical(self, tmp_path):
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=12),
            data=DataSpec(kind="source", count=2),
            grid=GridSpec(delta_bar=(0.1,), delta=(0.1,), realizations=2),
            seed=4)
        grid = run_mismatch_grid(config, build_operator(config.operator))
        emit_mismatch_csv(grid, tmp_path / "a.csv")
        emit_mismatch_csv(grid, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


class TestDimExperiment:
    def test_subspace_scan_runs(self):
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=30),
            data=DataSpec(kind="subspace", count=1, n_dim=4),
            grid=GridSpec(delta_bar=(0.01,), delta=(0.01, 0.05), realizations=5),
            method=MethodSpec(kind="truncated", basis="svd", alpha=0.5,
                              m_grid=(2, 4, 6, 8), exact_truth=True),
            seed=6)
        result = run_dim_experiment(config, build_operator(config.operator))
        assert result.mean_errors.shape == (4, 2)
        assert result.estimated_n in (2, 4, 6, 8)

    def test_requires_alpha(self):
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=10),
            data=DataSpec(kind="subspace", count=1, n_dim=2),
            method=MethodSpec(kind="truncated", alpha=None))
        with pytest.raises(ConfigError, match="alpha"):
            run_dim_experiment(config, build_operator(config.operator))

    def test_mismatch_method_rejected(self):
        config = ExperimentConfig(method=MethodSpec(kind="tikhonov"))
        with pytest.raises(ConfigError):
            run_dim_experiment(config, build_operator(config.operator))


class TestManifest:
    def test_fields_and_write(self, tmp_path, small_config):
        op = build_operator(small_config.operator)
        manifest = make_manifest(small_config, op, wall_time_s=1.5, operator_s=0.25)
        manifest.write(tmp_path / "manifest.json")
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["master_seed"] == 7
        assert payload["wall_time_s"] == 1.5 and payload["operator_s"] == 0.25
        assert payload["tool_version"] == harness.__version__
        assert payload["numpy_version"] == np.__version__
        assert len(payload["operator_checksum"]) == 64
        assert payload["config_hash"] == config_hash(small_config)
        assert payload["peak_rss_mb"] > 0

    def test_checksum_hashes_the_entries_in_place(self):
        op = linop.DenseOperator(np.random.default_rng(3).standard_normal((1000, 1000)))
        tracemalloc.start()
        try:
            digest = harness.operator_checksum(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert digest == hashlib.sha256(op.entries.tobytes()).hexdigest()

    def test_noise_scheme_without_grid(self, tmp_path, small_config):
        op = build_operator(small_config.operator)
        make_manifest(small_config, op, wall_time_s=1.5, operator_s=0.25).write(
            tmp_path / "manifest.json")
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["noise_scheme"] == "crn-v2"
        assert payload["checked"] is None and payload["min_margin"] is None

    def test_mismatch_grid_records_bound_checks(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "run"
        assert cli_main(["--seed", "7", "--config", str(cfg), "--out", str(out),
                         "mismatch-grid"]) == 0
        payload = json.loads((out / "manifest.json").read_text())
        assert payload["noise_scheme"] == "crn-v2"
        assert payload["checked"] == 6 * 10 * 9
        assert payload["violations"] == 0
        assert 0.0 < payload["min_margin"] < 1.0
        printed = capsys.readouterr().out
        assert (f"bound checks: {payload['checked']}/{payload['checked']} within bound, "
                f"min margin {payload['min_margin']:.3e}") in printed

    def test_tikhonov_grid_has_no_solver_totals(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        assert cli_main(["--seed", "7", "--config", str(cfg), "--out", str(tmp_path),
                         "mismatch-grid"]) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["solver"] is None

    def test_unchecked_grid_writes_no_margin(self, tmp_path):
        cfg = tmp_path / "radon.cfg"
        cfg.write_text(RADON_SMALL + RADON_GRID_TAIL)
        out = tmp_path / "run"
        assert cli_main(["--config", str(cfg), "--out", str(out), "mismatch-grid"]) == 0
        payload = json.loads((out / "manifest.json").read_text())
        assert (payload["checked"], payload["violations"], payload["min_margin"]) == (0, 0, None)


SCIPY_FREE_CONFIG = """
[operator]
kind = integration
n = 16

[data]
kind = subspace
count = 10
n_dim = 4

[grid]
delta_bar = 0.01 0.1
delta = 0.01 0.1
realizations = 3

[method]
kind = {kind}
basis = {basis}
alpha = 0.05
m_grid = 2 3 4
"""


def test_harness_import_leaves_scipy_unloaded(tmp_path):
    # the package runs on numpy alone: importing it loads no scipy, and
    # every command runs with scipy made unimportable
    src = Path(harness.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, regbench.harness; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "False"
    blocked = ("import sys; sys.modules['scipy'] = None; "
               "from regbench.harness import cli_main; sys.exit(cli_main(sys.argv[1:]))")
    runs = [("dim-scan", "truncated", basis) for basis in ("svd", "pca", "coordinate")]
    for command, kind, basis in runs + [("mismatch-grid", "tikhonov", "svd")]:
        cfg = tmp_path / f"{command}-{basis}.cfg"
        cfg.write_text(SCIPY_FREE_CONFIG.format(kind=kind, basis=basis))
        proc = subprocess.run([sys.executable, "-c", blocked, command, "--config", str(cfg),
                               "--out", str(tmp_path / cfg.stem)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, (command, basis, proc.stderr)


def test_module_entry_point_runs_without_warnings(tmp_path):
    # python -m regbench.harness runs the CLI with nothing on stderr
    src = Path(harness.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-m", "regbench.harness", "wc-curve", "--rho", "1",
                           "--delta", "0.1", "--points", "3"],
                          capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.splitlines()[-1] == "min_alpha=0.1"


RADON_SMALL = """
[operator]
kind = radon
side = 8
angles = 6
offsets = 9

[data]
kind = phantom
count = 3
"""

RADON_GRID_TAIL = """
[grid]
delta_bar = 0.01 0.1
delta = 0.01 0.1
realizations = 4

[method]
kind = tikhonov
rho = estimate
"""

RADON_DIM_TAIL = """
[grid]
delta = 0.01 0.1
realizations = 4

[method]
kind = truncated
basis = svd
alpha = 0.01
m_grid = 2 4 8
"""


class TestBuildOnce:
    """A command builds its operator once, factorizes it at most once (not
    at all when the SVD cache holds it), and checksums that same operator
    for the manifest."""

    @pytest.fixture()
    def counts(self, monkeypatch):
        counts = {"build_operator": 0, "svd": 0}
        real_build, real_svd = harness.build_operator, np.linalg.svd

        def build(spec):
            counts["build_operator"] += 1
            return real_build(spec)

        def svd(*args, **kwargs):
            counts["svd"] += 1
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(harness, "build_operator", build)
        monkeypatch.setattr(np.linalg, "svd", svd)
        return counts

    @pytest.mark.parametrize("command, tail", [("mismatch-grid", RADON_GRID_TAIL),
                                               ("dim-scan", RADON_DIM_TAIL)],
                             ids=["mismatch-grid", "dim-scan"])
    def test_one_build_one_svd(self, tmp_path, counts, command, tail):
        cfg = tmp_path / "radon.cfg"
        cfg.write_text(RADON_SMALL + tail)
        out = tmp_path / "run"
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
        assert counts == {"build_operator": 1, "svd": 1}
        manifest = json.loads((out / "manifest.json").read_text())
        op = build_operator(OperatorSpec(kind="radon", side=8, angles=6, offsets=9))
        assert manifest["operator_checksum"] == harness.operator_checksum(op)

    @pytest.mark.parametrize("command, tail", [("mismatch-grid", RADON_GRID_TAIL),
                                               ("dim-scan", RADON_DIM_TAIL)],
                             ids=["mismatch-grid", "dim-scan"])
    def test_operator_time_is_part_of_the_wall_time(self, tmp_path, command, tail):
        cfg = tmp_path / "radon.cfg"
        cfg.write_text(RADON_SMALL + tail)
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert 0.0 < payload["operator_s"] <= payload["wall_time_s"]

    # the SVD cache: a command factors its operator only when the cache has
    # no valid entry for it, and writes the same bytes either way

    @pytest.fixture()
    def factorizations(self, monkeypatch):
        shapes = []
        real = linop._thin_svd

        def counted(a):
            shapes.append(a.shape)
            return real(a)

        monkeypatch.setattr(linop, "_thin_svd", counted)
        return shapes

    @staticmethod
    def run(tmp_path, name, text, command="mismatch-grid"):
        """(CSV bytes, svd_source) of one run of ``command`` on ``text``."""
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        assert cli_main([command, "--config", str(cfg), "--out", str(out)]) == 0
        (csv,) = out.glob("*.csv")
        return csv.read_bytes(), json.loads((out / "manifest.json").read_text())["svd_source"]

    # the side-8 operator takes LAPACK's SVD, the 12-angle one the Gram route
    @pytest.mark.parametrize("command, text", [
        ("mismatch-grid", RADON_SMALL + RADON_GRID_TAIL),
        ("dim-scan", RADON_SMALL + RADON_DIM_TAIL),
        ("mismatch-grid", RADON_SMALL.replace("angles = 6", "angles = 12").replace(
            "offsets = 9", "offsets = 13") + RADON_GRID_TAIL),
    ], ids=["mismatch-grid", "dim-scan", "gram-route"])
    def test_warm_run_factors_nothing(self, tmp_path, factorizations, svd_cache, command, text):
        cold_csv, cold_source = self.run(tmp_path, "cold", text, command)
        assert len(factorizations) == 1
        warm_csv, warm_source = self.run(tmp_path, "warm", text, command)
        assert len(factorizations) == 1
        assert warm_csv == cold_csv
        assert (cold_source, warm_source) == ("computed", "cache")
        assert [p.suffix for p in svd_cache.iterdir()] == [".svd"]

    @pytest.mark.parametrize("damage", ["truncated", "bad-magic", "trailing-bytes", "perturbed-u"])
    def test_bad_entry_is_factored_again_and_overwritten(self, tmp_path, capsys, factorizations,
                                                         svd_cache, damage):
        text = RADON_SMALL + RADON_GRID_TAIL
        cold_csv, _ = self.run(tmp_path, "cold", text)
        (entry,) = svd_cache.iterdir()
        good = entry.read_bytes()
        if damage == "truncated":
            entry.write_bytes(good[:-8])
        elif damage == "bad-magic":
            entry.write_bytes(b"NOPE" + good[4:])
        elif damage == "trailing-bytes":
            entry.write_bytes(good + bytes(8))
        else:
            blob = bytearray(good)
            k = linop._SVD_HEADER.unpack_from(good, 4)[2]
            start = 4 + linop._SVD_HEADER.size + 8 * k
            first = np.frombuffer(good, dtype="<f8", count=1, offset=start)
            blob[start:start + 8] = (first + 1e-3).astype("<f8").tobytes()
            entry.write_bytes(bytes(blob))
        capsys.readouterr()
        assert self.run(tmp_path, "again", text) == (cold_csv, "computed")
        assert len(factorizations) == 2
        assert entry.read_bytes() == good
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(entry) in err

    def test_unwritable_cache_is_passed_over(self, tmp_path, capsys, monkeypatch, factorizations):
        text = RADON_SMALL + RADON_GRID_TAIL
        cached_csv, _ = self.run(tmp_path, "cached", text)
        blocker = tmp_path / "not-a-directory"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        capsys.readouterr()
        for name in ("first", "second"):
            assert self.run(tmp_path, name, text) == (cached_csv, "computed")
        assert len(factorizations) == 3
        assert capsys.readouterr().err == ""
        assert blocker.read_text() == ""

    def test_file_operator(self, tmp_path, factorizations, svd_cache):
        # a file operator is factored once and then read from the cache,
        # which the generated operator shares; a .svd file left beside it
        # by an earlier version is ignored
        raw = linop.radon_matrix(8, 6, 9)
        linop.save_matrix(tmp_path / "op.rgb", raw)
        linop.write_svd(tmp_path / "op.rgb.svd", linop.compute_svd(linop.DenseOperator(raw)))
        factorizations.clear()
        text = (RADON_SMALL.replace("kind = radon", f"kind = file\npath = {tmp_path / 'op.rgb'}")
                + RADON_GRID_TAIL)
        cold = self.run(tmp_path, "cold", text)
        assert cold[1] == "computed" and len(factorizations) == 1
        assert self.run(tmp_path, "warm", text) == (cold[0], "cache")
        assert self.run(tmp_path, "generated", RADON_SMALL + RADON_GRID_TAIL) == (cold[0], "cache")
        assert len(factorizations) == 1 and len(list(svd_cache.iterdir())) == 1

    def test_tikhonov_grid_normalizes_a_raw_file_operator(self, tmp_path, capsys):
        # a raw matrix saved by hand runs as its generated twin: the grid,
        # the bound checks and the operator checksum are the same
        linop.save_matrix(tmp_path / "raw.rgb", linop.integration_matrix(30))
        tail = "\n[data]\ncount = 3\n\n[grid]\ndelta_bar = 0.01 0.1\ndelta = 0.01 0.1\n" \
               "realizations = 4\n"
        runs = {}
        for name, operator in (("generated", "n = 30"),
                               ("raw", f"kind = file\npath = {tmp_path / 'raw.rgb'}")):
            (tmp_path / f"{name}.cfg").write_text(f"[operator]\n{operator}\n{tail}")
            capsys.readouterr()
            assert cli_main(["mismatch-grid", "--config", str(tmp_path / f"{name}.cfg"),
                             "--out", str(tmp_path / name)]) == 0
            assert "bound checks: 48/48 within bound" in capsys.readouterr().out
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            runs[name] = ((tmp_path / name / "mismatch_grid.csv").read_bytes(),
                          manifest["operator_checksum"])
        assert runs["raw"] == runs["generated"]

    def test_saved_operator_reruns_as_generated(self, tmp_path, capsys, monkeypatch):
        # the 156 x 64 Radon operator on source data: `operator` saves the
        # raw matrix alone and fills the SVD cache, and the saved file gives
        # the generated operator's bytes on that warm cache and on a cold one
        generated = """
[operator]
kind = radon
side = 8
angles = 12
offsets = 13

[data]
count = 4

[grid]
realizations = 5
"""

        def run(name, text):
            (tmp_path / f"{name}.cfg").write_text(text)
            out = tmp_path / name
            assert cli_main(["mismatch-grid", "--config", str(tmp_path / f"{name}.cfg"),
                             "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            return ((out / "mismatch_grid.csv").read_bytes(), manifest["operator_checksum"],
                    manifest["svd_source"])

        (tmp_path / "generated.cfg").write_text(generated)
        assert cli_main(["operator", "--config", str(tmp_path / "generated.cfg"),
                         "--out", str(tmp_path / "op")]) == 0
        printed = capsys.readouterr().out
        saved = tmp_path / "op" / "operator.rgb"
        assert [path.name for path in saved.parent.iterdir()] == ["operator.rgb"]
        *want, source = run("generated", generated)
        assert source == "cache" and f"checksum={want[1]}" in printed
        file_config = generated.replace("kind = radon", f"kind = file\npath = {saved}")
        assert run("warm", file_config) == (*want, "cache")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh-cache"))
        assert run("cold", file_config) == (*want, "computed")

    @pytest.mark.parametrize("kind", ["integration", "radon", "raw-file",
                                      "normalized-file-without-sidecar"])
    def test_every_operator_has_norm_exactly_one(self, tmp_path, kind):
        path = tmp_path / "op.rgb"
        if kind == "raw-file":
            linop.save_matrix(path, linop.radon_matrix(8, 6, 9))
        elif kind.startswith("normalized-file"):
            linop.save_matrix(path, build_operator(OperatorSpec(kind="integration", n=20)).entries)
        spec = (OperatorSpec(kind="file", path=str(path)) if "file" in kind
                else OperatorSpec(kind=kind, n=20, side=8, angles=6, offsets=9))
        assert linop.compute_svd(build_operator(spec)).sigma[0] == 1.0

    def test_key(self, monkeypatch, tmp_path):
        # each input changes the key; they are changed one after another
        a = np.arange(6.0).reshape(2, 3)
        for name in harness._BLAS_ENV:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        keys = [harness.svd_cache_key(a)]
        assert harness.svd_cache_key(a.copy()) == keys[0]
        for name in harness._BLAS_ENV:
            monkeypatch.setenv(name, "1")
            keys.append(harness.svd_cache_key(a))
        source = tmp_path / "linop.py"
        source.write_text("# another linop\n")
        for target, name, value in [
            (os, "sched_getaffinity", lambda pid: {0}),
            (platform, "node", lambda: "another-host"),
            (platform, "machine", lambda: "aarch64"),
            (harness, "_cpu_model", lambda: "another CPU"),
            (harness, "_blas_library", lambda: "mkl 2024.0"),
            (np, "__version__", "0.0.0"),
            (linop, "__file__", str(source)),
        ]:
            monkeypatch.setattr(target, name, value, raising=False)
            keys.append(harness.svd_cache_key(a))
        keys.append(harness.svd_cache_key(a.reshape(3, 2)))
        keys.append(harness.svd_cache_key(a + 1.0))
        assert len(set(keys)) == len(keys)

    def test_key_host_and_blas(self, monkeypatch):
        assert harness._cpu_model() and harness._blas_library()
        # numpy < 1.25 has no config dict
        monkeypatch.setattr(np, "show_config", lambda: print("config"))
        assert harness._blas_library() == ""


class TestCli:
    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0

    def test_no_command_is_usage_error(self):
        assert cli_main([]) == 1

    def test_unknown_command(self):
        assert cli_main(["frobnicate"]) == 1

    def test_missing_config(self):
        assert cli_main(["mismatch-grid", "--config", "/no/such.cfg"]) == 1

    def test_wc_curve_minimum(self, capsys, tmp_path):
        code = cli_main(["wc-curve", "--rho", "1", "--delta", "0.1",
                         "--out", str(tmp_path)])
        out = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        assert out[0] == "alpha,bound"
        assert out[-1] == "min_alpha=0.1"
        assert (tmp_path / "wc_curve.csv").exists()

    def test_wc_curve_noise_free(self, capsys, tmp_path):
        # the rule's alpha is 0 at delta 0 and stays off the curve
        code = cli_main(["wc-curve", "--rho", "2", "--delta", "0", "--points", "3",
                         "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "alpha,bound", "0.0001,0.01", "0.01,0.1", "1.0,1.0", "min_alpha=0.0001"]

    def test_mismatch_grid_end_to_end(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(SMALL_CONFIG)
        out = tmp_path / "run"
        assert cli_main(["--seed", "7", "--config", str(cfg),
                         "--out", str(out), "mismatch-grid"]) == 0
        assert (out / "mismatch_grid.csv").exists()
        assert (out / "manifest.json").exists()

    def test_dim_scan_prints_estimate(self, tmp_path, capsys):
        cfg = tmp_path / "dim.cfg"
        cfg.write_text("""
[operator]
kind = integration
n = 30

[data]
kind = subspace
count = 1
n_dim = 4

[grid]
delta = 0.01, 0.05
realizations = 5

[method]
kind = truncated
basis = svd
alpha = 0.5
m_grid = 2 4 6 8
exact_truth = true
""")
        out = tmp_path / "dim"
        assert cli_main(["--seed", "6", "--config", str(cfg),
                         "--out", str(out), "dim-scan"]) == 0
        printed = capsys.readouterr().out
        assert "estimated_N=" in printed
        lines = (out / "dim_scan.csv").read_text().splitlines()
        assert lines[0] == "basis,M,delta,mean_error"
        assert len(lines) == 1 + 4 * 2

    def test_lasso_solve_and_alpha_tune(self, tmp_path, capsys):
        cfg = tmp_path / "lasso.cfg"
        cfg.write_text("""
[operator]
kind = integration
n = 12

[data]
kind = source
count = 3

[method]
kind = lasso
transform = identity
alpha = 0.05
""")
        out = tmp_path / "lasso"
        assert cli_main(["--seed", "2", "--config", str(cfg), "--out", str(out),
                         "lasso-solve", "--delta", "0.01"]) == 0
        assert (out / "lasso_solution.csv").exists()
        assert "kkt_residual=" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 2 and manifest["checked"] is None
        assert manifest["solver"]["solves"] == manifest["solver"]["certified"] == 1
        assert manifest["solver"]["failures"] == 0
        (out / "manifest.json").unlink()
        assert cli_main(["--seed", "2", "--config", str(cfg), "--out", str(out),
                         "alpha-tune", "--delta-grid", "0.01 0.1",
                         "--alpha-grid", "0.01 0.1", "--tuples", "2"]) == 0
        rule = (out / "alpha_rule.csv").read_text().splitlines()
        assert rule[0] == "delta,alpha"
        assert len(rule) == 3
        solver = json.loads((out / "manifest.json").read_text())["solver"]
        # 2 levels x 2 alphas x 2 tuples, every one certified
        assert solver["solves"] == solver["certified"] == 8
        assert solver["failures"] == 0
        assert solver["kkt_max"] < 1e-10
        assert solver["iterations_max"] >= solver["iterations_median"] > 0

    def test_lasso_grid_solves_each_distinct_problem_once(self, tmp_path, monkeypatch):
        # the rule is constant below delta 0.1, so the first three bars share
        # one alpha: the grid solves 2 of its 4 bars' problems, and each bar's
        # row equals the row of a one-bar grid at that bar
        rule = tmp_path / "rule.csv"
        rule.write_text("delta,alpha\n0.1,0.05\n0.5,0.5\n")
        config = ExperimentConfig(
            operator=OperatorSpec(kind="integration", n=20),
            data=DataSpec(kind="source", count=3),
            grid=GridSpec(delta_bar=(0.01, 0.05, 0.1, 0.5), delta=(0.01, 0.1, 0.5),
                          realizations=2),
            method=MethodSpec(kind="lasso", transform="diff1d", alpha_rule=str(rule)),
            seed=4)
        calls, solve_batch = [], harness.solve_batch

        def counting(*args, **kwargs):
            calls.append(sorted(set(args[3])))
            return solve_batch(*args, **kwargs)

        monkeypatch.setattr(harness, "solve_batch", counting)
        grid = run_mismatch_grid(config, build_operator(config.operator))
        assert calls == [[0.05, 0.5]]
        assert grid.solver["solves"] == 2 * 3 * 3 * 2
        assert grid.solver["failures"] == 0
        for bi, bar in enumerate(config.grid.delta_bar):
            one_bar = replace(config, grid=replace(config.grid, delta_bar=(bar,)))
            one = run_mismatch_grid(one_bar, build_operator(config.operator))
            assert np.array_equal(grid.mean_errors[bi], one.mean_errors[0])
            assert np.array_equal(grid.alphas[bi], one.alphas[0])

    def test_lasso_grid_batches_samples_like_per_sample_calls(self, tmp_path, monkeypatch):
        # under a 75-step cap, alpha 1e-4 at delta_bar 0.001 leaves the delta
        # 0.001 cell with no converged solve (each needs 100 steps or more);
        # all three samples fit one call of the default budget
        rule = tmp_path / "rule.csv"
        rule.write_text("delta,alpha\n0.001,0.0001\n0.1,0.1\n")
        cfg = tmp_path / "lasso.cfg"
        cfg.write_text(f"""
[operator]
kind = integration
n = 30

[data]
kind = source
count = 3

[grid]
delta_bar = 0.001 0.1
delta = 0.001 0.1
realizations = 2

[method]
kind = lasso
transform = diff1d
alpha_rule = {rule}
""")
        config = load_config(cfg, seed=0)
        calls, solve_batch = [], harness.solve_batch

        def counting(*args, **kwargs):
            calls.append(args[2].shape[1])
            return solve_batch(*args, max_iter=75, **kwargs)

        monkeypatch.setattr(harness, "solve_batch", counting)
        together = run_mismatch_grid(config, build_operator(config.operator))
        monkeypatch.setattr(harness, "LASSO_BATCH_COLUMNS", 1)
        per_sample = run_mismatch_grid(config, build_operator(config.operator))
        assert calls == [24, 8, 8, 8]
        assert together.solver["failures"] == per_sample.solver["failures"] > 0
        assert together.solver["solves"] == per_sample.solver["solves"] == 24
        assert together.solver["iterations_max"] == per_sample.solver["iterations_max"] == 75
        assert np.array_equal(np.isnan(together.mean_errors), np.isnan(per_sample.mean_errors))
        assert np.isnan(together.mean_errors).any()
        assert np.allclose(together.mean_errors, per_sample.mean_errors,
                           rtol=1e-10, atol=0.0, equal_nan=True)

    def test_lasso_grid_records_failures_instead_of_aborting(self, tmp_path, capsys, monkeypatch):
        # with the rule alpha-tune writes at seed 0 and a 100-step cap, some
        # solves reach the cap, and every solve of the (0.001, 0.001) and
        # (0.01, 0.001) cells needs 200 steps or more; the grid used to exit 2
        # at the first failure
        cfg = tmp_path / "lasso.cfg"
        rule = tmp_path / "rule" / "alpha_rule.csv"
        cfg.write_text(f"""
[operator]
kind = integration
n = 50

[data]
kind = source
count = 4

[grid]
delta_bar = 0.001 0.01 0.1
delta = 0.001 0.01 0.1
realizations = 3

[method]
kind = lasso
transform = diff1d
alpha_rule = {rule}
""")
        assert cli_main(["--seed", "0", "--config", str(cfg), "--out", str(rule.parent),
                         "alpha-tune"]) == 0
        assert rule.read_text() == "delta,alpha\n0.001,0.001\n0.01,0.01\n0.1,0.1\n"
        monkeypatch.setattr(harness, "solve_batch", partial(lasso.solve_batch, max_iter=100))
        out = tmp_path / "grid"
        assert cli_main(["--seed", "0", "--config", str(cfg), "--out", str(out),
                         "mismatch-grid"]) == 0
        solver = json.loads((out / "manifest.json").read_text())["solver"]
        assert solver["solves"] == 3 * 3 * 4 * 3
        assert 0 < solver["failures"] < solver["solves"]
        assert solver["certified"] <= solver["solves"] - solver["failures"]
        assert solver["iterations_max"] == 100
        assert 0 < solver["iterations_median"] <= 100
        assert 0 < solver["kkt_max"] < np.inf
        assert f"solver: {solver['failures']}/108 solves did not converge" in capsys.readouterr().out
        rows = [line.split(",") for line in (out / "mismatch_grid.csv").read_text().splitlines()[1:]]
        assert len(rows) == 9
        # a cell whose solves all failed reads nan; the others average their converged solves
        assert any(row[2] == "nan" for row in rows)
        assert all(row[2] == "nan" or float(row[2]) > 0 for row in rows)

    def test_numerical_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # a solve stopped by its iteration cap (one step here) is a
        # numerical failure
        cfg = tmp_path / "stall.cfg"
        cfg.write_text("""
[operator]
kind = integration
n = 40

[data]
kind = source
count = 1

[method]
kind = lasso
transform = identity
""")
        monkeypatch.setattr(harness, "solve_batch", partial(lasso.solve_batch, max_iter=1))
        code = cli_main(["--seed", "1", "--config", str(cfg), "--out", str(tmp_path),
                         "lasso-solve", "--alpha", "0.05", "--delta", "0.01"])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure: no convergence after 1 iterations (residual ")

    LEVELS_CONFIG = """
[operator]
kind = integration
n = 12

[data]
kind = source
count = 3

[grid]
delta_bar = 0.1
delta = {delta}
realizations = 2

[method]
kind = {kind}
alpha = 0.05
m_grid = {m_grid}
"""

    def levels_config(self, tmp_path, kind, delta="0.1", m_grid="2 4"):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(self.LEVELS_CONFIG.format(kind=kind, delta=delta, m_grid=m_grid))
        return str(cfg)

    @pytest.mark.parametrize("command, kind", [
        ("mismatch-grid", "lasso"), ("mismatch-grid", "tikhonov"), ("dim-scan", "truncated"),
    ])
    def test_negative_noise_level_is_config_error(self, tmp_path, capsys, command, kind):
        cfg = self.levels_config(tmp_path, kind, delta="-0.1 0.1")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "config error: noise levels must be finite and nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, args", [
        ("alpha-tune", ["--delta-grid", "-0.1 0.1"]),
        ("alpha-tune", ["--delta-grid", "0.1 inf"]),
        ("lasso-solve", ["--delta", "-0.1"]),
        ("lasso-solve", ["--delta", "nan"]),
    ])
    def test_negative_noise_level_argument_is_config_error(self, tmp_path, capsys, command, args):
        cfg = self.levels_config(tmp_path, "lasso")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out"), *args]) == 1
        assert "config error: noise levels must be finite and nonnegative" in capsys.readouterr().err

    def test_negative_truncation_level_is_config_error(self, tmp_path, capsys):
        cfg = self.levels_config(tmp_path, "truncated", m_grid="-3 4 8")
        assert cli_main(["dim-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert "config error: m_grid entries must be nonnegative" in capsys.readouterr().err

    def test_decreasing_truncation_levels_are_config_error(self, tmp_path, capsys):
        cfg = self.levels_config(tmp_path, "truncated", m_grid="8 4")
        assert cli_main(["dim-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert ("config error: m_grid must be nonempty and strictly increasing"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("kind, code", [("tikhonov", 1), ("lasso", 0)])
    def test_zero_training_level(self, tmp_path, capsys, kind, code):
        # alpha = delta_bar / rho is 0 on the Tikhonov grid; the LASSO rule clamps
        cfg = Path(self.levels_config(tmp_path, kind))
        cfg.write_text(cfg.read_text().replace("delta_bar = 0.1", "delta_bar = 0 0.1"))
        assert cli_main(["mismatch-grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert ("config error: delta_bar must be positive for the tikhonov grid" in err) == (code == 1)

    @pytest.mark.parametrize("command, edit, args, name", [
        ("dim-scan", ("alpha = 0.05", "alpha = 0"), [], "alpha"),
        ("dim-scan", ("alpha = 0.05", "alpha = 0.05\nalpha_ref = 0"), [], "alpha_ref"),
        ("lasso-solve", ("", ""), ["--alpha", "0"], "--alpha"),
        ("dim-scan", ("alpha = 0.05", "alpha = inf"), [], "alpha"),
        ("dim-scan", ("alpha = 0.05", "alpha = 0.05\nalpha_ref = nan"), [], "alpha_ref"),
        ("lasso-solve", ("", ""), ["--alpha", "inf"], "--alpha"),
        ("mismatch-grid", ("kind = truncated\nalpha = 0.05", "kind = lasso\nalpha = inf"), [], "alpha"),
    ], ids=["alpha", "alpha_ref", "--alpha", "alpha-inf", "alpha_ref-nan", "--alpha-inf",
            "lasso-alpha-inf"])
    def test_nonpositive_alpha_is_config_error(self, tmp_path, capsys, command, edit, args, name):
        cfg = Path(self.levels_config(tmp_path, "truncated"))
        cfg.write_text(cfg.read_text().replace(*edit))
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out"), *args]) == 1
        assert f"config error: {name} must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("rule, message", [
        ("delta,alpha\n0.1,0\n", "knots need finite deltas and positive, finite alphas"),
        ("delta,alpha\nnan,0.1\n", "knots need finite deltas and positive, finite alphas"),
        ("delta,alpha\n0.1,0.05,1\n", "too many values to unpack"),
        ("alpha,delta\n0.05,0.1\n", "unexpected header 'alpha,delta'"),
    ], ids=["zero-alpha", "nan-delta", "three-fields", "header"])
    def test_malformed_rule_file_is_config_error(self, tmp_path, capsys, rule, message):
        (tmp_path / "rule.csv").write_text(rule)
        cfg = Path(self.levels_config(tmp_path, "lasso"))
        cfg.write_text(cfg.read_text().replace("alpha = 0.05", f"alpha_rule = {tmp_path / 'rule.csv'}"))
        assert cli_main(["mismatch-grid", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {tmp_path / 'rule.csv'}: ") and message in err

    @pytest.mark.parametrize("command, args, message", [
        ("alpha-tune", ["--alpha-grid", "0 0.1"], "--alpha-grid needs positive alphas"),
        ("alpha-tune", ["--alpha-grid", ","], "--alpha-grid needs positive alphas"),
        ("alpha-tune", ["--delta-grid", ","], "--delta-grid needs at least one level"),
        ("wc-curve", ["--rho", "0", "--delta", "0.1"], "wc-curve needs --rho > 0 and --delta >= 0"),
        ("wc-curve", ["--rho", "1", "--delta", "-0.1"], "wc-curve needs --rho > 0 and --delta >= 0"),
        ("alpha-tune", ["--alpha-grid", "0.1 inf"], "--alpha-grid needs positive alphas, all finite"),
        ("alpha-tune", ["--alpha-grid", "0.1 nan"], "--alpha-grid needs positive alphas"),
        ("wc-curve", ["--rho", "1", "--delta", "0.1", "--points", "-1"], "wc-curve needs --points >= 1"),
        ("wc-curve", ["--rho", "1", "--delta", "2", "--points", "0"], "wc-curve needs --points >= 1"),
        ("wc-curve", ["--rho", "inf", "--delta", "0.1"], "wc-curve needs --rho > 0 and --delta >= 0, both finite"),
        ("wc-curve", ["--rho", "1", "--delta", "inf"], "wc-curve needs --rho > 0 and --delta >= 0, both finite"),
        ("mismatch-grid", ["--seed", "-1"], "--seed must be nonnegative, not -1"),
    ])
    def test_bad_flag_is_config_error(self, tmp_path, capsys, command, args, message):
        cfg = self.levels_config(tmp_path, "lasso")
        assert cli_main([command, "--config", cfg, "--out", str(tmp_path / "out"), *args]) == 1
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, words", [
        (("realizations = 2", "realisations = 3"), ["unknown key 'realisations' in section [grid]"]),
        (("alpha = 0.05", "alpha = 0.05\nexact_truth = maybe"),
         ["[method] exact_truth", "'maybe' is not a boolean word"]),
        (("alpha = 0.05", "alpha = 0.05\n# \udcff"), ["exp.cfg: ", "can't decode byte 0xff"]),
    ], ids=["misspelt-key", "non-boolean", "non-utf8"])
    def test_config_mistake_names_key_and_section(self, tmp_path, capsys, edit, words):
        cfg = Path(self.levels_config(tmp_path, "truncated"))
        # a lone surrogate escape stands for a raw byte that is not UTF-8
        cfg.write_bytes(cfg.read_text().replace(*edit).encode("utf-8", "surrogateescape"))
        assert cli_main(["dim-scan", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert all(word in err for word in words)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tuples", ["0", "4", "-1"])
    def test_alpha_tune_tuples_outside_data_count(self, tmp_path, capsys, tuples):
        cfg = self.levels_config(tmp_path, "lasso")
        assert cli_main(["alpha-tune", "--config", cfg, "--out", str(tmp_path / "out"),
                         "--tuples", tuples]) == 1
        assert f"config error: --tuples {tuples} outside [1, 3]" in capsys.readouterr().err

    @pytest.mark.parametrize("command, transform", [("lasso-solve", "diff1d"),
                                                    ("mismatch-grid", "grad2d")])
    def test_one_wide_operator_is_config_error(self, tmp_path, capsys, command, transform):
        # a one-wide operator has no differences to take
        cfg = Path(self.levels_config(tmp_path, "lasso"))
        cfg.write_text(cfg.read_text().replace("n = 12", "n = 1").replace(
            "kind = lasso", f"kind = lasso\ntransform = {transform}"))
        assert cli_main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert (f"config error: {transform} transform needs an operator at least two wide"
                in capsys.readouterr().err)

    FILE_CONFIG = """
[operator]
kind = {operator}
n = 16
path = {op_path}

[data]
kind = {data}
count = 2
path = {data_path}
{data_extra}

[grid]
delta_bar = 0.1
delta = 0.1
realizations = 2
"""

    def run_file_config(self, tmp_path, capsys, operator="integration", data="source",
                        op_path="", data_path="", data_extra=""):
        cfg = tmp_path / "file.cfg"
        cfg.write_text(self.FILE_CONFIG.format(operator=operator, data=data, op_path=op_path,
                                               data_path=data_path, data_extra=data_extra))
        code = cli_main(["mismatch-grid", "--config", str(cfg), "--out", str(tmp_path / "out")])
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("damaged", ["container", "idx"])
    def test_truncated_input_file_is_config_error(self, tmp_path, capsys, damaged):
        if damaged == "idx":
            bad = tmp_path / "bad.idx"
            bad.write_bytes(bytes(7))
            code, err = self.run_file_config(tmp_path, capsys, data="idx", data_path=bad)
        else:
            bad = tmp_path / "op.rgb"
            linop.save_matrix(bad, linop.integration_matrix(16))
            bad.write_bytes(bad.read_bytes()[:7])
            code, err = self.run_file_config(tmp_path, capsys, operator="file", op_path=bad)
        assert code == 1
        assert err.startswith("config error: ") and str(bad) in err
        assert "truncated" in err

    @pytest.mark.parametrize("command", ["mismatch-grid", "dim-scan"])
    @pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "bare"])
    @pytest.mark.parametrize("entries, message", [("nan", "non-finite container payload"),
                                                  ("zero", "cannot normalize the zero operator")],
                             ids=["nan", "zero"])
    def test_malformed_operator_file_is_config_error(self, tmp_path, capsys, command, sidecar,
                                                     entries, message):
        # a valid .svd left beside the file by an earlier version is ignored
        matrix = linop.integration_matrix(16) if entries == "nan" else np.zeros((16, 16))
        if sidecar:
            linop.write_svd(tmp_path / "op.rgb.svd",
                            linop.compute_svd(linop.DenseOperator(matrix.copy())))
        if entries == "nan":
            matrix[3, 2] = np.nan
        linop.save_matrix(tmp_path / "op.rgb", matrix)
        if command == "mismatch-grid":
            code, err = self.run_file_config(tmp_path, capsys, operator="file",
                                             op_path=tmp_path / "op.rgb")
        else:
            cfg = tmp_path / "dim.cfg"
            cfg.write_text(f"[operator]\nkind = file\npath = {tmp_path / 'op.rgb'}\n\n"
                           "[method]\nkind = truncated\nalpha = 0.01\nm_grid = 2 4\n")
            code = cli_main(["dim-scan", "--config", str(cfg), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
        assert code == 1
        assert err == f"config error: {tmp_path / 'op.rgb'}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("data_extra, words", [
        ("indices = 1 1", ["indices", "distinct"]),
        ("indices = -1 2", ["indices", "nonnegative"]),
        ("indices = 3 16", ["[data] indices", "16 singular modes"]),
        ("n_dim = 40", ["[data] n_dim", "16 singular modes"]),
        ("n_dim = 0", ["n_dim must be at least 1"]),
        ("n_dim = -2", ["n_dim must be at least 1"]),
        ("indices = ,", ["indices", "nonempty"]),
    ], ids=["repeated", "negative", "index-too-large", "n_dim-too-large", "n_dim-zero",
            "n_dim-negative", "indices-empty"])
    def test_unmeetable_subspace_is_config_error(self, tmp_path, capsys, data_extra, words):
        code, err = self.run_file_config(tmp_path, capsys, data="subspace", data_extra=data_extra)
        assert code == 1
        assert err.startswith("config error: ")
        assert all(word in err for word in words)

    def test_largest_subspace_runs(self, tmp_path, capsys):
        code, _ = self.run_file_config(tmp_path, capsys, data="subspace", data_extra="n_dim = 16")
        assert code == 0
