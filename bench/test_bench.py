"""Self-checks of the benchmark: the tracer and the output checks.

    python3 -m pytest -q bench/test_bench.py

The traced tests run every workload at seed 0 with the fewest repeats
(about two minutes on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SEED = 0


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def traced():
    """result.json of one traced run per workload."""
    records = {}
    for name in run.WORKLOADS:
        proc = bench(name, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"], proc.stdout
        path = run.RUNS / f"{name}-seed{SEED}-trace1" / "result.json"
        records[name] = json.loads(path.read_text())
    return records


def test_traced_csvs_match_untraced(traced):
    # every traced repeat is compared with the first untraced one
    for record in traced.values():
        runs = [r for repeat in record["repeats"] for r in repeat]
        assert any(r["traced"] for r in runs) and any(not r["traced"] for r in runs)
        assert all(not r["problems"] for r in runs)
        for r in runs:
            assert r["digests"] == record["digests"][r["command"]]


def test_counts_repeat_exactly(traced):
    tik = run.WORKLOADS["tikhonov-int"][0].config
    cells = len(tik["grid"]["delta_bar"]) * len(tik["grid"]["delta"])
    samples = tik["data"]["count"]
    expected = {
        "tikhonov-int": {
            # one generator per noise draw, plus one per source sample
            "datagen.rng_for.calls": cells * samples * tik["grid"]["realizations"] + samples,
        },
        "radon": {
            # two commands, each builds the operator twice with a raw SVD,
            # and factorizes the normalized copy once
            "linop.svd_factorizations": 6,
            "harness.build_operator.calls": 4,
        },
        "lasso-tune": {
            "lasso.solve.calls": 63,
            "lasso.solve.failed": 3,
        },
    }
    for name, counts in expected.items():
        layers = traced[name]["layers"]
        assert len(layers) >= 2
        for metric, value in counts.items():
            assert [layer[metric] for layer in layers] == [value] * len(layers), metric
        exact = [m for m in layers[0] if not m.endswith(("_s", "_ms", "us_per_iter"))]
        for layer in layers[1:]:
            assert {m: layer[m] for m in exact} == {m: layers[0][m] for m in exact}


def test_end_to_end_metrics_and_environment():
    proc = bench("lasso-tune", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == {m["name"] for m in run.load_spec()["end_to_end"]}
    record = json.loads((run.RUNS / f"lasso-tune-seed{SEED}-trace0" / "result.json").read_text())
    env = record["environment"]
    for key in ("host", "nproc", "python", "numpy", "scipy", "blas", "blas_threads", "seed"):
        assert env[key] is not None, key
    assert record["configs"]["tune"]["subcommand"] == "alpha-tune"
    assert record["why"].startswith("LASSO alpha tuning")
    assert record["samples"]["setup_s"] == run.SETUP_REPEATS


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    proc = bench("tikhonov-int", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def test_mismatch_check_catches_bad_output(tmp_path):
    cmd = run.WORKLOADS["tikhonov-int"][0]
    levels = cmd.config["grid"]["delta"]
    n = len(levels) ** 2 * cmd.config["data"]["count"] * cmd.config["grid"]["realizations"]
    rows = [f"{b!r},{d!r},0.5,{1.0 if b == d else 2.0},0.1,0.01" for b in levels for d in levels]
    header = "delta_bar,delta,mean_error,relative_error,wc_bound,alpha"
    good = f"bound checks: {n}/{n} within bound, min margin 1e-3"
    _write(tmp_path / "mismatch_grid.csv", [header] + rows)
    assert run.check_mismatch(cmd, tmp_path, good) == []
    assert run.check_mismatch(cmd, tmp_path, f"bound checks: {n - 1}/{n} within bound")
    _write(tmp_path / "mismatch_grid.csv", [header] + rows[:-1])
    assert run.check_mismatch(cmd, tmp_path, good)
    _write(tmp_path / "mismatch_grid.csv", [header] + [rows[0].replace("1.0,0.1", "0.9,0.1")] + rows[1:])
    assert run.check_mismatch(cmd, tmp_path, good)
    _write(tmp_path / "mismatch_grid.csv", [header] + [rows[0].replace(",0.5,", ",nan,")] + rows[1:])
    assert run.check_mismatch(cmd, tmp_path, good)


def test_dimscan_check_catches_bad_output(tmp_path):
    cmd = run.WORKLOADS["radon"][1]
    m_grid, levels = cmd.config["method"]["m_grid"], cmd.config["grid"]["delta"]
    rows = ["basis,M,delta,mean_error"] + [f"svd,{m},{d!r},0.25" for m in m_grid for d in levels]
    _write(tmp_path / "dim_scan.csv", rows)
    assert run.check_dimscan(cmd, tmp_path, f"estimated_N={m_grid[0]}\n") == []
    assert run.check_dimscan(cmd, tmp_path, f"estimated_N={m_grid[0] + 1}\n")
    _write(tmp_path / "dim_scan.csv", rows[:-1])
    assert run.check_dimscan(cmd, tmp_path, f"estimated_N={m_grid[0]}\n")


def test_alpha_rule_check_catches_bad_output(tmp_path):
    cmd = run.WORKLOADS["lasso-tune"][0]
    deltas = sorted(float(d) for d in cmd.arg("--delta-grid").split())
    alpha = float(cmd.arg("--alpha-grid").split()[0])
    _write(tmp_path / "alpha_rule.csv", ["delta,alpha"] + [f"{d!r},{alpha!r}" for d in deltas])
    assert run.check_alpha_rule(cmd, tmp_path, "") == []
    _write(tmp_path / "alpha_rule.csv", ["delta,alpha"] + [f"{d!r},{alpha / 3!r}" for d in deltas])
    assert run.check_alpha_rule(cmd, tmp_path, "")
    _write(tmp_path / "alpha_rule.csv", ["delta,alpha"] + [f"{d!r},{alpha!r}" for d in deltas[:-1]])
    assert run.check_alpha_rule(cmd, tmp_path, "")
