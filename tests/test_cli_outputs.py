"""Small CLI runs at seed 0, pinned to recorded outputs.

The expected CSVs come from references independent of the code under
test, both in test_crn.py and both drawing the documented noise blocks:
the mismatch grids from a data-space reconstruction of every cell
(``reference_grid``), the dimension scan from a data-space scan that
solves every (level, realization) through the restricted normal equations
(``reference_scan``).  Every number must agree with them to 1e-12
relative; labels, grid levels, ``estimated_N`` and the bound-check tally
must agree exactly.  A change that moves results further than rounding
fails here.

The ``alpha-tune`` pins (seeds 0, 1 and 2) come from the exact minimizer
of every (delta, alpha, tuple) problem, solved through its box-constrained
dual by BVLS (``bvls_reference`` in test_lasso.py); the knot at each delta
is the alpha of the smallest exact cell mean.  Knots must agree exactly,
per-cell mean errors to 1e-10 relative, and no cell may fail.
"""

import json
import math
from functools import partial

import numpy as np
import pytest

from regbench import harness, lasso
from regbench.harness import cli_main

REL_TOL = 1e-12

RADON = """
[operator]
kind = radon
side = 8
angles = 10
offsets = 13
"""

RADON_GRID = RADON + """
[data]
kind = phantom
count = 4

[grid]
delta_bar = 0.01 0.1 0.5
delta = 0.01 0.1 0.5
realizations = 5

[method]
kind = tikhonov
rho = estimate
"""

RADON_GRID_CSV = """\
delta_bar,delta,mean_error,relative_error,wc_bound,alpha
0.01,0.01,0.04549923722921366,1.0,0.12718201495632062,0.012557754132607166
0.01,0.1,0.29745665436261437,1.7835328734285676,0.6995010822597634,0.012557754132607166
0.01,0.5,1.4785011163854163,5.096892182409248,3.2431413813861756,0.012557754132607166
0.1,0.01,0.1125935722790857,2.4746254912333527,0.22120166456936538,0.12557754132607166
0.1,0.1,0.16677946271368674,1.0,0.40218484467157345,0.12557754132607166
0.1,0.5,0.6301031938526319,2.172178300893069,1.2065545340147201,0.12557754132607166
0.5,0.01,0.19676783654916727,4.324640335351132,0.45864945262497436,0.6278877066303583
0.5,0.1,0.20119677999210955,1.2063642412465834,0.5395875913234993,0.6278877066303583
0.5,0.5,0.2900789468311931,1.0,0.8993126522058321,0.6278877066303583
"""

# per-sample source constants straddle delta_bar = 0.6, so two of the five
# samples take the zero reconstruction
INTEGRATION_GRID = """
[operator]
kind = integration
n = 20

[data]
kind = source
count = 5

[grid]
delta_bar = 0.01 0.1 0.6
delta = 0.01 0.1 0.6
realizations = 6

[method]
kind = tikhonov
rho = per-sample
"""

INTEGRATION_GRID_CSV = """\
delta_bar,delta,mean_error,relative_error,wc_bound,alpha
0.01,0.01,0.03609352002120389,1.0,0.07771735275612499,0.01655632724608668
0.01,0.1,0.26372982216779023,3.879723353360532,0.42744544015868746,0.01655632724608668
0.01,0.6,1.5884615642538893,12.382041068349741,2.370379259061812,0.01655632724608668
0.1,0.01,0.04974729779269792,1.378288894058347,0.13517011663546571,0.16556327246086683
0.1,0.1,0.06797645041864987,1.0,0.2457638484281195,0.16556327246086683
0.1,0.6,0.2917973620591933,2.2745573465292637,0.8601734694984182,0.16556327246086683
0.6,0.01,0.11708701926888725,3.2439900347791526,0.3060146464847292,0.9933796347652009
0.6,0.1,0.11684279333963844,1.718871647754966,0.3511643484250991,0.9933796347652009
0.6,0.6,0.1282875380145704,1.0,0.6019960258715984,0.9933796347652009
"""

RADON_DIMSCAN = RADON + """
[data]
kind = phantom
count = 2

[grid]
delta = 0.01 0.1 0.5
realizations = 8

[method]
kind = truncated
basis = svd
alpha = 0.01
m_grid = 2 4 8 16 32
"""

RADON_DIMSCAN_CSV = """\
basis,M,delta,mean_error
svd,2,0.01,0.23266054398233715
svd,2,0.1,0.23417508584853072
svd,2,0.5,0.269535497024733
svd,4,0.01,0.18751392215456836
svd,4,0.1,0.19134216594464093
svd,4,0.5,0.26732083769080783
svd,8,0.01,0.18126109342767846
svd,8,0.1,0.1922659224426762
svd,8,0.5,0.36534319832351814
svd,16,0.01,0.13571629804384325
svd,16,0.1,0.1651982984285859
svd,16,0.5,0.4909828555149773
svd,32,0.01,0.08811533292484225
svd,32,0.1,0.17404937392773756
svd,32,0.5,0.7605595721508295
"""

LASSO_TUNE = """
[operator]
kind = integration
n = 30

[data]
kind = source
count = 50

[method]
kind = lasso
transform = diff1d
"""

LASSO_TUNE_ARGS = ("--delta-grid", "0.1 0.2 0.5", "--alpha-grid", "0.001 0.1 1", "--tuples", "10")

# per seed and delta: the knot's alpha and the exact mean error of every
# cell
ALPHA_TUNE_PINS = {
    0: [
        (0.1, 0.1, {0.001: 1.9016253343200085, 0.1: 0.06553974362233446, 1.0: 0.06625838776400307}),
        (0.2, 1.0, {0.001: 4.490539747563663, 0.1: 0.12786381876818706, 1.0: 0.06908572941132968}),
        (0.5, 1.0, {0.001: 12.401972804157825, 0.1: 1.0888335930052502, 1.0: 0.12031243753824186}),
    ],
    1: [
        (0.1, 0.1, {0.001: 2.1841368160350028, 0.1: 0.0562241317152903, 1.0: 0.06845563432038397}),
        (0.2, 1.0, {0.001: 5.091023575661383, 0.1: 0.13006773945133848, 1.0: 0.07122586809008431}),
        (0.5, 1.0, {0.001: 13.920179054025065, 0.1: 0.9538089393387293, 1.0: 0.0735661089806084}),
    ],
    2: [
        (0.1, 1.0, {0.001: 1.9785097520138801, 0.1: 0.07995331158784649, 1.0: 0.06820488740043196}),
        (0.2, 1.0, {0.001: 4.600918427032551, 0.1: 0.2024661473023411, 1.0: 0.07409963386253994}),
        (0.5, 1.0, {0.001: 12.61027242502863, 0.1: 0.9951402085588406, 1.0: 0.183112432152948}),
    ],
}


def run_cli(tmp_path, capsys, subcommand, config_text, *args, seed=0):
    config = tmp_path / "exp.cfg"
    config.write_text(config_text)
    out = tmp_path / "out"
    code = cli_main([subcommand, "--config", str(config), "--out", str(out),
                     "--seed", str(seed), *args])
    assert code == 0
    return out, capsys.readouterr().out


def assert_csv_matches(path, expected):
    got = path.read_text().splitlines()
    want = expected.splitlines()
    assert got[0] == want[0]
    assert len(got) == len(want)
    # the first columns are labels and grid levels, the rest computed values
    labels = want[0].split(",").index("mean_error")
    for got_row, want_row in zip(got[1:], want[1:]):
        got_fields, want_fields = got_row.split(","), want_row.split(",")
        assert got_fields[:labels] == want_fields[:labels]
        for g, w in zip(got_fields[labels:], want_fields[labels:]):
            assert math.isclose(float(g), float(w), rel_tol=REL_TOL, abs_tol=0.0), (want_row, g)


def test_radon_mismatch_grid(tmp_path, capsys):
    out, _ = run_cli(tmp_path, capsys, "mismatch-grid", RADON_GRID)
    assert_csv_matches(out / "mismatch_grid.csv", RADON_GRID_CSV)


def test_integration_mismatch_grid(tmp_path, capsys):
    out, stdout = run_cli(tmp_path, capsys, "mismatch-grid", INTEGRATION_GRID)
    assert_csv_matches(out / "mismatch_grid.csv", INTEGRATION_GRID_CSV)
    assert "bound checks: 270/270 within bound," in stdout


def test_radon_dim_scan(tmp_path, capsys):
    out, stdout = run_cli(tmp_path, capsys, "dim-scan", RADON_DIMSCAN)
    assert_csv_matches(out / "dim_scan.csv", RADON_DIMSCAN_CSV)
    assert stdout.splitlines() == ["estimated_N=4"]


@pytest.mark.parametrize("text", [RADON_GRID_CSV, RADON_DIMSCAN_CSV])
def test_pin_check_rejects_a_moved_value(tmp_path, text):
    rows = text.splitlines()
    fields = rows[1].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 10 * REL_TOL))
    (tmp_path / "moved.csv").write_text("\n".join([rows[0], ",".join(fields)] + rows[2:]) + "\n")
    with pytest.raises(AssertionError):
        assert_csv_matches(tmp_path / "moved.csv", text)


def recorded_searches(monkeypatch):
    """Route the CLI's ``solve_lasso_samples`` through a recorder; returns
    the list its results go to."""
    results, score = [], harness.solve_lasso_samples

    def recording(*args, **kwargs):
        results.append(score(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(harness, "solve_lasso_samples", recording)
    return results


def recorded_data(monkeypatch):
    """Route the CLI's ``solve_batch`` through a recorder; returns the list
    each call's data ``Y`` goes to."""
    data, solve = [], harness.solve_batch

    def recording(op, w, Y, *args, **kwargs):
        data.append(np.array(Y))
        return solve(op, w, Y, *args, **kwargs)

    monkeypatch.setattr(harness, "solve_batch", recording)
    return data


@pytest.mark.parametrize("seed", sorted(ALPHA_TUNE_PINS))
def test_alpha_tune_matches_sequential_solves(tmp_path, capsys, monkeypatch, seed):
    results = recorded_searches(monkeypatch)
    out, _ = run_cli(tmp_path, capsys, "alpha-tune", LASSO_TUNE, *LASSO_TUNE_ARGS, seed=seed)
    pins = ALPHA_TUNE_PINS[seed]
    knots = "".join(f"{delta!r},{alpha!r}\n" for delta, alpha, _ in pins)
    assert (out / "alpha_rule.csv").read_text() == "delta,alpha\n" + knots
    (scores,) = results
    # errors are indexed (tuple, alpha, delta)
    assert scores.errors.shape == (10, 3, len(pins))
    assert scores.converged.all()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["noise_scheme"] == "crn-v2"
    solver = manifest["solver"]
    assert solver["certified"] == solver["solves"] == scores.errors.size
    for di, (_, _, cells) in enumerate(pins):
        for ai, alpha in enumerate(cells):
            mean_error = float(np.mean(scores.errors[:, ai, di]))
            assert math.isclose(mean_error, cells[alpha], rel_tol=1e-10, abs_tol=0.0)


def test_alpha_tune_cells_are_lasso_solve_problems(tmp_path, capsys, monkeypatch):
    # alpha-tune draws the common-random-number blocks: its problem (tuple
    # i, alpha, delta) is lasso-solve's --sample i --delta delta --alpha alpha
    # with the very same data bits
    results, data = recorded_searches(monkeypatch), recorded_data(monkeypatch)
    args = ("--delta-grid", "0.1 0.2 0.5", "--alpha-grid", "0.001 0.1 1", "--tuples", "3")
    run_cli(tmp_path, capsys, "alpha-tune", LASSO_TUNE, *args)
    (scores,), (tuned,) = results, data
    assert scores.errors.shape == (3, 3, 3) and scores.converged.all()
    for i in range(3):
        for ai, alpha in enumerate((0.001, 0.1, 1.0)):
            for di, delta in enumerate((0.1, 0.2, 0.5)):
                data.clear()
                _, stdout = run_cli(tmp_path, capsys, "lasso-solve", LASSO_TUNE,
                                    "--sample", str(i), "--delta", repr(delta),
                                    "--alpha", repr(alpha))
                (solved,) = data
                # alpha-tune's columns are ordered (tuple, alpha, delta)
                assert solved[:, 0].tobytes() == tuned[:, 9 * i + 3 * ai + di].tobytes()
                error = float(stdout.split("error=")[1])
                assert math.isclose(scores.errors[i, ai, di], error, rel_tol=1e-12, abs_tol=0.0)


def test_alpha_tune_data_do_not_depend_on_tuples(tmp_path, capsys, monkeypatch):
    # tuple i gets the same data bits however many tuples are tuned
    data = recorded_data(monkeypatch)
    grids = ("--delta-grid", "0.1 0.2 0.5", "--alpha-grid", "0.001 0.1 1")
    columns = []
    for tuples in (3, 10):
        data.clear()
        run_cli(tmp_path, capsys, "alpha-tune", LASSO_TUNE, *grids, "--tuples", str(tuples))
        tuned = np.hstack(data)
        # 9 columns per tuple: (alpha, delta)
        assert tuned.shape == (30, 9 * tuples)
        columns.append(tuned[:, :27])
    assert columns[0].tobytes() == columns[1].tobytes()


def test_alpha_tune_reports_failed_cells_on_stderr(tmp_path, capsys, monkeypatch):
    # every cell of the pinned config converges, so stderr stays empty
    config = tmp_path / "exp.cfg"
    config.write_text(LASSO_TUNE)
    out = tmp_path / "out"
    argv = ["alpha-tune", "--config", str(config), "--out", str(out), "--seed", "0",
            *LASSO_TUNE_ARGS]
    assert cli_main(argv) == 0
    captured = capsys.readouterr()
    knots = [(delta, alpha) for delta, alpha, _ in ALPHA_TUNE_PINS[0]]
    stdout = "".join(f"delta={delta!r} alpha={alpha!r}\n" for delta, alpha in knots) \
        + f"wrote {out / 'alpha_rule.csv'}\n"
    assert captured.out == stdout
    assert captured.err == ""
    # under a 150-step cap some cells fail: one stderr line each, in order
    results = recorded_searches(monkeypatch)
    monkeypatch.setattr(harness, "solve_batch", partial(lasso.solve_batch, max_iter=150))
    assert cli_main(argv) == 0
    lines = capsys.readouterr().err.splitlines()
    (scores,) = results
    failed = [(delta, alpha) for di, delta in enumerate((0.1, 0.2, 0.5))
              for ai, alpha in enumerate((0.001, 0.1, 1.0)) if not scores.converged[:, ai, di].all()]
    assert failed and len(lines) == len(failed)
    for line, (delta, alpha) in zip(lines, failed):
        assert line.startswith(f"delta={delta!r} alpha={alpha!r}: no convergence after 150 "
                               "iterations (residual ")
