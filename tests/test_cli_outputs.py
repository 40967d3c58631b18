"""Small CLI runs at seed 0, pinned to recorded outputs.

The expected CSVs were recorded before the batched spectral-filter kernel
replaced the per-sample and Cholesky paths.  Every number must agree with
them to 1e-12 relative; labels, grid levels, ``estimated_N`` and the
bound-check tally must agree exactly.  A kernel change that moves results
further than rounding fails here.
"""

import math

import pytest

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
0.01,0.01,0.04540025544619246,1.0,0.08923680490325389,0.012557754132607206
0.01,0.1,0.2911513089689076,1.7472655713248457,0.4908024269678964,0.012557754132607206
0.01,0.5,1.3971556757240982,4.91828422762042,2.275538525032974,0.012557754132607206
0.1,0.01,0.11273852102871285,2.483213363465068,0.15520535503570013,0.12557754132607207
0.1,0.1,0.16663254501612207,1.0,0.2821915546103639,0.12557754132607207
0.1,0.5,0.5956777806710357,2.0969120938509023,0.8465746638310916,0.12557754132607207
0.5,0.01,0.19675852938119812,4.333863927580599,0.32180974438041005,0.6278877066303603
0.5,0.1,0.2014655523744926,1.2090408410613926,0.3785996992710706,0.6278877066303603
0.5,0.5,0.284073797093275,1.0,0.6309994987851177,0.6278877066303603
"""

# per-sample source constants straddle delta_bar = 0.6, so two of the five
# samples take the zero reconstruction inside batches with the others
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
0.01,0.01,0.03994256479332157,1.0,0.07771735275612499,0.01655632724608668
0.01,0.1,0.2754854021683391,3.8251230866986883,0.42744544015868746,0.01655632724608668
0.01,0.6,1.6541676531403187,12.427783304346555,2.370379259061812,0.01655632724608668
0.1,0.01,0.04950431675476966,1.239387530843959,0.13517011663546571,0.16556327246086683
0.1,0.1,0.07202000979427295,1.0,0.2457638484281195,0.16556327246086683
0.1,0.6,0.3158704896167946,2.3731391372228554,0.8601734694984182,0.16556327246086683
0.6,0.01,0.11712359746495338,2.932300368566631,0.3060146464847292,0.9933796347652009
0.6,0.1,0.11877802263525217,1.6492364132488277,0.3511643484250991,0.9933796347652009
0.6,0.6,0.1331023894310888,1.0,0.6019960258715984,0.9933796347652009
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
svd,2,0.01,0.22859371505744958
svd,2,0.1,0.22954794379170804
svd,2,0.5,0.2600682770347545
svd,4,0.01,0.18111780650314596
svd,4,0.1,0.18522201500454558
svd,4,0.5,0.24935776689618255
svd,8,0.01,0.1738638468348515
svd,8,0.1,0.18799758099677735
svd,8,0.5,0.3199973798217166
svd,16,0.01,0.13141998142024036
svd,16,0.1,0.1680521790500188
svd,16,0.5,0.5140649611642324
svd,32,0.01,0.08027011337830021
svd,32,0.1,0.18406396632687755
svd,32,0.5,0.791986783527697
"""


def run_cli(tmp_path, capsys, subcommand, config_text):
    config = tmp_path / "exp.cfg"
    config.write_text(config_text)
    out = tmp_path / "out"
    code = cli_main([subcommand, "--config", str(config), "--out", str(out), "--seed", "0"])
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
