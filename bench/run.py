"""End-to-end benchmark of the regbench CLI, run from outside the package.

    python3 bench/run.py --workload tikhonov-int --seed 1 --seconds 30 --trace 0

Each workload writes its config files, then runs its ``regbench``
subcommands in child processes exactly as the ``regbench.harness:main``
console script would (``PYTHONPATH=src``; the package is not installed).
The load is a closed loop: one client runs one command at a time and
repeats the workload until ``--seconds`` have passed.  Every repeat uses
the same inputs, derived from ``--seed``, so the CSV bytes of all repeats
must match.  BLAS threads stay at the library default and are recorded.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` interleaves
untraced repeats with repeats under ``layertrace.py`` and reports the
per-layer metrics and ``trace.overhead_s``.  The last line of standard
output is one JSON object; the full record, with the environment, the
generated configs and every repeat's CSV digests, goes to
``bench/runs/<workload>-seed<seed>-trace<trace>/result.json``.

See README.md in this directory for the metrics and why each workload was
chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from layertrace import layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

# what the regbench console script runs
CLI = "import sys; from regbench.harness import main; sys.argv[0] = 'regbench'; sys.exit(main())"

# the work every command pays before its first reconstruction
SETUP = """\
import sys
from regbench import harness, linop
config = harness.load_config(sys.argv[1], seed=int(sys.argv[2]))
op = harness.build_operator(config.operator)
linop.compute_svd(op)
harness.build_dataset(op, config.data, config.seed)
"""

SETUP_REPEATS = 5
MIN_REPEATS = 2
LEVELS = (0.001, 0.01, 0.1, 0.2, 0.5, 1.0)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload; ``config`` maps ini sections to keys."""

    name: str
    subcommand: str
    config: dict
    check: Callable[["Command", Path, str], list[str]]
    args: tuple[str, ...] = ()

    def ini(self) -> str:
        lines = []
        for section, items in self.config.items():
            lines.append(f"[{section}]")
            for key, value in items.items():
                if isinstance(value, tuple):
                    value = " ".join(str(v) for v in value)
                lines.append(f"{key} = {value}")
            lines.append("")
        return "\n".join(lines)

    def arg(self, flag: str) -> str:
        return self.args[self.args.index(flag) + 1]


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems, empty when the run is good

def _read_csv(path: Path, header: str, rows: int, problems: list[str]) -> list[list[str]]:
    if not path.exists():
        problems.append(f"{path.name} missing")
        return []
    lines = path.read_text().splitlines()
    if not lines or lines[0] != header:
        problems.append(f"{path.name}: header {lines[:1]} is not {header!r}")
        return []
    body = [line.split(",") for line in lines[1:]]
    width = header.count(",") + 1
    if len(body) != rows or any(len(row) != width for row in body):
        problems.append(f"{path.name}: {len(body)} rows, expected {rows} of {width} fields")
        return []
    return body


def check_mismatch(cmd: Command, out: Path, stdout: str) -> list[str]:
    problems: list[str] = []
    grid = cmd.config["grid"]
    bars, deltas = grid["delta_bar"], grid["delta"]
    rows = _read_csv(out / "mismatch_grid.csv",
                     "delta_bar,delta,mean_error,relative_error,wc_bound,alpha",
                     len(bars) * len(deltas), problems)
    for delta_bar, delta, mean_error, relative, _, _ in rows:
        if not math.isfinite(float(mean_error)):
            problems.append(f"mean_error {mean_error} at ({delta_bar}, {delta})")
        if float(delta_bar) == float(delta) and float(relative) != 1.0:
            problems.append(f"relative_error {relative} on the diagonal at {delta}")
    if cmd.config["data"]["kind"] == "source":
        n = len(bars) * len(deltas) * cmd.config["data"]["count"] * grid["realizations"]
        if f"bound checks: {n}/{n} within bound" not in stdout:
            problems.append(f"no '{n}/{n} within bound' line")
    return problems


def check_dimscan(cmd: Command, out: Path, stdout: str) -> list[str]:
    problems: list[str] = []
    m_grid = cmd.config["method"]["m_grid"]
    rows = _read_csv(out / "dim_scan.csv", "basis,M,delta,mean_error",
                     len(m_grid) * len(cmd.config["grid"]["delta"]), problems)
    for _, m, delta, mean_error in rows:
        if not math.isfinite(float(mean_error)):
            problems.append(f"mean_error {mean_error} at (M={m}, delta={delta})")
    found = [line.split("=", 1)[1] for line in stdout.splitlines()
             if line.startswith("estimated_N=")]
    if len(found) != 1 or not found[0].isdigit() or int(found[0]) not in m_grid:
        problems.append(f"estimated_N {found} not in m_grid")
    return problems


def check_alpha_rule(cmd: Command, out: Path, stdout: str) -> list[str]:
    problems: list[str] = []
    deltas = sorted(float(d) for d in cmd.arg("--delta-grid").split())
    alphas = {float(a) for a in cmd.arg("--alpha-grid").split()}
    rows = _read_csv(out / "alpha_rule.csv", "delta,alpha", len(deltas), problems)
    for (delta, alpha), expected in zip(rows, deltas):
        if float(delta) != expected:
            problems.append(f"knot delta {delta}, expected {expected!r}")
        if float(alpha) not in alphas:
            problems.append(f"knot alpha {alpha} not in the alpha grid")
    return problems


# ---------------------------------------------------------------------------
# workloads: the commands of each, run in order; BENCHMARK.json gives the
# one-line reason for each and README.md the longer one

RADON = {"kind": "radon", "side": 28, "angles": 30, "offsets": 41}

WORKLOADS = {
    "tikhonov-int": (
        Command("grid", "mismatch-grid", {
            "operator": {"kind": "integration", "n": 50},
            "data": {"kind": "source", "count": 50},
            "grid": {"delta_bar": LEVELS, "delta": LEVELS, "realizations": 100},
            "method": {"kind": "tikhonov", "rho": "estimate"},
        }, check_mismatch),
    ),
    "radon": (
        Command("grid", "mismatch-grid", {
            "operator": RADON,
            "data": {"kind": "phantom", "count": 20},
            "grid": {"delta_bar": LEVELS, "delta": LEVELS, "realizations": 10},
            "method": {"kind": "tikhonov", "rho": "estimate"},
        }, check_mismatch),
        Command("dimscan", "dim-scan", {
            "operator": RADON,
            "data": {"kind": "phantom", "count": 20},
            "grid": {"delta": LEVELS, "realizations": 100},
            "method": {"kind": "truncated", "basis": "svd", "alpha": 0.01,
                       "m_grid": (8, 16, 32, 64, 128, 256, 512)},
        }, check_dimscan),
    ),
    "lasso-tune": (
        Command("tune", "alpha-tune", {
            "operator": {"kind": "integration", "n": 30},
            "data": {"kind": "source", "count": 50},
            "method": {"kind": "lasso", "transform": "diff1d"},
        }, check_alpha_rule, ("--delta-grid", "0.1 0.2 0.5",
                              "--alpha-grid", "0.001 0.1 1", "--tuples", "10")),
    ),
}


# ---------------------------------------------------------------------------
# children

@dataclass
class CommandRun:
    command: str
    traced: bool
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], log: Path) -> tuple[float, float, int]:
    """Run a child to completion; wall seconds, peak RSS in MB, exit code."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def run_command(cmd: Command, run_dir: Path, seed: int, tag: str,
                traced: bool) -> tuple[CommandRun, Path | None]:
    out = run_dir / tag / cmd.name
    out.mkdir(parents=True)
    cli_args = [cmd.subcommand, "--config", str(run_dir / f"{cmd.name}.ini"),
                "--out", str(out), "--seed", str(seed), *cmd.args]
    spans = run_dir / "spans" / f"{tag}-{cmd.name}.json" if traced else None
    if traced:
        argv = [sys.executable, str(BENCH / "layertrace.py"), str(spans), *cli_args]
    else:
        argv = [sys.executable, "-c", CLI, *cli_args]
    log = run_dir / tag / f"{cmd.name}.log"
    wall, rss, code = spawn(argv, log)
    stdout = log.read_text(errors="replace")
    run = CommandRun(cmd.name, traced, wall, rss, code)
    if code != 0:
        run.problems.append(f"exit status {code}: {stdout.strip()[-300:]}")
    else:
        run.problems.extend(cmd.check(cmd, out, stdout))
    run.digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(out.glob("*.csv"))}
    return run, spans


def measure_setup(config: Path, run_dir: Path, seed: int) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        log = run_dir / f"setup{i}.log"
        wall, _, code = spawn([sys.executable, "-c", SETUP, str(config), str(seed)], log)
        if code != 0:
            raise RuntimeError(f"set-up child exited {code}: {log.read_text()[-300:]}")
        times.append(wall)
    return times


# ---------------------------------------------------------------------------
# environment

def git_commit() -> str | None:
    """HEAD of the checkout, read from its own .git only."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# Library versions and the BLAS thread count, read in a child so that the
# parent stays small: a child's peak RSS from os.wait4 is at least the
# parent's at the time it was spawned.
PROBE = """\
import ctypes, glob, json, os, platform
import numpy, scipy
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
threads = None
libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if threads is None and hasattr(lib, name):
            threads = int(getattr(lib, name)())
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "blas_threads": threads}))
"""


def environment(seed: int) -> dict:
    probe = subprocess.run([sys.executable, "-c", PROBE], env=child_env(), cwd=ROOT,
                           capture_output=True, text=True, check=True)
    return {"host": platform.node(), "nproc": len(os.sched_getaffinity(0)),
            **json.loads(probe.stdout), "git_commit": git_commit(), "seed": seed}


# ---------------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn a termination request into an exception, so that spawn() stops
    # the running child before the benchmark exits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "regbench" / "__init__.py").is_file():
        print(f"no regbench sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    workload = WORKLOADS[args.workload]

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    for cmd in workload:
        (run_dir / f"{cmd.name}.ini").write_text(cmd.ini())
    record = {
        "workload": args.workload,
        "why": why,
        "configs": {cmd.name: {"subcommand": cmd.subcommand, "args": list(cmd.args),
                               "ini": cmd.ini()} for cmd in workload},
        "environment": environment(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
    }

    # set-up is timed on the first command's config; a workload's commands
    # share their operator and data
    setup_times = [] if args.trace else measure_setup(
        run_dir / f"{workload[0].name}.ini", run_dir, args.seed)
    (run_dir / "spans").mkdir()

    repeats: list[list[CommandRun]] = []
    reference: dict[str, dict[str, str]] = {}
    traced_spans: list[list[Path]] = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index < MIN_REPEATS or time.perf_counter() < deadline:
        for traced in (False, True) if args.trace else (False,):
            tag = f"rep{index}{'t' if traced else ''}"
            runs, span_files = [], []
            for cmd in workload:
                run, spans = run_command(cmd, run_dir, args.seed, tag, traced)
                expected = reference.setdefault(cmd.name, run.digests)
                if run.digests != expected:
                    run.problems.append("output bytes differ from the first repeat")
                runs.append(run)
                span_files.append(spans)
            if traced:
                traced_spans.append(span_files)
            shutil.rmtree(run_dir / tag)
            repeats.append(runs)
            print(f"{tag}: " + ", ".join(
                f"{r.command} {r.wall_s:.3f} s {r.peak_rss_mb:.0f} MB"
                + (f" FAILED {r.problems}" if r.problems else "") for r in runs), flush=True)
        index += 1

    untraced = [runs for runs in repeats if not runs[0].traced]
    walls = [sum(r.wall_s for r in runs) for runs in untraced]
    all_runs = [r for runs in repeats for r in runs]
    failed = sum(1 for r in all_runs if r.problems)
    # read the spans only now: they are large, and the parent's peak
    # memory would show in the RSS of every child spawned after
    layers = [layer_metrics(files) for files in traced_spans]
    shutil.rmtree(run_dir / "spans")
    if args.trace:
        traced_walls = [sum(r.wall_s for r in runs) for runs in repeats if runs[0].traced]
        values = {name: statistics.median(layer[name] for layer in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(max(r.peak_rss_mb for r in runs) for runs in untraced),
        }
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not match BENCHMARK.json")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record.update({
        "samples": {"wall_s": len(walls), "setup_s": len(setup_times),
                    "traced": len(layers)},
        "setup_times_s": setup_times,
        "layers": layers,
        "errors": failed / len(all_runs),
        "digests": reference,
        "repeats": [[vars(r) for r in runs] for runs in repeats],
        "metrics": metrics,
    })
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": len(all_runs),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
