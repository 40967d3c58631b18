"""Layer tracer for the regbench CLI, applied from outside the package.

Run as a script, it wraps every public function of the traced modules,
runs one CLI command through ``regbench.harness.cli_main`` and writes the
recorded spans to a JSON file:

    PYTHONPATH=src python3 bench/layertrace.py SPANS.json mismatch-grid --config c.ini --out o

The parent benchmark reads that file back with :func:`layer_metrics`.

A span is (name, start, end, parent, failed, extra).  ``parent`` is the
index of the enclosing span or -1, ``failed`` is true when an exception
left the call, and ``extra`` holds the counts read at that boundary:
``svd`` (``numpy.linalg.svd`` calls made directly inside the span) and,
for ``lasso.solve``, ``iterations`` and ``kkt`` taken from the returned
``PdSolution`` or from ``ConvergenceError.last``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time

TRACED_MODULES = ("linop", "datagen", "tikhonov", "truncated", "dimscan", "lasso", "harness")

# harness functions whose summed self time is the emission phase
EMIT_FUNCTIONS = ("emit_mismatch_csv", "emit_dimscan_csv", "emit_wc_curve_csv",
                  "make_manifest", "config_hash", "operator_checksum")


class Tracer:
    """Spans kept in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.extra: dict[int, dict] = {}

    def wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self.stack, self.extra
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                _solver_stats(extra, index, getattr(exc, "last", None))
                spans[index] = (name, start, end, parent, True)
                raise
            end = clock()
            stack.pop()
            _solver_stats(extra, index, result)
            spans[index] = (name, start, end, parent, False)
            return result

        return traced

    def count_svd(self, svd):
        stack, extra = self.stack, self.extra

        @functools.wraps(svd)
        def counted(*args, **kwargs):
            if stack:
                slot = extra.setdefault(stack[-1], {})
                slot["svd"] = slot.get("svd", 0) + 1
            return svd(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap the public functions and rebind every module-level name
        bound to one of them, since modules import each other's functions
        by name."""
        import numpy

        wrappers = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"regbench.{short}")
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(value)] = (value, self.wrap(f"{short}.{attr}", value))
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "regbench" or mod_name.startswith("regbench."):
                for attr, value in list(vars(module).items()):
                    original, wrapper = wrappers.get(id(value), (None, None))
                    if value is original:
                        setattr(module, attr, wrapper)
        numpy.linalg.svd = self.count_svd(numpy.linalg.svd)

    def dump(self, path) -> None:
        rows = [list(span) + [self.extra.get(i)] for i, span in enumerate(self.spans)
                if span is not None]
        with open(path, "w") as fh:
            json.dump(rows, fh, separators=(",", ":"))


def _solver_stats(extra: dict, index: int, result) -> None:
    iterations = getattr(result, "iterations", None)
    kkt = getattr(result, "kkt_residual", None)
    if isinstance(iterations, int) and kkt is not None:
        slot = extra.setdefault(index, {})
        slot["iterations"] = iterations
        slot["kkt"] = float(kkt)


def layer_metrics(span_files) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (one spans file per command)."""
    calls: dict[str, int] = {}
    failed: dict[str, int] = {}
    self_s: dict[str, float] = {}
    svd_in_linop = 0
    solve_ms, iterations, kkt = [], 0, []
    for path in span_files:
        with open(path) as fh:
            spans = json.load(fh)
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, bad, extra) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            failed[name] = failed.get(name, 0) + int(bad)
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]
            extra = extra or {}
            if name.startswith("linop."):
                svd_in_linop += extra.get("svd", 0)
            if name == "lasso.solve":
                solve_ms.append(1e3 * (end - start))
                iterations += extra.get("iterations", 0)
                if "kkt" in extra:
                    kkt.append(extra["kkt"])

    def c(name):
        return calls.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    solve_self = s("lasso.solve")
    return {
        "datagen.rng_for.calls": c("datagen.rng_for"),
        "datagen.rng_for.self_s": s("datagen.rng_for"),
        "datagen.add_noise.calls": c("datagen.add_noise"),
        "datagen.add_noise.self_s": s("datagen.add_noise"),
        "datagen.estimate_source_constant.self_s": s("datagen.estimate_source_constant"),
        "datagen.phantom_images.self_s": s("datagen.phantom_images"),
        "datagen.sample_source_data.self_s": s("datagen.sample_source_data"),
        "linop.radon_matrix.self_s": s("linop.radon_matrix"),
        "linop.compute_svd.self_s": s("linop.compute_svd"),
        "linop.svd_factorizations": svd_in_linop,
        "linop.pinv_adjoint_apply.self_s": s("linop.pinv_adjoint_apply"),
        "harness.build_operator.calls": c("harness.build_operator"),
        "harness.run_mismatch_grid.self_s": s("harness.run_mismatch_grid"),
        "harness.emit.self_s": sum(s(f"harness.{f}") for f in EMIT_FUNCTIONS),
        "tikhonov.reconstruct.calls": c("tikhonov.reconstruct"),
        "tikhonov.reconstruct.self_s": s("tikhonov.reconstruct"),
        "truncated.subspace_solver.calls": c("truncated.subspace_solver"),
        "truncated.subspace_solver.self_s": s("truncated.subspace_solver"),
        "dimscan.scan.self_s": s("dimscan.scan"),
        "lasso.solve.calls": c("lasso.solve"),
        "lasso.solve.failed": failed.get("lasso.solve", 0),
        "lasso.solve.iterations": iterations,
        "lasso.solve.self_s": solve_self,
        "lasso.solve.us_per_iter": 1e6 * solve_self / iterations if iterations else 0.0,
        "lasso.solve.p50_ms": statistics.median(solve_ms) if solve_ms else 0.0,
        "lasso.solve.kkt_max": max(kkt) if kkt else 0.0,
    }


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    from regbench import harness

    sys.argv[0] = "regbench"
    try:
        code = harness.cli_main(cli_args)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
