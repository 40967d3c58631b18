"""Experiment configuration, mismatch grids, CSV emission, and the CLI.

Experiments are pure functions of (config, master seed).  Noise keying is
``crn-v2`` (the manifest's ``noise_scheme``).  Sample s owns the block
:func:`~regbench.datagen.noise_block` draws from the stream
``(seed, NOISE_TAG, s)``; every noise level applied to a sample scales the
same rows (common random numbers):

- both mismatch grids: realization r at level delta is
  ``y_s + delta * block[r]`` in every cell;
- ``dim-scan`` (sample 0, R realizations) draws R + 1 rows: row 0 perturbs
  the reference reconstruction, realization r is ``y_0 + delta * block[r + 1]``;
- ``lasso-solve`` uses row 0 of the chosen sample's block;
- ``alpha-tune`` is a LASSO grid of one realization, whose tuple i is sample i.

``alpha-tune`` and the sparse ``mismatch-grid`` build their noisy data,
solve and score through one function, :func:`solve_lasso_samples`;
``lasso-solve`` solves one column.  All three take sample s's clean data
as one product, ``A @ truths[:, s]``, so a problem (sample, delta, alpha)
gets bit-identical data in each, and its solutions agree to round-off,
which depends on the batch (:func:`~regbench.lasso.solve_batch`).
The sparsifying matrix W is a plain array (:func:`_build_transform`).

Every operator kind takes one path, :func:`build_operator`: the raw matrix,
generated or read as stored, is built into an operator together with its
SVD, read from the SVD cache or factored once, and is divided by its norm,
so every command runs with ``sigma_1`` exactly 1.0.  ``regbench operator``
saves the raw matrix, so a saved operator reruns as the generated one.

One driver runs the four experiment subcommands (``mismatch-grid``,
``dim-scan``, ``lasso-solve``, ``alpha-tune``).  It reads the config,
builds the operator once and times the build, runs the command's body,
stamps the wall time, creates ``--out``, writes the body's one output
file and ``manifest.json`` (which checksums the same operator), and
prints the body's summary lines.  A body does only its
command's own work: it hands the operator to a ``run_*`` function, which
requires it, and returns its output file's name and writer, its summary
lines and its manifest fields (bound checks, solver totals).

An operator is factored once per machine and thread setting, not once per
command: :func:`build_operator` builds a raw matrix with the singular system
that the SVD cache, ``$XDG_CACHE_HOME/regbench/`` (by default
``~/.cache/regbench/``), holds for it, and factors the matrix only when
there is none.  A paper-scale Radon entry (1230 x 784) is 12.6 MB, and
nothing is evicted; deleting the directory is always safe.  README.md's
"The SVD cache" states the rest: an entry's format, what its key
(:func:`svd_cache_key`) covers and what becomes of a bad entry.  The
manifest's ``svd_source`` says where the SVD came from.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import (
    coordinate_basis,
    estimate_source_constant,
    load_idx_images,
    noise_block,
    pca_basis,
    phantom_images,
    sample_source_data,
    svd_basis,
)
from .dimscan import DimScanResult, scan
from .lasso import (
    AlphaRule,
    alpha_for_delta,
    diff1d,
    grad2d,
    solve_batch,
    solver_totals,
)
from .linop import (
    DenseOperator,
    factorization_fingerprint,
    filtered_errors,
    integration_matrix,
    load_matrix,
    radon_matrix,
    read_svd,
    save_matrix,
    spectral_normalize,
    weighted_norm,
    write_svd,
)
from .tikhonov import optimal_alpha, tikhonov_filter, wc_bound


class ConfigError(ValueError):
    """Invalid configuration file or command line."""


def _check(ok, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _check_levels(levels) -> None:
    _check(all(0.0 <= d < math.inf for d in levels), "noise levels must be finite and nonnegative")


DEFAULT_LEVELS = (0.001, 0.01, 0.1, 0.2, 0.5, 1.0)
RHO_WORDS = ("estimate", "per-sample")

# Column budget of one LASSO solve_batch call: whole samples are batched up
# to about one default-grid sample (6 x 6 cells x 100 realizations = 3,600).
LASSO_BATCH_COLUMNS = 4096


# each spec is a section of the config file; see load_config
@dataclass(frozen=True)
class OperatorSpec:
    kind: str = "integration"
    n: int = 50
    side: int = 28
    angles: int = 30
    offsets: int = 41
    path: str | None = None

    def __post_init__(self):
        _check(self.kind in ("integration", "radon", "file"), f"unknown operator kind {self.kind!r}")
        _check(self.kind != "file" or self.path, "operator kind 'file' needs a path")
        _check(min(self.n, self.angles, self.offsets) >= 1 and self.side >= 2,
               "operator sizes need n, angles and offsets >= 1 and side >= 2")


@dataclass(frozen=True)
class DataSpec:
    kind: str = "source"
    count: int = 50
    n_dim: int = 8
    indices: tuple[int, ...] | None = None
    path: str | None = None

    def __post_init__(self):
        _check(self.kind in ("source", "subspace", "idx", "phantom"), f"unknown data kind {self.kind!r}")
        _check(self.count >= 1, "need at least one sample")
        _check(self.n_dim >= 1, "n_dim must be at least 1")
        _check(self.indices is None or (len(self.indices) >= 1
                                        and len(set(self.indices)) == len(self.indices)
                                        and min(self.indices) >= 0),
               "indices must be nonempty, distinct and nonnegative")
        _check(self.kind != "idx" or self.path, "data kind 'idx' needs a path")


@dataclass(frozen=True)
class GridSpec:
    delta_bar: tuple[float, ...] = DEFAULT_LEVELS
    delta: tuple[float, ...] = DEFAULT_LEVELS
    realizations: int = 100

    def __post_init__(self):
        _check(self.delta_bar and self.delta, "noise-level grids must be nonempty")
        _check(self.realizations >= 1, "need at least one realization")
        _check_levels(self.delta_bar + self.delta)


@dataclass(frozen=True)
class MethodSpec:
    kind: str = "tikhonov"
    rho: str | float = "estimate"
    alpha: float | None = None
    m_grid: tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14, 16)
    basis: str = "svd"
    exact_truth: bool = False
    alpha_ref: float = 0.03
    delta_ref: float = 0.01
    transform: str = "identity"
    alpha_rule: str | None = None

    def __post_init__(self):
        _check(self.kind in ("tikhonov", "truncated", "lasso"),
               f"unknown method kind {self.kind!r}")
        _check(self.basis in ("svd", "coordinate", "pca"), f"unknown basis kind {self.basis!r}")
        _check(self.transform in ("identity", "diff1d", "grad2d"),
               f"unknown transform kind {self.transform!r}")
        _check(self.rho in RHO_WORDS or not isinstance(self.rho, str) and self.rho > 0,
               f"bad rho value {self.rho!r}")
        _check(all(m >= 0 for m in self.m_grid), "m_grid entries must be nonnegative")
        _check(self.m_grid and all(a < b for a, b in zip(self.m_grid, self.m_grid[1:])),
               "m_grid must be nonempty and strictly increasing")
        _check(self.alpha is None or 0 < self.alpha < math.inf, "alpha must be positive and finite")
        _check(0 < self.alpha_ref < math.inf, "alpha_ref must be positive and finite")
        _check(0.0 <= self.delta_ref < math.inf, "delta_ref must be finite and nonnegative")


@dataclass(frozen=True)
class ExperimentConfig:
    operator: OperatorSpec = OperatorSpec()
    data: DataSpec = DataSpec()
    grid: GridSpec = GridSpec()
    method: MethodSpec = MethodSpec()
    seed: int = 0


def _numbers(cast, text: str) -> tuple:
    try:
        return tuple(cast(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"cannot parse {cast.__name__} list {text!r}") from exc


_ints, _floats = partial(_numbers, int), partial(_numbers, float)


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"{text!r} is not a boolean word") from None


# value parser per field annotation; "T | None" parses as T
_PARSERS = {"str": str, "int": int, "float": float, "bool": _boolean,
            "str | float": lambda text: text if text in RHO_WORDS else float(text),
            "tuple[int, ...]": _ints, "tuple[float, ...]": _floats}


def load_config(path, seed: int = 0) -> ExperimentConfig:
    """Read an experiment config file; the reference for its format.

    The file is INI-style, read by :mod:`configparser` without ``%``
    interpolation.  Each section is a spec field of
    :class:`ExperimentConfig` (``[operator]``, ``[data]``, ``[grid]``,
    ``[method]``) and each key a field of that spec; an absent section or
    key, or an empty value (``delta_bar =``), keeps the field's default.
    Values parse by the field's annotation: lists (``m_grid``, ``indices``,
    ``delta_bar``, ``delta``) are numbers separated by spaces, commas or
    both; ``exact_truth`` takes the boolean words ``1 yes true on`` and
    ``0 no false off`` in any case; ``rho`` is ``estimate``,
    ``per-sample`` or a number.  Each spec checks its values in
    ``__post_init__``.

    Raises :class:`ConfigError`, which the CLI reports as
    ``config error: ...`` with exit status 1, for an unreadable or
    non-UTF-8 file, an unknown section (``[DEFAULT]`` included) or key, a
    value that does not parse, and a value its spec rejects.
    """
    parser = configparser.ConfigParser(interpolation=None, default_section=None)
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    sections = {f.name: type(f.default) for f in fields(ExperimentConfig) if is_dataclass(f.default)}
    unknown = set(parser.sections()) - set(sections)
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    specs = {}
    for name, spec in sections.items():
        types = {f.name: f.type.removesuffix(" | None") for f in fields(spec)}
        values = {}
        for key, text in parser.items(name) if parser.has_section(name) else ():
            if key not in types:
                raise ConfigError(f"{path}: unknown key {key!r} in section [{name}]")
            if text:
                try:
                    values[key] = _PARSERS[types[key]](text)
                except ValueError as exc:
                    raise ConfigError(f"{path}: [{name}] {key}: {exc}") from exc
        specs[name] = spec(**values)
    return ExperimentConfig(**specs, seed=seed)


def _read(loader, path):
    """``loader(path)``; a malformed file is a config error naming it."""
    try:
        return loader(path)
    except ValueError as exc:
        raise ConfigError(str(exc) if str(path) in str(exc) else f"{path}: {exc}") from exc


def svd_cache_key(a: np.ndarray) -> str:
    """sha256 over the matrix (shape and bytes) and the rest of what the bits
    of its factorization depend on (:func:`~regbench.linop.factorization_fingerprint`)."""
    digest = hashlib.sha256(repr((a.shape, *factorization_fingerprint())).encode())
    digest.update(np.ascontiguousarray(a, dtype="<f8"))
    return digest.hexdigest()


def _raw_operator(spec: OperatorSpec) -> DenseOperator:
    """The configured matrix as generated or stored, before
    :func:`~regbench.linop.spectral_normalize`, built with its SVD from the
    cache (``svd_source`` ``"cache"``), or factored and stored there.  An
    entry that :func:`~regbench.linop.read_svd` rejects is factored again
    and overwritten, with one line on stderr; an unreadable or unwritable
    cache is passed over."""
    if spec.kind == "file":
        a = _read(load_matrix, spec.path)
        # an empty matrix is DenseOperator's to reject
        _check(a.any() or not a.size, f"{spec.path}: cannot normalize the zero operator")
    else:
        a = (integration_matrix(spec.n) if spec.kind == "integration"
             else radon_matrix(spec.side, spec.angles, spec.offsets))
    cache = Path(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"))
    path = cache / "regbench" / f"{svd_cache_key(a)}.svd"
    try:
        return DenseOperator(a, read_svd(path, a), "cache")
    except OSError:
        pass
    except ValueError as exc:
        print(f"replacing a bad SVD cache entry: {exc}", file=sys.stderr)
    op = DenseOperator(a)
    partial_path = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_svd(partial_path, op.svd)
        os.replace(partial_path, path)
    except OSError:
        with contextlib.suppress(OSError):
            partial_path.unlink()
    return op


def build_operator(spec: OperatorSpec) -> DenseOperator:
    """:func:`_raw_operator` divided by its norm, so ``sigma_1`` is exactly
    1.0 for every kind."""
    return spectral_normalize(_raw_operator(spec))


def build_dataset(op: DenseOperator, spec: DataSpec, seed: int):
    """Truths of the configured data protocol and their source constants.

    Returns ``(truths, rho)``: the samples as the columns of a C-contiguous
    float ``(n, count)`` matrix, and for the generated protocols (``source``,
    ``subspace``) each sample's source constant as a ``(count,)`` array;
    ``rho`` is ``None`` for images (``idx``, ``phantom``).  ``idx`` reads
    the IDX file at ``path``, and a missing file is a config error;
    ``phantom`` generates synthetic images and needs no file.
    """
    if spec.kind == "source":
        return sample_source_data(op, spec.count, seed)
    if spec.kind == "subspace":
        key, indices = ("n_dim", range(spec.n_dim)) if spec.indices is None else ("indices", spec.indices)
        _check(max(indices) < min(op.shape),
               f"[data] {key} needs modes beyond the operator's {min(op.shape)} singular modes")
        return sample_source_data(op, spec.count, seed, indices)
    if spec.kind == "idx":
        _check(Path(spec.path).is_file(), f"[data] path {spec.path}: no such IDX file "
               "(kind = phantom needs no file)")
        images = _read(partial(load_idx_images, count=spec.count), spec.path)
        if len(images) < spec.count:
            raise ConfigError(f"{spec.path}: fewer than {spec.count} images")
        if images.shape[1] != op.n:
            raise ConfigError(f"{spec.path}: image size {images.shape[1]} != operator width {op.n}")
    else:
        side = int(round(op.n ** 0.5))
        if side * side != op.n:
            raise ConfigError(f"{spec.kind} data needs a square image operator")
        images = phantom_images(side, spec.count, seed)
    return np.ascontiguousarray(images.T), None


@dataclass(frozen=True)
class ErrorGrid:
    """Mean errors, relative errors, alphas and the worst-case overlay on
    the (delta_bar, delta) grid, plus the bound-check and solver totals of
    the manifest."""

    delta_bar: tuple[float, ...]
    delta: tuple[float, ...]
    mean_errors: np.ndarray = field(repr=False)
    relative_errors: np.ndarray = field(repr=False)
    wc_overlay: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    rho_overlay: float
    violations: int
    checked: int
    min_margin: float
    solver: dict | None = None


def run_mismatch_grid(config: ExperimentConfig, op: DenseOperator) -> ErrorGrid:
    """Mean reconstruction errors when the rule is tuned at one noise level
    and applied at another, with the analytic worst-case overlay; ``op`` is
    the configured operator (:func:`build_operator`), whose norm is 1, as
    the rule and the bound presume.

    The source constant is either estimated from the data through the
    adjoint pseudoinverse, supplied as a number, or taken per sample from
    the generated data (``rho = per-sample``).  A sample whose source
    constant is below the tuning level takes the zero reconstruction, whose
    rule alpha is ``inf``; the CSV's alpha is the overlay's.

    Every cell works in spectral coefficients: the errors of sample x under
    the filter :func:`~regbench.tikhonov.tikhonov_filter` are one call of
    :func:`~regbench.linop.filtered_errors` per (sample, tuning level), with
    the part of x outside the operator's row space as its out-of-span term.

    On generated data every realization is checked against the worst-case
    bound at the alpha the rule chose, its realized noise level and the
    sample's own source constant (not the rule's), times ``sqrt(m / n)``:
    errors are weighted per ``sqrt(n)``, while noise and the source
    constant, which live in data space, are weighted per ``sqrt(m)``.  The
    CSV's worst-case overlay carries the same factor.
    """
    if config.method.kind not in ("tikhonov", "lasso"):
        raise ConfigError(f"mismatch grid supports tikhonov or lasso, not {config.method.kind!r}")
    if config.method.kind == "lasso":
        return _run_lasso_grid(config, op)
    # the rule's alpha = delta_bar / rho is 0 at delta_bar = 0; the LASSO
    # rule clamps to its first knot instead
    if min(config.grid.delta_bar) <= 0:
        raise ConfigError("delta_bar must be positive for the tikhonov grid")
    svd = op.svd
    x_mat, sample_rho = build_dataset(op, config.data, config.seed)
    count = x_mat.shape[1]

    rho_spec = config.method.rho
    if rho_spec == "per-sample":
        if sample_rho is None:
            raise ConfigError("rho = per-sample needs generated source data")
        rho_values = sample_rho
        rho_overlay = float(np.mean(rho_values))
    else:
        rho_overlay = (float(estimate_source_constant(op, x_mat).mean()) if rho_spec == "estimate"
                       else float(rho_spec))
        rho_values = [rho_overlay] * count

    bars, deltas = config.grid.delta_bar, np.asarray(config.grid.delta)
    realizations = config.grid.realizations
    s, u, v = svd.sigma, svd.left_vectors, svd.right_vectors
    root_m, scale = np.sqrt(op.m), math.sqrt(op.m / op.n)
    x_coeff = v.T @ x_mat
    y_coeff = u.T @ (op.entries @ x_mat)
    outside = np.sum((x_mat - v @ x_coeff) ** 2, axis=0)

    err_sum = np.zeros((len(bars), len(deltas)))
    violations = checked = 0
    min_margin = np.inf
    for si in range(count):
        block = noise_block(config.seed, si, realizations, op.m)
        noise_coeff = u.T @ block.T
        level = np.linalg.norm(block, axis=1) / root_m
        realized = deltas[:, None] * level  # per (delta, realization)
        for bi, delta_bar in enumerate(bars):
            rule_alpha = optimal_alpha(delta_bar, rho_values[si])
            # the zero reconstruction's error is ||x|| itself; the coefficient
            # split of the kernel would round it differently
            if rule_alpha == math.inf:
                errors = np.full(realized.shape, weighted_norm(x_mat[:, si]))
            else:
                errors = filtered_errors(tikhonov_filter(s, rule_alpha), y_coeff[:, si],
                                         noise_coeff, deltas, x_coeff[:, si], outside[si], op.n)
            err_sum[bi] += errors.sum(axis=1)
            if sample_rho is not None:
                margin = scale * wc_bound(rule_alpha, realized, sample_rho[si]) - errors
                violations += int((margin < -1e-9).sum())
                checked += margin.size
                min_margin = min(min_margin, float(margin.min()))

    return _assemble_grid(config, err_sum / (count * realizations), rho_overlay, wc_scale=scale,
                          violations=violations, checked=checked, min_margin=min_margin)


@dataclass(frozen=True)
class LassoScores:
    """Per-problem results of :func:`solve_lasso_samples`, each array
    indexed (sample, alpha, data column), where data column
    ``d * realizations + r`` is realization r at level ``deltas[d]``, and
    the :func:`~regbench.lasso.solver_totals` of the distinct problems
    solved."""

    errors: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    solver: dict


def solve_lasso_samples(op: DenseOperator, w: np.ndarray, truths: np.ndarray, alphas,
                        deltas, realizations: int, seed: int) -> LassoScores:
    """Solve and score the LASSO problem of every (sample, alpha, delta,
    realization); the one data layout and scoring path of ``alpha-tune``
    and the sparse grid.

    ``truths`` holds one sample per column.  Sample s's data columns are
    ``A @ truths[:, s] + delta * noise_block(seed, s, realizations, m)[r]``,
    with the clean data ``lasso-solve`` computes, ordered
    (delta, realization); they are built when the sample's chunk is solved,
    so only one chunk's data is held at a time.  Each distinct alpha is
    solved once, and its results fill every position of ``alphas`` that
    holds it.  The distinct problems of consecutive whole samples share one
    :func:`~regbench.lasso.solve_batch` call of at most
    ``LASSO_BATCH_COLUMNS`` columns (one sample when a sample alone is
    larger), ordered (sample, alpha, data column).  A problem's error,
    ``||x - truth|| / sqrt(n)``, sums its column contiguously, as
    ``lasso-solve`` does, so equal solutions score equal bits.  Of each
    call's solution only the vectors scored or totalled here are kept.
    """
    distinct, index = np.unique(np.asarray(alphas, dtype=float), return_inverse=True)
    deltas = np.asarray(deltas, dtype=float)
    count, columns_per_sample = truths.shape[1], deltas.size * realizations
    width = distinct.size * columns_per_sample
    kept = ("converged", "iterations", "residual", "certified", "kkt_residual")
    columns = {name: [] for name in ("errors",) + kept}
    step = max(1, LASSO_BATCH_COLUMNS // width)
    for first in range(0, count, step):
        end = min(first + step, count)
        data = [(op.entries @ truths[:, si] + deltas[:, None, None]
                 * noise_block(seed, si, realizations, op.m)).reshape(-1, op.m).T
                for si in range(first, end)]
        sol = solve_batch(op, w, np.hstack([np.tile(d, distinct.size) for d in data]),
                          np.tile(np.repeat(distinct, columns_per_sample), len(data)))
        diff = np.subtract(sol.x, np.repeat(truths[:, first:end], width, axis=1), order="F")
        columns["errors"].append(np.linalg.norm(diff, axis=0) / np.sqrt(op.n))
        for name in kept:
            columns[name].append(getattr(sol, name))
        del sol, diff
    columns = {name: np.concatenate(parts) for name, parts in columns.items()}

    def per_problem(name):
        return columns[name].reshape(count, distinct.size, -1)[:, index]

    return LassoScores(errors=per_problem("errors"), converged=per_problem("converged"),
                       iterations=per_problem("iterations"), residual=per_problem("residual"),
                       solver=solver_totals(columns["iterations"], columns["certified"],
                                            columns["converged"], columns["kkt_residual"]))


def _run_lasso_grid(config: ExperimentConfig, op: DenseOperator) -> ErrorGrid:
    """Mismatch grid for the sparse method; alpha comes from the tuned rule
    evaluated at the training noise level.  The noise blocks are the
    Tikhonov grid's, and :func:`solve_lasso_samples` builds the data.

    Bars that the rule maps to the same alpha pose the same problems, and
    :func:`solve_lasso_samples` solves each distinct (alpha, delta,
    realization) problem of a sample once, whichever bars share it.  An
    ``alpha =`` config, or a rule whose bars all lie in one constant tail,
    solves one bar's worth.  A converged solve is certified optimal or has
    its relative KKT residual within the solver's tolerance, so a cell's
    mean is not biased by solves dropped for slow convergence; a cell
    averages its converged solves and reads NaN only when none of them
    converged.  ``solver`` holds the :func:`~regbench.lasso.solver_totals`
    that :func:`solve_lasso_samples` takes over the distinct problems:
    ``solves`` counts each problem once, however many bars share it.
    """
    x_mat, _ = build_dataset(op, config.data, config.seed)
    count = x_mat.shape[1]
    w = _build_transform(config.method.transform, op)
    if config.method.alpha_rule:
        rule = _read(_read_alpha_rule, config.method.alpha_rule)
    elif config.method.alpha is not None:
        rule = AlphaRule(((1.0, config.method.alpha),))
    else:
        raise ConfigError("lasso method needs alpha or alpha_rule")

    bars, deltas = config.grid.delta_bar, config.grid.delta
    realizations = config.grid.realizations
    alphas = np.array([alpha_for_delta(rule, delta_bar) for delta_bar in bars])
    scores = solve_lasso_samples(op, w, x_mat, alphas, deltas, realizations, config.seed)
    shape = (count, len(bars), len(deltas), realizations)
    err_sum, solved = np.zeros((len(bars), len(deltas))), np.zeros((len(bars), len(deltas)))
    for sample_errors, sample_converged in zip(scores.errors.reshape(shape),
                                               scores.converged.reshape(shape)):
        err_sum += np.where(sample_converged, sample_errors, 0.0).sum(axis=2)
        solved += sample_converged.sum(axis=2)

    rho_overlay = float(estimate_source_constant(op, x_mat).mean())
    with np.errstate(invalid="ignore"):
        mean_errors = err_sum / solved
    return _assemble_grid(config, mean_errors, rho_overlay,
                          alphas=np.tile(alphas[:, None], (1, len(deltas))), solver=scores.solver)


def _assemble_grid(config, mean_errors, rho_overlay, alphas=None, wc_scale=1.0,
                   violations=0, checked=0, min_margin=np.inf, solver=None) -> ErrorGrid:
    """Relative errors against the diagonal cell plus the overlays.

    Without ``alphas`` (the Tikhonov grid) the rule's alphas and the
    worst-case overlay, times ``wc_scale``, come from ``rho_overlay``; with
    them (the sparse grid) the overlay, which does not bound the sparse
    method, is NaN.
    """
    bars, deltas = config.grid.delta_bar, config.grid.delta
    shape = mean_errors.shape
    relative = np.full(shape, np.nan)
    for di, delta in enumerate(deltas):
        diagonal = np.flatnonzero(np.isclose(bars, delta, rtol=1e-9, atol=0.0))
        if diagonal.size and mean_errors[diagonal[0], di] > 0:
            relative[:, di] = mean_errors[:, di] / mean_errors[diagonal[0], di]
    if alphas is not None:
        wc_overlay = np.full(shape, np.nan)
    else:
        rule = [optimal_alpha(delta_bar, rho_overlay) for delta_bar in bars]
        alphas = np.tile(np.array(rule)[:, None], (1, len(deltas)))
        wc_overlay = wc_scale * np.array([wc_bound(alpha, np.asarray(deltas), rho_overlay)
                                          for alpha in rule])
    return ErrorGrid(delta_bar=bars, delta=deltas, mean_errors=mean_errors,
                     relative_errors=relative, wc_overlay=wc_overlay,
                     alphas=alphas, rho_overlay=rho_overlay,
                     violations=violations, checked=checked,
                     min_margin=float(min_margin), solver=solver)


def _build_transform(kind: str, op: DenseOperator) -> np.ndarray:
    """The configured sparsifying matrix W, as wide as the operator."""
    if kind == "identity":
        return np.eye(op.n)
    _check(op.n >= 2, f"{kind} transform needs an operator at least two wide")
    if kind == "diff1d":
        return diff1d(op.n)
    side = int(round(op.n ** 0.5))
    if side * side != op.n:
        raise ConfigError("grad2d transform needs a square image operator")
    return grad2d(side)


def run_dim_experiment(config: ExperimentConfig, op: DenseOperator) -> DimScanResult:
    """Dimension scan of the first configured sample over the noise grid;
    ``op`` is the configured operator (:func:`build_operator`)."""
    if config.method.kind != "truncated":
        raise ConfigError("dim scan needs a truncated method")
    if config.method.alpha is None:
        raise ConfigError("dim scan needs an explicit alpha")
    truths, _ = build_dataset(op, config.data, config.seed)
    if config.method.basis == "svd":
        basis = svd_basis(op)
    elif config.method.basis == "coordinate":
        basis = coordinate_basis(op.n, config.seed)
    else:
        basis = pca_basis(truths.T, min(truths.shape))
    rank = (", the numerical rank of the centred samples"
            if config.method.basis == "pca" else "")
    _check(max(config.method.m_grid) <= basis.size,
           f"m_grid level {max(config.method.m_grid)} exceeds the basis size {basis.size}{rank}")
    return scan(op, basis, truths[:, 0].copy(), config)


def _fmt(value) -> str:
    """Shortest round-trip decimal; inf and nan spelled out."""
    return repr(float(value))


def _write_csv(path, header: str, rows) -> None:
    """A CSV file of ``header`` and one line per row: floats through
    :func:`_fmt`, anything else through ``str``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _read_alpha_rule(path) -> AlphaRule:
    """The rule as ``alpha-tune`` writes it: the header ``delta,alpha``,
    then one knot per line; blank lines are skipped."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "delta,alpha":
            raise ValueError(f"{path}: unexpected header {header!r}")
        rows = [line.split(",") for line in fh if line.strip()]
    return AlphaRule(tuple((float(d), float(a)) for d, a in rows))


def emit_mismatch_csv(grid: ErrorGrid, path) -> None:
    _write_csv(path, "delta_bar,delta,mean_error,relative_error,wc_bound,alpha",
               ((delta_bar, delta, grid.mean_errors[bi, di], grid.relative_errors[bi, di],
                 grid.wc_overlay[bi, di], grid.alphas[bi, di])
                for bi, delta_bar in enumerate(grid.delta_bar)
                for di, delta in enumerate(grid.delta)))


def emit_dimscan_csv(result: DimScanResult, basis_kind: str, path) -> None:
    _write_csv(path, "basis,M,delta,mean_error",
               ((basis_kind, m, delta, result.mean_errors[mi, di])
                for mi, m in enumerate(result.m_grid)
                for di, delta in enumerate(result.delta_list)))


def emit_wc_curve_csv(alphas, bounds, path) -> None:
    _write_csv(path, "alpha,bound", zip(alphas, bounds))


NOISE_SCHEME = "crn-v2"


@dataclass(frozen=True)
class RunManifest:
    """Run provenance, with the numpy version that computed the numbers.
    ``wall_time_s`` is the run up to writing its outputs, and
    ``operator_s`` the part of it spent in :func:`build_operator`: the
    build, the SVD cache lookup and, on a miss, the factorization.
    ``svd_source`` says where the operator's SVD came from, which is always
    one of ``"computed"`` (factored in this run) and ``"cache"`` (the SVD
    cache).  The bound-check totals are those of a Tikhonov mismatch grid
    and stay ``None`` for other commands; ``min_margin`` is also ``None`` when nothing was
    checked.  ``solver`` holds the LASSO solver totals of the
    LASSO grid, ``alpha-tune`` and ``lasso-solve``
    (:func:`~regbench.lasso.solver_totals`: solves, certified, failures,
    median and max iterations, max KKT residual) and is ``None``
    otherwise.  ``peak_rss_mb`` is the process's peak resident set size in
    MiB when the manifest was made (``getrusage``'s ``ru_maxrss``), ``None``
    where the ``resource`` module is missing."""

    master_seed: int
    config_hash: str
    operator_checksum: str
    tool_version: str
    numpy_version: str
    wall_time_s: float
    operator_s: float
    svd_source: str
    peak_rss_mb: float | None
    noise_scheme: str = NOISE_SCHEME
    checked: int | None = None
    violations: int | None = None
    min_margin: float | None = None
    solver: dict | None = None

    def write(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def config_hash(config: ExperimentConfig) -> str:
    """sha256 of the config."""
    payload = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def operator_checksum(op: DenseOperator) -> str:
    """sha256 of the entries' bytes, hashed in place (they are C-contiguous)."""
    return hashlib.sha256(op.entries).hexdigest()


def peak_rss_mb() -> float | None:
    """This process's peak resident set size so far, in MiB (``ru_maxrss``
    counts bytes on macOS, KiB elsewhere); ``None`` without ``resource``.
    ``resource`` is imported here, after the work, not with the module,
    where it raised the peak of every command by about 0.15 MB."""
    try:
        import resource
    except ImportError:  # not on Windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2 ** 20 if sys.platform == "darwin" else 2 ** 10)


def make_manifest(config: ExperimentConfig, op: DenseOperator, wall_time_s: float,
                  operator_s: float, **checks) -> RunManifest:
    """The run's manifest; ``checks`` are the command's bound-check and
    solver fields of :class:`RunManifest` (``checked``, ``violations``,
    ``min_margin``, ``solver``)."""
    return RunManifest(master_seed=config.seed, config_hash=config_hash(config),
                       operator_checksum=operator_checksum(op),
                       tool_version=__version__, numpy_version=np.__version__,
                       wall_time_s=wall_time_s, operator_s=operator_s,
                       svd_source=op.svd_source, peak_rss_mb=peak_rss_mb(), **checks)


# ---------------------------------------------------------------------------
# CLI

def _shared_flags() -> argparse.ArgumentParser:
    # subparsers carry the global flags with SUPPRESS defaults so a flag
    # placed before the subcommand is not clobbered by a subparser default
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="master seed")
    p.add_argument("--config", type=str, default=argparse.SUPPRESS, help="config file")
    p.add_argument("--out", type=str, default=argparse.SUPPRESS, help="output directory")
    return p


def _build_parser() -> argparse.ArgumentParser:
    shared = _shared_flags()
    parser = argparse.ArgumentParser(
        prog="regbench",
        description="Regularization bench: worst-case curves, mismatch grids, "
                    "dimension scans, and sparse reconstruction.",
        epilog="Each operator's singular system is stored only in the SVD cache, $XDG_CACHE_HOME/"
               "regbench/ (default ~/.cache/regbench/). A Radon entry at paper scale is about "
               "12.6 MB, and nothing is evicted; deleting the directory is always safe. "
               "README.md (\"The SVD cache\") states what the key covers.")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--config", type=str, default=None, help="config file")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("operator", parents=[shared],
                   help="save the configured operator's raw matrix to operator.rgb")

    wc = sub.add_parser("wc-curve", parents=[shared],
                        help="closed-form worst-case curve over alpha")
    wc.add_argument("--rho", type=float, required=True)
    wc.add_argument("--delta", type=float, required=True)
    wc.add_argument("--points", type=int, default=200)

    sub.add_parser("mismatch-grid", parents=[shared],
                   help="error grid over (delta_bar, delta)")
    sub.add_parser("dim-scan", parents=[shared],
                   help="intrinsic-dimension scan")

    ls = sub.add_parser("lasso-solve", parents=[shared],
                        help="solve one sparse reconstruction")
    ls.add_argument("--delta", type=float, default=0.01)
    ls.add_argument("--alpha", type=float, default=None)
    ls.add_argument("--sample", type=int, default=0)

    at = sub.add_parser("alpha-tune", parents=[shared],
                        help="grid-search alphas into a rule CSV")
    at.add_argument("--delta-grid", type=str, default="0.001 0.01 0.1")
    at.add_argument("--alpha-grid", type=str, default="0.001 0.01 0.1 1")
    at.add_argument("--tuples", type=int, default=3)
    return parser


def _require_config(args) -> ExperimentConfig:
    if not args.config:
        raise ConfigError("this subcommand needs --config")
    if not Path(args.config).exists():
        raise ConfigError(f"config file {args.config} not found")
    _check(args.seed >= 0, f"--seed must be nonnegative, not {args.seed}")
    return load_config(args.config, seed=args.seed)


def _cmd_operator(args) -> int:
    config = _require_config(args)
    op = _raw_operator(config.operator)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "operator.rgb"
    save_matrix(target, op.entries)
    print(f"operator kind={config.operator.kind} m={op.m} n={op.n} "
          f"checksum={operator_checksum(spectral_normalize(op))}")
    print(f"saved {target}")
    return 0


def _cmd_wc_curve(args) -> int:
    _check(0 < args.rho < math.inf and 0 <= args.delta < math.inf,
           "wc-curve needs --rho > 0 and --delta >= 0, both finite")
    _check(args.points >= 1, "wc-curve needs --points >= 1")
    rule_alpha = optimal_alpha(args.delta, args.rho)
    grid = list(np.geomspace(1e-4, 1.0, args.points))
    # noise-free data gives the rule's alpha 0, where the bound is undefined
    if 0 < rule_alpha < math.inf:
        grid.append(rule_alpha)
    alphas = sorted(set(grid))
    bounds = [wc_bound(a, args.delta, args.rho) for a in alphas]
    path = Path(args.out) / "wc_curve.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    emit_wc_curve_csv(alphas, bounds, path)
    print(path.read_text(), end="")
    print(f"min_alpha={_fmt(alphas[int(np.argmin(bounds))])}")
    return 0


def _run_experiment(body, args) -> int:
    """The shared steps of every experiment subcommand (module docstring)
    around ``body(args, config, op)``, which returns ``(file name,
    writer(path), summary lines, manifest fields)``."""
    config = _require_config(args)
    start = time.perf_counter()
    op = build_operator(config.operator)
    operator_s = time.perf_counter() - start
    name, write, summary, checks = body(args, config, op)
    wall = time.perf_counter() - start
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write(out / name)
    make_manifest(config, op, wall, operator_s, **checks).write(out / "manifest.json")
    print(*summary, sep="\n")
    return 0


def _mismatch_grid(args, config: ExperimentConfig, op: DenseOperator):
    grid = run_mismatch_grid(config, op)
    summary = [f"wrote {Path(args.out) / 'mismatch_grid.csv'} (rho={_fmt(grid.rho_overlay)})"]
    if grid.checked:
        summary.append(f"bound checks: {grid.checked - grid.violations}/{grid.checked} "
                       f"within bound, min margin {grid.min_margin:.3e}")
    if grid.solver:
        summary.append(f"solver: {grid.solver['failures']}/{grid.solver['solves']} solves "
                       f"did not converge")
    checks = dict(checked=grid.checked, violations=grid.violations,
                  min_margin=grid.min_margin if grid.checked else None, solver=grid.solver)
    return "mismatch_grid.csv", partial(emit_mismatch_csv, grid), summary, checks


def _dim_scan(args, config: ExperimentConfig, op: DenseOperator):
    result = run_dim_experiment(config, op)
    return ("dim_scan.csv", partial(emit_dimscan_csv, result, config.method.basis),
            [f"estimated_N={result.estimated_n}"], {})


def _lasso_solve(args, config: ExperimentConfig, op: DenseOperator):
    truths, _ = build_dataset(op, config.data, config.seed)
    if not 0 <= args.sample < truths.shape[1]:
        raise ConfigError(f"sample index {args.sample} out of range")
    w = _build_transform(config.method.transform, op)
    _check_levels((args.delta,))
    alpha = args.alpha if args.alpha is not None else config.method.alpha
    if alpha is None:
        raise ConfigError("lasso-solve needs --alpha or a method alpha")
    _check(0 < alpha < math.inf, f"--alpha must be positive and finite, not {alpha!r}")
    x_true = truths[:, args.sample]
    y = op.entries @ x_true + args.delta * noise_block(config.seed, args.sample, 1, op.m)[0]
    sol = solve_batch(op, w, y[:, None], [alpha])
    iterations = int(sol.iterations[0])
    if not sol.converged[0]:
        raise RuntimeError(f"no convergence after {iterations} iterations "
                           f"(residual {sol.residual[0]:.3e})")
    x = sol.x[:, 0]
    r = op.entries @ x - y
    objective = float(r @ r + alpha * np.abs(w @ x).sum())
    summary = [f"objective={_fmt(objective)} iterations={iterations} "
               f"kkt_residual={sol.kkt_residual[0]:.3e} "
               f"error={_fmt(np.linalg.norm(x - x_true, axis=0) / np.sqrt(op.n))}"]
    solver = solver_totals(sol.iterations, sol.certified, sol.converged, sol.kkt_residual)
    rows = [(args.sample, comp, val) for comp, val in enumerate(x)]
    return ("lasso_solution.csv", partial(_write_csv, header="sample_id,component,value",
                                          rows=rows), summary, dict(solver=solver))


def _alpha_tune(args, config: ExperimentConfig, op: DenseOperator):
    truths, _ = build_dataset(op, config.data, config.seed)
    if not 1 <= args.tuples <= truths.shape[1]:
        raise ConfigError(f"--tuples {args.tuples} outside [1, {truths.shape[1]}]")
    w = _build_transform(config.method.transform, op)
    deltas, grid = sorted(_floats(args.delta_grid)), _floats(args.alpha_grid)
    _check(deltas, "--delta-grid needs at least one level")
    _check_levels(deltas)
    _check(all(a < b for a, b in zip(deltas, deltas[1:])), "--delta-grid repeats a level")
    _check(grid and all(0 < a < math.inf for a in grid),
           "--alpha-grid needs positive alphas, all finite")
    alphas = list(dict.fromkeys(grid))  # a repeated entry is tried once, at its first place
    # one realization: tuple i at level delta sees lasso-solve's data for
    # --sample i --delta delta
    scores = solve_lasso_samples(op, w, truths[:, :args.tuples], alphas, deltas, 1, config.seed)
    # per level, the first alpha of the smallest mean error among the cells
    # whose solves all converged; each failed cell is one line on stderr,
    # printed before a level with no converged cell stops the run
    knots = []
    for di, delta in enumerate(deltas):
        cells = []
        for ai, alpha in enumerate(alphas):
            failed = np.flatnonzero(~scores.converged[:, ai, di])
            if failed.size:
                first = failed[0]
                print(f"delta={_fmt(delta)} alpha={_fmt(alpha)}: no convergence after "
                      f"{scores.iterations[first, ai, di]} iterations "
                      f"(residual {scores.residual[first, ai, di]:.3e})", file=sys.stderr)
            else:
                cells.append((alpha, float(np.mean(scores.errors[:, ai, di]))))
        if not cells:
            raise RuntimeError(f"every grid cell failed to converge at delta={_fmt(delta)}")
        knots.append((delta, min(cells, key=lambda cell: cell[1])[0]))
    summary = [f"delta={_fmt(delta)} alpha={_fmt(alpha)}" for delta, alpha in knots]
    summary.append(f"wrote {Path(args.out) / 'alpha_rule.csv'}")
    return ("alpha_rule.csv", partial(_write_csv, header="delta,alpha", rows=knots), summary,
            dict(solver=scores.solver))


_COMMANDS = {
    "operator": _cmd_operator,
    "wc-curve": _cmd_wc_curve,
    "mismatch-grid": partial(_run_experiment, _mismatch_grid),
    "dim-scan": partial(_run_experiment, _dim_scan),
    "lasso-solve": partial(_run_experiment, _lasso_solve),
    "alpha-tune": partial(_run_experiment, _alpha_tune),
}


def cli_main(argv=None) -> int:
    """Entry point; returns 0 on success, 1 on configuration errors, 2 on
    numerical failures."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
