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
- ``lasso-solve`` uses row 0 of the chosen sample's block.

``alpha-tune`` draws the noise of tuple i at level index d from the stream
``(seed, d, i)``.

Each CLI command builds its operator once (with at most one SVD, see
:func:`~regbench.linop.spectral_normalize`), hands it to the ``run_*``
function and checksums the same operator for the manifest.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
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
    rng_for,
    sample_source_data,
    svd_basis,
)
from .dimscan import DimScanResult, scan
from .lasso import (
    AlphaRule,
    SparsifyingTransform,
    alpha_for_delta,
    grid_search_alphas,
    solve_batch,
    solver_totals,
)
from .linop import (
    DenseOperator,
    apply,
    build_integration_operator,
    build_radon_operator,
    compute_svd,
    filtered_errors,
    load_operator,
    save_operator,
    weighted_norm,
)
from .tikhonov import ZERO_RECONSTRUCTION, optimal_alpha, wc_bound


class ConfigError(ValueError):
    """Invalid configuration file or command line."""


def _check(ok, message: str) -> None:
    if not ok:
        raise ConfigError(message)


def _check_levels(levels) -> None:
    _check(all(0.0 <= d < math.inf for d in levels), "noise levels must be finite and nonnegative")


DEFAULT_LEVELS = (0.001, 0.01, 0.1, 0.2, 0.5, 1.0)
RHO_WORDS = ("estimate", "per-sample")

# Column budget of one LASSO-grid solve: whole samples are batched up to
# about one default-grid sample (6 x 6 cells x 100 realizations = 3,600).
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
        _check(self.kind in ("tikhonov", "truncated", "subspace", "lasso"),
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
    ``config error: ...`` with exit status 1, for an unreadable file, an
    unknown section (``[DEFAULT]`` included) or key, a value that does not
    parse, and a value its spec rejects.
    """
    parser = configparser.ConfigParser(interpolation=None, default_section=None)
    try:
        parser.read_string(Path(path).read_text())
    except configparser.Error as exc:
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


def build_operator(spec: OperatorSpec) -> DenseOperator:
    if spec.kind == "integration":
        return build_integration_operator(spec.n)
    if spec.kind == "radon":
        return build_radon_operator(spec.side, spec.angles, spec.offsets)
    return _read(load_operator, spec.path)


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
        images = _read(load_idx_images, spec.path)[:spec.count]
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
    """Mean errors, relative errors, and analytic overlays on the
    (delta_bar, delta) grid, plus bound-check diagnostics."""

    delta_bar: tuple[float, ...]
    delta: tuple[float, ...]
    mean_errors: np.ndarray = field(repr=False)
    relative_errors: np.ndarray = field(repr=False)
    wc_overlay: np.ndarray = field(repr=False)
    alphas: np.ndarray = field(repr=False)
    sentinel_fraction: np.ndarray = field(repr=False)
    mean_realized_delta: np.ndarray = field(repr=False)
    rho_overlay: float
    violations: int
    checked: int
    min_margin: float
    solver: dict | None = None


def run_mismatch_grid(config: ExperimentConfig,
                      op: DenseOperator | None = None) -> ErrorGrid:
    """Mean reconstruction errors when the rule is tuned at one noise level
    and applied at another, with the analytic worst-case overlay.

    ``op`` is the configured operator when the caller has already built
    it; otherwise it is built here.

    The source constant is either estimated from the data through the
    adjoint pseudoinverse, supplied as a number, or taken per sample from
    the generated data (``rho = per-sample``).  Cells where the tuning
    level exceeds the source constant use the zero reconstruction and are
    flagged through the sentinel fraction and an ``inf`` alpha in the CSV.

    Every cell works in spectral coefficients: the errors of sample x under
    the filter ``s / (s^2 + alpha)`` are one call of
    :func:`~regbench.linop.filtered_errors` per (sample, tuning level), with
    the part of x outside the operator's row space as its out-of-span term.
    Realized noise levels are checked against the worst-case bound one
    realization at a time on generated data, which has per-sample source
    constants.
    """
    if config.method.kind not in ("tikhonov", "lasso"):
        raise ConfigError(f"mismatch grid supports tikhonov or lasso, not {config.method.kind!r}")
    if op is None:
        op = build_operator(config.operator)
    if config.method.kind == "lasso":
        return _run_lasso_grid(config, op)
    # the rule's alpha = delta_bar / rho is 0 at delta_bar = 0; the LASSO
    # rule clamps to its first knot instead
    if min(config.grid.delta_bar) <= 0:
        raise ConfigError("delta_bar must be positive for the tikhonov grid")
    x_mat, sample_rho = build_dataset(op, config.data, config.seed)
    count = x_mat.shape[1]
    svd = compute_svd(op)

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
    root_m = np.sqrt(op.m)
    x_coeff = v.T @ x_mat
    y_coeff = u.T @ (op.entries @ x_mat)
    outside = np.sum((x_mat - v @ x_coeff) ** 2, axis=0)

    err_sum = np.zeros((len(bars), len(deltas)))
    sentinels = np.zeros((len(bars), 1))
    level_sum = 0.0
    violations = checked = 0
    min_margin = np.inf
    for si in range(count):
        block = noise_block(config.seed, si, realizations, op.m)
        noise_coeff = u.T @ block.T
        level = np.linalg.norm(block, axis=1) / root_m
        level_sum += level.sum()
        realized = deltas[:, None] * level  # per (delta, realization)
        for bi, delta_bar in enumerate(bars):
            rule_alpha = optimal_alpha(delta_bar, rho_values[si])
            if rule_alpha is ZERO_RECONSTRUCTION:
                sentinels[bi] += 1
                errors = np.full(realized.shape, weighted_norm(x_mat[:, si]))
                bounds = np.full(realized.shape, rho_values[si])
            else:
                errors = filtered_errors(s / (s * s + rule_alpha), y_coeff[:, si], noise_coeff,
                                         deltas, x_coeff[:, si], outside[si], op.n)
                bounds = wc_bound(rule_alpha, realized, rho_values[si])
            err_sum[bi] += errors.sum(axis=1)
            if sample_rho is not None:
                margin = bounds - errors
                violations += int((margin < -1e-9).sum())
                checked += margin.size
                min_margin = min(min_margin, float(margin.min()))

    cells = count * realizations
    return _assemble_grid(config, err_sum / cells,
                          np.tile(deltas * level_sum / cells, (len(bars), 1)),
                          np.tile(sentinels / count, (1, len(deltas))), rho_overlay,
                          violations=violations, checked=checked, min_margin=min_margin)


def _run_lasso_grid(config: ExperimentConfig, op: DenseOperator) -> ErrorGrid:
    """Mismatch grid for the sparse method; alpha comes from the tuned rule
    evaluated at the training noise level.  The noise blocks are the
    Tikhonov grid's.

    Bars that the rule maps to the same alpha pose the same problems, so
    each distinct (alpha, delta, realization) problem of a sample is solved
    once and its result is scattered to every such bar.  An ``alpha =``
    config, or a rule whose bars all lie in one constant tail, solves one
    bar's worth.  The distinct problems of consecutive whole samples share
    one :func:`~regbench.lasso.solve_batch` call of at most
    ``LASSO_BATCH_COLUMNS`` columns (one sample when a sample alone is
    larger).  A converged solve is certified optimal or has its relative
    KKT residual within the solver's tolerance, so a cell's mean is not
    biased by solves dropped for slow convergence; a cell averages its
    converged solves and reads NaN only when none of them converged.
    ``solver`` holds :func:`~regbench.lasso.solver_totals` over the distinct
    problems: ``solves`` counts each problem once, however many bars share
    it.
    """
    x_mat, _ = build_dataset(op, config.data, config.seed)
    count = x_mat.shape[1]
    transform = _build_transform(config.method.transform, op)
    if config.method.alpha_rule:
        rule = _read(AlphaRule.from_csv, config.method.alpha_rule)
    elif config.method.alpha is not None:
        rule = AlphaRule(((1.0, config.method.alpha),))
    else:
        raise ConfigError("lasso method needs alpha or alpha_rule")

    y_mat = op.entries @ x_mat
    bars, deltas = config.grid.delta_bar, np.asarray(config.grid.delta)
    realizations = config.grid.realizations
    alphas = np.array([alpha_for_delta(rule, delta_bar) for delta_bar in bars])
    distinct = sorted(set(alphas.tolist()))
    bar_alpha = [distinct.index(alpha) for alpha in alphas.tolist()]
    shape = (len(distinct), len(deltas), realizations)
    column_alphas = np.repeat(distinct, len(deltas) * realizations)  # columns (alpha, delta, r)
    per_call = max(1, LASSO_BATCH_COLUMNS // column_alphas.size)
    err_sum, solved = np.zeros((len(bars), len(deltas))), np.zeros((len(bars), len(deltas)))
    batches = []
    level_sum = 0.0
    for first in range(0, count, per_call):
        chunk = range(first, min(first + per_call, count))
        data = []
        for si in chunk:
            block = noise_block(config.seed, si, realizations, op.m)
            level_sum += np.linalg.norm(block, axis=1).sum() / np.sqrt(op.m)
            noisy = y_mat[:, si] + deltas[:, None, None] * block  # (delta, r, m)
            data.append(np.tile(noisy.reshape(-1, op.m).T, len(distinct)))
        sol = solve_batch(op, transform, np.hstack(data), np.tile(column_alphas, len(chunk)))
        truth = np.repeat(x_mat[:, chunk], column_alphas.size, axis=1)
        errors = (np.linalg.norm(sol.x - truth, axis=0) / np.sqrt(op.n)).reshape((-1,) + shape)
        converged = sol.converged.reshape((-1,) + shape)
        for sample_errors, sample_converged in zip(errors[:, bar_alpha], converged[:, bar_alpha]):
            err_sum += np.where(sample_converged, sample_errors, 0.0).sum(axis=2)
            solved += sample_converged.sum(axis=2)
        batches.append(sol)

    solver = solver_totals(*batches)
    realized = deltas * level_sum / (count * realizations)
    rho_overlay = float(estimate_source_constant(op, x_mat).mean())
    with np.errstate(invalid="ignore"):
        mean_errors = err_sum / solved
    return _assemble_grid(config, mean_errors, np.tile(realized, (len(bars), 1)),
                          np.zeros((len(bars), len(deltas))), rho_overlay,
                          alphas=np.tile(alphas[:, None], (1, len(deltas))), solver=solver)


def _assemble_grid(config, mean_errors, realized, sentinel, rho_overlay, alphas=None,
                   violations=0, checked=0, min_margin=np.inf, solver=None) -> ErrorGrid:
    """Relative errors against the diagonal cell plus the overlays.

    Without ``alphas`` (the Tikhonov grid) the rule's alphas and the
    worst-case overlay come from ``rho_overlay``; with them (the sparse
    grid) the overlay, which does not bound the sparse method, is NaN.
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
        wc_overlay = np.zeros(shape)
        alphas = np.zeros(shape)
        for bi, delta_bar in enumerate(bars):
            rule_alpha = optimal_alpha(delta_bar, rho_overlay)
            if rule_alpha is ZERO_RECONSTRUCTION:
                alphas[bi] = np.inf
                wc_overlay[bi] = rho_overlay
            else:
                alphas[bi] = rule_alpha
                wc_overlay[bi] = wc_bound(rule_alpha, np.asarray(deltas), rho_overlay)
    return ErrorGrid(delta_bar=bars, delta=deltas, mean_errors=mean_errors,
                     relative_errors=relative, wc_overlay=wc_overlay,
                     alphas=alphas, sentinel_fraction=sentinel,
                     mean_realized_delta=realized, rho_overlay=rho_overlay,
                     violations=violations, checked=checked,
                     min_margin=float(min_margin), solver=solver)


def _build_transform(kind: str, op: DenseOperator) -> SparsifyingTransform:
    if kind == "identity":
        return SparsifyingTransform.identity(op.n)
    if kind == "diff1d":
        return SparsifyingTransform.diff1d(op.n)
    side = int(round(op.n ** 0.5))
    if side * side != op.n:
        raise ConfigError("grad2d transform needs a square image operator")
    return SparsifyingTransform.grad2d(side)


def run_dim_experiment(config: ExperimentConfig,
                       op: DenseOperator | None = None) -> DimScanResult:
    """Dimension scan of the first configured sample over the noise grid.

    ``op`` is the configured operator when the caller has already built
    it; otherwise it is built here.
    """
    if config.method.kind not in ("subspace", "truncated"):
        raise ConfigError("dim scan needs a subspace or truncated method")
    if config.method.alpha is None:
        raise ConfigError("dim scan needs an explicit alpha")
    if op is None:
        op = build_operator(config.operator)
    truths, _ = build_dataset(op, config.data, config.seed)
    if config.method.basis == "svd":
        basis = svd_basis(op)
    elif config.method.basis == "coordinate":
        basis = coordinate_basis(op.n, config.seed)
    else:
        basis = pca_basis(truths.T, min(truths.shape))
    if max(config.method.m_grid) > basis.size:
        raise ConfigError("m_grid exceeds the basis size")
    return scan(op, basis, truths[:, 0].copy(), config)


def _fmt(value) -> str:
    """Shortest round-trip decimal; inf and nan spelled out."""
    return repr(float(value))


def emit_mismatch_csv(grid: ErrorGrid, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("delta_bar,delta,mean_error,relative_error,wc_bound,alpha\n")
        for bi, delta_bar in enumerate(grid.delta_bar):
            for di, delta in enumerate(grid.delta):
                fh.write(",".join([
                    _fmt(delta_bar), _fmt(delta),
                    _fmt(grid.mean_errors[bi, di]),
                    _fmt(grid.relative_errors[bi, di]),
                    _fmt(grid.wc_overlay[bi, di]),
                    _fmt(grid.alphas[bi, di]),
                ]) + "\n")


def emit_dimscan_csv(result: DimScanResult, basis_kind: str, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("basis,M,delta,mean_error\n")
        for mi, m in enumerate(result.m_grid):
            for di, delta in enumerate(result.delta_list):
                fh.write(f"{basis_kind},{m},{_fmt(delta)},{_fmt(result.mean_errors[mi, di])}\n")


def emit_wc_curve_csv(alphas, bounds, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("alpha,bound\n")
        for a, b in zip(alphas, bounds):
            fh.write(f"{_fmt(a)},{_fmt(b)}\n")


NOISE_SCHEME = "crn-v2"


@dataclass(frozen=True)
class RunManifest:
    """Run provenance, with the numpy version that computed the numbers.
    The bound-check totals are those of a Tikhonov mismatch grid and stay
    ``None`` for other commands; ``min_margin`` is also ``None`` when
    nothing was checked.  ``solver`` holds the LASSO solver totals of the
    LASSO grid, ``alpha-tune`` and ``lasso-solve``
    (:func:`~regbench.lasso.solver_totals`: solves, certified, failures,
    median and max iterations, max KKT residual) and is ``None``
    otherwise."""

    master_seed: int
    config_hash: str
    operator_checksum: str
    tool_version: str
    numpy_version: str
    wall_time_s: float
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
    return hashlib.sha256(op.entries.tobytes()).hexdigest()


def make_manifest(config: ExperimentConfig, op: DenseOperator, wall_time_s: float,
                  grid: ErrorGrid | None = None, solver: dict | None = None) -> RunManifest:
    """The run's manifest; a grid brings its bound checks and solver
    totals, a LASSO command without a grid passes its ``solver`` totals."""
    checks = dict(solver=solver) if grid is None else dict(
        checked=grid.checked, violations=grid.violations,
        min_margin=grid.min_margin if grid.checked else None, solver=grid.solver)
    return RunManifest(master_seed=config.seed, config_hash=config_hash(config),
                       operator_checksum=operator_checksum(op),
                       tool_version=__version__, numpy_version=np.__version__,
                       wall_time_s=wall_time_s, **checks)


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
                    "dimension scans, and sparse reconstruction.")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--config", type=str, default=None, help="config file")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("operator", parents=[shared],
                   help="build and save the configured operator")

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
    return load_config(args.config, seed=args.seed)


def _cmd_operator(args) -> int:
    config = _require_config(args)
    op = build_operator(config.operator)
    compute_svd(op)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "operator.rgb"
    save_operator(target, op)
    print(f"operator kind={config.operator.kind} m={op.m} n={op.n} "
          f"checksum={operator_checksum(op)}")
    print(f"saved {target}")
    return 0


def _cmd_wc_curve(args) -> int:
    _check(0 < args.rho < math.inf and 0 <= args.delta < math.inf,
           "wc-curve needs --rho > 0 and --delta >= 0, both finite")
    _check(args.points >= 1, "wc-curve needs --points >= 1")
    rule_alpha = optimal_alpha(args.delta, args.rho)
    grid = list(np.geomspace(1e-4, 1.0, args.points))
    # noise-free data gives the rule's alpha 0, where the bound is undefined
    if rule_alpha is not ZERO_RECONSTRUCTION and rule_alpha > 0:
        grid.append(rule_alpha)
    alphas = sorted(set(grid))
    bounds = [wc_bound(a, args.delta, args.rho) for a in alphas]
    print("alpha,bound")
    for a, b in zip(alphas, bounds):
        print(f"{_fmt(a)},{_fmt(b)}")
    best = alphas[int(np.argmin(bounds))]
    print(f"min_alpha={_fmt(best)}")
    out = Path(args.out)
    if args.out != ".":
        out.mkdir(parents=True, exist_ok=True)
    emit_wc_curve_csv(alphas, bounds, out / "wc_curve.csv")
    return 0


def _cmd_mismatch_grid(args) -> int:
    config = _require_config(args)
    start = time.perf_counter()
    op = build_operator(config.operator)
    grid = run_mismatch_grid(config, op)
    wall = time.perf_counter() - start
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_mismatch_csv(grid, out / "mismatch_grid.csv")
    make_manifest(config, op, wall, grid).write(out / "manifest.json")
    print(f"wrote {out / 'mismatch_grid.csv'} (rho={_fmt(grid.rho_overlay)})")
    if grid.checked:
        print(f"bound checks: {grid.checked - grid.violations}/{grid.checked} "
              f"within bound, min margin {grid.min_margin:.3e}")
    if grid.solver:
        print(f"solver: {grid.solver['failures']}/{grid.solver['solves']} solves "
              f"did not converge")
    return 0


def _cmd_dim_scan(args) -> int:
    config = _require_config(args)
    start = time.perf_counter()
    op = build_operator(config.operator)
    result = run_dim_experiment(config, op)
    wall = time.perf_counter() - start
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_dimscan_csv(result, config.method.basis, out / "dim_scan.csv")
    make_manifest(config, op, wall).write(out / "manifest.json")
    print(f"estimated_N={result.estimated_n}")
    return 0


def _cmd_lasso_solve(args) -> int:
    config = _require_config(args)
    start = time.perf_counter()
    op = build_operator(config.operator)
    truths, _ = build_dataset(op, config.data, config.seed)
    if not 0 <= args.sample < truths.shape[1]:
        raise ConfigError(f"sample index {args.sample} out of range")
    transform = _build_transform(config.method.transform, op)
    _check_levels((args.delta,))
    alpha = args.alpha if args.alpha is not None else config.method.alpha
    if alpha is None:
        raise ConfigError("lasso-solve needs --alpha or a method alpha")
    _check(0 < alpha < math.inf, f"--alpha must be positive and finite, not {alpha!r}")
    x_true = truths[:, args.sample].copy()
    y = apply(op, x_true) + args.delta * noise_block(config.seed, args.sample, 1, op.m)[0]
    sol = solve_batch(op, transform, y[:, None], [alpha])
    iterations = int(sol.iterations[0])
    if not sol.converged[0]:
        raise RuntimeError(f"no convergence after {iterations} iterations "
                           f"(residual {sol.residual[0]:.3e})")
    wall = time.perf_counter() - start
    x = sol.x[:, 0]
    r = op.entries @ x - y
    objective = float(r @ r + alpha * np.abs(transform.matrix @ x).sum())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "lasso_solution.csv", "w", newline="\n") as fh:
        fh.write("sample_id,component,value\n")
        for comp, val in enumerate(x):
            fh.write(f"{args.sample},{comp},{_fmt(val)}\n")
    make_manifest(config, op, wall, solver=solver_totals(sol)).write(out / "manifest.json")
    print(f"objective={_fmt(objective)} iterations={iterations} "
          f"kkt_residual={sol.kkt_residual[0]:.3e} "
          f"error={_fmt(weighted_norm(x - x_true))}")
    return 0


def _cmd_alpha_tune(args) -> int:
    config = _require_config(args)
    start = time.perf_counter()
    op = build_operator(config.operator)
    truths, _ = build_dataset(op, config.data, config.seed)
    if not 1 <= args.tuples <= truths.shape[1]:
        raise ConfigError(f"--tuples {args.tuples} outside [1, {truths.shape[1]}]")
    transform = _build_transform(config.method.transform, op)
    deltas, alphas = sorted(_floats(args.delta_grid)), _floats(args.alpha_grid)
    _check(deltas, "--delta-grid needs at least one level")
    _check_levels(deltas)
    _check(alphas and all(0 < a < math.inf for a in alphas),
           "--alpha-grid needs positive alphas, all finite")
    tuple_sets = [[(x, apply(op, x) + delta * rng_for(config.seed, di, si).standard_normal(op.m))
                   for si, x in enumerate(np.ascontiguousarray(truths[:, :args.tuples].T))]
                  for di, delta in enumerate(deltas)]
    results = grid_search_alphas(op, transform, tuple_sets, alphas)
    wall = time.perf_counter() - start
    knots = []
    for delta, result in zip(deltas, results):
        knots.append((delta, result.alpha_star))
        for alpha, message in result.failures:
            print(f"delta={_fmt(delta)} alpha={_fmt(alpha)}: {message}", file=sys.stderr)
        print(f"delta={_fmt(delta)} alpha={_fmt(result.alpha_star)}")
    rule = AlphaRule(tuple(knots))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rule.to_csv(out / "alpha_rule.csv")
    totals = solver_totals(*(result.solution for result in results))
    make_manifest(config, op, wall, solver=totals).write(out / "manifest.json")
    print(f"wrote {out / 'alpha_rule.csv'}")
    return 0


_COMMANDS = {
    "operator": _cmd_operator,
    "wc-curve": _cmd_wc_curve,
    "mismatch-grid": _cmd_mismatch_grid,
    "dim-scan": _cmd_dim_scan,
    "lasso-solve": _cmd_lasso_solve,
    "alpha-tune": _cmd_alpha_tune,
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
