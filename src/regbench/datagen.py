"""Source-condition data, subspace data, measurement noise, bases, images.

All sampling is keyed by (master seed, index path) through a counter-based
generator, so datasets are bit-reproducible regardless of evaluation order.
Sample s is drawn from the stream ``(seed, s)``; its measurement noise is
one standard-normal block from ``(seed, NOISE_TAG, s)`` (see
:func:`noise_block`).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linop import DenseOperator, apply_adjoint, compute_svd, pinv_adjoint_apply, weighted_norm


def rng_for(master_seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for a (seed, index...) path.

    Distinct paths give statistically independent streams; the same path
    always reproduces the same stream.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class SourceSample:
    """Ground truth generated through the adjoint: ``x_true = A* z``.

    ``rho`` is the weighted norm of the source element ``z`` and is the
    per-sample constant entering the worst-case bounds.
    """

    x_true: np.ndarray
    z: np.ndarray
    rho: float


@dataclass(frozen=True)
class Basis:
    """Orthonormal column family used for restricted reconstruction."""

    kind: str
    vectors: np.ndarray
    permutation: np.ndarray | None = None

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vectors, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class SubspaceSpec:
    """Selected singular-mode indices (0-based, distinct) spanning the data."""

    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.indices)
        if len(set(idx)) != len(idx):
            raise ValueError("subspace indices must be distinct")
        if any(i < 0 for i in idx):
            raise ValueError("subspace indices must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @property
    def n_dim(self) -> int:
        return len(self.indices)


def sample_source_data(op: DenseOperator, count: int, seed: int) -> list[SourceSample]:
    """Draw samples fulfilling the source condition.

    Each source element mixes all left singular vectors with independent
    uniform [-1, 1] coefficients; the ground truth is its adjoint image.
    """
    svd = compute_svd(op)
    u = svd.left_vectors
    samples = []
    for i in range(count):
        d = rng_for(seed, i).uniform(-1.0, 1.0, size=svd.n_modes)
        z = u @ d
        x = apply_adjoint(op, z)
        samples.append(SourceSample(x_true=x, z=z, rho=weighted_norm(z)))
    return samples


def sample_subspace_data(op: DenseOperator, spec: SubspaceSpec, count: int,
                         seed: int) -> list[SourceSample]:
    """Source-condition samples restricted to the selected singular modes."""
    svd = compute_svd(op)
    idx = np.asarray(spec.indices)
    if idx.size and idx.max() >= svd.n_modes:
        raise ValueError("subspace index exceeds the number of singular modes")
    u = svd.left_vectors[:, idx]
    samples = []
    for i in range(count):
        d = rng_for(seed, i).uniform(-1.0, 1.0, size=idx.size)
        z = u @ d
        x = apply_adjoint(op, z)
        samples.append(SourceSample(x_true=x, z=z, rho=weighted_norm(z)))
    return samples


def sample_basis_coefficient_data(basis: Basis, n_dim: int, count: int,
                                  seed: int) -> list[np.ndarray]:
    """Samples with uniform [-1, 1] coefficients on the first n_dim basis vectors."""
    if n_dim > basis.size:
        raise ValueError("n_dim exceeds the basis size")
    b = basis.vectors[:, :n_dim]
    return [b @ rng_for(seed, i).uniform(-1.0, 1.0, size=n_dim) for i in range(count)]


# Key position of the measurement-noise streams: ``(seed, NOISE_TAG, sample)``.
# Data streams are keyed ``(seed, sample)`` and other streams by small
# indices, so no other path starts with this value.
NOISE_TAG = 0x6E6F6973


def noise_block(seed: int, sample: int, realizations: int, size: int) -> np.ndarray:
    """Standard-normal measurement noise of one sample; row r is realization r.

    The block comes from the stream ``(seed, NOISE_TAG, sample)`` and is
    filled row-major, so a block with more realizations starts with the rows
    of a smaller one.  Every noise level applied to the sample scales the
    same rows (common random numbers).
    """
    return rng_for(seed, NOISE_TAG, sample).standard_normal((realizations, size))


@dataclass(frozen=True)
class SourceConstantEstimate:
    """Per-sample source constants recovered through the adjoint pseudoinverse.

    ``residuals`` holds ||x - A* (A*)^+ x||_2 per sample; for data that
    satisfies the source condition on the retained range it is ~0, for real
    images it is reported rather than asserted.
    """

    mean: float
    maximum: float
    values: np.ndarray
    residuals: np.ndarray


def estimate_source_constant(op: DenseOperator, samples, rel_tol: float = 1e-10) -> SourceConstantEstimate:
    """Estimate the source constant as the mean (and max) of per-sample norms."""
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    x = np.column_stack([np.asarray(getattr(sample, "x_true", sample), dtype=float)
                         for sample in samples])
    z_min = pinv_adjoint_apply(op, x, rel_tol)
    values = np.linalg.norm(z_min, axis=0) / math.sqrt(op.m)
    residuals = np.linalg.norm(x - apply_adjoint(op, z_min), axis=0)
    return SourceConstantEstimate(mean=float(values.mean()), maximum=float(values.max()),
                                  values=values, residuals=residuals)


def pca_basis(data, n_components: int) -> Basis:
    """Top principal components of mean-centered data, variance-ordered.

    Component signs follow the same first-significant-entry-positive
    convention as the operator SVD.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        x = np.vstack([np.asarray(row, dtype=float) for row in data])
    if n_components > x.shape[1]:
        raise ValueError("cannot extract more components than coordinates")
    if n_components > x.shape[0]:
        raise ValueError("need at least as many samples as components")
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:n_components].T.copy()
    from .linop import _orient_columns

    _orient_columns(comps)
    return Basis(kind="pca", vectors=comps)


def coordinate_basis(n: int, seed: int) -> Basis:
    """Randomly permuted unit vectors; the permutation is kept on the basis
    so nested subspaces stay consistent across truncation levels."""
    perm = rng_for(seed).permutation(n)
    return Basis(kind="coordinate", vectors=np.eye(n)[:, perm], permutation=perm)


def svd_basis(op: DenseOperator) -> Basis:
    """Right singular vectors of the operator as a reconstruction basis."""
    return Basis(kind="svd", vectors=compute_svd(op).right_vectors)


_IDX3_MAGIC = 0x00000803


def load_idx_images(path) -> list[np.ndarray]:
    """Load an IDX3 image file (big-endian), flattened row-major in [0, 1]."""
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise ValueError(f"{path}: truncated IDX header")
    magic, count, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != _IDX3_MAGIC:
        raise ValueError(f"{path}: bad IDX magic 0x{magic:08x}")
    need = 16 + count * rows * cols
    if len(data) < need:
        raise ValueError(f"{path}: truncated IDX payload ({len(data)} < {need} bytes)")
    pixels = np.frombuffer(data[16:need], dtype=np.uint8).astype(float) / 255.0
    size = rows * cols
    return [pixels[i * size:(i + 1) * size].copy() for i in range(count)]


def phantom_images(side: int, count: int, seed: int) -> list[np.ndarray]:
    """Synthetic piecewise-constant images as an offline image stand-in."""
    images = []
    for i in range(count):
        rng = rng_for(seed, i)
        img = np.zeros((side, side))
        for _ in range(int(rng.integers(2, 5))):
            r0, r1 = np.sort(rng.integers(0, side, size=2))
            c0, c1 = np.sort(rng.integers(0, side, size=2))
            img[r0:r1 + 1, c0:c1 + 1] = rng.uniform(0.2, 1.0)
        images.append(img.ravel())
    return images


def export_samples_csv(vectors, path) -> None:
    """Write vectors as long-format CSV: sample_id,component,value."""
    with open(path, "w", newline="\n") as fh:
        fh.write("sample_id,component,value\n")
        for sid, vec in enumerate(vectors):
            vec = np.asarray(getattr(vec, "x_true", vec), dtype=float)
            for comp, value in enumerate(vec):
                fh.write(f"{sid},{comp},{float(value)!r}\n")
