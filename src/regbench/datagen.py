"""Source-condition data, subspace data, measurement noise, bases, images.

All sampling is keyed by (master seed, index path) through a counter-based
generator, so datasets are bit-reproducible regardless of evaluation order.
Sample s is drawn from the stream ``(seed, s)``; its measurement noise is
one standard-normal block from ``(seed, NOISE_TAG, s)`` (see
:func:`noise_block`).

A dataset is a truth matrix, sample s in column s.  Generated data
(:func:`sample_source_data`) comes with each sample's source constant;
images (:func:`load_idx_images`, :func:`phantom_images`) are loaded one per
row and carry none.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linop import DenseOperator, _orient_columns, compute_svd, pinv_adjoint_apply, weighted_norm


def rng_for(master_seed: int, *path: int) -> np.random.Generator:
    """Counter-based generator for a (seed, index...) path.

    Distinct paths give statistically independent streams; the same path
    always reproduces the same stream.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed),
                                spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class Basis:
    """Orthonormal column family used for restricted reconstruction."""

    kind: str
    vectors: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.vectors, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[1]


def sample_source_data(op: DenseOperator, count: int, seed: int,
                       indices=None) -> tuple[np.ndarray, np.ndarray]:
    """Draw truths fulfilling the source condition ``x = A* z``.

    Sample i's source element ``z`` mixes the left singular vectors with
    independent uniform [-1, 1] coefficients from the stream ``(seed, i)``:
    all of them, or only the modes at ``indices`` (subspace data).  Returns
    the truths as the columns of a C-contiguous ``(n, count)`` matrix and
    each sample's source constant, the weighted norm of its ``z``, as a
    ``(count,)`` array.
    """
    svd = compute_svd(op)
    u = svd.left_vectors
    if indices is not None:
        idx = np.asarray(indices, dtype=int)
        if idx.size and not 0 <= idx.min() <= idx.max() < svd.n_modes:
            raise ValueError("subspace indices must lie in [0, number of singular modes)")
        # selecting columns makes a Fortran-ordered copy whose products round
        # differently, so the all-modes case must keep u itself
        u = u[:, idx]
    truths, rho = np.empty((op.n, count)), np.empty(count)
    for i in range(count):
        z = u @ rng_for(seed, i).uniform(-1.0, 1.0, size=u.shape[1])
        truths[:, i] = op.entries.T @ z
        rho[i] = weighted_norm(z)
    return truths, rho


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


# modes with sigma_j <= PINV_REL_TOL * sigma_1 are never inverted when
# recovering source elements
PINV_REL_TOL = 1e-10


def estimate_source_constant(op: DenseOperator, truths: np.ndarray) -> np.ndarray:
    """Per-sample source constants of the columns of an ``(n, count)`` truth
    matrix: the weighted norm of each minimum-norm source element
    ``(A*)^+ x``.  On data that satisfies the source condition these are
    the true constants; a dataset's constant is their mean.
    """
    if truths.shape[1] == 0:
        raise ValueError("need at least one sample")
    return np.linalg.norm(pinv_adjoint_apply(op, truths, PINV_REL_TOL), axis=0) / math.sqrt(op.m)


def pca_basis(data, n_components: int) -> Basis:
    """Top principal components of mean-centered data, one sample per row,
    variance-ordered; at most ``n_components`` of them, and none past the
    numerical rank of the centered data (singular values above
    ``max(shape) * eps * sigma_1``), since LAPACK picks the directions
    beyond it arbitrarily.

    Component signs follow the same first-significant-entry-positive
    convention as the operator SVD.  Non-contiguous ``data``, such as a
    transposed truth matrix, is copied to C order first, since the SVD's
    rounding depends on the layout.
    """
    x = np.ascontiguousarray(data, dtype=float)
    if n_components > x.shape[1]:
        raise ValueError("cannot extract more components than coordinates")
    if n_components > x.shape[0]:
        raise ValueError("need at least as many samples as components")
    centered = x - x.mean(axis=0)
    # centring makes the data rank-deficient, where linop's Gram route would
    # always fall back to this same LAPACK SVD
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    rank = int(np.count_nonzero(s > max(x.shape) * np.finfo(float).eps * s.max(initial=0.0)))
    comps = vt[:min(n_components, rank)].T.copy()
    _orient_columns(comps)
    return Basis(kind="pca", vectors=comps)


def coordinate_basis(n: int, seed: int) -> Basis:
    """Unit vectors in the order of the permutation drawn from the stream
    ``(seed,)``, so nested subspaces stay consistent across truncation levels."""
    return Basis(kind="coordinate", vectors=np.eye(n)[:, rng_for(seed).permutation(n)])


def svd_basis(op: DenseOperator) -> Basis:
    """Right singular vectors of the operator as a reconstruction basis."""
    return Basis(kind="svd", vectors=compute_svd(op).right_vectors)


_IDX3_MAGIC = 0x00000803


def load_idx_images(path) -> np.ndarray:
    """Load an IDX3 image file (big-endian) as a ``(count, rows * cols)``
    array, one image per row flattened row-major, pixels scaled to [0, 1]."""
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
    return pixels.reshape(count, rows * cols)


def phantom_images(side: int, count: int, seed: int) -> np.ndarray:
    """Synthetic piecewise-constant images as an offline image stand-in,
    one ``side x side`` image per row, flattened row-major."""
    images = np.zeros((count, side * side))
    for i in range(count):
        rng = rng_for(seed, i)
        img = images[i].reshape(side, side)
        for _ in range(int(rng.integers(2, 5))):
            r0, r1 = np.sort(rng.integers(0, side, size=2))
            c0, c1 = np.sort(rng.integers(0, side, size=2))
            img[r0:r1 + 1, c0:c1 + 1] = rng.uniform(0.2, 1.0)
    return images
