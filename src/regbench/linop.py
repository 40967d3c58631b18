"""Dense linear operators, singular systems, weighted norms, and benchmarks.

Everything here is plain float64 dense algebra.  An operator is one
immutable value built with its singular system: the one it is given or,
without one, the factorization of its entries, sign-fixed for
reproducibility.  :func:`_thin_svd` is the one factorization: a symmetric
eigensolve of the Gram matrix ``A^T A`` where the operator is well
conditioned, LAPACK's thin SVD elsewhere.  Repeated factorizations are
bit-identical for a fixed BLAS thread count; BLAS and LAPACK may round
differently at another count.  :func:`spectral_normalize` reuses the raw
operator's SVD (singular values divided by the norm, same vectors) instead
of factorizing again.  Two
kernels serve every spectral filter: :func:`filtered_solve` builds a
reconstruction, and :func:`filtered_errors` measures the errors of many
noisy reconstructions in singular-vector coefficients without building them.
Every matrix is stored in one binary container format, read by
:func:`load_matrix`; the harness's SVD cache stores each singular system
as one such matrix, sigma over U over V (:func:`write_svd`), which
:func:`read_svd` checks, keyed by :func:`factorization_fingerprint`.
"""

from __future__ import annotations

import contextlib
import math
import os
import platform
import struct
import types
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"RGB1"

_HEADER = struct.Struct("<QQ")

SVD_TOL = 1e-8  # bound on max |U^T U - I|, |V^T V - I|, |A V - U S| / sigma_1

# _thin_svd factors through the Gram matrix when lambda_min(A^T A) exceeds
# GRAM_TOL * lambda_max(A^T A), i.e. when cond(A) < 1e3
GRAM_TOL = 1e-6


def weighted_norm(v: np.ndarray) -> float:
    """Dimension-weighted Euclidean norm, ``sqrt(mean(v_i^2))``.

    This is the discretized L2 norm used for reporting errors, noise
    levels, and source constants.
    """
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    return float(np.linalg.norm(v) / math.sqrt(v.size))


@dataclass(frozen=True)
class SvdSystem:
    """Full singular system: ``A v_j = sigma_j u_j`` with orthonormal columns.

    ``sigma`` is sorted nonincreasing; each right vector is oriented so its
    first significant entry is positive (the paired left vector is flipped
    with it), which makes repeated computations bit-identical for a fixed
    BLAS thread count.
    """

    sigma: np.ndarray
    left_vectors: np.ndarray
    right_vectors: np.ndarray

    def __post_init__(self):
        for arr in (self.sigma, self.left_vectors, self.right_vectors):
            arr.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return self.sigma.size


@dataclass(frozen=True)
class DenseOperator:
    """An m-by-n real operator stored densely (row-major), built with its
    singular system ``svd``: the one passed in or, without one,
    :func:`_thin_svd` of the entries, which must then be finite.
    ``svd_source`` says where the system came from, ``"computed"`` (factored
    here) unless it is given (the harness passes ``"cache"``)."""

    entries: np.ndarray
    svd: SvdSystem | None = field(default=None, repr=False, compare=False)
    svd_source: str = field(default="computed", repr=False, compare=False)

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.entries, dtype=float))
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("operator entries must form a nonempty 2-D matrix")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)
        if self.svd is None:
            if not np.isfinite(a).all():
                raise ValueError("operator has non-finite entries")
            object.__setattr__(self, "svd", _thin_svd(a))

    @property
    def m(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


def _orient_columns(vectors: np.ndarray, *paired: np.ndarray) -> None:
    """Flip column signs in place so each column's first significant entry
    (above 1e-12 of its largest) is positive; paired arrays are flipped
    along with it.  Zero columns keep their sign."""
    if vectors.size == 0:
        return
    magnitude = np.abs(vectors)
    scale = magnitude.max(axis=0)
    first = np.argmax(magnitude > 1e-12 * scale, axis=0)
    lead = vectors[first, np.arange(vectors.shape[1])]
    # multiplying by -1.0 or 1.0 is exact, so unflipped columns keep their bits
    sign = np.where((scale > 0.0) & (lead < 0.0), -1.0, 1.0)
    for arr in (vectors, *paired):
        arr *= sign


def _thin_svd(a: np.ndarray) -> SvdSystem:
    """Thin SVD of a finite matrix: ``min(m, n)`` modes, singular values
    nonincreasing, right vectors carrying the sign convention of
    :func:`_orient_columns`.  Private, so that a profile attributes its time
    to the caller (:class:`DenseOperator` or the truncated method's
    ``restricted_system``).

    A tall or square ``a`` whose Gram matrix has ``lambda_min > GRAM_TOL *
    lambda_max`` (so ``cond(a) < 1e3``) is factored through that matrix:
    ``A^T A = V diag(lambda) V^T`` by ``eigh``, then ``B = A V``, ``sigma``
    the column norms of ``B`` (not ``sqrt(lambda)``, which loses up to
    ``cond(a)^2`` in relative accuracy), the modes stably sorted by
    ``sigma``, and ``U = B / sigma`` re-orthogonalised by one first-order
    Cholesky-QR step ``U <- U R^-1`` with ``R^T R = U^T U``.  The step is
    upper triangular, so ``A V - U S`` stays at round-off while ``U``
    regains orthogonality.  Against LAPACK's SVD on 300 x 200 matrices
    with geometric spectra of condition 990, this gives singular values
    within 3e-14 relative, ``|U^T U - I|`` and ``|V^T V - I|`` below 5e-15
    and ``|A V - U S|`` below 1e-14 ``sigma_1``.  Accuracy falls fast
    beyond that (singular values within 2e-13 at condition 1e4; within
    2e-7, and ``U`` orthonormal to 6e-8, at 1e6), which is what
    ``GRAM_TOL`` guards against.

    Every other matrix (wide, empty, rank-deficient or ill-conditioned,
    the zero matrix included) takes LAPACK's thin SVD
    (``np.linalg.svd``).
    """
    m, n = a.shape
    if m >= n > 0:
        lam, v = np.linalg.eigh(a.T @ a)
        if lam[0] > GRAM_TOL * lam[-1]:
            u = a @ v
            s = np.linalg.norm(u, axis=0)
            # sigma nonincreasing, equal values in order of decreasing lambda;
            # np.take keeps C order, the layout read_svd returns
            order = n - 1 - np.argsort(-s[::-1], kind="stable")
            v, s, u = np.take(v, order, axis=1), s[order], np.take(u, order, axis=1)
            u /= s
            # U <- U (I - F) with F = triu(U^T U - I, 1) + diag(U^T U - I) / 2
            f = np.triu(u.T @ u)
            np.fill_diagonal(f, (f.diagonal() - 1.0) / 2)
            u -= u @ f
            _orient_columns(v, u)
            return SvdSystem(sigma=s, left_vectors=u, right_vectors=v)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T.copy()
    _orient_columns(v, u)
    return SvdSystem(sigma=s, left_vectors=u, right_vectors=v)


# the environment variables that set the BLAS's thread count or its kernels
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")


def _blas_library() -> str:
    """Name and version of the BLAS numpy was built against ('' where numpy
    does not report them)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 only prints its config
        return ""
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model() -> str:
    """The CPU's model name, from ``/proc/cpuinfo`` where there is one."""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    return platform.processor()


def _stable(value, skip: int = 0):
    """``value`` with a repr that is the same in every process: a code
    object, also a nested one (whose repr holds its address), as
    ``(bytecode, constants, names)`` without its first ``skip`` constants;
    a tuple item by item; a frozenset (iterated in the order of the
    process's string hashing) as its items sorted by repr."""
    if isinstance(value, types.CodeType):
        return value.co_code, _stable(value.co_consts[skip:]), value.co_names
    if isinstance(value, (tuple, frozenset)):
        items = tuple(map(_stable, value))
        return items if isinstance(value, tuple) else tuple(sorted(items, key=repr))
    return value


def factorization_fingerprint() -> tuple:
    """Everything but the matrix that the bits of :func:`_thin_svd` depend
    on, with a repr that is the same in every process: the code of
    :func:`_thin_svd` and :func:`_orient_columns` (:func:`_stable`, without
    their docstrings), so also the Python version that compiled it;
    ``GRAM_TOL``; the numpy version; the BLAS library and its settings
    (``_BLAS_ENV``, empty counting as unset, and the usable CPU count); and
    the host (name, machine type and CPU model: OpenBLAS picks kernels by CPU)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    # a docstring is the first constant
    code = [_stable(f.__code__, f.__doc__ is not None) for f in (_thin_svd, _orient_columns)]
    return (code, GRAM_TOL, np.__version__, _blas_library(),
            tuple(os.environ.get(name) or None for name in _BLAS_ENV), cpus,
            platform.node(), platform.machine(), _cpu_model())


def compute_svd(op: DenseOperator) -> SvdSystem:
    """``op.svd``, the system the operator was built with; kept by this name
    because the benchmark's set-up script (``bench/run.py``) calls it."""
    return op.svd


def pinv_adjoint_apply(op: DenseOperator, x: np.ndarray, rel_tol: float = 1e-12) -> np.ndarray:
    """Apply the pseudoinverse of the adjoint, ``(A*)^+ x``, to one vector
    (n,) or to the columns of an (n, B) block.

    Modes with ``sigma_j <= rel_tol * sigma_1`` are truncated, never
    inverted, so the map is well defined for rank-deficient operators.
    ``sigma`` is sorted, so the kept modes are a prefix, and the map is
    :func:`filtered_solve` with the roles of U and V swapped and the filter
    ``1 / sigma_j``.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[0] != op.n:
        raise ValueError(f"expected input of length {op.n}, got {x.shape[0]}")
    svd = op.svd
    k = int(np.count_nonzero(svd.sigma > rel_tol * svd.sigma[0]))
    adjoint = SvdSystem(svd.sigma, svd.right_vectors, svd.left_vectors)
    return filtered_solve(adjoint, 1.0 / svd.sigma[:k], x)


def filtered_solve(svd: SvdSystem, filt: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Spectral-filter reconstruction ``sum_j filt_j (u_j^T y) v_j``.

    Uses the first ``k = len(filt)`` modes.  ``y`` is one data vector or an
    (m, B) stack of columns; ``filt`` is ``(k,)``, shared by every column,
    or ``(k, B)``, one filter per column.
    """
    filt = np.asarray(filt, dtype=float)
    k = filt.shape[0]
    coeff = svd.left_vectors[:, :k].T @ np.asarray(y, dtype=float)
    if filt.ndim < coeff.ndim:
        filt = filt[:, None]
    return svd.right_vectors[:, :k] @ (filt * coeff)


def filtered_errors(filt: np.ndarray, data_coeff: np.ndarray, noise_coeff: np.ndarray,
                    deltas, ref_coeff: np.ndarray, outside: float, n: int) -> np.ndarray:
    """Weighted error norms of spectral-filter reconstructions of noisy data.

    On a singular system of k modes, ``filt`` is the filter ``(k,)``,
    ``data_coeff`` the clean data's coefficients ``U^T y`` ``(k,)``,
    ``noise_coeff`` the coefficients ``U^T g`` of R noise draws ``(k, R)``,
    ``ref_coeff`` the reference's coefficients ``V^T ref`` ``(k,)`` and
    ``outside`` the reference's energy ``||ref - V V^T ref||^2`` off the
    span of V.  Returns the ``(len(deltas), R)`` array

        ``sqrt(||filt (data_coeff + delta g_r) - ref_coeff||^2 + outside) / sqrt(n)``,

    which is ``weighted_norm(filtered_solve(svd, filt, y + delta g_r) - ref)``
    for a reference of length n, by orthogonality of the right vectors.
    One level at a time, in one ``(k, R)`` buffer beside ``filt * g``: the
    products and sums, in order, of the ``(levels, k, R)`` broadcast
    ``(filt * data_coeff - ref_coeff) + delta * (filt * g_r)``, bit for bit.
    """
    scaled, base = filt[:, None] * noise_coeff, (filt * data_coeff - ref_coeff)[:, None]
    sq, diff = np.empty((len(deltas), noise_coeff.shape[1])), np.empty_like(scaled)
    for d, delta in enumerate(np.asarray(deltas, dtype=float)):
        np.multiply(delta, scaled, out=diff)
        diff += base
        diff *= diff
        diff.sum(axis=0, out=sq[d])
    return np.sqrt(sq + outside) / np.sqrt(n)


def spectral_normalize(op: DenseOperator) -> DenseOperator:
    """Divide the operator by its spectral norm, so that the result's
    ``sigma_1`` is exactly 1.0; the harness normalizes every operator here,
    and nowhere else.  Idempotent up to 1e-12, and bit for bit on an
    operator whose ``sigma_1`` is already 1.0.

    The result is built with the input's SVD, the singular values divided
    by the norm, so normalizing factors nothing.  The entries are copied:
    dividing in place cut the peak memory of a paper-scale Radon command
    with a cached SVD by 1.8 MB but raised it by 2.7 MB where the SVD is
    factored, whose freed temporaries stay resident and hold the copy.
    """
    svd = op.svd
    top = float(svd.sigma[0])
    if top == 0.0:
        raise ValueError("cannot normalize the zero operator")
    return DenseOperator(op.entries / top,
                         SvdSystem(svd.sigma / top, svd.left_vectors, svd.right_vectors),
                         op.svd_source)


def integration_matrix(n: int) -> np.ndarray:
    """Raw (unnormalized) cumulative-sum matrix: lower-triangular ones."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return np.tril(np.ones((n, n)))


def radon_matrix(img_side: int, n_angles: int, n_offsets: int) -> np.ndarray:
    """Raw (unnormalized) parallel-beam projector matrix.

    Rows are rays, ordered angle-major; entries are exact intersection
    lengths of each ray with each pixel of the img_side^2 grid.  Angles are
    equispaced in [0, pi); detector offsets are equispaced across the image
    diagonal and centered at the image center.

    The pixel grid covers [-side/2, side/2]^2 with unit cells; pixel (i, j)
    occupies x in [i - side/2, i + 1 - side/2] and likewise in y, stored at
    flat index j * side + i.  Each ray is cut at its crossings with the grid
    lines, taken in increasing ray parameter; every piece longer than 1e-12
    is credited to the pixel holding its midpoint.  Grid lines parallel to
    the ray (direction component within 1e-12 of zero) are never crossed.
    """
    if img_side < 2:
        raise ValueError("img_side must be at least 2")
    if n_angles < 1 or n_offsets < 1:
        raise ValueError("n_angles and n_offsets must be at least 1")
    side = img_side
    half = side / 2.0
    eps = 1e-12
    diag = side * math.sqrt(2.0)
    if n_offsets == 1:
        offsets = np.array([0.0])
    else:
        offsets = np.linspace(-diag / 2.0, diag / 2.0, n_offsets)
    thetas = [ai * math.pi / n_angles for ai in range(n_angles)]
    # math.cos/sin, not their numpy forms, which may round differently
    nx = np.repeat([math.cos(t) for t in thetas], n_offsets)
    ny = np.repeat([math.sin(t) for t in thetas], n_offsets)
    t = np.tile(offsets, n_angles)
    point_x, point_y = t * nx, t * ny
    dir_x, dir_y = -ny, nx

    # ray parameters of every grid-line crossing, one row per ray; lines
    # the ray runs parallel to get +inf and fall out below
    grid = np.arange(side + 1) - half
    with np.errstate(divide="ignore", invalid="ignore"):
        tau_x = (grid[None, :] - point_x[:, None]) / dir_x[:, None]
        tau_y = (grid[None, :] - point_y[:, None]) / dir_y[:, None]
    tau_x[np.abs(dir_x) <= eps] = np.inf
    tau_y[np.abs(dir_y) <= eps] = np.inf
    taus = np.sort(np.concatenate([tau_x, tau_y], axis=1), axis=1)

    a, b = taus[:, :-1], taus[:, 1:]
    with np.errstate(invalid="ignore"):
        length = b - a
    keep = np.isfinite(length) & (length > eps)
    ray = np.nonzero(keep)[0]
    a, b, length = a[keep], b[keep], length[keep]
    mid = 0.5 * (a + b)
    i = np.floor(point_x[ray] + mid * dir_x[ray] + half).astype(np.int64)
    j = np.floor(point_y[ray] + mid * dir_y[ray] + half).astype(np.int64)
    inside = (i >= 0) & (i < side) & (j >= 0) & (j < side)

    rows, cols = n_angles * n_offsets, side * side
    # np.bincount adds in index order, so each entry sums its pieces in the
    # order they lie along the ray
    return np.bincount(ray[inside] * cols + j[inside] * side + i[inside],
                       weights=length[inside], minlength=rows * cols).reshape(rows, cols)


# The binary container: b"RGB1", the header (rows, cols) as 64-bit
# little-endian unsigned integers, then the row-major float64 little-endian
# entries.  An SVD cache entry is one such matrix of 1 + m + n rows and
# k = min(m, n) columns: sigma, then U (m, k), then V (n, k).

def save_matrix(path, *blocks: np.ndarray) -> None:
    """Write the 2-D arrays ``blocks``, of one width, as one matrix
    container whose rows are theirs in order; nothing is stacked in memory."""
    blocks = [np.asarray(block, dtype=float) for block in blocks]
    if len({block.shape[1:] for block in blocks}) != 1 or blocks[0].ndim != 2:
        raise ValueError("only 2-D arrays of one width are serialized")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(sum(block.shape[0] for block in blocks), blocks[0].shape[1]))
        for block in blocks:
            np.ascontiguousarray(block, dtype="<f8").tofile(fh)


def load_matrix(path) -> np.ndarray:
    """Read a matrix container: the magic, a header matching the file's
    length and finite entries, read once into the returned array."""
    with open(path, "rb") as fh:
        head = fh.read(4 + _HEADER.size)
        if len(head) < 4 + _HEADER.size:
            raise ValueError(f"{path}: truncated container header")
        if head[:4] != MAGIC:
            raise ValueError(f"{path}: bad container magic {head[:4]!r}")
        rows, cols = _HEADER.unpack_from(head, 4)
        extra = os.fstat(fh.fileno()).st_size - fh.tell() - 8 * rows * cols
        if extra < 0:
            raise ValueError(f"{path}: truncated container payload")
        if extra > 0:
            raise ValueError(f"{path}: {extra} trailing bytes after the container payload")
        payload = np.empty(rows * cols, dtype="<f8")
        if fh.readinto(payload) != payload.nbytes:
            raise ValueError(f"{path}: truncated container payload")
    if not np.isfinite(payload).all():
        raise ValueError(f"{path}: non-finite container payload")
    return payload.astype(float, copy=False).reshape(rows, cols)


def write_svd(path, svd: SvdSystem) -> None:
    """Write a singular system as the SVD cache stores it: one matrix
    container of sigma over U over V."""
    save_matrix(path, svd.sigma[None], svd.left_vectors, svd.right_vectors)


def _near_identity(q: np.ndarray) -> bool:
    """``max |Q^T Q - I| <= SVD_TOL`` (a NaN fails) over the upper
    triangle, formed as ``Q[:, j:j+128]^T Q[:, j:]`` one block at a time."""
    for first in range(0, q.shape[1], 128):
        gram = q[:, first:first + 128].T @ q[:, first:]
        gram.flat[::gram.shape[1] + 1] -= 1.0
        if not np.abs(gram, out=gram).max() <= SVD_TOL:
            return False
    return True


def read_svd(path, entries: np.ndarray) -> SvdSystem:
    """Read an SVD cache entry (:func:`write_svd`) that must hold the full
    singular system of the matrix ``entries``: a matrix container
    (:func:`load_matrix`) of ``1 + m + n`` rows and ``k = min(m, n)``
    columns, its singular values nonnegative and nonincreasing, its vectors
    orthonormal with ``A V = U S``, all within ``SVD_TOL``.  The container
    is read once, and sigma, U and V are views of its rows; the checks form
    ``U^T U``, ``V^T V`` and ``A V - U S`` in blocks of at most 128 columns
    or 256 rows, so no temporary is the size of ``U`` or of ``U^T U``."""
    stacked = load_matrix(path)
    m, n = entries.shape
    if stacked.shape != (1 + m + n, min(m, n)):
        raise ValueError(f"{path}: SVD entry of shape {stacked.shape}, expected "
                         f"{(1 + m + n, min(m, n))} for operator {entries.shape}")
    sigma, left, right = stacked[0], stacked[1:1 + m], stacked[1 + m:]
    # truncation keeps a prefix of the modes, so they must be ordered
    if (sigma < 0).any() or (np.diff(sigma) > 0).any():
        raise ValueError(f"{path}: singular values are not nonnegative and nonincreasing")
    if _near_identity(left) and _near_identity(right):
        for first in range(0, m, 256):
            residual = entries[first:first + 256] @ right
            residual -= left[first:first + 256] * sigma
            # written so that a NaN entry of the operator fails the check
            if not np.abs(residual, out=residual).max() <= SVD_TOL * sigma[0]:
                break
        else:
            return SvdSystem(sigma=sigma, left_vectors=left, right_vectors=right)
    raise ValueError(f"{path}: not an orthonormal singular system of the operator")

