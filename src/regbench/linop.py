"""Dense linear operators, singular systems, weighted norms, and benchmarks.

Everything here is plain float64 dense algebra.  Operators are immutable
after construction; the singular value decomposition is computed once,
sign-fixed for reproducibility, and cached on the operator.
:func:`spectral_normalize` reuses the raw operator's SVD (singular values
divided by the norm, same vectors) instead of factorizing again.  Two
kernels serve every spectral filter: :func:`filtered_solve` builds a
reconstruction, and :func:`filtered_errors` measures the errors of many
noisy reconstructions in singular-vector coefficients without building them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"RGB1"

_HEADER = struct.Struct("<QQ")
_SVD_HEADER = struct.Struct("<QQQ")

SIDECAR_TOL = 1e-8  # bound on max |U^T U - I|, |V^T V - I|, |A V - U S| / sigma_1


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
    with it), which makes repeated computations bit-identical.
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


@dataclass
class DenseOperator:
    """An m-by-n real operator stored densely (row-major)."""

    entries: np.ndarray
    _svd: SvdSystem | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self.entries, dtype=float))
        if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError("operator entries must form a nonempty 2-D matrix")
        a.setflags(write=False)
        self.entries = a

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


def compute_svd(op: DenseOperator) -> SvdSystem:
    """Deterministic full SVD of ``op``, cached on the operator.

    Singular values are sorted nonincreasing; right vectors carry the sign
    convention of :func:`_orient_columns`.  Raises on non-finite entries.
    """
    if op._svd is not None:
        return op._svd
    a = op.entries
    if not np.isfinite(a).all():
        raise ValueError("operator has non-finite entries")
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    v = vt.T.copy()
    _orient_columns(v, u)
    svd = SvdSystem(sigma=s, left_vectors=u, right_vectors=v)
    op._svd = svd
    return svd


def apply(op: DenseOperator, x: np.ndarray) -> np.ndarray:
    """Forward map ``A x``."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != op.n:
        raise ValueError(f"expected input of length {op.n}, got {x.shape[0]}")
    return op.entries @ x

def apply_adjoint(op: DenseOperator, y: np.ndarray) -> np.ndarray:
    """Adjoint map ``A* y`` in the Euclidean inner product (transpose)."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] != op.m:
        raise ValueError(f"expected input of length {op.m}, got {y.shape[0]}")
    return op.entries.T @ y


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
    svd = compute_svd(op)
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
    """
    diff = ((filt * data_coeff - ref_coeff)[None, :, None]
            + np.asarray(deltas)[:, None, None] * (filt[:, None] * noise_coeff))
    return np.sqrt(np.sum(diff * diff, axis=1) + outside) / np.sqrt(n)


def spectral_normalize(op: DenseOperator) -> DenseOperator:
    """Divide the operator by its spectral norm.  Idempotent up to 1e-12.

    The result carries the input's SVD with the singular values divided by
    the norm, so normalizing costs one factorization, not two.
    """
    svd = compute_svd(op)
    top = float(svd.sigma[0])
    if top == 0.0:
        raise ValueError("cannot normalize the zero operator")
    return DenseOperator(op.entries / top,
                         _svd=SvdSystem(sigma=svd.sigma / top,
                                        left_vectors=svd.left_vectors,
                                        right_vectors=svd.right_vectors))


def integration_matrix(n: int) -> np.ndarray:
    """Raw (unnormalized) cumulative-sum matrix: lower-triangular ones."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return np.tril(np.ones((n, n)))


def build_integration_operator(n: int) -> DenseOperator:
    """Discrete integration operator on R^n, scaled to spectral norm one."""
    return spectral_normalize(DenseOperator(integration_matrix(n)))


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

    mat = np.zeros((n_angles * n_offsets, side * side))
    # np.add.at adds in index order, so each entry sums its pieces in the
    # order they lie along the ray
    np.add.at(mat.reshape(-1),
              ray[inside] * (side * side) + j[inside] * side + i[inside],
              length[inside])
    return mat


def build_radon_operator(img_side: int, n_angles: int, n_offsets: int) -> DenseOperator:
    """Dense parallel-beam tomography operator, scaled to spectral norm one."""
    return spectral_normalize(DenseOperator(radon_matrix(img_side, n_angles, n_offsets)))


# Binary container: b"RGB1", then rows and cols as 64-bit little-endian
# unsigned integers, then row-major float64 payload.

def save_matrix(path, array: np.ndarray) -> None:
    array = np.ascontiguousarray(np.asarray(array, dtype=float))
    if array.ndim != 2:
        raise ValueError("only 2-D arrays are serialized")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(array.shape[0], array.shape[1]))
        fh.write(array.astype("<f8").tobytes(order="C"))


def load_matrix(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if len(data) < 4 + _HEADER.size:
        raise ValueError(f"{path}: truncated container header")
    if data[:4] != MAGIC:
        raise ValueError(f"{path}: bad container magic {data[:4]!r}")
    rows, cols = _HEADER.unpack_from(data, 4)
    start = 4 + _HEADER.size
    need = start + rows * cols * 8
    if len(data) < need:
        raise ValueError(f"{path}: truncated container payload")
    if len(data) > need:
        raise ValueError(f"{path}: {len(data) - need} trailing bytes after the payload")
    flat = np.frombuffer(data[start:need], dtype="<f8")
    return flat.reshape(rows, cols).astype(float)


def _svd_sidecar(path) -> Path:
    return Path(str(path) + ".svd")


def save_operator(path, op: DenseOperator, include_svd: bool = True) -> None:
    """Write the operator container; a cached SVD goes to ``<path>.svd``."""
    save_matrix(path, op.entries)
    if include_svd and op._svd is not None:
        svd = op._svd
        with open(_svd_sidecar(path), "wb") as fh:
            fh.write(MAGIC)
            fh.write(_SVD_HEADER.pack(op.m, op.n, svd.n_modes))
            fh.write(svd.sigma.astype("<f8").tobytes())
            fh.write(svd.left_vectors.astype("<f8").tobytes(order="C"))
            fh.write(svd.right_vectors.astype("<f8").tobytes(order="C"))


def load_operator(path) -> DenseOperator:
    """Read an operator container, attaching the SVD sidecar if present.

    The sidecar must hold the full singular system of this operator
    (``min(m, n)`` finite modes, singular values nonnegative and
    nonincreasing, orthonormal vectors with ``A V = U S``, all within
    ``SIDECAR_TOL``) and nothing after it.  Without a sidecar the SVD is
    left to the first :func:`compute_svd`.
    """
    entries = load_matrix(path)
    op = DenseOperator(entries)
    sidecar = _svd_sidecar(path)
    if sidecar.exists():
        data = sidecar.read_bytes()
        if len(data) < 4 + _SVD_HEADER.size:
            raise ValueError(f"{sidecar}: truncated SVD header")
        if data[:4] != MAGIC:
            raise ValueError(f"{sidecar}: bad container magic")
        m, n, k = _SVD_HEADER.unpack_from(data, 4)
        if (m, n) != op.shape:
            raise ValueError(f"{sidecar}: SVD shape {(m, n)} does not match operator {op.shape}")
        if k != min(m, n):
            raise ValueError(f"{sidecar}: {k} singular modes, expected {min(m, n)}")
        start = 4 + _SVD_HEADER.size
        need = start + 8 * (k + m * k + n * k)
        if len(data) < need:
            raise ValueError(f"{sidecar}: truncated SVD payload")
        if len(data) > need:
            raise ValueError(f"{sidecar}: {len(data) - need} trailing bytes after the SVD payload")
        payload = np.frombuffer(data[start:need], dtype="<f8").astype(float)
        if not np.isfinite(payload).all():
            raise ValueError(f"{sidecar}: non-finite SVD payload")
        sigma, left, right = np.split(payload, [k, k + m * k])
        # truncation keeps a prefix of the modes, so they must be ordered
        if (sigma < 0).any() or (np.diff(sigma) > 0).any():
            raise ValueError(f"{sidecar}: singular values are not nonnegative and nonincreasing")
        left, right = left.reshape(m, k), right.reshape(n, k)
        eye = np.eye(k)
        # written so that a NaN entry of the operator fails the check
        if not (np.abs(left.T @ left - eye).max() <= SIDECAR_TOL
                and np.abs(right.T @ right - eye).max() <= SIDECAR_TOL
                and np.abs(op.entries @ right - left * sigma).max() <= SIDECAR_TOL * sigma[0]):
            raise ValueError(f"{sidecar}: not an orthonormal singular system of the operator")
        op._svd = SvdSystem(sigma=sigma, left_vectors=left, right_vectors=right)
    return op
