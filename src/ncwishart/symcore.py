"""Symmetric-matrix primitives.

Cone membership with a rank tolerance, Haar sampling on the orthogonal
group, the d=2 cone-of-revolution parameterization, the isometric Lebesgue
coordinates on symmetric matrices, and Gram matrices.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import operator
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "SymMatrix",
    "ConeTag",
    "ConeClass",
    "ConePoint2",
    "sym_entries",
    "cone_classify",
    "rank_psd",
    "default_rank_tol",
    "haar_orthogonal",
    "haar_orthogonal_batch",
    "phi2",
    "phi2_inverse",
    "lebesgue_coords",
    "coords_to_matrix",
    "gram",
]

# Relative asymmetry above which an input is rejected instead of silently
# symmetrized.
_ASYM_REL_TOL = 1e-9


def _count(value, name: str, least: int | None = 1) -> int:
    """value as an int >= least, or any int when least is None.

    Numpy integers pass; a float, string or other non-integer raises ValueError.
    """
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and count < least:
        raise ValueError(f"{name} must be >= {least}")
    return count


def sym_entries(m: "SymMatrix | np.ndarray | Sequence", name: str = "matrix") -> np.ndarray:
    """Return a d x d exactly-symmetric float array for *m*.

    Accepts a :class:`SymMatrix` or anything array-like. At least one row,
    finite entries and near-symmetry are required; the result is (a + a.T)/2, which is exactly
    symmetric in floating point.
    """
    if isinstance(m, SymMatrix):
        return m.entries
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError(f"{name} must be at least 1 x 1")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > _ASYM_REL_TOL * scale:
        raise ValueError(f"{name} is not symmetric")
    return (a + a.T) / 2.0


def _check_symmetric_stack(draws: np.ndarray) -> None:
    """The checks of :func:`sym_entries`, draw by draw over a stack (N, d, d).

    Each draw must be finite and asymmetric by at most _ASYM_REL_TOL times
    max(1, its own largest entry); the first draw that fails raises the
    ValueError sym_entries would.
    """
    if draws.shape[0] == 0:
        return
    flat = draws.reshape(draws.shape[0], -1)
    finite = np.isfinite(flat).all(axis=1)
    with np.errstate(invalid="ignore"):
        scale = np.maximum(1.0, np.abs(flat).max(axis=1))
        asym = np.abs(draws - draws.transpose(0, 2, 1)).reshape(flat.shape).max(axis=1)
    bad = ~finite | (asym > _ASYM_REL_TOL * scale)
    if np.any(bad):
        first = int(np.argmax(bad))
        if not finite[first]:
            raise ValueError("matrix has non-finite entries")
        raise ValueError("matrix is not symmetric")


class SymMatrix:
    """Immutable dense real symmetric matrix.

    Storage enforces exact symmetry: entries are (a + a.T)/2 of the input
    and the backing array is write-locked.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: np.ndarray | Sequence) -> None:
        a = sym_entries(entries)
        a.setflags(write=False)
        object.__setattr__(self, "_entries", a)

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @classmethod
    def identity(cls, d: int) -> "SymMatrix":
        return cls(np.eye(d))

    @classmethod
    def diagonal(cls, diag: Sequence[float]) -> "SymMatrix":
        return cls(np.diag(np.asarray(diag, dtype=float)))

    def __array__(self, dtype=None) -> np.ndarray:
        return np.asarray(self._entries, dtype=dtype)

    def __repr__(self) -> str:
        return f"SymMatrix({self._entries.tolist()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymMatrix):
            return NotImplemented
        return self.dim == other.dim and bool(np.array_equal(self._entries, other._entries))

    def __hash__(self) -> int:
        return hash(self._entries.tobytes())


class ConeTag(enum.Enum):
    POSITIVE_DEFINITE = "positive_definite"
    BOUNDARY_RANK = "boundary_rank"
    NOT_IN_CONE = "not_in_cone"


@dataclasses.dataclass(frozen=True)
class ConeClass:
    """Cone classification of a symmetric matrix at a given tolerance.

    ``rank`` counts eigenvalues > tolerance; for NOT_IN_CONE it still
    reports that count so callers can inspect near-boundary cases.
    """

    tag: ConeTag
    rank: int
    tolerance: float
    eigenvalues: tuple[float, ...]  # ascending

    @property
    def in_closed_cone(self) -> bool:
        return self.tag is not ConeTag.NOT_IN_CONE


@dataclasses.dataclass(frozen=True)
class ConePoint2:
    """Point (x, y, z) of the cone of revolution x >= sqrt(y^2 + z^2)."""

    x: float
    y: float
    z: float

    def radius(self) -> float:
        return math.hypot(self.y, self.z)

    def in_cone(self, tol: float = 0.0) -> bool:
        return self.x >= self.radius() - tol

    def in_interior(self, tol: float = 0.0) -> bool:
        return self.x > self.radius() + tol


def default_rank_tol(eigenvalues: np.ndarray, d: int) -> float:
    """d * machine epsilon * largest eigenvalue magnitude (floored at tiny)."""
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return max(d * np.finfo(float).eps * scale, np.finfo(float).tiny)


def cone_classify(m, tol: float | None = None) -> ConeClass:
    """Classify *m* as positive definite, boundary of rank b, or outside.

    Eigenvalue counting: rank = #{eig > tol}; any eigenvalue < -tol means
    the matrix is outside the closed cone.
    """
    a = sym_entries(m)
    d = a.shape[0]
    eigs = np.linalg.eigvalsh(a)
    if tol is None:
        tol = default_rank_tol(eigs, d)
    elif tol < 0:
        raise ValueError("tolerance must be >= 0")
    rank = int(np.count_nonzero(eigs > tol))
    if eigs[0] < -tol:
        tag = ConeTag.NOT_IN_CONE
    elif rank == d:
        tag = ConeTag.POSITIVE_DEFINITE
    else:
        tag = ConeTag.BOUNDARY_RANK
    return ConeClass(tag=tag, rank=rank, tolerance=float(tol), eigenvalues=tuple(float(v) for v in eigs))


def rank_psd(m, tol: float | None = None) -> int:
    """Tolerance-based rank of a closed-cone matrix (error if outside)."""
    c = cone_classify(m, tol)
    if c.tag is ConeTag.NOT_IN_CONE:
        raise ValueError(f"matrix is outside the closed cone (min eigenvalue {c.eigenvalues[0]:.3e})")
    return c.rank


def haar_orthogonal(d: int, rng: np.random.Generator) -> np.ndarray:
    """One Haar-distributed orthogonal matrix of order d.

    The orthonormal factor of a standard normal matrix, taken with a
    positive R diagonal; see :func:`haar_orthogonal_batch`.
    """
    return haar_orthogonal_batch(d, 1, rng)[0]


def haar_orthogonal_batch(d: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of *size* independent Haar orthogonal matrices, shape (size, d, d).

    Each matrix is the Q of the QR factorization, with positive R diagonal,
    of a standard normal matrix, which is exactly Haar on O(d) (Mezzadri,
    Notices AMS 54, 2007).  Q is formed by Gram-Schmidt on the columns of
    the draw ``rng.standard_normal((size, d, d))``, vectorized over the
    batch, so a seeded generator gives the same matrices as LAPACK QR with
    the sign correction, up to roundoff.
    """
    return np.ascontiguousarray(_haar_columns(d, size, rng).transpose(2, 1, 0))


def _haar_columns(d: int, size: int, rng: np.random.Generator, cols: int | None = None) -> np.ndarray:
    """Haar draws of :func:`haar_orthogonal_batch`, entries first.

    Returns q of shape (d, d, size) with q[j, i, n] = u_n[i, j]: q[j] holds
    column j of every draw, so each Gram-Schmidt step is one array
    operation over the batch.  Every column is orthogonalized twice against
    the earlier ones (classical Gram-Schmidt with reorthogonalization),
    which keeps Q orthogonal to roundoff.  A draw whose residual norm is
    zero or not finite, an event of probability 0, is redone by LAPACK QR.

    With *cols*, only the leading cols columns are formed, shape
    (cols, d, size).  The normals drawn are the same, so the rng stream
    does not move, and the columns equal the leading columns of the full
    call bit for bit, unless a later column alone would have been
    degenerate.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if size < 0:
        raise ValueError("size must be >= 0")
    g = rng.standard_normal((size, d, d))
    q = np.ascontiguousarray(g.transpose(2, 1, 0)[:cols])
    degenerate = np.zeros(size, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j in range(q.shape[0]):
            v = q[j]
            for _ in range(2 if j else 0):
                v -= np.einsum("kin,kn->in", q[:j], np.einsum("kin,in->kn", q[:j], v))
            norm = np.sqrt(np.einsum("in,in->n", v, v))
            degenerate |= ~(np.isfinite(norm) & (norm > 0.0))
            v /= norm
    if np.any(degenerate):
        q[:, :, degenerate] = _haar_qr(g[degenerate])[:, :, :cols].transpose(2, 1, 0)
    return q


def _haar_qr(g: np.ndarray) -> np.ndarray:
    """Q factors with positive R diagonal of a stack of square matrices."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    # sign(0) would drop a column
    diag[diag == 0.0] = 1.0
    q *= np.sign(diag)[:, None, :]
    return q


def phi2(p: ConePoint2 | Sequence[float]) -> np.ndarray:
    """Map (x, y, z) to the symmetric matrix [[x+y, z], [z, x-y]].

    Linear bijection onto 2x2 symmetric matrices with
    det phi2(x,y,z) = x^2 - y^2 - z^2 and
    tr(phi2(a,b,c) phi2(x,y,z)) = 2ax + 2by + 2cz.
    """
    if isinstance(p, ConePoint2):
        x, y, z = p.x, p.y, p.z
    else:
        x, y, z = (float(v) for v in p)
    return np.array([[x + y, z], [z, x - y]], dtype=float)


def phi2_inverse(m) -> ConePoint2:
    """Inverse of :func:`phi2`."""
    a = sym_entries(m)
    if a.shape[0] != 2:
        raise ValueError("phi2_inverse needs a 2x2 matrix")
    return ConePoint2(x=(a[0, 0] + a[1, 1]) / 2.0, y=(a[0, 0] - a[1, 1]) / 2.0, z=a[0, 1])


def lebesgue_coords(m) -> np.ndarray:
    """Isometric coordinates of a symmetric matrix.

    Order: diagonal entries x_11..x_dd, then sqrt(2)*x_ij for i < j in
    row-major order of (i, j). The Euclidean norm of the output equals
    sqrt(tr(m^2)), so standard Lebesgue measure in these coordinates is the
    normalized Lebesgue measure of the trace inner product.
    """
    a = sym_entries(m)
    d = a.shape[0]
    iu = np.triu_indices(d, k=1)
    return np.concatenate([np.diagonal(a), math.sqrt(2.0) * a[iu]])


def coords_to_matrix(v: Sequence[float], d: int) -> np.ndarray:
    """Inverse of :func:`lebesgue_coords` for dimension d."""
    v = np.asarray(v, dtype=float)
    if v.shape != (d * (d + 1) // 2,):
        raise ValueError(f"expected {d * (d + 1) // 2} coordinates for d={d}")
    a = np.zeros((d, d))
    np.fill_diagonal(a, v[:d])
    iu = np.triu_indices(d, k=1)
    a[iu] = v[d:] / math.sqrt(2.0)
    a[(iu[1], iu[0])] = a[iu]
    return a


def gram(cols: Iterable[Sequence[float]]) -> np.ndarray:
    """Gram matrix G[j][k] = <c_j, c_k> of a nonempty list of vectors.

    The result is positive semidefinite with rank <= the common vector
    length r, however many vectors are supplied.
    """
    vecs = [np.asarray(c, dtype=float) for c in cols]
    if not vecs:
        raise ValueError("gram needs at least one vector")
    r = vecs[0].shape
    if len(r) != 1 or r[0] < 1:
        raise ValueError("gram vectors must be 1-D and nonempty")
    if any(v.shape != r for v in vecs):
        raise ValueError("gram vectors must all have the same length")
    v = np.stack(vecs, axis=1)  # r x m, columns are the vectors
    g = v.T @ v
    return (g + g.T) / 2.0
