"""Symmetric-matrix primitives and the package's typed errors.

The one closed-cone rule of the package (:func:`_psd_eigh`: one
eigendecomposition, rank = the count of eigenvalues above
:func:`default_rank_tol`, outside when the smallest is below minus that
tolerance), Haar sampling on the orthogonal group, the d=2
cone-of-revolution parameterization and the isometric Lebesgue
coordinates on symmetric matrices.  ``DomainError`` and
``TruncationError`` are defined here, in the one module that every other
module imports, so that every module raises the same two classes.
"""

from __future__ import annotations

import dataclasses
import math
import operator
from typing import Sequence

import numpy as np

__all__ = [
    "DomainError",
    "TruncationError",
    "ConePoint2",
    "sym_entries",
    "rank_psd",
    "default_rank_tol",
    "phi2",
    "lebesgue_coords",
    "coords_to_matrix",
]

# Relative asymmetry above which an input is rejected instead of silently
# symmetrized.
_ASYM_REL_TOL = 1e-9


class DomainError(ValueError):
    """Evaluation point or parameter outside the mathematical domain."""


class TruncationError(RuntimeError):
    """Adaptive series failed to meet its tolerance within the weight cap."""

    def __init__(self, message: str, partial_value: float, max_weight: int, last_rel_change: float) -> None:
        super().__init__(message)
        self.partial_value = partial_value
        self.max_weight = max_weight
        self.last_rel_change = last_rel_change


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


def sym_entries(m: "np.ndarray | Sequence", name: str = "matrix") -> np.ndarray:
    """Return a d x d exactly-symmetric float array for the array-like *m*.

    At least one row, finite entries and near-symmetry are required; the
    result is (a + a.T)/2, which is exactly symmetric in floating point.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError(f"{name} must be at least 1 x 1")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    # past half the double range a - a.T and a + a.T may overflow: an
    # infinite difference is asymmetry, and the halves sum exactly
    with np.errstate(over="ignore"):
        if float(np.max(np.abs(a - a.T))) > _ASYM_REL_TOL * scale:
            raise ValueError(f"{name} is not symmetric")
    if scale > np.finfo(float).max / 2.0:
        return a / 2.0 + a.T / 2.0
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


@dataclasses.dataclass(frozen=True)
class ConePoint2:
    """Point (x, y, z) of the cone of revolution x >= sqrt(y^2 + z^2)."""

    x: float
    y: float
    z: float


def default_rank_tol(eigenvalues: np.ndarray, d: int) -> float:
    """d * machine epsilon * largest eigenvalue magnitude (floored at tiny)."""
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    return max(d * np.finfo(float).eps * scale, np.finfo(float).tiny)


def _psd_eigh(m, name: str = "matrix") -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(entries, ascending eigenvalues, eigenvectors, rank) of a closed-cone matrix.

    The one closed-cone rule: rank counts the eigenvalues of one
    ``np.linalg.eigh`` above :func:`default_rank_tol`, and an eigenvalue
    below minus that tolerance raises DomainError naming *name*.
    """
    a = sym_entries(m, name)
    vals, vecs = np.linalg.eigh(a)
    tol = default_rank_tol(vals, a.shape[0])
    if vals[0] < -tol:
        raise DomainError(
            f"{name} must be positive semidefinite: it is outside the closed cone "
            f"(min eigenvalue {vals[0]:.3e})"
        )
    return a, vals, vecs, int(np.count_nonzero(vals > tol))


def rank_psd(m) -> int:
    """Rank of a closed-cone matrix by the rule of :func:`_psd_eigh` (DomainError outside)."""
    return _psd_eigh(m)[3]


def _haar_columns(d: int, size: int, rng: np.random.Generator, cols: int | None = None) -> np.ndarray:
    """*size* independent Haar orthogonal matrices of order d, entries first.

    Each matrix u_n is the Q of the QR factorization, with positive R
    diagonal, of the standard normal matrix n of the draw
    ``rng.standard_normal((size, d, d))``, which is exactly Haar on O(d)
    (Mezzadri, Notices AMS 54, 2007).  Returns q of shape (d, d, size)
    with q[j, i, n] = u_n[i, j]: q[j] holds column j of every draw, so each
    Gram-Schmidt step is one array operation over the batch, and the result
    equals LAPACK QR with the sign correction up to roundoff.  Every column
    is orthogonalized twice against the earlier ones (classical
    Gram-Schmidt with reorthogonalization), which keeps Q orthogonal to
    roundoff.  A draw whose residual norm is zero or not finite, an event
    of probability 0, is redone by LAPACK QR.

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

