"""Fixed-size 3x3 real linear algebra.

Kernels for the matrices this package manipulates: determinants,
inverses, the three matrix norms used by the search bounds, symmetric
eigendecompositions, singular values, fractional powers of symmetric
positive-definite matrices, and polar stretch factors.  Spectra come from
LAPACK through numpy (``eigh`` and ``svd``).

General matrices are plain ``numpy.ndarray`` objects of shape ``(3, 3)``;
``Matrix3`` is an alias used in signatures for readability.  Symmetric
matrices get a dedicated value type (:class:`SymMatrix3`) that stores a
single triangle, so symmetry is exact by construction.

All operations are pure; values can be shared freely across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NotPositiveDefinite, SingularMatrix

Matrix3 = np.ndarray

#: |det M| <= DET_REL_TOL * |M|_F**3 counts as singular (scale invariant).
DET_REL_TOL = 1e-12

#: A symmetric matrix whose off-diagonal Frobenius mass is at most
#: DIAGONAL_REL_TOL * |S|_F counts as diagonal: its eigenvalues are its
#: diagonal entries exactly, so structural zeros survive round trips.
DIAGONAL_REL_TOL = 1e-14

#: Relative eigenvalue floor for positive definiteness.
SPD_REL_TOL = 1e-14


def as_matrix3(m) -> np.ndarray:
    """Coerce to a float (3, 3) array, requiring finite entries."""
    a = np.asarray(m, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def det(m) -> float:
    """Determinant by cofactor expansion along the first row."""
    a = as_matrix3(m)
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def frobenius(m) -> float:
    a = np.asarray(m, dtype=float)
    return float(np.sqrt((a * a).sum()))


def is_singular(m) -> bool:
    """Scale-invariant singularity test: |det| <= tol * |M|_F**3."""
    a = as_matrix3(m)
    return abs(det(a)) <= DET_REL_TOL * frobenius(a) ** 3


def _require_invertible(a: np.ndarray) -> None:
    if is_singular(a):
        raise SingularMatrix("matrix is singular to working precision")


def inverse(m) -> np.ndarray:
    """Inverse via adjugate / determinant.

    Raises SingularMatrix when |det| falls below the scale-invariant
    tolerance.
    """
    a = as_matrix3(m)
    d = det(a)
    if abs(d) <= DET_REL_TOL * frobenius(a) ** 3:
        raise SingularMatrix("matrix is singular to working precision")
    adj = np.empty((3, 3))
    adj[0, 0] = a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
    adj[0, 1] = a[0, 2] * a[2, 1] - a[0, 1] * a[2, 2]
    adj[0, 2] = a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]
    adj[1, 0] = a[1, 2] * a[2, 0] - a[1, 0] * a[2, 2]
    adj[1, 1] = a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
    adj[1, 2] = a[0, 2] * a[1, 0] - a[0, 0] * a[1, 2]
    adj[2, 0] = a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]
    adj[2, 1] = a[0, 1] * a[2, 0] - a[0, 0] * a[2, 1]
    adj[2, 2] = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
    return adj / d


@dataclass(frozen=True)
class SymMatrix3:
    """Symmetric 3x3 matrix stored as its six independent entries."""

    xx: float
    yy: float
    zz: float
    xy: float
    xz: float
    yz: float

    @classmethod
    def from_array(cls, a) -> "SymMatrix3":
        """Build from a (nearly) symmetric array, averaging the triangles."""
        m = as_matrix3(a)
        return cls(
            xx=float(m[0, 0]),
            yy=float(m[1, 1]),
            zz=float(m[2, 2]),
            xy=0.5 * float(m[0, 1] + m[1, 0]),
            xz=0.5 * float(m[0, 2] + m[2, 0]),
            yz=0.5 * float(m[1, 2] + m[2, 1]),
        )

    @classmethod
    def identity(cls) -> "SymMatrix3":
        return cls(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)

    @property
    def array(self) -> np.ndarray:
        return np.array(
            [
                [self.xx, self.xy, self.xz],
                [self.xy, self.yy, self.yz],
                [self.xz, self.yz, self.zz],
            ]
        )


class SingularTriple(NamedTuple):
    """Principal stretches sorted descending, all strictly positive."""

    nu1: float
    nu2: float
    nu3: float

    @property
    def array(self) -> np.ndarray:
        return np.array(self)


class MatrixNorms(NamedTuple):
    frobenius: float
    spectral: float
    col_max: float


def _eigh(s: np.ndarray):
    """Eigenpairs of a symmetric 3x3 matrix, eigenvalues descending.

    Returns (w, V) with s = V diag(w) V^T and V orthogonal.  A matrix
    that is diagonal to within DIAGONAL_REL_TOL yields its sorted
    diagonal and a permutation of the identity; any other goes to
    LAPACK.
    """
    diag = np.diag(s)
    off = math.sqrt(2.0 * (s[0, 1] ** 2 + s[0, 2] ** 2 + s[1, 2] ** 2))
    if off <= DIAGONAL_REL_TOL * math.sqrt(float((diag * diag).sum()) + off * off):
        order = np.argsort(-diag, kind="stable")
        return diag[order], np.eye(3)[:, order]
    w, v = np.linalg.eigh(s)
    return w[::-1], v[:, ::-1]


def _sym_array(s) -> np.ndarray:
    if isinstance(s, SymMatrix3):
        return s.array
    return SymMatrix3.from_array(s).array


def sym_eigen(s):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues sorted
    descending and eigenvectors as the columns of an orthogonal matrix.
    With repeated eigenvalues any orthonormal basis of the eigenspace may
    be returned; compare reconstructions, not eigenvectors.
    """
    return _eigh(_sym_array(s))


def singular_values(m) -> SingularTriple:
    """Principal stretches: the singular values of M, descending."""
    a = as_matrix3(m)
    _require_invertible(a)
    w = np.linalg.svd(a, compute_uv=False)
    return SingularTriple(float(w[0]), float(w[1]), float(w[2]))


def norms(m) -> MatrixNorms:
    """The Frobenius, spectral and column-max norms of a matrix."""
    a = as_matrix3(m)
    spectral = float(np.linalg.svd(a, compute_uv=False)[0])
    col = float(np.sqrt((a * a).sum(axis=0)).max())
    return MatrixNorms(frobenius(a), spectral, col)


def spd_power(s, p: float) -> SymMatrix3:
    """Fractional power of a symmetric positive-definite matrix."""
    a = _sym_array(s)
    w, v = _eigh(a)
    if w[0] <= 0.0 or w[2] <= SPD_REL_TOL * w[0]:
        raise NotPositiveDefinite(
            f"eigenvalues {tuple(w)} are not strictly positive"
        )
    powered = (v * w**p) @ v.T
    return SymMatrix3.from_array(powered)


def polar_stretch(h) -> SymMatrix3:
    """The stretch factor of a polar decomposition: sqrt(H^T H).

    Unique symmetric positive-definite matrix with the same singular
    values as H.
    """
    a = as_matrix3(h)
    _require_invertible(a)
    return spd_power(SymMatrix3.from_array(a.T @ a), 0.5)
