"""Fixed-size 3x3 real linear algebra.

The 3x3 formulas this package needs, all on plain ``numpy.ndarray``
values: the cofactor determinant and the adjugate (both for one matrix or
a stack, in the input's dtype, so integer results stay exact), the
inverse, the singularity test, symmetric eigendecompositions, singular
values and fractional powers of symmetric positive-definite matrices.
Spectra come from LAPACK through numpy (``eigh`` and ``svd``).

All operations are pure; values can be shared freely across threads.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotPositiveDefinite, SingularMatrix

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


def _entries(a: np.ndarray):
    """The nine entries of a (..., 3, 3) array, row-major, each of shape (...)."""
    batch = a.ndim - 2
    return a.reshape(a.shape[:-2] + (9,)).transpose((batch,) + tuple(range(batch)))


def det(m):
    """Determinant of a (3, 3) matrix or a (..., 3, 3) stack, by cofactor
    expansion along the first row, in the input's dtype."""
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = _entries(np.asarray(m))
    return (x00 * (x11 * x22 - x12 * x21) - x01 * (x10 * x22 - x12 * x20)
            + x02 * (x10 * x21 - x11 * x20))


def adjugate(m) -> np.ndarray:
    """Adjugate of a (3, 3) matrix or a (..., 3, 3) stack, in the input's
    dtype: adj(M) M = det(M) I."""
    a = np.asarray(m)
    x00, x01, x02, x10, x11, x12, x20, x21, x22 = _entries(a)
    adj = np.empty_like(a)
    adj[..., 0, 0] = x11 * x22 - x12 * x21
    adj[..., 0, 1] = x02 * x21 - x01 * x22
    adj[..., 0, 2] = x01 * x12 - x02 * x11
    adj[..., 1, 0] = x12 * x20 - x10 * x22
    adj[..., 1, 1] = x00 * x22 - x02 * x20
    adj[..., 1, 2] = x02 * x10 - x00 * x12
    adj[..., 2, 0] = x10 * x21 - x11 * x20
    adj[..., 2, 1] = x01 * x20 - x00 * x21
    adj[..., 2, 2] = x00 * x11 - x01 * x10
    return adj


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
    return adjugate(a) / d


def _eigh(s: np.ndarray):
    """Eigenpairs of a symmetric 3x3 matrix, eigenvalues descending.

    Returns (w, V) with s = V diag(w) V^T and V orthogonal.  A matrix
    that is diagonal to within DIAGONAL_REL_TOL yields its sorted
    diagonal and a permutation of the identity; any other goes to
    LAPACK.  With repeated eigenvalues any orthonormal basis of the
    eigenspace may be returned; compare reconstructions, not eigenvectors.
    """
    diag = np.diag(s)
    off = math.sqrt(2.0 * (s[0, 1] ** 2 + s[0, 2] ** 2 + s[1, 2] ** 2))
    if off <= DIAGONAL_REL_TOL * math.sqrt(float((diag * diag).sum()) + off * off):
        order = np.argsort(-diag, kind="stable")
        return diag[order], np.eye(3)[:, order]
    w, v = np.linalg.eigh(s)
    return w[::-1], v[:, ::-1]


def singular_values(m) -> np.ndarray:
    """Principal stretches: the singular values of M, descending."""
    a = as_matrix3(m)
    _require_invertible(a)
    return np.linalg.svd(a, compute_uv=False)


def spd_power(s, p: float) -> np.ndarray:
    """Fractional power of a symmetric positive-definite matrix.

    The input and the result are symmetrised as (A + A^T) / 2, so both
    are exactly symmetric.
    """
    a = as_matrix3(s)
    w, v = _eigh(0.5 * (a + a.T))
    if w[0] <= 0.0 or w[2] <= SPD_REL_TOL * w[0]:
        raise NotPositiveDefinite(
            f"eigenvalues {tuple(w)} are not strictly positive"
        )
    powered = (v * w**p) @ v.T
    return 0.5 * (powered + powered.T)
