"""Strain pseudometrics on lattice generators.

The family is indexed by a nonzero real exponent r and measures the
Frobenius distance between the r/2 powers of the right Cauchy-Green
tensors F^T F and G^T G (the Doyle-Ericksen strain measures).  Against
the identity the distance depends only on the principal stretches nu_i of
the transformation:

    distance_to_identity(H) = sqrt(sum_i (nu_i**r - 1)**2)

The scalar path takes the nu_i from an SVD.  The bulk path, which every
candidate of a search goes through, avoids a per-matrix LAPACK call where
it can: at r = 2 the distance is |H^T H - I|_F, at r = 1 it follows from
|H|_F, |cof H|_F and |det H| by a Newton iteration for sum nu_i (rows
near a rotation, where that formula cancels, take ``eigvalsh``), and
every other exponent takes a batched ``eigvalsh`` of H^T H.  Against the
SVD the r = 1 and r = 2 paths agree to 3e-14 (1 + d).  The distance
vanishes exactly when the two generators differ by a rotation, so it
induces a true metric on generators modulo rotation without any explicit
minimisation over rotations.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .matrix3 import _require_invertible, as_matrix3, singular_values

#: Two distances tie when |d1 - d2| <= TIE_REL_TOL * (1 + m_min).  Exact
#: degeneracies land within machine epsilon of each other while genuine
#: gaps in the problems of interest exceed 1e-2.  The same band decides
#: rotations: a lattice's point group is the tie band of distance zero,
#: and two transformations share a stretch class when their Cauchy-Green
#: tensors C1, C2 satisfy |C1 - C2|_F <= TIE_REL_TOL * (1 + |C1|_F).
TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class StrainMetric:
    """Selects the member of the strain-metric family by its exponent."""

    r: float

    def __post_init__(self):
        if isinstance(self.r, (bool, np.bool_)) or not math.isfinite(self.r) or self.r == 0.0:
            raise ValueError("the metric exponent r must be a nonzero finite real")


def tie_tolerance(m_min: float) -> float:
    return TIE_REL_TOL * (1.0 + m_min)


def distance(f, g, metric: StrainMetric) -> float:
    """Strain distance between two invertible generators F and G."""
    f = as_matrix3(f)
    g = as_matrix3(g)
    _require_invertible(f)
    _require_invertible(g)
    return float(distance_many(f[None], g[None], metric)[0])


def distance_to_identity(h, metric: StrainMetric) -> float:
    """Distance of a transformation to the identity, from its stretches.

    Negative exponents act on the singular values directly, so
    near-singular intermediate matrices are never inverted.  Agrees with
    ``distance(h, identity)`` to 1e-10.  A power past the float range
    gives an infinite distance, as in the bulk path.
    """
    nu = singular_values(h)
    with np.errstate(over="ignore"):
        return float(np.sqrt(((nu**metric.r - 1.0) ** 2).sum()))


#: Newton steps allowed per row for the r = 1 stretch sum; the fcc->bcc
#: and Terephthalic rows stop falling after 6.
_NEWTON_STEPS = 64

#: Rows whose r = 1 distance squared falls below this share of |H|_F**2
#: lose digits to cancellation in |H|_F**2 - 2 sum(nu) + 3 and take
#: ``eigvalsh``.
_CANCEL = 1e-4

#: Rows with |H|_F**2 above this take ``eigvalsh``, since the Newton
#: polynomial's terms, of order |H|_F**4, would leave the float range.
_NEWTON_RANGE = 1e150


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _eigen_distances(gram: tuple, r: float) -> np.ndarray:
    """Identity distances from the six Gram entries (g00, g11, g22, g01,
    g02, g12) of each row, by a batched ``eigvalsh``."""
    g00, g11, g22, g01, g02, g12 = gram
    stack = np.stack([g00, g01, g02, g01, g11, g12, g02, g12, g22], axis=-1)
    lam = np.maximum(np.linalg.eigvalsh(stack.reshape(-1, 3, 3)), 0.0)
    return np.sqrt(((lam ** (r / 2.0) - 1.0) ** 2).sum(axis=1))


def _stretch_sums(i1: np.ndarray, i2: np.ndarray, det: np.ndarray) -> np.ndarray:
    """s = nu_1 + nu_2 + nu_3 from I1 = sum nu**2, I2 = |cof H|_F**2 and
    det = |det H|, or NaN where the Newton iteration gives no answer.

    s is the root in [sqrt(I1), inf) of q(s) = ((s**2 - I1)/2)**2 - I2 -
    2 det s, where q is convex and negative at sqrt(I1), so Newton from
    sqrt(3 I1) >= s descends monotonically onto it.  A row takes a step
    only while the step lowers it: rounding can leave a positive step
    that no longer changes s.  Rows out of ``_NEWTON_RANGE`` or still
    falling after ``_NEWTON_STEPS`` steps give NaN.
    """
    s = np.where(i1 <= _NEWTON_RANGE, np.sqrt(3.0 * i1), np.nan)
    two_det = 2.0 * det
    for _ in range(_NEWTON_STEPS):
        w = s * s - i1
        t = s - (0.25 * w * w - i2 - two_det * s) / (s * w - two_det)
        down = t < s
        if not down.any():
            return s
        s = np.where(down, t, s)
    return np.where(down, np.nan, s)


def distance_to_identity_many(hs: np.ndarray, metric: StrainMetric) -> np.ndarray:
    """Bulk identity distances for a stack of transformations (n, 3, 3).

    Each exponent takes one path, all from the columns of H and the six
    entries of H^T H formed as their dot products:

    - r = 2: |H^T H - I|_F (the nu_i**2 are the eigenvalues of H^T H),
      with an absolute rounding error near 1e-16 |H|_F**2.
    - r = 1: sqrt(I1 - 2 s + 3) with I1 = |H|_F**2 and the stretch sum s
      found by Newton from I1, |cof H|_F**2 and |det H| (see
      ``_stretch_sums``).  Rows where that difference cancels (below
      ``_CANCEL`` I1, as near a rotation), or where Newton gives no
      answer, take the ``eigvalsh`` path; on random, ill-conditioned
      (singular values in [1e-2, 1e2]) and near-rotation inputs the
      result agrees with the SVD to 3e-14 (1 + d).
    - every other r: a batched ``eigvalsh`` of H^T H, which agrees with
      the SVD of the scalar path to 1e-12 for well-conditioned H.

    So r = 1 and r = 2 make no per-matrix LAPACK call outside the
    near-rotation rows.  A power past the float range (a large |r|)
    gives an infinite distance, without a warning.
    """
    h = np.asarray(hs, dtype=float)
    a, b, c = np.ascontiguousarray(h.transpose(2, 1, 0))  # the columns, (3, n) each
    r = metric.r
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gram = (_dot(a, a), _dot(b, b), _dot(c, c), _dot(a, b), _dot(a, c), _dot(b, c))
        if r == 2.0:
            g00, g11, g22, g01, g02, g12 = gram
            return np.sqrt((g00 - 1.0) ** 2 + (g11 - 1.0) ** 2 + (g22 - 1.0) ** 2
                           + 2.0 * (g01**2 + g02**2 + g12**2))
        if r != 1.0:
            return _eigen_distances(gram, r)
        i1 = gram[0] + gram[1] + gram[2]
        ab = _cross(a, b)
        i2 = sum(_dot(x, x) for x in (ab, _cross(b, c), _cross(c, a)))
        d1sq = i1 - 2.0 * _stretch_sums(i1, i2, np.abs(_dot(c, ab))) + 3.0
        out = np.sqrt(d1sq)
        near = ~(d1sq >= _CANCEL * i1)
        if near.any():
            out[near] = _eigen_distances(tuple(g[near] for g in gram), r)
        return out


def distance_many(fs: np.ndarray, gs: np.ndarray, metric: StrainMetric) -> np.ndarray:
    """Bulk pairwise strain distances for stacks of generators."""

    def gram_power(ms):
        # (M^T M)^(r/2) = V diag(s^r) V^T from the SVD M = U diag(s) V^T,
        # without forming M^T M, which would square the condition number
        _, s, vt = np.linalg.svd(np.asarray(ms, dtype=float))
        return np.einsum("npi,np,npj->nij", vt, s**metric.r, vt)

    diff = gram_power(fs) - gram_power(gs)
    return np.sqrt((diff**2).sum(axis=(1, 2)))
