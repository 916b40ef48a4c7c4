"""Strain pseudometrics on lattice generators.

The family is indexed by a nonzero real exponent r and measures the
Frobenius distance between the r/2 powers of the right Cauchy-Green
tensors F^T F and G^T G (the Doyle-Ericksen strain measures).  Against
the identity the distance depends only on the principal stretches nu_i of
the transformation:

    distance_to_identity(H) = sqrt(sum_i (nu_i**r - 1)**2)

which is how the bulk evaluation path computes it.  The distance
vanishes exactly when the two generators differ by a rotation, so it
induces a true metric on generators modulo rotation without any explicit
minimisation over rotations.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import ZeroVector
from .matrix3 import _require_invertible, as_matrix3, singular_values

#: Two distances tie when |d1 - d2| <= TIE_REL_TOL * (1 + m_min).  Exact
#: degeneracies land within machine epsilon of each other while genuine
#: gaps in the problems of interest exceed 1e-2.
TIE_REL_TOL = 1e-9


@dataclass(frozen=True)
class StrainMetric:
    """Selects the member of the strain-metric family by its exponent."""

    r: float

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r == 0.0:
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
    ``distance(h, identity)`` to 1e-10.
    """
    nu = singular_values(h)
    return float(np.sqrt(((nu**metric.r - 1.0) ** 2).sum()))


def distance_to_identity_many(hs: np.ndarray, metric: StrainMetric) -> np.ndarray:
    """Bulk identity distances for a stack of transformations (n, 3, 3).

    Batched ``eigvalsh`` of H^T H, used by the exhaustive search; the
    scalar path above takes an SVD of H itself, a different LAPACK
    routine, and the two agree to 1e-12.
    """
    h = np.asarray(hs, dtype=float)
    gram = np.einsum("nji,njk->nik", h, h)
    lam = np.maximum(np.linalg.eigvalsh(gram), 0.0)
    with np.errstate(divide="ignore"):
        powered = lam ** (metric.r / 2.0)
    return np.sqrt(((powered - 1.0) ** 2).sum(axis=1))


def distance_many(fs: np.ndarray, gs: np.ndarray, metric: StrainMetric) -> np.ndarray:
    """Bulk pairwise strain distances for stacks of generators."""

    def gram_power(ms):
        # (M^T M)^(r/2) = V diag(s^r) V^T from the SVD M = U diag(s) V^T,
        # without forming M^T M, which would square the condition number
        _, s, vt = np.linalg.svd(np.asarray(ms, dtype=float))
        return np.einsum("npi,np,npj->nij", vt, s**metric.r, vt)

    diff = gram_power(fs) - gram_power(gs)
    return np.sqrt((diff**2).sum(axis=(1, 2)))


def vector_stretch_bound(h, f, metric: StrainMetric) -> float:
    """Lower bound on distance_to_identity from one transformed vector.

    For s = r > 0, |H f|**s / |f|**s - 1 never exceeds the identity
    distance, which is what lets the search radius be finite.
    """
    if metric.r <= 0.0:
        raise ValueError("the stretch-ratio bound applies to positive exponents")
    h = as_matrix3(h)
    _require_invertible(h)
    fv = np.asarray(f, dtype=float).reshape(3)
    norm = float(np.sqrt((fv * fv).sum()))
    if norm == 0.0:
        raise ZeroVector("lattice vector must be nonzero")
    image = float(np.sqrt(((h @ fv) ** 2).sum()))
    return (image / norm) ** metric.r - 1.0
