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


def distance_to_identity_many(hs: np.ndarray, metric: StrainMetric) -> np.ndarray:
    """Bulk identity distances for a stack of transformations (n, 3, 3).

    At r = 2 it is |H^T H - I|_F (the nu_i**2 are the eigenvalues of
    H^T H), with no eigen-decomposition and an absolute rounding error
    near 1e-16 |H|_F**2; other exponents take a batched ``eigvalsh`` of
    H^T H, which agrees with the SVD of the scalar path to 1e-12 for
    well-conditioned H.  A power past the float range (a large |r|)
    gives an infinite distance, without a warning.
    """
    h = np.asarray(hs, dtype=float)
    gram = np.einsum("nji,njk->nik", h, h)
    with np.errstate(over="ignore", divide="ignore"):
        if metric.r == 2.0:
            return np.sqrt(((gram - np.eye(3)) ** 2).sum(axis=(1, 2)))
        lam = np.maximum(np.linalg.eigvalsh(gram), 0.0)
        return np.sqrt(((lam ** (metric.r / 2.0) - 1.0) ** 2).sum(axis=1))


def distance_many(fs: np.ndarray, gs: np.ndarray, metric: StrainMetric) -> np.ndarray:
    """Bulk pairwise strain distances for stacks of generators."""

    def gram_power(ms):
        # (M^T M)^(r/2) = V diag(s^r) V^T from the SVD M = U diag(s) V^T,
        # without forming M^T M, which would square the condition number
        _, s, vt = np.linalg.svd(np.asarray(ms, dtype=float))
        return np.einsum("npi,np,npj->nij", vt, s**metric.r, vt)

    diff = gram_power(fs) - gram_power(gs)
    return np.sqrt((diff**2).sum(axis=(1, 2)))
