"""Bravais lattice descriptions.

Bases (columns are lattice vectors, in length units such as angstroms;
the atom density of a primitive basis B is 1 / det(B)), conventional-cell
centrings and their primitive equivalents, conversion from triclinic cell
parameters, the 24-element rotation group of the cube, and
identical-basis testing.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from functools import lru_cache
from math import cos, radians, sin, sqrt

import numpy as np

from .errors import InfeasibleAngles, NotRightHanded
from .matrix3 import as_matrix3, det, inverse

log = logging.getLogger(__name__)

CENTRINGS = ("P", "C", "I", "F")

#: Integrality tolerance: a float entry counts as an integer when within
#: this distance of one.  Lattice parameters carry ~4 significant digits,
#: so this cleanly separates rounding noise from genuine non-integrality.
INT_TOL = 1e-6

# Column-combination matrices taking a conventional cell {a, b, c} to a
# primitive cell generating the same lattice (primitive = basis @ T).
_CENTRING_T = {
    "P": np.eye(3),
    # {(a-b)/2, (a+b)/2, c}
    "C": np.array([[0.5, 0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
    # {(-a+b+c)/2, (a-b+c)/2, (a+b-c)/2}
    "I": 0.5 * np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]),
    # {(b+c)/2, (a+c)/2, (a+b)/2}
    "F": 0.5 * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
}


def primitive_from_centred(basis, centring: str) -> np.ndarray:
    """Primitive basis generating the same lattice as a centred cell.

    ``basis`` holds the conventional-cell vectors {a, b, c} as columns;
    ``centring`` is one of P (primitive), C (base-centred), I
    (body-centred) or F (face-centred).
    """
    b = as_matrix3(basis)
    if det(b) <= 0.0:
        raise NotRightHanded("cell basis must have positive determinant")
    try:
        t = _CENTRING_T[centring]
    except KeyError:
        raise ValueError(f"unknown centring {centring!r}; expected one of {CENTRINGS}")
    prim = b @ t
    if det(prim) <= 0.0:
        # Unreachable for valid input: every conversion above preserves
        # orientation.  Kept as a defensive relabeling (swapping two
        # columns does not change the generated point set).
        log.warning("centring conversion flipped orientation; swapping columns 1 and 2")
        prim = prim[:, [1, 0, 2]]
    return prim


@dataclass(frozen=True)
class TriclinicParams:
    """Triclinic cell parameters: lengths in angstroms, angles in degrees."""

    a: float
    b: float
    c: float
    alpha: float
    beta: float
    gamma: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0.0:
            raise ValueError("cell lengths must be positive")
        for name in ("alpha", "beta", "gamma"):
            angle = getattr(self, name)
            if not 0.0 < angle < 180.0:
                raise ValueError(f"{name} must lie strictly between 0 and 180 degrees")


def triclinic_to_primitive(p: TriclinicParams) -> np.ndarray:
    """Upper-triangular primitive basis with the given lengths and angles.

    Column lengths are (a, b, c) and the pairwise angles between columns
    (1,2), (1,3), (2,3) are (gamma, beta, alpha).  Any basis with these
    parameters generates the same lattice up to an overall rotation.
    """
    al, be, ga = radians(p.alpha), radians(p.beta), radians(p.gamma)
    cx = cos(be)
    cy = (cos(al) - cos(be) * cos(ga)) / sin(ga)
    arg = sin(be) ** 2 - cy * cy
    if arg <= 0.0:
        raise InfeasibleAngles(
            f"angle triple ({p.alpha}, {p.beta}, {p.gamma}) does not close a cell"
        )
    return np.array(
        [
            [p.a, p.b * cos(ga), p.c * cx],
            [0.0, p.b * sin(ga), p.c * cy],
            [0.0, 0.0, p.c * sqrt(arg)],
        ]
    )


@dataclass(frozen=True)
class LatticeSpec:
    """User-facing lattice description.

    Exactly one of ``basis`` (columns are lattice vectors) or
    ``triclinic`` must be given; ``centring`` describes the conventional
    cell and defaults to primitive.
    """

    basis: np.ndarray | None = None
    triclinic: TriclinicParams | None = None
    centring: str = "P"

    def __post_init__(self):
        if (self.basis is None) == (self.triclinic is None):
            raise ValueError("give exactly one of basis or triclinic parameters")
        if self.centring not in CENTRINGS:
            raise ValueError(f"unknown centring {self.centring!r}")
        if self.basis is not None:
            object.__setattr__(self, "basis", as_matrix3(self.basis))


def resolve_primitive(spec: LatticeSpec) -> np.ndarray:
    """Primitive generator matrix for a lattice description."""
    cell = spec.basis if spec.basis is not None else triclinic_to_primitive(spec.triclinic)
    return primitive_from_centred(cell, spec.centring)


@lru_cache(maxsize=1)
def cubic_point_group() -> np.ndarray:
    """The 24 rotation matrices mapping a cube to itself.

    These are exactly the signed permutation matrices with determinant +1,
    i.e. the orthogonal unimodular integer matrices.  Returned as a
    read-only (24, 3, 3) int64 array in lexicographic order.
    """
    mats = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            m = np.zeros((3, 3), dtype=np.int64)
            for j in range(3):
                m[perm[j], j] = signs[j]
            if det(m) == 1:
                mats.append(m)
    mats.sort(key=lambda m: tuple(m.ravel()))
    group = np.stack(mats)
    group.setflags(write=False)
    return group


def same_lattice(f, g) -> np.ndarray | None:
    """Change of basis mu with G = F mu, if the two bases generate the
    same lattice; None otherwise.

    mu is returned as an integer matrix with determinant +1.
    """
    f = as_matrix3(f)
    g = as_matrix3(g)
    mu_f = inverse(f) @ g
    mu = np.rint(mu_f)
    if np.abs(mu_f - mu).max() > INT_TOL:
        return None
    mu = mu.astype(np.int64)
    if det(mu) != 1:
        return None
    return mu
