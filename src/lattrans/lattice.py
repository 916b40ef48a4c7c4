"""Bravais lattice descriptions.

Bases (columns are lattice vectors, in length units such as angstroms;
the atom density of a primitive basis B is 1 / det(B)), conventional-cell
centrings and their primitive equivalents, and conversion from triclinic
cell parameters.  The rotation groups of lattices, the cube's among them,
are found by the search itself (see ``optimizer``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, inf, radians, sin, sqrt

import numpy as np

from .errors import InfeasibleAngles, NotRightHanded
from .matrix3 import as_matrix3, det

CENTRINGS = ("P", "C", "I", "F")

# Column-combination matrices taking a conventional cell {a, b, c} to a
# primitive cell generating the same lattice (primitive = basis @ T).
# det T = 1, 1/2, 1/2, 1/4, so each keeps the basis right-handed.
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
    return b @ t


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
        if not all(0.0 < x < inf for x in (self.a, self.b, self.c)):
            raise ValueError("cell lengths must be positive and finite")
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
