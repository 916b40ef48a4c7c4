"""Optimal transformations between Bravais lattices.

Given generators F and G of two lattices, every map carrying one lattice
onto the other is H = G mu F^-1 for a determinant-one integer matrix mu.
This package minimises a family of strain distances of H to the identity
over mu, using a provably finite search radius, and ships the classical
reproductions (cubic fcc to bcc/bct, Terephthalic Acid) plus a CLI.
"""

from .applications import (
    BAIN_MU0,
    TEREPHTHALIC_I,
    TEREPHTHALIC_II,
    TEREPHTHALIC_MU_MIN,
    bain_excited_distance,
    bain_min_distance,
    bain_spectrum,
    bain_with_volume,
    bcc_basis,
    bct_basis,
    bct_region_scan,
    bct_stability_flags,
    fcc_basis,
    terephthalic_case,
    verify_bain,
)
from .errors import (
    BudgetExceeded,
    InfeasibleAngles,
    LatTransError,
    NotPositiveDefinite,
    NotRightHanded,
    SingularMatrix,
    VerificationFailed,
    ZeroVector,
)
from .lattice import (
    LatticeSpec,
    TriclinicParams,
    cubic_point_group,
    primitive_from_centred,
    resolve_primitive,
    same_lattice,
    triclinic_to_primitive,
)
from .matrix3 import det, inverse, singular_values, spd_power
from .metrics import (
    StrainMetric,
    distance,
    distance_to_identity,
    vector_stretch_bound,
)
from .optimizer import (
    OptimalityReport,
    SearchBound,
    group_classes,
    point_group_orbit,
    search_bound,
    solve,
)
from .unimodular import (
    EnumerationStats,
    count_slk,
    integer_inverse,
    materialize_slk,
)

__version__ = "0.1.0"
