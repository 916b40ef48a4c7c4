"""Package-level checks: the public surface and the test-session settings."""

import types

import lattrans

PUBLIC_NAMES = {
    "BAIN_MU0", "TEREPHTHALIC_I", "TEREPHTHALIC_II", "TEREPHTHALIC_MU_MIN",
    "bain_excited_distance", "bain_min_distance", "bain_spectrum", "bain_with_volume",
    "bcc_basis", "bct_basis", "bct_region_scan", "bct_stability_flags", "fcc_basis",
    "terephthalic_case", "verify_bain",
    "BudgetExceeded", "InfeasibleAngles", "LatTransError", "NotPositiveDefinite",
    "NotRightHanded", "SingularMatrix", "VerificationFailed", "ZeroVector",
    "LatticeSpec", "TriclinicParams", "cubic_point_group", "primitive_from_centred",
    "resolve_primitive", "same_lattice", "triclinic_to_primitive",
    "det", "inverse", "singular_values", "spd_power",
    "StrainMetric", "distance", "distance_to_identity", "vector_stretch_bound",
    "OptimalityReport", "SearchBound", "group_classes", "point_group_orbit",
    "search_bound", "solve",
    "EnumerationStats", "count_slk", "integer_inverse", "materialize_slk",
}


def test_public_surface_is_pinned():
    # a change here is an API change and needs a CHANGES.md note
    public = {
        name for name in dir(lattrans)
        if not name.startswith("_") and not isinstance(getattr(lattrans, name), types.ModuleType)
    }
    assert public == PUBLIC_NAMES


PROBE = """
import numpy as np
from hypothesis import given, strategies as st


@given(st.integers())
def test_hypothesis_failure(x):
    assert x < 0


def test_passes():
    pass


def test_numpy_warning():
    np.float64(1.0) / 0.0
"""


def test_failing_hypothesis_test_does_not_abort_the_session(pytester, pytestconfig):
    # hypothesis's failure report imports libcst on first use, so the probe
    # runs in a fresh interpreter under this suite's warning filters
    filters = pytestconfig.getini("filterwarnings")
    assert "error" in filters
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(test_probe=PROBE)
    result = pytester.runpytest_subprocess()
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=2, passed=1)
    result.stdout.fnmatch_lines([
        "FAILED test_probe.py::test_hypothesis_failure - *",
        "FAILED test_probe.py::test_numpy_warning - RuntimeWarning*",
    ])
