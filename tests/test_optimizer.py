import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattrans import optimizer
from lattrans.applications import bct_basis
from lattrans.errors import BudgetExceeded, NotRightHanded, SingularMatrix
from lattrans.matrix3 import inverse
from lattrans.metrics import StrainMetric, distance_to_identity, tie_tolerance
from lattrans.unimodular import integer_inverse_batch, materialize_slk

from conftest import BAIN_MU0, BCC, FCC, TERE_F1, TERE_F2, random_rotation

D1 = StrainMetric(1.0)
D2 = StrainMetric(2.0)
DM2 = StrainMetric(-2.0)

CELLS = {
    "fcc-bcc": (FCC, BCC),
    "fcc-bct": (FCC, bct_basis(0.95, 1.1)),
    "terephthalic": (TERE_F1, TERE_F2),
    "fcc-fcc": (FCC, FCC),
    "identity": (np.eye(3), np.eye(3)),
}

BAIN_D1 = math.sqrt((2 ** (-1 / 3) - 1) ** 2 + 2 * (2 ** (1 / 6) - 1) ** 2)


def test_bound_identity_problem():
    bound = optimizer.search_bound(np.eye(3), np.eye(3), D1)
    assert bound.k == 1
    assert bound.m0 == 0.0
    assert bound.raw_bound == pytest.approx(1.0)
    assert bound.side == "direct"


def test_bound_terephthalic_radii():
    b1 = optimizer.search_bound(TERE_F1, TERE_F2, D1)
    assert b1.side == "direct" and b1.k == 3
    assert b1.raw_bound < math.sqrt(17.0)
    b2 = optimizer.search_bound(TERE_F1, TERE_F2, D2)
    assert b2.side == "direct" and b2.k == 3
    assert b2.raw_bound < 15.0
    bm2 = optimizer.search_bound(TERE_F1, TERE_F2, DM2)
    assert bm2.side == "inverse" and bm2.k == 2
    assert bm2.raw_bound < 10.0


def test_bound_rejects_bad_generators():
    with pytest.raises(SingularMatrix):
        optimizer.search_bound(np.diag([1.0, 1.0, 0.0]), np.eye(3), D1)
    with pytest.raises(NotRightHanded):
        optimizer.search_bound(np.diag([1.0, 1.0, -1.0]), np.eye(3), D1)


def test_solve_same_lattice():
    rep = optimizer.solve(FCC, FCC, D1)
    assert rep.m_min <= 1e-12
    assert any(np.array_equal(m.mu, np.eye(3, dtype=np.int64)) for m in rep.minimizers)


def test_solve_bain_d1():
    rep = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    assert len(rep.minimizers) == 72
    assert sorted(len(c.members) for c in rep.classes) == [24, 24, 24]
    assert rep.m_min == pytest.approx(BAIN_D1, abs=1e-14)
    assert rep.certified and not rep.tie_unresolved


def test_solve_bain_without_hint_same_result():
    hinted = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    plain = optimizer.solve(FCC, BCC, D1)
    assert plain.k_used >= hinted.k_used
    assert plain.m_min == hinted.m_min
    got = {tuple(m.mu.ravel()) for m in plain.minimizers}
    want = {tuple(m.mu.ravel()) for m in hinted.minimizers}
    assert got == want


def test_solve_terephthalic_d1():
    rep = optimizer.solve(TERE_F1, TERE_F2, D1)
    assert len(rep.classes) == 1
    assert np.array_equal(
        rep.minimizers[0].mu, np.array([[0, 1, 0], [1, 0, 0], [1, 1, -1]])
    )
    assert rep.m_min == pytest.approx(0.474, abs=1e-3)
    assert rep.gap > 0.015


def test_forced_small_radius_is_not_certified():
    rep = optimizer.solve(TERE_F1, TERE_F2, D1, k=1)
    assert not rep.certified
    assert rep.k_used == 1
    full = optimizer.solve(TERE_F1, TERE_F2, D1)
    assert full.m_min <= rep.m_min


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        optimizer.solve(TERE_F1, TERE_F2, D1, k=9)
    with pytest.raises(ValueError):
        optimizer.solve(TERE_F1, TERE_F2, D1, k=0)


def test_ranked_identity_ground_level_is_point_group():
    rep = optimizer.solve(np.eye(3), np.eye(3), D1, k=1)
    assert rep.m_min <= 1e-14
    assert len(rep.minimizers) == 24


def test_ranked_bain_excited_levels():
    want = {
        1.0: 2 ** -1.5 * math.sqrt(25 * 2 ** (1 / 3) - 4 * 2 ** (2 / 3) * (4 + math.sqrt(17)) + 24),
        2.0: 2 ** -3 * math.sqrt(305 * 2 ** (2 / 3) - 400 * 2 ** (1 / 3) + 192),
    }
    for r, target in want.items():
        rep = optimizer.solve(FCC, BCC, StrainMetric(r), k=2)
        assert len(rep.minimizers) == 72
        assert rep.m_second == pytest.approx(target, abs=1e-9)


def test_bound_soundness_outside_radius_one():
    # every candidate in the radius-2 box but outside radius 1 sits
    # strictly above the fcc->bcc optimum
    from lattrans.unimodular import materialize_slk

    finv = inverse(FCC)
    mus = materialize_slk(2)
    outside = mus[np.abs(mus).max(axis=(1, 2)) == 2]
    hs = (BCC @ outside.astype(float)) @ finv
    from lattrans.metrics import distance_to_identity_many

    ds = distance_to_identity_many(hs, D1)
    assert ds.min() > 2 ** (2 / 3) - 1 - 1e-12
    assert ds.min() > BAIN_D1


def test_reported_transformations_map_lattice_points():
    rep = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    rng = np.random.default_rng(0)
    for m in rep.minimizers[:8]:
        for _ in range(16):
            z = rng.integers(-5, 6, size=3).astype(float)
            lhs = m.h @ (FCC @ z)
            rhs = BCC @ (m.mu.astype(float) @ z)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_point_group_conjugation_leaves_report_invariant():
    from lattrans.lattice import cubic_point_group

    finv = inverse(FCC)
    base = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    for q in cubic_point_group()[[3, 11, 17]]:
        conj = finv @ q.astype(float) @ FCC
        assert np.allclose(conj, np.rint(conj), atol=1e-12)
        rep = optimizer.solve(FCC @ conj, BCC, D1)
        assert rep.m_min == pytest.approx(base.m_min, abs=1e-12)
        assert len(rep.classes) == len(base.classes)
        got = sorted(tuple(np.round(c.principal_stretches, 10)) for c in rep.classes)
        want = sorted(tuple(np.round(c.principal_stretches, 10)) for c in base.classes)
        assert got == want


def test_left_rotation_equivariance():
    rng = np.random.default_rng(1)
    base = optimizer.solve(TERE_F1, TERE_F2, DM2)
    rot = random_rotation(rng)
    rep = optimizer.solve(TERE_F1, rot @ TERE_F2, DM2)
    assert rep.m_min == pytest.approx(base.m_min, abs=1e-9)
    assert np.abs(
        rep.classes[0].stretch - base.classes[0].stretch
    ).max() < 1e-9


def _assert_matches_box(rep, f, g, r, k):
    """m_min, minimizer set and m_second equal one batched-SVD evaluation
    of the whole radius-k box."""
    box = materialize_slk(k)
    mus = integer_inverse_batch(box) if r < 0 else box
    nu = np.linalg.svd((g @ mus.astype(float)) @ inverse(f), compute_uv=False)
    d = np.sqrt(((nu**r - 1.0) ** 2).sum(axis=1))
    m_min = d.min()
    inside = d <= m_min + tie_tolerance(m_min)
    assert rep.m_min == pytest.approx(m_min, abs=1e-12)
    assert {tuple(m.mu.ravel()) for m in rep.minimizers} == {
        tuple(mu.ravel()) for mu in mus[inside]
    }
    assert rep.m_second == pytest.approx(d[~inside].min(), abs=1e-12)


@pytest.mark.parametrize(
    "cell, r, k",
    list(itertools.product(["fcc-bcc", "fcc-bct", "terephthalic"], [1.0, 2.0, -2.0], [1, 2, 3])),
)
def test_shell_search_matches_exhaustive_box(cell, r, k):
    f, g = CELLS[cell]
    rep = optimizer.solve(f, g, StrainMetric(r), k=k)
    _assert_matches_box(rep, f, g, r, k)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.85, 1.15),
    c=st.floats(0.85, 1.15),
    r=st.sampled_from([1.0, 2.0, -2.0]),
    k=st.integers(1, 2),
)
def test_shell_search_matches_exhaustive_box_random_bct(a, c, r, k):
    g = bct_basis(a, c)
    rep = optimizer.solve(FCC, g, StrainMetric(r), k=k)
    _assert_matches_box(rep, FCC, g, r, k)


@pytest.mark.parametrize(
    "cell, r, k",
    [("fcc-fcc", 1.0, None), ("fcc-fcc", -2.0, None), ("identity", 1.0, 1), ("identity", 1.0, 2)],
)
def test_identity_in_band_keeps_exact_m_second(cell, r, k):
    # mu = I is a minimizer, so no distance above the band lies within m0:
    # the shells must widen until they reach the first excited level
    f, g = CELLS[cell]
    rep = optimizer.solve(f, g, StrainMetric(r), k=k)
    assert rep.m_min <= 1e-12
    _assert_matches_box(rep, f, g, r, rep.k_used)


def test_sheared_product_basis_within_default_guard():
    # G' = G (I - e2 e1^T) raises the certified r = -2 radius from 3 to 7;
    # the first-column shell holds 959 vectors and the other two 225 each
    v = np.eye(3, dtype=np.int64)
    v[1, 0] = -1
    anchor = optimizer.solve(FCC, BCC, DM2, hint_mus=[BAIN_MU0])
    rep = optimizer.solve(FCC, BCC @ v, DM2)
    assert rep.k_used == 7 and rep.certified
    assert {tuple((v @ m.mu).ravel()) for m in rep.minimizers} == {
        tuple(m.mu.ravel()) for m in anchor.minimizers
    }
    assert abs(rep.m_min - anchor.m_min) <= tie_tolerance(anchor.m_min)


def test_ranked_negative_exponent_uses_inverse_box():
    rep = optimizer.solve(FCC, BCC, DM2, k=1)
    assert rep.bound.side == "inverse"
    assert rep.m_min == pytest.approx(
        math.sqrt((2 ** (2 / 3) - 1) ** 2 + 2 * (2 ** (-1 / 3) - 1) ** 2), abs=1e-12
    )
    assert len(rep.minimizers) == 72


def test_streaming_path_beyond_materialisation_matches_cached():
    # a radius above the materialisation limit must not change the optimum
    cached = optimizer.solve(FCC, BCC, D2, hint_mus=[BAIN_MU0])
    streamed = optimizer.solve(FCC, BCC, D2, k=4)
    assert streamed.k_used == 4 and streamed.certified
    assert streamed.m_min == cached.m_min
    assert {tuple(m.mu.ravel()) for m in streamed.minimizers} == {
        tuple(m.mu.ravel()) for m in cached.minimizers
    }


def test_forced_radius_above_bound_stays_certified():
    hinted = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    forced = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0], k=hinted.k_used + 1)
    assert forced.certified
    assert forced.m_min == hinted.m_min


def test_group_classes_single():
    classes = optimizer.group_classes([np.diag([1.1, 1.0, 0.9])])
    assert len(classes) == 1 and classes[0].members == [0]


def test_group_classes_rotated_copies_collapse():
    rng = np.random.default_rng(2)
    h = np.diag([1.2, 1.0, 0.8])
    hs = [random_rotation(rng) @ h for _ in range(5)] + [np.diag([0.8, 1.0, 1.2])]
    classes = optimizer.group_classes(hs)
    assert sorted(len(c.members) for c in classes) == [1, 5]


def test_orbit_of_identity_is_point_group():
    orbit = optimizer.point_group_orbit(np.eye(3, dtype=np.int64), np.eye(3), np.eye(3))
    assert len(orbit.mus) == 24
    assert orbit.dropped == 0


def test_orbit_reproduces_bain_minimizers():
    orbit = optimizer.point_group_orbit(BAIN_MU0, FCC, BCC)
    rep = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    assert len(orbit.mus) == 72 and orbit.dropped == 0
    assert {tuple(m.ravel()) for m in orbit.mus} == {
        tuple(m.mu.ravel()) for m in rep.minimizers
    }


def test_orbit_for_tetragonal_product_has_24_members():
    from lattrans.applications import bct_basis

    orbit = optimizer.point_group_orbit(BAIN_MU0, FCC, bct_basis(0.95, 1.1))
    assert len(orbit.mus) == 24
    assert orbit.dropped == 576 - 8 * 24


def test_incumbent_distance_shrinks_bound():
    loose = optimizer.search_bound(FCC, BCC, D1)
    tight = optimizer.search_bound(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    assert tight.k <= loose.k
    assert tight.m0 == loose.m0
    assert tight.raw_bound == pytest.approx(loose.raw_bound / (loose.m0 + 1.0) * (BAIN_D1 + 1.0))
    rep = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    assert len(rep.minimizers) == 72


def test_hint_worse_than_m0_leaves_bound_unchanged():
    plain = optimizer.search_bound(TERE_F1, TERE_F2, D1)
    worse = np.array([[3, 1, 0], [2, 1, 0], [0, 0, 1]])
    assert distance_to_identity(TERE_F2 @ worse @ inverse(TERE_F1), D1) > plain.m0
    assert optimizer.search_bound(TERE_F1, TERE_F2, D1, hint_mus=[worse]) == plain


def test_search_bound_column_max_is_first_column_for_triclinic_cell():
    # the first column of the published cell is (a, 0, 0), the longest one
    bound = optimizer.search_bound(TERE_F1, TERE_F2, D1)
    nu_min = np.linalg.svd(TERE_F2, compute_uv=False)[2]
    assert bound.raw_bound == pytest.approx(7.730 / nu_min * (bound.m0 + 1.0), rel=1e-12)


def test_integral_float_hint_counts_as_integer():
    exact = optimizer.search_bound(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    assert optimizer.search_bound(FCC, BCC, D1, hint_mus=[BAIN_MU0.astype(float)]) == exact


@pytest.mark.parametrize("hint", [
    np.array([[1, 1, 1], [0, 1.9, 0], [0, 1, 1]]),
    np.array([[1, 1, 1], [0, np.nan, 0], [0, 1, 1]]),
])
def test_non_integral_hint_is_rejected(hint):
    # truncating 1.9 to 1 would read the Bain correspondence and lower k
    with pytest.raises(ValueError, match="non-integer"):
        optimizer.search_bound(FCC, BCC, D1, hint_mus=[hint])
    with pytest.raises(ValueError, match="non-integer"):
        optimizer.solve(FCC, BCC, D1, hint_mus=[hint])


def test_hint_must_be_a_3x3_matrix():
    with pytest.raises(ValueError, match="3x3"):
        optimizer.search_bound(FCC, BCC, D1, hint_mus=[BAIN_MU0.ravel()])


def test_hint_must_be_a_correspondence():
    # H = diag(0.5, 1, 1) diag(2, 1, 1) = I maps onto a sublattice only; its
    # distance 0 is not achievable and would shrink the radius from 2 to 1
    g = np.diag([0.5, 1.0, 1.0])
    assert optimizer.search_bound(np.eye(3), g, D1).k == 2
    for hint in (np.diag([2, 1, 1]), np.diag([1, 1, -1])):
        with pytest.raises(ValueError):
            optimizer.search_bound(np.eye(3), g, D1, hint_mus=[hint])
        with pytest.raises(ValueError):
            optimizer.solve(np.eye(3), g, D1, hint_mus=[hint])
