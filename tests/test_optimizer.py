import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattrans import optimizer
from lattrans.applications import bct_basis
from lattrans.errors import BudgetExceeded, NotRightHanded, SingularMatrix
from lattrans.matrix3 import adjugate, det, inverse
from lattrans.metrics import StrainMetric, distance_to_identity, tie_tolerance
from lattrans.unimodular import _box_triples, _det1_blocks, materialize_slk

from conftest import (BAIN_MU0, BCC, FCC, TERE_F1, TERE_F2, TERE_MU, box_distances,
                      random_rotation)

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
    assert rep.certified
    assert rep.gap is None or rep.gap > tie_tolerance(rep.m_min)


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
    finv = inverse(FCC)
    base = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    for q in optimizer.cubic_point_group()[[3, 11, 17]]:
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
    mus, d = box_distances(f, g, r, k)
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


@settings(max_examples=6, deadline=None)
@given(a=st.floats(0.85, 1.15), c=st.floats(0.85, 1.15), r=st.sampled_from([1.0, 2.0, -2.0]))
def test_shell_search_matches_exhaustive_box_random_bct_certified(a, c, r):
    # unforced: the search starts below the answer and raises its threshold
    # pass by pass inside the certified radius (3 for every such cell)
    g = bct_basis(a, c)
    rep = optimizer.solve(FCC, g, StrainMetric(r))
    assert rep.certified and rep.k_used == optimizer.search_bound(FCC, g, StrainMetric(r)).k == 3
    _assert_matches_box(rep, FCC, g, r, rep.k_used)


@pytest.mark.parametrize("cell, r", [("fcc-bcc", 1.0), ("fcc-bcc", 2.0), ("fcc-bcc", -2.0),
                                     ("fcc-bct", 1.0), ("terephthalic", -2.0),
                                     ("fcc-fcc", 2.0)])
def test_shell_search_evaluates_each_triple_once(cell, r, monkeypatch):
    # every evaluated H = G mu F^-1 names its mu; none may come twice, over
    # all threshold passes, and no more than the box holds.  r < 0 searches
    # G -> F at |r|: each evaluated K = F mu' G^-1 names mu' = mu^-1
    f, g = CELLS[cell]
    evaluated = []
    evaluator = optimizer.distance_to_identity_many

    def spy(hs, metric):
        evaluated.append(hs)
        return evaluator(hs, metric)

    monkeypatch.setattr(optimizer, "distance_to_identity_many", spy)
    metric = StrainMetric(r)
    rep = optimizer.solve(f, g, metric)
    a, b = (f, g) if r > 0 else (g, f)
    searched = np.rint(inverse(b) @ np.concatenate(evaluated) @ a).astype(np.int64)
    mus = searched if r > 0 else adjugate(searched)
    assert len(mus) == rep.candidates <= materialize_slk(rep.k_used).shape[0]
    assert len(np.unique(mus.reshape(-1, 9), axis=0)) == len(mus)
    *_, fold = optimizer._shell_passes(a, b, StrainMetric(abs(r)), rep.k_used)
    assert len(optimizer._lex_unique(fold.mus)) == len(fold.mus) == len(rep.minimizers)


def test_search_steps_past_a_first_pass_without_triples():
    # Terephthalic I -> II (I + e2 e3^T) at r = -2: the shells at the
    # starting threshold t0 = max_j min_i lower[j, i] hold no det-1
    # triple, so the first matrix comes from a later pass
    shear = np.eye(3)
    shear[1, 2] = 1.0
    g = TERE_F2 @ shear
    bound = optimizer.search_bound(TERE_F1, g, DM2)
    assert bound.side == "inverse" and bound.k == 3
    box = _box_triples(bound.k)
    lower = optimizer._column_bounds(TERE_F1, g, 2.0, box)
    t0 = lower.min(axis=1).max()
    shells = [box[m] for m in lower <= t0 + tie_tolerance(t0)]
    assert all(len(s) for s in shells) and not list(_det1_blocks(shells))
    rep = optimizer.solve(TERE_F1, g, DM2)
    assert rep.k_used == 3 and rep.certified
    _assert_matches_box(rep, TERE_F1, g, -2.0, 3)


@pytest.mark.parametrize("r", [1.0, 2.0, -2.0])
def test_hints_reach_the_reduced_bases(r):
    # F U and G V with U = I + 3 e1 e2^T and V = I - 3 e3 e2^T type radius
    # 94, 92 and 127, so both searches run on the LLL-reduced bases; the
    # hint V^-1 mu0 U is the Bain correspondence in the typed bases
    u = np.eye(3, dtype=np.int64)
    u[0, 1] = 3
    v = np.eye(3, dtype=np.int64)
    v[2, 1] = -3
    f, g, metric = FCC @ u, BCC @ v, StrainMetric(r)
    assert optimizer.search_bound(f, g, metric).k > 90
    plain = optimizer.solve(f, g, metric)
    hinted = optimizer.solve(f, g, metric, hint_mus=[adjugate(v) @ BAIN_MU0 @ u])
    assert hinted.certified and hinted.k_used < plain.k_used
    assert hinted.m_min == plain.m_min
    assert ({tuple(m.mu.ravel()) for m in hinted.minimizers}
            == {tuple(m.mu.ravel()) for m in plain.minimizers})


def test_sheared_product_basis_within_default_guard():
    # G' = G (I - e2 e1^T) raises the certified r = -2 radius from 3 to 7;
    # forced to it, the first-column shell holds 959 vectors and the other
    # two 225 each; unforced, the search runs on the reduced bases
    v = np.eye(3, dtype=np.int64)
    v[1, 0] = -1
    anchor = optimizer.solve(FCC, BCC, DM2, hint_mus=[BAIN_MU0])
    want = {tuple(m.mu.ravel()) for m in anchor.minimizers}
    rep = optimizer.solve(FCC, BCC @ v, DM2, k=7)
    assert rep.k_used == 7 and rep.certified
    assert {tuple((v @ m.mu).ravel()) for m in rep.minimizers} == want
    assert abs(rep.m_min - anchor.m_min) <= tie_tolerance(anchor.m_min)
    unforced = optimizer.solve(FCC, BCC @ v, DM2)
    assert unforced.k_used <= 3 and unforced.certified
    assert {tuple((v @ m.mu).ravel()) for m in unforced.minimizers} == want


def test_ranked_negative_exponent_uses_inverse_box():
    rep = optimizer.solve(FCC, BCC, DM2, k=1)
    assert rep.bound.side == "inverse"
    assert rep.m_min == pytest.approx(
        math.sqrt((2 ** (2 / 3) - 1) ** 2 + 2 * (2 ** (-1 / 3) - 1) ** 2), abs=1e-12
    )
    assert len(rep.minimizers) == 72


def test_negative_exponent_keeps_accuracy_at_high_condition():
    # G = Q diag(s, 1, 1/s) at r = -2: the identity correspondence sits at
    # sqrt((s**2 - 1)**2 + (s**-2 - 1)**2); eigenvalues of H^T H raised to
    # the power -1 lose about 1e-9 of it at s = 100
    s = 100.0
    g = random_rotation(np.random.default_rng(7)) @ np.diag([s, 1.0, 1.0 / s])
    rep = optimizer.solve(np.eye(3), g, DM2, k=1)
    want = math.sqrt((s**2 - 1.0) ** 2 + (s**-2 - 1.0) ** 2)
    assert abs(rep.m_min - want) <= 1e-12 * want
    assert (1, 0, 0, 0, 1, 0, 0, 0, 1) in {tuple(m.mu.ravel()) for m in rep.minimizers}


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


def test_group_classes_split_grams_apart_by_more_than_the_tie_band():
    # the Gram matrices differ by 1e-7 relative, 100 tie bands apart
    h = np.diag([1.2, 1.0, 0.8])
    classes = optimizer.group_classes([h, h @ np.diag([1.0 + 1e-7, 1.0, 1.0])])
    assert [c.members for c in classes] == [[0], [1]]


def test_cold_point_group_takes_no_eigenvalues(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    misses = optimizer._basis_point_group.cache_info().misses
    group = optimizer._point_group(1.25 * FCC)
    assert optimizer._basis_point_group.cache_info().misses == misses + 1
    assert len(group) == 24


def test_orbit_of_identity_is_point_group():
    orbit = optimizer.point_group_orbit(np.eye(3, dtype=np.int64), np.eye(3), np.eye(3))
    assert len(orbit.mus) == 24
    assert all(np.array_equal(a, b) for a, b in zip(orbit.mus, optimizer.cubic_point_group()))


def test_orbit_reproduces_bain_minimizers():
    orbit = optimizer.point_group_orbit(BAIN_MU0, FCC, BCC)
    rep = optimizer.solve(FCC, BCC, D1, hint_mus=[BAIN_MU0])
    assert len(orbit.mus) == 72
    assert {tuple(m.ravel()) for m in orbit.mus} == {
        tuple(m.mu.ravel()) for m in rep.minimizers
    }


def test_orbit_for_tetragonal_product_has_24_members():
    from lattrans.applications import bct_basis

    orbit = optimizer.point_group_orbit(BAIN_MU0, FCC, bct_basis(0.95, 1.1))
    assert len(orbit.mus) == 24


# hexagonal lattice, a = 1 and c = 1.6: its rotation group 622 has 12
# elements, only 4 of them cube rotations in this frame
HEX = np.array([[1.0, -0.5, 0.0], [0.0, math.sqrt(3.0) / 2.0, 0.0], [0.0, 0.0, 1.6]])
I3 = np.eye(3, dtype=np.int64)


def test_hexagonal_orbit_is_the_distance_zero_solution_set():
    orbit = optimizer.point_group_orbit(I3, HEX, HEX)
    rep = optimizer.solve(HEX, HEX, D1)
    assert rep.m_min <= 1e-14
    assert len(orbit.mus) == len(rep.minimizers) == 12
    assert all(np.array_equal(a, m.mu) for a, m in zip(orbit.mus, rep.minimizers))


def test_orbit_does_not_depend_on_the_cartesian_frame():
    rot = random_rotation(np.random.default_rng(5))
    assert len(optimizer.point_group_orbit(I3, rot @ FCC, rot @ FCC).mus) == 24


def test_point_group_is_cached_per_basis():
    first = optimizer.point_group_orbit(BAIN_MU0, FCC, BCC)
    group = optimizer._point_group(FCC)
    assert optimizer._point_group(FCC.copy()) is group and not group.flags.writeable
    second = optimizer.point_group_orbit(BAIN_MU0, FCC, BCC)
    assert len(second.mus) == 72
    assert all(np.array_equal(a, b) for a, b in zip(first.mus, second.mus))


def test_point_group_radius_past_the_guard_is_refused():
    # diag(1, 1, 100) is LLL-reduced already: its own radius is 99 either way
    f = np.diag([1.0, 1.0, 100.0])
    with pytest.raises(BudgetExceeded, match="k=99 exceeds"):
        optimizer.point_group_orbit(I3, f, f)


@pytest.mark.parametrize("f", [FCC, HEX])
def test_point_groups_of_two_bases_are_conjugate(f):
    # L(F U) = L(F): its group is U^-1 P U over the group P of F, not the
    # group cached for F
    u = _elementary_shear(0, 1, 1) @ _elementary_shear(2, 1, -1)
    group = optimizer._point_group(f)
    rebased = optimizer._point_group(f @ u)
    assert {tuple(p.ravel()) for p in rebased} == {
        tuple((adjugate(u) @ p @ u).ravel()) for p in group
    }


@pytest.mark.parametrize("cell", [TERE_F1, TERE_F2])
def test_triclinic_rotation_group_is_trivial(cell):
    orbit = optimizer.point_group_orbit(I3, cell, cell)
    assert len(orbit.mus) == 1 and np.array_equal(orbit.mus[0], I3)


def _elementary_shear(i, j, s):
    u = np.eye(3, dtype=np.int64)
    u[i, j] = s
    return u


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), i=st.integers(0, 2), step=st.integers(1, 2),
       s=st.sampled_from([-2, -1, 1, 2]), sheared=st.sampled_from(["parent", "product"]))
def test_rebased_bain_orbit_maps_back_to_the_bain_orbit(seed, i, step, s, sheared):
    # F' = R F U and G' = R' G V with one of U, V an elementary shear: the
    # orbit of mu' = V^-1 mu0 U maps back by mu = V mu' U^-1
    rng = np.random.default_rng(seed)
    shear = _elementary_shear(i, (i + step) % 3, s)
    u, v = (shear, I3) if sheared == "parent" else (I3, shear)
    f = random_rotation(rng) @ FCC @ u
    g = random_rotation(rng) @ BCC @ v
    u_inv, v_inv = adjugate(u), adjugate(v)
    orbit = optimizer.point_group_orbit(v_inv @ BAIN_MU0 @ u, f, g)
    mapped = {tuple((v @ mu @ u_inv).ravel()) for mu in orbit.mus}
    bain = optimizer.point_group_orbit(BAIN_MU0, FCC, BCC)
    assert len(orbit.mus) == 72
    assert mapped == {tuple(mu.ravel()) for mu in bain.mus}


@pytest.mark.parametrize("f", [
    FCC @ _elementary_shear(0, 1, 3),
    BCC @ _elementary_shear(2, 0, -2) @ _elementary_shear(1, 2, 3),
    TERE_F1 @ _elementary_shear(0, 1, 2),
    TERE_F2,
])
def test_lll_keeps_the_lattice_and_its_handedness(f):
    reduced, u = optimizer._lll(f)
    assert u.dtype == np.int64 and det(u) == 1
    assert np.array_equal(reduced, f @ u)
    again, w = optimizer._lll(reduced)
    assert np.array_equal(w, I3) and np.array_equal(again, reduced)


def test_sheared_terephthalic_orbit_matches_the_unsheared_one():
    # the sheared parent's own radius is 11, past the guard of 8
    shear = _elementary_shear(0, 1, 3)
    assert optimizer.search_bound(TERE_F1 @ shear, TERE_F1 @ shear, D1).k == 11
    sheared = optimizer.point_group_orbit(I3, TERE_F1 @ shear, TERE_F2)
    assert len(sheared.mus) == len(optimizer.point_group_orbit(I3, TERE_F1, TERE_F2).mus)


def test_strongly_sheared_bain_orbit_maps_back_to_the_bain_orbit():
    u, v = _elementary_shear(0, 1, 3), _elementary_shear(2, 1, -3)
    u_inv, v_inv = adjugate(u), adjugate(v)
    orbit = optimizer.point_group_orbit(v_inv @ BAIN_MU0 @ u, FCC @ u, BCC @ v)
    bain = optimizer.point_group_orbit(BAIN_MU0, FCC, BCC)
    assert len(orbit.mus) == 72
    assert {tuple((v @ mu @ u_inv).ravel()) for mu in orbit.mus} == {
        tuple(mu.ravel()) for mu in bain.mus
    }


_ANCHOR_CELLS = {"fcc-bcc": (FCC, BCC, BAIN_MU0), "terephthalic": (TERE_F1, TERE_F2, TERE_MU)}


@functools.lru_cache(maxsize=None)
def _anchor(cell, r):
    f, g, hint = _ANCHOR_CELLS[cell]
    return optimizer.solve(f, g, StrainMetric(r), hint_mus=[hint])


_shears = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 2), st.sampled_from([-3, -2, -1, 1, 2, 3])),
    min_size=1, max_size=3)


@pytest.mark.parametrize("cell", sorted(_ANCHOR_CELLS))
@pytest.mark.parametrize("r", [1.0, 2.0, -2.0])
@settings(max_examples=8, deadline=None)
@given(shears=_shears, sheared=st.sampled_from(["parent", "product"]))
def test_solve_does_not_depend_on_the_basis(cell, r, shears, sheared):
    # F' = F U or G' = G V with the other one unchanged: mu = V mu' U^-1
    # gives back the anchor's minimizer set at the anchor's m_min
    w = functools.reduce(np.matmul, [_elementary_shear(i, (i + step) % 3, s)
                                     for i, step, s in shears])
    u, v = (w, I3) if sheared == "parent" else (I3, w)
    f, g, _ = _ANCHOR_CELLS[cell]
    anchor = _anchor(cell, r)
    rep = optimizer.solve(f @ u, g @ v, StrainMetric(r))
    assert rep.certified
    assert rep.gap is None or rep.gap > tie_tolerance(rep.m_min)
    assert abs(rep.m_min - anchor.m_min) <= tie_tolerance(anchor.m_min)
    u_inv = adjugate(u)
    assert {tuple((v @ m.mu @ u_inv).ravel()) for m in rep.minimizers} == {
        tuple(m.mu.ravel()) for m in anchor.minimizers
    }


@pytest.mark.parametrize("mu0", [2 * I3, np.diag([1, 1, -1]), np.full((3, 3), 0.5)])
def test_orbit_requires_a_correspondence(mu0):
    with pytest.raises(ValueError):
        optimizer.point_group_orbit(mu0, FCC, BCC)


@pytest.mark.parametrize("huge", ["parent", "product"])
def test_overflowing_generator_is_a_value_error(huge):
    # det and |.|_F**3 of 1e120 I overflow: one ValueError, no warning
    big = np.eye(3) * 1e120
    f, g = (big, FCC) if huge == "parent" else (FCC, big)
    with pytest.raises(ValueError, match=f"{huge} generator overflows"):
        optimizer.solve(f, g, D1)
    with pytest.raises(ValueError, match=f"{huge} generator overflows"):
        optimizer.point_group_orbit(I3, f, g)


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


def test_search_bound_takes_one_more_k_at_a_rounded_boundary():
    # F = 0.7 diag(phi, 1, 1), G = 0.7 I at r = 1: the limit is
    # |F|_cols / nu_min(G) * (m0 + 1) = phi (2 - 1/phi) = sqrt(5) = hypot(2, 1)
    # exactly, and one ulp below it in floats, so radius 1 would leave out
    # the boundary column (2, 1, 0)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    f, g = 0.7 * np.diag([phi, 1.0, 1.0]), 0.7 * np.eye(3)
    bound = optimizer.search_bound(f, g, D1)
    assert bound.raw_bound < math.hypot(2.0, 1.0)
    assert bound.raw_bound == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert bound.k == 2


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


@pytest.mark.parametrize("r", [400.0, -400.0, 1500.0, 1e5, -1e5])
def test_large_exponent_gives_a_finite_minimum_or_a_budget_error(r):
    # a power past the float range makes the bound or a distance infinite,
    # not a warning or an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rep = optimizer.solve(FCC, BCC, StrainMetric(r))
        except BudgetExceeded as exc:
            assert "unbounded" in str(exc)
        else:
            assert math.isfinite(rep.m_min) and rep.certified
