import hashlib
import math

import numpy as np
import pytest

from lattrans import applications as app
from lattrans import optimizer
from lattrans.matrix3 import det
from lattrans.metrics import StrainMetric, distance_to_identity

from conftest import BAIN_MU0, FCC


def test_standard_bases_shapes_and_density():
    # four lattice points per unit cube: atom density 1 / det = 4
    for basis in (app.fcc_basis(), app.bcc_basis(), app.bct_basis(1.0, 1.0)):
        assert basis.shape == (3, 3)
        assert 1.0 / det(basis) == pytest.approx(4.0, rel=1e-14)
    assert 1.0 / det(app.bcc_basis(1.1)) == pytest.approx(4.0 / 1.1**3, rel=1e-14)
    assert 1.0 / det(app.bct_basis(1.1, 0.9)) == pytest.approx(4.0 / (1.1**2 * 0.9), rel=1e-14)


def test_bct_reduces_to_bcc():
    assert np.allclose(app.bct_basis(1.0, 1.0), app.bcc_basis())


def test_bct_contained_in_fcc_has_zero_distance():
    basis = app.bct_basis(2 ** (-1 / 6), 2 ** (1 / 3))
    rep = optimizer.solve(FCC, basis, StrainMetric(1.0))
    assert rep.m_min <= 1e-12


@pytest.mark.parametrize("r", [1.0, 2.0, -2.0])
def test_verify_bain(r):
    summary = app.verify_bain(StrainMetric(r))
    assert summary["minimizers"] == 72
    assert summary["classes"] == 3
    assert summary["m_min"] == pytest.approx(
        app.bain_min_distance(StrainMetric(r)), abs=1e-14
    )


def test_verify_bain_rejects_other_exponents():
    with pytest.raises(ValueError):
        app.verify_bain(StrainMetric(0.5))


def test_bain_closed_forms_match_direct_evaluation():
    for r in (1.0, 2.0, -2.0):
        metric = StrainMetric(r)
        for lam in (0.9, 1.0, 1.25):
            stretch = np.diag([x * lam for x in (2 ** (-1 / 3), 2 ** (1 / 6), 2 ** (1 / 6))])
            assert app.bain_min_distance(metric, lam) == pytest.approx(
                distance_to_identity(stretch, metric), abs=1e-14
            )


def test_bain_with_volume_reduces_to_plain_bain():
    out = app.bain_with_volume(1.0, StrainMetric(1.0))
    assert out["inside_validity_window"]
    assert out["m_min"] == pytest.approx(app.bain_min_distance(StrainMetric(1.0)), abs=1e-14)


def test_bain_with_volume_formulas():
    lam = 0.9
    out = app.bain_with_volume(lam, StrainMetric(1.0))
    want = math.sqrt((2 ** (-1 / 3) * lam - 1) ** 2 + 2 * (2 ** (1 / 6) * lam - 1) ** 2)
    assert out["m_min"] == pytest.approx(want, abs=1e-12)

    lam = 1.1
    out = app.bain_with_volume(lam, StrainMetric(-2.0))
    want = math.sqrt(
        (2 ** (2 / 3) / lam**2 - 1) ** 2 + 2 * (2 ** (-1 / 3) / lam**2 - 1) ** 2
    )
    assert out["m_min"] == pytest.approx(want, abs=1e-12)


def test_bain_with_volume_outside_window_reports_without_assert():
    out = app.bain_with_volume(0.7, StrainMetric(1.0))
    assert not out["inside_validity_window"]
    assert out["closed_form"] is None
    assert out["m_min"] > 0


def test_quadratic_metric_ground_state_switches_family_below_crossover():
    # For the quadratic metric the scaled cubic stretch stops being
    # optimal below lambda* = 0.6688778...: a body-diagonal stretch
    # family with spectrum lambda*(2^(2/3), 2^(2/3), 2^(-4/3)) takes over
    # (4 axis classes of 24).  The certified search must find it, and
    # the scale must lie outside the window of the scaled cubic stretch.
    lam = 0.65
    metric = StrainMetric(2.0)
    out = app.bain_with_volume(lam, metric)
    assert not out["inside_validity_window"]
    assert out["closed_form"] is None
    rep = optimizer.solve(FCC, app.bcc_basis(lam), metric, hint_mus=[BAIN_MU0])
    assert rep.certified
    assert len(rep.minimizers) == 96
    assert sorted(len(c.members) for c in rep.classes) == [24, 24, 24, 24]
    competitor = sorted(
        lam * x for x in (2 ** (2 / 3), 2 ** (2 / 3), 2 ** (-4 / 3))
    )
    for cls in rep.classes:
        assert np.allclose(sorted(cls.principal_stretches), competitor, atol=1e-10)
    assert rep.m_min < app.bain_min_distance(metric, lam) - 1e-3
    # just above the crossover the scaled cubic stretch is optimal again
    above = app.bain_with_volume(0.67, metric)
    assert above["inside_validity_window"]


def test_excited_closed_forms_at_unit_volume():
    assert app.bain_excited_distance(StrainMetric(1.0)) == pytest.approx(0.70, abs=5e-4)
    assert app.bain_excited_distance(StrainMetric(2.0)) == pytest.approx(1.64, abs=5e-3)
    with pytest.raises(ValueError):
        app.bain_excited_distance(StrainMetric(-2.0))


def test_excited_matches_exhaustive_radius_two_scan():
    for r in (1.0, 2.0):
        rep = optimizer.solve(FCC, app.bcc_basis(), StrainMetric(r), k=2)
        assert rep.m_second == pytest.approx(
            app.bain_excited_distance(StrainMetric(r)), abs=1e-9
        )


def test_sl1_constant_recomputed_exactly():
    assert abs(app.sl1_transform_norm_max() - math.sqrt(27.0)) < 1e-12


def test_flags_at_unit_cell():
    flags = app.bct_stability_flags(1.0, 1.0)
    assert flags.certified_d1 and flags.certified_d2
    assert flags.d1_sl1 and flags.d1_outside and flags.d2_sl1 and flags.d2_outside


def test_flags_far_outside_region():
    flags = app.bct_stability_flags(0.8, 2.0)
    # the radius-1 certificate inequality fails outright at this point
    m0 = math.sqrt(
        2 * (2 ** (1 / 6) * 0.8 - 1) ** 2 + (2 ** (-1 / 3) * 2.0 - 1) ** 2
    )
    margin = app.bain_excited_distance(StrainMetric(1.0)) - math.sqrt(27.0) * np.linalg.norm(
        app.bct_basis(0.8, 2.0) - app.bcc_basis()
    )
    assert margin < m0
    assert not flags.d1_sl1
    assert not flags.certified_d1


def test_flags_hypothesis_gate():
    flags = app.bct_stability_flags(1.2, 0.9)  # C < A
    assert not flags.hypothesis_ok
    assert not flags.certified_d1 and not flags.certified_d2
    flags = app.bct_stability_flags(0.7, 1.0)  # A <= 0.75
    assert not flags.hypothesis_ok


def test_extended_anchors_only_where_excited_closed_form_bounds(monkeypatch):
    # Between lambda* and 0.6989 the scaled cubic stretch is still the
    # ground state, but the body-diagonal family lies below the excited
    # closed form, so an anchor there must certify nothing.
    metric = StrainMetric(2.0)
    assert app.BAIN_VALIDITY[2.0][0] < 0.69 < app.BAIN_EXCITED_VALIDITY[2.0][0] < 0.70
    below = optimizer.solve(FCC, app.bcc_basis(0.69), metric, k=2)
    assert below.m_second < app.bain_excited_distance(metric, 0.69) - 1e-2
    above = optimizer.solve(FCC, app.bcc_basis(0.70), metric, k=2)
    assert above.m_second == pytest.approx(app.bain_excited_distance(metric, 0.70), abs=1e-9)
    # both anchors (0.69 and 0.995 * 0.69) lie below the excited window
    monkeypatch.setattr(app, "_EXTENDED_ANCHORS", (0.69,))
    flags = app.bct_stability_flags(0.69, 0.69)
    assert not flags.extended_d2


def test_certified_cells_pass_exhaustive_cross_check():
    # coarse sample of the certified region: the searched optimum must be
    # the tetragonal ground state reached by the classic correspondence
    for a_scale, c_scale in ((0.95, 1.0), (1.0, 1.05), (0.9, 0.95)):
        flags = app.bct_stability_flags(a_scale, c_scale)
        assert flags.certified_d1, (a_scale, c_scale)
        rep = optimizer.solve(
            FCC, app.bct_basis(a_scale, c_scale), StrainMetric(1.0), hint_mus=[BAIN_MU0]
        )
        assert len(rep.minimizers) == 24
        assert sorted(len(c.members) for c in rep.classes) == [8, 8, 8]
        assert any(np.array_equal(m.mu, BAIN_MU0) for m in rep.minimizers)
        want = app._bct_ground_distance(a_scale, c_scale, 1.0)
        assert rep.m_min == pytest.approx(want, abs=1e-12)
        spectrum = app.bct_ground_spectrum(a_scale, c_scale)
        planar, _, axial = spectrum
        diag_perms = [
            np.diag([planar, planar, axial]),
            np.diag([planar, axial, planar]),
            np.diag([axial, planar, planar]),
        ]
        for cls in rep.classes:
            assert np.allclose(sorted(cls.principal_stretches), sorted(spectrum), atol=1e-10)
            if c_scale > a_scale:
                assert any(
                    np.abs(cls.stretch - perm).max() < 1e-9 for perm in diag_perms
                )


def test_competitor_cell_stays_suboptimal_for_c_above_a():
    # the 48 correspondences dropped when the cubic case turns tetragonal
    # land on this competitor cell; its distance must exceed the ground
    # state whenever C > A > 0.75
    from lattrans.matrix3 import inverse
    from lattrans.metrics import distance_to_identity

    finv = inverse(FCC)
    for a_scale, c_scale in ((0.9, 1.1), (0.8, 1.2), (1.0, 1.4), (0.76, 0.9), (1.3, 1.7)):
        competitor = 2 ** (-4 / 3) * np.array(
            [
                [-a_scale, a_scale, 0.0],
                [a_scale, a_scale, 0.0],
                [-c_scale, -c_scale, -2.0 * c_scale],
            ]
        )
        h = competitor @ finv
        gap1 = (
            distance_to_identity(h, StrainMetric(1.0)) ** 2
            - app._bct_ground_distance(a_scale, c_scale, 1.0) ** 2
        )
        gap2 = (
            distance_to_identity(h, StrainMetric(2.0)) ** 2
            - app._bct_ground_distance(a_scale, c_scale, 2.0) ** 2
        )
        assert gap1 > 0 and gap2 > 0
        # the quadratic gap has an exact factorised form
        closed2 = (
            2 ** (-4 / 3)
            * (c_scale - a_scale)
            * (c_scale + a_scale)
            * (3 * a_scale**2 + 3 * c_scale**2 - 2 * 2 ** (2 / 3))
        )
        assert gap2 == pytest.approx(closed2, abs=1e-12)
        # and the linear gap factorises through the competitor's exact
        # stretches (2^(1/6)C, 2^(1/6)A, 2^(-1/3)A)
        closed1 = (c_scale - a_scale) * (
            (2 ** (1 / 3) - 2 ** (-2 / 3)) * (a_scale + c_scale)
            - 2 * (2 ** (1 / 6) - 2 ** (-1 / 3))
        )
        assert gap1 == pytest.approx(closed1, abs=1e-12)


def test_region_scan_coarse():
    result = app.bct_region_scan(a_range=(0.8, 1.2), c_range=(0.8, 1.2), step=0.05)
    cell = result.cell(1.0, 1.0)
    assert cell.certified_d1 and cell.certified_d2
    rows = list(result.to_rows())
    assert len(rows) == 9 * 9
    # C < A cells are undetermined: all flag columns zero
    for row in rows:
        if row[1] < row[0]:
            assert row[2:] == (0, 0, 0, 0, 0, 0)


def test_region_scan_monotonicity_smoke():
    # walking toward (1,1) inside the hypothesis region should not lose
    # the theorem certificate; report-only (no formal claim), so count
    # rather than assert per-cell
    result = app.bct_region_scan(a_range=(0.85, 1.15), c_range=(0.85, 1.15), step=0.05)
    losses = 0
    for cell in result.flags:
        if not (cell.hypothesis_ok and cell.d1_sl1 and cell.d1_outside):
            continue
        a = cell.a_scale + (0.05 if cell.a_scale < 1.0 else -0.05 if cell.a_scale > 1.0 else 0.0)
        c = cell.c_scale + (0.05 if cell.c_scale < 1.0 else -0.05 if cell.c_scale > 1.0 else 0.0)
        if not (c >= a > 0.75):
            continue
        step = app.bct_stability_flags(round(a, 9), round(c, 9))
        if not (step.d1_sl1 and step.d1_outside):
            losses += 1
    assert losses == 0


def test_region_iterated_refinement_only_grows():
    base = app.bct_region_scan(a_range=(0.8, 1.6), c_range=(0.8, 1.6), step=0.1)
    refined = app.bct_region_scan(a_range=(0.8, 1.6), c_range=(0.8, 1.6), step=0.1, iterations=1)
    for before, after in zip(base.flags, refined.flags):
        assert after.extended_d1 >= before.extended_d1
        assert after.extended_d2 >= before.extended_d2
        assert after.certified_d1 >= before.certified_d1


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_default_region_table_bytes_are_pinned():
    # the CSV that ``lattrans region`` writes with its default ranges
    table = app.bct_region_scan().table()
    assert _sha256(table) == "7e95e607862493395e509603dd12327192e07cd52412e97d17f21c49b6b661bf"


def test_refined_region_table_bytes_are_pinned():
    # one refinement pass certifies (0.93, 1.13) for r = 1 through a
    # certified neighbour, so the chained margin decides at least one flag
    window = dict(a_range=(0.9, 0.96), c_range=(1.08, 1.18), step=0.01)
    base = app.bct_region_scan(**window).table()
    refined = app.bct_region_scan(**window, iterations=1).table()
    assert base != refined
    assert _sha256(refined) == "17c8996c51b0c596b479e8e01acda144843d3a3b3ae9332fa7b9d5810543c62a"
    assert app.bct_region_scan(**window, iterations=2).table() == refined
    square = app.bct_region_scan(a_range=(1.0, 1.08), c_range=(1.0, 1.08), iterations=1)
    assert _sha256(square.table()) == (
        "c95a6827fddab0f91355e39affdd0f2ed8dcd0360304f3e4feb4e3acf408ebb1"
    )


def test_region_table_roundtrip():
    result = app.bct_region_scan(a_range=(0.9, 1.1), c_range=(0.9, 1.1), step=0.1)
    lines = result.table().strip().splitlines()
    assert lines[0].split(",") == list(app.REGION_COLUMNS)
    parsed = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    assert parsed == [tuple(float(v) for v in row) for row in result.to_rows()]


def test_terephthalic_case(terephthalic_reports):
    rep1 = terephthalic_reports[1.0]
    rep2 = terephthalic_reports[2.0]
    repm = terephthalic_reports[-2.0]
    assert rep1.m_min == pytest.approx(0.474, abs=1e-3)
    assert rep2.m_min == pytest.approx(1.035, abs=1e-3)
    assert rep1.k_used == 3 and rep2.k_used == 3
    assert repm.bound.side == "inverse" and repm.k_used == 2
    assert np.allclose(
        sorted(repm.classes[0].principal_stretches), [0.743, 0.977, 1.429], atol=1e-3
    )


def test_terephthalic_stretch_matrices(terephthalic_reports):
    from conftest import TERE_STRETCH, TERE_STRETCH_M2

    got = terephthalic_reports[1.0].classes[0].stretch
    assert np.abs(got - TERE_STRETCH).max() < 1e-3
    got = terephthalic_reports[-2.0].classes[0].stretch
    assert np.abs(got - TERE_STRETCH_M2).max() < 1e-3


def test_terephthalic_invariant_under_prerotation(terephthalic_reports):
    from conftest import random_rotation
    from lattrans.lattice import triclinic_to_primitive

    rng = np.random.default_rng(6)
    f1 = triclinic_to_primitive(app.TEREPHTHALIC_I)
    f2 = triclinic_to_primitive(app.TEREPHTHALIC_II)
    base = terephthalic_reports[1.0].m_min
    rep = optimizer.solve(random_rotation(rng) @ f1, f2, StrainMetric(1.0))
    assert rep.m_min == pytest.approx(base, abs=1e-9)
    rep = optimizer.solve(f1, random_rotation(rng) @ f2, StrainMetric(1.0))
    assert rep.m_min == pytest.approx(base, abs=1e-9)
