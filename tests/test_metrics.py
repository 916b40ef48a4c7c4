import math

import numpy as np
import pytest

from lattrans import metrics
from lattrans.errors import SingularMatrix
from lattrans.matrix3 import adjugate, inverse
from lattrans.optimizer import _column_bounds
from lattrans.unimodular import materialize_slk

from conftest import (
    TERE_F1,
    TERE_F2,
    TERE_MU,
    random_invertible,
    random_rotation,
    random_well_conditioned,
)


def test_metric_rejects_zero_exponent():
    with pytest.raises(ValueError):
        metrics.StrainMetric(0.0)


@pytest.mark.parametrize("r", [True, np.True_], ids=["True", "np.True_"])
def test_metric_rejects_a_bool_exponent(r):
    with pytest.raises(ValueError, match="nonzero finite real"):
        metrics.StrainMetric(r)


def test_distance_to_self_is_zero():
    rng = np.random.default_rng(1)
    for r in (1.0, 2.0, -2.0, 0.5):
        m = metrics.StrainMetric(r)
        for _ in range(20):
            f = random_invertible(rng)
            assert metrics.distance(f, f, m) <= 1e-12


def test_distance_vanishes_for_rotated_copy():
    rng = np.random.default_rng(2)
    for r in (1.0, 2.0, -2.0):
        m = metrics.StrainMetric(r)
        for _ in range(50):
            f = random_well_conditioned(rng)
            assert metrics.distance(random_rotation(rng) @ f, f, m) <= 1e-10


def test_distance_terephthalic_value():
    h = TERE_F2 @ TERE_MU @ inverse(TERE_F1)
    assert metrics.distance(h, np.eye(3), metrics.StrainMetric(1.0)) == pytest.approx(
        0.474, abs=1e-3
    )


def test_distance_singular_input():
    with pytest.raises(SingularMatrix):
        metrics.distance(np.diag([1.0, 1.0, 0.0]), np.eye(3), metrics.StrainMetric(1.0))


def test_identity_distance_of_rotation_is_zero():
    rng = np.random.default_rng(3)
    for r in (1.0, 2.0, -2.0):
        m = metrics.StrainMetric(r)
        for _ in range(20):
            assert metrics.distance_to_identity(random_rotation(rng), m) <= 1e-12


def test_identity_distance_bain_closed_forms():
    stretch = np.diag([2 ** (-1 / 3), 2 ** (1 / 6), 2 ** (1 / 6)])
    want = {
        1.0: math.sqrt((2 ** (-1 / 3) - 1) ** 2 + 2 * (2 ** (1 / 6) - 1) ** 2),
        2.0: math.sqrt((2 ** (-2 / 3) - 1) ** 2 + 2 * (2 ** (1 / 3) - 1) ** 2),
        -2.0: math.sqrt((2 ** (2 / 3) - 1) ** 2 + 2 * (2 ** (-1 / 3) - 1) ** 2),
    }
    approx = {1.0: 0.269, 2.0: 0.522, -2.0: 0.656}
    for r, target in want.items():
        got = metrics.distance_to_identity(stretch, metrics.StrainMetric(r))
        assert got == pytest.approx(target, abs=1e-14)
        assert got == pytest.approx(approx[r], abs=5e-4)


def test_one_dimensional_reference_values():
    # a single bond stretched to 1.5 embedded as diag(1.5, 1, 1)
    h = np.diag([1.5, 1.0, 1.0])
    assert metrics.distance_to_identity(h, metrics.StrainMetric(1.0)) == pytest.approx(0.5)
    assert metrics.distance_to_identity(h, metrics.StrainMetric(2.0)) == pytest.approx(1.25)
    assert metrics.distance_to_identity(h, metrics.StrainMetric(-2.0)) == pytest.approx(
        1.0 - 1.0 / 2.25, abs=1e-12
    )
    # and compressed to 0.5
    h = np.diag([0.5, 1.0, 1.0])
    assert metrics.distance_to_identity(h, metrics.StrainMetric(1.0)) == pytest.approx(0.5)
    assert metrics.distance_to_identity(h, metrics.StrainMetric(2.0)) == pytest.approx(0.75)
    assert metrics.distance_to_identity(h, metrics.StrainMetric(-2.0)) == pytest.approx(3.0)


def test_identity_distance_consistent_with_pair_distance():
    rng = np.random.default_rng(4)
    eye = np.eye(3)
    for r in (1.0, 2.0, -2.0, 0.7):
        m = metrics.StrainMetric(r)
        for _ in range(100):
            h = random_invertible(rng)
            a = metrics.distance_to_identity(h, m)
            b = metrics.distance(h, eye, m)
            assert abs(a - b) <= 1e-10 * (1.0 + a)


def test_bulk_identity_distances_match_scalar():
    rng = np.random.default_rng(5)
    hs = np.stack([random_well_conditioned(rng) for _ in range(200)])
    for r in (1.0, 2.0, -2.0):
        m = metrics.StrainMetric(r)
        bulk = metrics.distance_to_identity_many(hs, m)
        scalar = np.array([metrics.distance_to_identity(h, m) for h in hs])
        assert (np.abs(bulk - scalar) <= 1e-12 * (1.0 + scalar)).all()


def _gram_power_reference(m, r):
    """(M^T M)^(r/2) = V diag(s^r) V^T from the SVD M = U diag(s) V^T."""
    _, s, vt = np.linalg.svd(m)
    return (vt.T * s**r) @ vt


def test_bulk_pair_distances_match_scalar():
    rng = np.random.default_rng(6)
    fs = np.stack([random_invertible(rng) for _ in range(100)])
    gs = np.stack([random_invertible(rng) for _ in range(100)])
    for r in (1.0, -2.0):
        m = metrics.StrainMetric(r)
        bulk = metrics.distance_many(fs, gs, m)
        scalar = np.array([metrics.distance(f, g, m) for f, g in zip(fs, gs)])
        reference = np.array([
            np.linalg.norm(_gram_power_reference(f, r) - _gram_power_reference(g, r))
            for f, g in zip(fs, gs)
        ])
        assert np.abs(bulk - scalar).max() <= 1e-12 * (1.0 + scalar.max())
        assert np.abs(bulk - reference).max() <= 1e-10 * (1.0 + reference.max())


def test_stretch_bound_never_exceeds_distance():
    # the column bounds the shell search trusts, for H = G mu F^-1: at r = s
    # column j of mu against f_j, at r = -s column j of adj(mu) = mu^-1
    # against g_j, the swapped problem G -> F that solve searches
    rng = np.random.default_rng(7)
    pool = materialize_slk(2)
    for s in (1.0, 2.0):
        for _ in range(1000):
            f, g = random_invertible(rng), random_invertible(rng)
            mu = pool[rng.integers(len(pool))]
            h = g @ mu @ inverse(f)
            for r, a, b, cols in ((s, g, f, mu), (-s, f, g, adjugate(mu))):
                d = metrics.distance_to_identity(h, metrics.StrainMetric(r))
                assert np.diag(_column_bounds(a, b, s, cols.T)).max() <= d + 1e-12


# -- pseudometric structure ---------------------------------------------------


def test_symmetry_and_triangle_inequality():
    rng = np.random.default_rng(8)
    for r in (1.0, 2.0, -2.0):
        m = metrics.StrainMetric(r)
        for _ in range(300):
            f, g, h = (random_invertible(rng) for _ in range(3))
            dfg = metrics.distance(f, g, m)
            dgf = metrics.distance(g, f, m)
            assert abs(dfg - dgf) <= 1e-11 * (1.0 + dfg)
            assert dfg <= metrics.distance(f, h, m) + metrics.distance(h, g, m) + 1e-10


def test_zero_distance_iff_rotation_related():
    rng = np.random.default_rng(9)
    m = metrics.StrainMetric(1.0)
    for _ in range(200):
        f = random_invertible(rng)
        # rotation-related pairs sit at distance zero
        assert metrics.distance(random_rotation(rng) @ f, f, m) <= 1e-10
        # genuinely stretched pairs do not
        stretched = random_rotation(rng) @ np.diag([1.3, 1.0, 0.9]) @ f
        assert metrics.distance(stretched, f, m) > 1e-3


def test_rotation_invariance_both_sides():
    rng = np.random.default_rng(10)
    for r in (1.0, -2.0):
        m = metrics.StrainMetric(r)
        for _ in range(200):
            f, g = random_invertible(rng), random_invertible(rng)
            base = metrics.distance(f, g, m)
            rotated = metrics.distance(random_rotation(rng) @ f, random_rotation(rng) @ g, m)
            assert abs(base - rotated) <= 1e-10 * (1.0 + base)


def test_identity_distance_invariant_under_right_rotation():
    rng = np.random.default_rng(11)
    for r in (1.0, 2.0, -2.0):
        m = metrics.StrainMetric(r)
        for _ in range(200):
            h = random_invertible(rng)
            base = metrics.distance_to_identity(h, m)
            rotated = metrics.distance_to_identity(h @ random_rotation(rng), m)
            assert abs(base - rotated) <= 1e-10 * (1.0 + base)


def test_pair_distance_keeps_precision_on_ill_conditioned_generator():
    # a Gram-matrix eigensolver squares the condition number (1e16 here)
    # and loses the smallest stretch that negative exponents amplify
    q = random_rotation(np.random.default_rng(11))
    f = q @ np.diag([1.0, 1.0, 1e-8]) @ q.T
    for r in (-2.0, -1.0):
        m = metrics.StrainMetric(r)
        want = metrics.distance_to_identity(f, m)
        assert metrics.distance(f, np.eye(3), m) == pytest.approx(want, rel=1e-12)
