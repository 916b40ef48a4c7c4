import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattrans import matrix3
from lattrans.errors import NotPositiveDefinite, SingularMatrix
from lattrans.lattice import cubic_point_group

from conftest import FCC, TERE_F1, TERE_F2, TERE_MU, TERE_STRETCH, random_invertible, random_rotation


def test_det_identity():
    assert matrix3.det(np.eye(3)) == 1.0


def test_det_fcc_cell():
    assert matrix3.det(FCC) == pytest.approx(0.25, abs=1e-15)


def test_det_diagonal():
    assert matrix3.det(np.diag([2.0, 3.0, 4.0])) == 24.0


def test_inverse_identity():
    assert np.allclose(matrix3.inverse(np.eye(3)), np.eye(3))


def test_inverse_diagonal():
    inv = matrix3.inverse(np.diag([2.0, 4.0, 5.0]))
    assert np.allclose(inv, np.diag([0.5, 0.25, 0.2]))


def test_inverse_fcc_roundtrip():
    inv = matrix3.inverse(FCC)
    assert np.abs(FCC @ inv - np.eye(3)).max() < 1e-14
    # 2 * FCC has the integer inverse pattern of its adjugate
    assert np.allclose(inv, np.array([[-1, 1, 1], [1, -1, 1], [1, 1, -1]]))


def test_inverse_singular_raises():
    with pytest.raises(SingularMatrix):
        matrix3.inverse(np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]]))


def test_det_and_adjugate_of_integer_stack_stay_exact():
    rng = np.random.default_rng(31)
    mus = rng.integers(-1000, 1001, size=(500, 3, 3))
    d = matrix3.det(mus)
    adj = matrix3.adjugate(mus)
    assert d.dtype == np.int64 and adj.dtype == np.int64
    assert np.array_equal(d, np.rint(np.linalg.det(mus.astype(float))).astype(np.int64))
    assert np.array_equal(adj @ mus, d[:, None, None] * np.eye(3, dtype=np.int64))


def test_det_and_adjugate_broadcast_over_stack_axes():
    rng = np.random.default_rng(37)
    stack = rng.normal(size=(4, 5, 3, 3))
    d = matrix3.det(stack)
    adj = matrix3.adjugate(stack)
    assert d.shape == (4, 5) and adj.shape == (4, 5, 3, 3)
    assert d[2, 3] == matrix3.det(stack[2, 3])
    assert np.array_equal(adj[2, 3], matrix3.adjugate(stack[2, 3]))


def test_norms_identity():
    assert matrix3.frobenius(np.eye(3)) == pytest.approx(math.sqrt(3.0), abs=1e-15)
    assert matrix3.singular_values(np.eye(3))[0] == pytest.approx(1.0, abs=1e-12)


def test_norms_of_cube_rotations():
    for rot in cubic_point_group():
        assert matrix3.frobenius(rot) == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert matrix3.singular_values(rot)[0] == pytest.approx(1.0, abs=1e-12)


def test_sym_eigen_diagonal():
    w, v = matrix3._eigh(np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(w, [3.0, 2.0, 1.0])
    # axis-aligned eigenvectors up to sign
    assert np.allclose(np.abs(v), np.eye(3)[:, [2, 1, 0]])


def test_sym_eigen_published_stretch_spectrum():
    # the squared published stretch has eigenvalue square roots equal to
    # the published principal stretches
    squared = TERE_STRETCH @ TERE_STRETCH
    w, _ = matrix3._eigh(squared)
    nus = sorted(float(np.sqrt(x)) for x in w)
    assert np.allclose(nus, [0.725, 1.033, 1.385], atol=1e-3)


def test_sym_eigen_reconstruction_random():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a = rng.normal(size=(3, 3))
        s = a + a.T
        w, v = matrix3._eigh(s)
        scale = max(matrix3.frobenius(s), 1.0)
        assert matrix3.frobenius(v @ np.diag(w) @ v.T - s) <= 1e-12 * scale
        assert matrix3.frobenius(v.T @ v - np.eye(3)) <= 1e-12
        assert w[0] >= w[1] >= w[2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6))
def test_sym_eigen_reconstruction_hypothesis(entries):
    xx, yy, zz, xy, xz, yz = entries
    s = np.array([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
    w, v = matrix3._eigh(s)
    scale = max(matrix3.frobenius(s), 1.0)
    assert matrix3.frobenius(v @ np.diag(w) @ v.T - s) <= 1e-11 * scale


def test_near_diagonal_matrix_keeps_exact_zeros():
    # off-diagonal noise far below 1e-14 |S|_F: the diagonal is the spectrum
    noisy = np.diag([1.2, 0.7, 0.9])
    noisy[0, 1] = noisy[1, 0] = 1e-17
    noisy[1, 2] = noisy[2, 1] = -1e-17
    noisy[0, 2] = noisy[2, 0] = 1e-17
    w, v = matrix3._eigh(noisy)
    assert w.tolist() == [1.2, 0.9, 0.7]
    assert np.array_equal(v, np.eye(3)[:, [0, 2, 1]])
    root = matrix3.spd_power(noisy, 0.5)
    assert np.array_equal(root, np.diag(np.array([1.2, 0.7, 0.9]) ** 0.5))


def test_non_diagonal_matrix_is_not_read_as_diagonal():
    s = np.array([[2.0, 0.1, 0.0], [0.1, 1.0, 0.0], [0.0, 0.0, 3.0]])
    w, v = matrix3._eigh(s)
    half = math.sqrt(0.25 + 0.1**2)
    assert np.allclose(w, [3.0, 1.5 + half, 1.5 - half], atol=1e-14)
    assert w.tolist() != [3.0, 2.0, 1.0]
    assert not np.array_equal(np.abs(v), np.eye(3)[:, [2, 0, 1]])
    root = matrix3.spd_power(s, 0.5)
    assert root[0, 1] != 0.0
    assert np.allclose(root @ root, s, atol=1e-14)


def test_singular_values_bain_stretch():
    sv = matrix3.singular_values(np.diag([2 ** (-1 / 3), 2 ** (1 / 6), 2 ** (1 / 6)]))
    assert sv[0] == pytest.approx(2 ** (1 / 6), abs=1e-14)
    assert sv[1] == pytest.approx(2 ** (1 / 6), abs=1e-14)
    assert sv[2] == pytest.approx(2 ** (-1 / 3), abs=1e-14)


def test_singular_values_rotation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        sv = matrix3.singular_values(random_rotation(rng))
        assert np.allclose(sv, 1.0, atol=1e-12)


def test_singular_values_reciprocal_under_inverse():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = random_invertible(rng)
        sv = matrix3.singular_values(m)
        sv_inv = matrix3.singular_values(matrix3.inverse(m))
        assert np.allclose(sv_inv, 1.0 / sv[::-1], rtol=1e-9)


def test_spd_power_one_is_identity_map():
    s = np.array([[4.0, 0.5, 0.2], [0.5, 3.0, -0.1], [0.2, -0.1, 2.0]])
    assert np.allclose(matrix3.spd_power(s, 1.0), s, atol=1e-13)


def test_spd_power_of_identity():
    for p in (-2.0, -0.5, 0.5, 3.0):
        assert np.allclose(matrix3.spd_power(np.eye(3), p), np.eye(3))


def test_spd_power_sqrt_roundtrip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = rng.normal(size=(3, 3))
        s = a.T @ a + 0.5 * np.eye(3)
        root = matrix3.spd_power(s, 0.5)
        back = matrix3.spd_power(root, 2.0)
        assert matrix3.frobenius(back - s) <= 1e-10 * matrix3.frobenius(s)


def test_spd_power_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        matrix3.spd_power(np.diag([1.0, 1.0, -1.0]), 0.5)


def _polar_stretch(h):
    """The stretch factor sqrt(H^T H) of a polar decomposition."""
    return matrix3.spd_power(h.T @ h, 0.5)


def test_polar_stretch_of_rotation():
    rng = np.random.default_rng(9)
    for _ in range(20):
        assert np.allclose(_polar_stretch(random_rotation(rng)), np.eye(3), atol=1e-12)


def test_polar_stretch_of_positive_diagonal():
    d = np.diag([0.3, 1.4, 2.5])
    assert np.allclose(_polar_stretch(d), d, atol=1e-13)


def test_polar_stretch_terephthalic():
    h = TERE_F2 @ TERE_MU @ matrix3.inverse(TERE_F1)
    assert np.abs(_polar_stretch(h) - TERE_STRETCH).max() < 1e-3


def test_polar_stretch_preserves_singular_values():
    rng = np.random.default_rng(21)
    for _ in range(100):
        m = random_invertible(rng)
        assert np.allclose(
            matrix3.singular_values(m),
            matrix3.singular_values(_polar_stretch(m)),
            rtol=1e-10,
        )


# -- norm and stretch inequalities ------------------------------------------


def test_unitary_invariance():
    rng = np.random.default_rng(13)
    for _ in range(300):
        m = rng.normal(size=(3, 3))
        r, s = random_rotation(rng), random_rotation(rng)
        rotated = r @ m @ s
        assert abs(matrix3.frobenius(rotated) - matrix3.frobenius(m)) <= 1e-12 * (
            1.0 + matrix3.frobenius(m)
        )
        spectral = matrix3.singular_values(m)[0]
        assert abs(matrix3.singular_values(rotated)[0] - spectral) <= 1e-11 * (1.0 + spectral)


def test_submultiplicativity():
    rng = np.random.default_rng(17)
    for _ in range(300):
        a, b, c = (rng.normal(size=(3, 3)) for _ in range(3))
        lhs = matrix3.frobenius(a @ b @ c)
        rhs = matrix3.frobenius(a) * matrix3.frobenius(b) * matrix3.frobenius(c)
        assert lhs <= rhs * (1.0 + 1e-12)


def test_spectral_norm_compatible_with_vectors():
    rng = np.random.default_rng(19)
    for _ in range(300):
        a = rng.normal(size=(3, 3))
        x = rng.normal(size=3)
        spectral = matrix3.singular_values(a)[0]
        assert np.linalg.norm(a @ x) <= spectral * np.linalg.norm(x) * (1.0 + 1e-12)


def test_stretch_ratio_between_extremes():
    rng = np.random.default_rng(23)
    for _ in range(300):
        h = random_invertible(rng)
        f = rng.normal(size=3)
        if np.linalg.norm(f) < 1e-6:
            continue
        ratio = np.linalg.norm(h @ f) / np.linalg.norm(f)
        sv = matrix3.singular_values(h)
        assert sv[2] * (1.0 - 1e-10) <= ratio <= sv[0] * (1.0 + 1e-10)


def test_det_equals_signed_product_of_singular_values():
    rng = np.random.default_rng(29)
    for _ in range(300):
        m = random_invertible(rng)
        sv = matrix3.singular_values(m)
        product = sv.prod()
        d = matrix3.det(m)
        assert abs(abs(d) - product) <= 1e-10 * product
