import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattrans import lattice, optimizer, unimodular
from lattrans.errors import InfeasibleAngles, NotRightHanded
from lattrans.matrix3 import det, inverse

from conftest import BCC, FCC, TERE_F1, TERE_F2


def test_face_centred_unit_cube_gives_fcc_cell():
    prim = lattice.primitive_from_centred(np.eye(3), "F")
    assert np.allclose(prim, FCC)


def test_primitive_centring_is_identity_map():
    basis = np.array([[2.0, 0.1, 0.0], [0.0, 1.5, 0.2], [0.0, 0.0, 1.1]])
    assert np.allclose(lattice.primitive_from_centred(basis, "P"), basis)


def test_body_centred_cube_gives_equal_density_bcc_cell():
    prim = lattice.primitive_from_centred(2 ** (-1 / 3) * np.eye(3), "I")
    assert np.allclose(prim, BCC)


def test_centred_conversion_rejects_left_handed():
    with pytest.raises(NotRightHanded):
        lattice.primitive_from_centred(np.diag([1.0, 1.0, -1.0]), "F")


def test_face_centred_points_stay_on_lattice():
    # every column of the converted cell, and every column sum, must be a
    # lattice point of the face-centred unit cube lattice
    prim = lattice.primitive_from_centred(np.eye(3), "F")
    finv = inverse(prim)
    cols = [prim[:, j] for j in range(3)]
    points = cols + [a + b for a in cols for b in cols]
    for point in points:
        coeffs = finv @ point
        assert np.allclose(coeffs, np.rint(coeffs), atol=1e-12)


def test_face_centred_density_quadruples():
    conventional = np.eye(3)
    prim = lattice.primitive_from_centred(conventional, "F")
    assert 1.0 / det(prim) == pytest.approx(4.0 / det(conventional), rel=1e-13)


def test_orthogonal_cell_is_diagonal():
    p = lattice.TriclinicParams(2.0, 3.0, 4.0, 90.0, 90.0, 90.0)
    assert np.allclose(lattice.triclinic_to_primitive(p), np.diag([2.0, 3.0, 4.0]), atol=1e-12)


@pytest.mark.parametrize(
    "params,expected",
    [
        (lattice.TriclinicParams(7.730, 6.443, 3.749, 92.75, 109.15, 95.95), TERE_F1),
        (lattice.TriclinicParams(7.452, 6.856, 5.020, 116.6, 119.2, 96.5), TERE_F2),
    ],
)
def test_triclinic_conversion_published_cells(params, expected):
    assert np.abs(lattice.triclinic_to_primitive(params) - expected).max() < 5e-3


def test_triclinic_infeasible_angles():
    with pytest.raises(InfeasibleAngles):
        lattice.triclinic_to_primitive(lattice.TriclinicParams(1, 1, 1, 170.0, 10.0, 90.0))


@pytest.mark.parametrize("length", [float("nan"), float("inf")])
@pytest.mark.parametrize("i", range(3))
def test_triclinic_params_refuse_non_finite_lengths(i, length):
    lengths = [1.0, 1.0, 1.0]
    lengths[i] = length
    with pytest.raises(ValueError, match="finite"):
        lattice.TriclinicParams(*lengths, 90.0, 90.0, 90.0)


def _cell_parameters(basis):
    cols = [basis[:, j] for j in range(3)]
    lengths = [np.linalg.norm(c) for c in cols]

    def angle(u, v):
        return np.degrees(
            np.arccos(np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1))
        )

    return lengths, [angle(cols[1], cols[2]), angle(cols[0], cols[2]), angle(cols[0], cols[1])]


@settings(max_examples=200, deadline=None)
@given(
    st.floats(0.5, 20.0),
    st.floats(0.5, 20.0),
    st.floats(0.5, 20.0),
    st.floats(20.0, 160.0),
    st.floats(20.0, 160.0),
    st.floats(20.0, 160.0),
)
def test_triclinic_roundtrip(a, b, c, alpha, beta, gamma):
    params = lattice.TriclinicParams(a, b, c, alpha, beta, gamma)
    try:
        basis = lattice.triclinic_to_primitive(params)
    except InfeasibleAngles:
        return
    lengths, angles = _cell_parameters(basis)
    assert np.allclose(lengths, [a, b, c], rtol=1e-10)
    assert np.allclose(angles, [alpha, beta, gamma], rtol=1e-8, atol=1e-8)


# atom density of a primitive basis B is 1 / det(B)


def test_atom_density_identity():
    assert 1.0 / det(np.eye(3)) == 1.0


def test_atom_density_fcc():
    assert 1.0 / det(FCC) == pytest.approx(4.0, rel=1e-14)


def test_atom_density_scaling():
    rng = np.random.default_rng(2)
    basis = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
    lam = 1.7
    assert 1.0 / det(lam * basis) == pytest.approx(1.0 / det(basis) / lam**3, rel=1e-12)


def test_point_group_basics():
    group = optimizer.cubic_point_group()
    assert group.shape == (24, 3, 3)
    assert any(np.array_equal(g, np.eye(3, dtype=np.int64)) for g in group)
    assert set(np.unique(group)) <= {-1, 0, 1}
    for g in group:
        assert round(det(g.astype(float))) == 1
        assert np.array_equal(g @ g.T, np.eye(3, dtype=np.int64))


def test_point_group_closure():
    group = optimizer.cubic_point_group()
    members = {tuple(g.ravel()) for g in group}
    for a in group:
        assert tuple(a.T.ravel()) in members
        for b in group:
            assert tuple((a @ b).ravel()) in members


def test_point_group_equals_orthogonal_unimodulars():
    members = {tuple(g.ravel()) for g in optimizer.cubic_point_group()}
    orthogonal = {
        tuple(mu.ravel())
        for mu in unimodular.materialize_slk(1)
        if np.array_equal(mu @ mu.T, np.eye(3, dtype=np.int64))
    }
    assert members == orthogonal


def test_resolve_primitive_triclinic_centred():
    cell = lattice.triclinic_to_primitive(lattice.TriclinicParams(1.0, 1.0, 1.0, 90.0, 90.0, 90.0))
    assert np.allclose(lattice.primitive_from_centred(cell, "F"), FCC)
