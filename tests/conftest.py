import functools

import numpy as np
import pytest

from lattrans import applications
from lattrans.matrix3 import adjugate, det, inverse
from lattrans.unimodular import materialize_slk

pytest_plugins = ["pytester"]


def random_rotation(rng):
    """Uniform-ish random rotation from an axis-angle construction."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    k = np.array(
        [
            [0.0, -axis[2], axis[1]],
            [axis[2], 0.0, -axis[0]],
            [-axis[1], axis[0], 0.0],
        ]
    )
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_invertible(rng, scale=1.0, min_det=0.1):
    while True:
        m = rng.normal(scale=scale, size=(3, 3))
        if abs(np.linalg.det(m)) > min_det:
            return m


def random_well_conditioned(rng, lo=0.3, hi=3.0):
    """Random matrix with singular values in [lo, hi].

    Keeps float error amplification bounded for negative metric
    exponents; physical lattice bases are far better conditioned.
    """
    stretches = rng.uniform(lo, hi, size=3)
    return random_rotation(rng) @ np.diag(stretches) @ random_rotation(rng)


FCC = applications.fcc_basis()
BCC = applications.bcc_basis()
BAIN_MU0 = applications.BAIN_MU0


def sl1_squared_transform_norms():
    """Squared Frobenius norms of mu F^-1 over the radius-1 box, F = fcc.

    F^-1 is an integer matrix, so every product and norm is an exact
    integer; their maximum squares to ``SL1_TRANSFORM_NORM_MAX``.
    """
    finv = np.rint(np.linalg.inv(FCC)).astype(np.int64)
    assert np.array_equal(finv @ FCC, np.eye(3))
    return ((materialize_slk(1) @ finv) ** 2).sum(axis=(1, 2))


def naive_array(k: int) -> np.ndarray:
    """Brute-force SL^k, lex order: filter det over the full entry box of
    (2k+1)^9 tuples; the tests' oracle, for k <= 2 only."""
    rng = np.arange(-k, k + 1, dtype=np.int64)
    tail = np.meshgrid(*([rng] * 8), indexing="ij")
    tail = np.stack(tail, axis=-1).reshape(-1, 8)
    out = []
    for first in rng:
        rows = np.empty((tail.shape[0], 9), dtype=np.int64)
        rows[:, 0] = first
        rows[:, 1:] = tail
        mats = rows.reshape(-1, 3, 3)
        out.append(mats[det(mats) == 1])
    return np.concatenate(out)


def _box_mus(k, inverse_side):
    box = materialize_slk(k)
    return adjugate(box) if inverse_side else box


# A radius-3 entry holds about 15 MB of singular values; four entries let
# the r = 1 and r = 2 cases of one problem share theirs.
@functools.lru_cache(maxsize=4)
def _box_stretches(f_key, g_key, k, inverse_side):
    f, g = (np.frombuffer(key).reshape(3, 3) for key in (f_key, g_key))
    mus = _box_mus(k, inverse_side)
    nu = np.linalg.svd((g @ mus.astype(float)) @ inverse(f), compute_uv=False)
    nu.setflags(write=False)
    return nu


def box_distances(f, g, r, k):
    """(mus, d): every mu of the radius-k box (every mu with mu^-1 in it,
    at r < 0) and the distance of G mu F^-1 at r, from one batched SVD per
    (F, G, k, side), cached."""
    f, g = (np.asarray(m, dtype=float).tobytes() for m in (f, g))
    nu = _box_stretches(f, g, k, r < 0)
    return _box_mus(k, r < 0), np.sqrt(((nu**r - 1.0) ** 2).sum(axis=1))


# Published primitive cells of the two Terephthalic Acid forms (angstrom,
# three decimals) and the published optimal stretch factors.
TERE_F1 = np.array(
    [
        [7.730, -0.668, -1.230],
        [0.0, 6.408, -0.309],
        [0.0, 0.0, 3.528],
    ]
)
TERE_F2 = np.array(
    [
        [7.452, -0.776, -2.449],
        [0.0, 6.812, -2.541],
        [0.0, 0.0, 3.570],
    ]
)
TERE_STRETCH = np.array(
    [
        [0.820, -0.125, -0.072],
        [-0.125, 0.994, -0.146],
        [-0.072, -0.146, 1.329],
    ]
)
TERE_STRETCH_M2 = np.array(
    [
        [0.852, -0.119, -0.018],
        [-0.119, 0.950, -0.197],
        [-0.018, -0.197, 1.346],
    ]
)
TERE_MU = applications.TEREPHTHALIC_MU_MIN


@pytest.fixture(scope="session")
def terephthalic_reports():
    """The three Terephthalic searches are slow-ish; share them."""
    return applications.terephthalic_case()
