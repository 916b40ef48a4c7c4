import numpy as np
import pytest

from lattrans import applications

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
