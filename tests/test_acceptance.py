"""Acceptance suite.

One test per criterion; each prints a PASS or FAIL line (run with -s to
see them on success).  Every tolerance is pinned here, not deferred.

Two reference values were corrected, each together with the evidence
that the earlier value was wrong:

* Criterion 1: |SL^5| = 10426488 and |SL^6| = 23527320 (earlier
  10460024 and 28940280).  ``_independent_slk_count`` counts the defined
  set without ``lattrans`` and reproduces all six radii, so the
  criterion checks the set rather than the program.  A Monte Carlo
  estimate with 8e7 uniform samples of the radius-6 box gives
  2.355e7 +- 0.006e7, about 97 standard errors below the earlier value.
* Criterion 8: the quadratic-metric window of the scaled cubic stretch
  starts at the closed-form crossover lam* = 0.66887785616... (earlier
  0.64).  Below lam* the body-diagonal family, e.g. mu =
  [[-2,-1,-1],[-1,-1,-2],[-1,-1,-1]], is strictly closer; at scale 0.65
  its distance is 0.9379 against 0.9879 for the scaled cubic stretch.
  The criterion samples r = 2 above lam* and asserts the competitor
  inside the sliver below it.
"""

import math
import time

import numpy as np

from lattrans import applications as app
from lattrans import lattice, metrics, optimizer, unimodular

from conftest import (
    BAIN_MU0,
    BCC,
    FCC,
    box_distances,
    naive_array,
    random_rotation,
    random_well_conditioned,
    sl1_squared_transform_norms,
)

D1 = metrics.StrainMetric(1.0)
D2 = metrics.StrainMetric(2.0)
DM2 = metrics.StrainMetric(-2.0)


def _report(number, label, body):
    try:
        body()
    except BaseException as exc:
        detail = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
        print(f"ACCEPTANCE {number} [{label}]: FAIL - {detail}")
        raise
    print(f"ACCEPTANCE {number} [{label}]: PASS")


def _independent_slk_count(k):
    """|SL^k| counted without ``lattrans``.

    The determinant of the matrix with rows a, b, x is x . (a x b), so
    |SL^k| sums, over all row pairs (a, b) of the box, the number of x in
    the box with x . (a x b) = 1.  The box is closed under signed
    permutations of coordinates, so that number depends only on the
    sorted absolute values (p, q, r) of a x b: it counts the (x1, x2) for
    which 1 - p x1 - q x2 is a multiple of r within [-k r, k r].
    """
    axis = np.arange(-k, k + 1)
    rows = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    base = 2 * k * k + 1  # |a x b| entries are at most 2 k^2
    pairs = np.zeros(base**3, dtype=np.int64)
    for block in np.array_split(rows, max(1, len(rows) // 128)):
        cross = np.abs(np.cross(block[:, None, :], rows[None, :, :])).reshape(-1, 3)
        cross.sort(axis=1)
        codes = (cross[:, 0] * base + cross[:, 1]) * base + cross[:, 2]
        pairs += np.bincount(codes, minlength=base**3)
    codes = np.flatnonzero(pairs)
    p, q, r = (codes // base**2)[:, None], (codes // base % base)[:, None], (codes % base)[:, None]
    x1, x2 = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    rest = 1 - p * x1 - q * x2
    step = np.maximum(r, 1)
    hits = (r > 0) & (rest % step == 0) & (np.abs(rest) <= k * step)
    return int(pairs[codes] @ hits.sum(axis=1))


def test_criterion_1_slk_cardinalities():
    stated = {1: 3480, 2: 67704, 3: 640824, 4: 2597208, 5: 10426488, 6: 23527320}

    def body():
        problems = []
        for k, want in stated.items():
            got = _independent_slk_count(k)
            if got != want:
                problems.append(f"k={k}: stated {want}, independent count {got}")
        timings = {}
        for k, want in stated.items():
            start = time.perf_counter()
            got = unimodular.count_slk(k).count
            timings[k] = time.perf_counter() - start
            if got != want:
                problems.append(f"k={k}: stated {want}, computed {got}")
        for k in (1, 2, 3):
            if timings[k] >= 1.0:
                problems.append(f"k={k} took {timings[k]:.2f}s (limit 1s)")
        if timings[6] >= 120.0:
            problems.append(f"k=6 took {timings[6]:.1f}s (limit 120s)")
        assert not problems, "; ".join(problems)

    _report(1, "SL^k cardinalities", body)


def test_criterion_2_bain_reproduction():
    def body():
        start = time.perf_counter()
        for metric in (D1, D2, DM2):
            report = optimizer.solve(FCC, BCC, metric, hint_mus=[BAIN_MU0])
            assert len(report.minimizers) == 72
            assert sorted(len(c.members) for c in report.classes) == [24, 24, 24]
            want = app.bain_min_distance(metric)
            assert abs(report.m_min - want) <= 1e-12
            spectrum = sorted(app.bain_spectrum())
            for cls in report.classes:
                assert np.allclose(sorted(cls.principal_stretches), spectrum, atol=1e-10)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s (limit 5s)"

    _report(2, "Bain ground state, r in {1, 2, -2}", body)


def test_criterion_3_excited_states():
    def body():
        for metric, approx in ((D1, 0.70), (D2, 1.64)):
            excited = optimizer.solve(FCC, BCC, metric, k=2).m_second
            closed = app.bain_excited_distance(metric)
            assert abs(excited - closed) <= 1e-9
            assert abs(closed - approx) <= 5e-3

    _report(3, "first excited levels over the radius-2 box", body)


def test_criterion_4_terephthalic(terephthalic_reports):
    def body():
        start = time.perf_counter()
        reports = app.terephthalic_case()
        elapsed = time.perf_counter() - start
        mu_min = app.TEREPHTHALIC_MU_MIN
        for r, want in ((1.0, 0.474), (2.0, 1.035)):
            report = reports[r]
            assert np.array_equal(report.minimizers[0].mu, mu_min)
            assert abs(report.m_min - want) <= 1e-3
            assert np.allclose(
                sorted(report.classes[0].principal_stretches),
                [0.725, 1.033, 1.385],
                atol=1e-3,
            )
            assert report.gap > 0.015
            assert report.bound.side == "direct" and report.k_used == 3
        report = reports[-2.0]
        assert report.bound.side == "inverse" and report.k_used == 2
        assert np.allclose(
            sorted(report.classes[0].principal_stretches),
            [0.743, 0.977, 1.429],
            atol=1e-3,
        )
        assert elapsed < 60.0, f"took {elapsed:.1f}s (limit 60s)"

    _report(4, "Terephthalic Acid from cell parameters alone", body)


def test_criterion_5_point_group():
    def body():
        group = optimizer.cubic_point_group()
        assert group.shape[0] == 24
        members = {tuple(g.ravel()) for g in group}
        orthogonal = set()
        for block in unimodular.iter_slk_blocks(1):
            for mu in block:
                if np.array_equal(mu @ mu.T, np.eye(3, dtype=np.int64)):
                    orthogonal.add(tuple(mu.ravel()))
        assert members == orthogonal

    _report(5, "cubic point group = orthogonal radius-1 correspondences", body)


def _random_generators(rng, n):
    return np.stack([random_well_conditioned(rng) for _ in range(n)])


def _random_rotations(rng, n):
    return np.stack([random_rotation(rng) for _ in range(n)])


def test_criterion_6_property_suites():
    n = 10_000
    tol = 1e-10

    def body():
        rng = np.random.default_rng(123)
        for metric in (D1, DM2):
            fs = _random_generators(rng, n)
            gs = _random_generators(rng, n)
            hs = _random_generators(rng, n)
            # pseudometric axioms
            assert metrics.distance_many(fs, fs, metric).max() <= tol
            dfg = metrics.distance_many(fs, gs, metric)
            dgf = metrics.distance_many(gs, fs, metric)
            assert np.abs(dfg - dgf).max() <= tol
            dfh = metrics.distance_many(fs, hs, metric)
            dhg = metrics.distance_many(hs, gs, metric)
            assert (dfg - (dfh + dhg)).max() <= tol
            # rotation-relatedness is exactly the null set of the distance
            rots = _random_rotations(rng, n)
            rotated = np.einsum("nij,njk->nik", rots, fs)
            assert metrics.distance_many(rotated, fs, metric).max() <= tol
            stretched = np.einsum(
                "nij,jk,nkl->nil", rots, np.diag([1.1, 1.0, 0.95]), fs
            )
            assert metrics.distance_many(stretched, fs, metric).min() > 1e-3

        # unitary invariance of the Frobenius norm
        ms = rng.normal(size=(n, 3, 3))
        lrot = _random_rotations(rng, n)
        rrot = _random_rotations(rng, n)
        rotated = np.einsum("nij,njk,nkl->nil", lrot, ms, rrot)
        fro = np.sqrt((ms**2).sum(axis=(1, 2)))
        fro_rot = np.sqrt((rotated**2).sum(axis=(1, 2)))
        assert np.abs(fro - fro_rot).max() <= tol * (1.0 + fro.max())

        # sub-multiplicativity
        a, b, c = (rng.normal(size=(n, 3, 3)) for _ in range(3))
        prod = np.einsum("nij,njk,nkl->nil", a, b, c)
        lhs = np.sqrt((prod**2).sum(axis=(1, 2)))
        rhs = (
            np.sqrt((a**2).sum(axis=(1, 2)))
            * np.sqrt((b**2).sum(axis=(1, 2)))
            * np.sqrt((c**2).sum(axis=(1, 2)))
        )
        assert (lhs - rhs).max() <= tol * (1.0 + rhs.max())

        # stretch-ratio lower bound against the identity distance
        hs = _random_generators(rng, n)
        vecs = rng.normal(size=(n, 3))
        norms_in = np.linalg.norm(vecs, axis=1)
        norms_out = np.linalg.norm(np.einsum("nij,nj->ni", hs, vecs), axis=1)
        for metric in (D1, D2):
            bound = (norms_out / norms_in) ** metric.r - 1.0
            dist = metrics.distance_to_identity_many(hs, metric)
            assert (bound - dist).max() <= tol

        # oracle equivalence of the two enumerations
        for k in (1, 2):
            pruned = np.concatenate(list(unimodular.iter_slk_blocks(k)))
            assert np.array_equal(pruned, naive_array(k))

        # the shell search equals one evaluation of the whole radius-3 box
        report = optimizer.solve(FCC, BCC, D1, k=3)
        box, d = box_distances(FCC, BCC, D1.r, 3)
        inside = d <= d.min() + metrics.tie_tolerance(d.min())
        assert abs(report.m_min - d.min()) <= 1e-12
        assert {tuple(m.mu.ravel()) for m in report.minimizers} == {
            tuple(mu.ravel()) for mu in box[inside]
        }
        assert abs(report.m_second - d[~inside].min()) <= 1e-12

    _report(6, "property suites (1e4 samples each)", body)


def test_criterion_7_region_scan():
    def body():
        factor = app.SL1_TRANSFORM_NORM_MAX
        assert factor == math.sqrt(sl1_squared_transform_norms().max())
        assert abs(factor - 27.0**0.5) <= 1e-12

        result = app.bct_region_scan(a_range=(0.75, 1.7), c_range=(0.75, 1.7), step=0.005)
        cell = result.cell(1.0, 1.0)
        assert cell.certified_d1 and cell.certified_d2

        # the outside-radius-1 thresholds must hold exactly where the
        # closed forms say, cell by cell
        for flags in result.flags:
            a_scale, c_scale = flags.a_scale, flags.c_scale
            m0_1 = math.sqrt(
                2 * (2 ** (1 / 6) * a_scale - 1) ** 2 + (2 ** (-1 / 3) * c_scale - 1) ** 2
            )
            m0_2 = math.sqrt(
                2 * ((2 ** (1 / 6) * a_scale) ** 2 - 1) ** 2
                + ((2 ** (-1 / 3) * c_scale) ** 2 - 1) ** 2
            )
            assert flags.d1_outside == (2 ** (2 / 3) * a_scale - 1 > m0_1)
            assert flags.d2_outside == (2 ** (4 / 3) * a_scale - 1 > m0_2)
            excited_1 = 2 ** -1.5 * math.sqrt(
                25 * 2 ** (1 / 3) - 4 * 2 ** (2 / 3) * (4 + math.sqrt(17)) + 24
            )
            diff = app.bct_basis(a_scale, c_scale) - BCC
            assert flags.d1_sl1 == (
                excited_1 - factor * math.sqrt((diff**2).sum()) >= m0_1
            )
        # figure shapes are not tabulated in the source material; beyond
        # the anchor identities above the comparison stays qualitative

    _report(7, "tetragonal stability region scan", body)


def test_criterion_8_volume_scaled_bain():
    from lattrans.errors import VerificationFailed

    # Below lam* the body-diagonal family, squared stretches c, beats the
    # scaled cubic stretch, squared stretches b: equating
    # sum((lam^2 b - 1)^2) and sum((lam^2 c - 1)^2) gives lam*.
    b = np.array([2 ** (1 / 3), 2 ** (1 / 3), 2 ** (-2 / 3)])
    c = np.array([2 ** (4 / 3), 2 ** (4 / 3), 2 ** (-8 / 3)])
    crossover = math.sqrt(2 * (b - c).sum() / (b**2 - c**2).sum())

    windows = {
        1.0: np.linspace(0.85, 1.60, 20),
        2.0: np.linspace(0.67, 1.60, 20),
        -2.0: np.linspace(0.85, 1.18, 20),
    }

    def body():
        problems = []
        lo = app.BAIN_VALIDITY[2.0][0]
        if abs(lo - crossover) > 1e-12:
            problems.append(f"r=2 window starts at {lo!r}, crossover is {crossover!r}")
        for r, scales in windows.items():
            metric = metrics.StrainMetric(r)
            for scale in scales:
                scale = float(scale)
                try:
                    out = app.bain_with_volume(scale, metric)
                except VerificationFailed as exc:
                    problems.append(f"r={r} scale={scale:.4f}: {exc.failures[0]}")
                    continue
                assert out["inside_validity_window"]
                closed = app.bain_min_distance(metric, scale)
                if abs(out["m_min"] - closed) > 1e-10:
                    problems.append(
                        f"r={r} scale={scale:.4f}: m_min {out['m_min']!r} "
                        f"vs closed form {closed!r}"
                    )
        # inside the sliver below lam* the competitor is the optimum
        for scale in (0.65, crossover - 1e-3):
            out = app.bain_with_volume(scale, D2)
            competitor = math.sqrt(((scale**2 * c - 1) ** 2).sum())
            if out["inside_validity_window"]:
                problems.append(f"r=2 scale={scale:.4f}: reported inside the window")
            if not out["m_min"] < app.bain_min_distance(D2, scale):
                problems.append(f"r=2 scale={scale:.4f}: m_min {out['m_min']!r} "
                                f"does not beat the scaled cubic stretch")
            if abs(out["m_min"] - competitor) > 1e-10:
                problems.append(f"r=2 scale={scale:.4f}: m_min {out['m_min']!r} "
                                f"vs competitor {competitor!r}")
        assert not problems, "; ".join(problems)

    _report(8, "volume-scaled ground states across validity windows", body)
