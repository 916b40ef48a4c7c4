"""Workloads of the lattrans benchmark and the checks on their answers.

Every workload is a closed loop: one client in one process, and the next
op starts only when the previous one returned.  Ops are grouped in
cycles; a run always ends on a cycle boundary, so every run of a
workload measures the same mix of op kinds, and the seed only picks the
inputs inside each kind.  The program sees only the generated lattices.

An op is a timed call into lattrans's public API.  Its check runs after
the clock stopped and returns a list of problems; an empty list means
the answer is correct.  Checks recompute what they need from the op's
inputs, through evaluation paths independent of the one that produced
the answer where lattrans has one (the scalar Jacobi distance against
the batched LAPACK distance).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import lattrans as lt
import lattrans.cli
import lattrans.metrics

R_VALUES = (1.0, 2.0, -2.0)


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list]
    #: (region cells, SL^k matrices) an answer holds, for the rates of
    #: the certificates workload.
    work: Callable[[object], tuple] | None = None


class OpFailed(Exception):
    """The program returned no answer (for the CLI: a non-zero exit code)."""


# ---------------------------------------------------------------------------
# Answer checks shared by the solve workloads.


def _int_det(mu) -> int:
    (a, b, c), (d, e, f), (g, h, i) = (tuple(int(v) for v in row) for row in mu)
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _key(mu) -> tuple:
    return tuple(int(v) for v in np.asarray(mu).ravel())


def _keys(report) -> set:
    return {_key(m.mu) for m in report.minimizers}


def check_solution(f, g, r, m_min, m0, certified, mus, hs, orbit_mus) -> list:
    """Checks every solve answer must pass.

    Each minimizer has det(mu) = +1 and H = G mu F^-1; the scalar
    distance of G mu F^-1 lies within the tie tolerance of m_min; the
    answer is certified with m_min <= m0; and the point-group orbit of
    the first minimizer lies inside the minimizer set.
    """
    problems = []
    if not certified:
        problems.append("answer is not certified")
    if not m_min <= m0:
        problems.append(f"m_min {m_min!r} exceeds m0 {m0!r}")
    if not mus:
        return problems + ["no minimizers"]
    metric = lt.StrainMetric(r)
    finv = np.linalg.inv(f)
    tol = lt.metrics.tie_tolerance(m_min)
    for mu, h in zip(mus, hs):
        if _int_det(mu) != 1:
            problems.append(f"det {_int_det(mu)} != 1 for mu {_key(mu)}")
            continue
        want = g @ np.asarray(mu, dtype=float) @ finv
        if not np.allclose(h, want, rtol=1e-9, atol=1e-9 * np.abs(want).max()):
            problems.append(f"H != G mu F^-1 for mu {_key(mu)}")
        d = lt.distance_to_identity(want, metric)
        if abs(d - m_min) > tol:
            problems.append(f"scalar distance {d!r} is not within {tol:.1e} of m_min {m_min!r}")
    keys = {_key(mu) for mu in mus}
    if not {_key(mu) for mu in orbit_mus} <= keys:
        problems.append("point-group orbit of the first minimizer leaves the minimizer set")
    return problems


def check_report(f, g, r, report, orbit_mus=None) -> list:
    mus = [m.mu for m in report.minimizers]
    if orbit_mus is None and mus:
        orbit_mus = lt.point_group_orbit(mus[0], f, g).mus
    return check_solution(f, g, r, report.m_min, report.bound.m0, report.certified,
                          mus, [m.h for m in report.minimizers], orbit_mus or [])


def check_bain(report, r, scale) -> list:
    """The verify_bain closed forms: 72 minimizers in three classes of 24."""
    problems = []
    want = lt.bain_min_distance(lt.StrainMetric(r), scale)
    if abs(report.m_min - want) > 1e-12:
        problems.append(f"m_min {report.m_min!r} differs from the closed form {want!r}")
    if len(report.minimizers) != 72:
        problems.append(f"expected 72 minimizers, found {len(report.minimizers)}")
    sizes = sorted(len(c.members) for c in report.classes)
    if sizes != [24, 24, 24]:
        problems.append(f"expected three classes of 24, found {sizes}")
    return problems


#: terephthalic_case reference values: m_min (None: not asserted) and the
#: principal stretches of the optimum, both to 1e-3.
_TEREPHTHALIC = {
    1.0: (0.474, (0.725, 1.033, 1.385)),
    2.0: (1.035, (0.725, 1.033, 1.385)),
    -2.0: (None, (0.743, 0.977, 1.429)),
}


def check_terephthalic(report, r) -> list:
    """The terephthalic_case closed forms."""
    problems = []
    want, spectrum = _TEREPHTHALIC[r]
    got = sorted(report.classes[0].principal_stretches) if report.classes else []
    if len(got) != 3 or max(abs(a - b) for a, b in zip(got, spectrum)) > 1e-3:
        problems.append(f"stretch spectrum {got} differs from {spectrum}")
    if want is not None:
        if abs(report.m_min - want) > 1e-3:
            problems.append(f"m_min {report.m_min:.6f} differs from {want}")
        mus = [m.mu for m in report.minimizers]
        if len(mus) != 1 or not np.array_equal(mus[0], lt.TEREPHTHALIC_MU_MIN):
            problems.append("minimizer is not the published correspondence")
        if report.gap is None or report.gap <= 0.015:
            problems.append(f"gap {report.gap} is not above 0.015")
    return problems


# ---------------------------------------------------------------------------
# Seeded inputs.


def _tere_params(rng=None):
    """The two Terephthalic cells; with ``rng``, lengths perturbed by up to
    0.5% and angles by up to 0.5 degrees."""
    out = []
    for p in (lt.TEREPHTHALIC_I, lt.TEREPHTHALIC_II):
        lengths = np.array([p.a, p.b, p.c])
        angles = np.array([p.alpha, p.beta, p.gamma])
        if rng is not None:
            lengths = lengths * (1.0 + rng.uniform(-0.005, 0.005, 3))
            angles = angles + rng.uniform(-0.5, 0.5, 3)
        out.append(lt.TriclinicParams(*map(float, lengths), *map(float, angles)))
    return out


def _bct_draw(rng):
    a = float(rng.uniform(0.95, 1.05))
    return a, a + float(rng.uniform(0.0, 0.1))


class Workload:
    name = ""
    #: Ops use one thread, so the run is pinned to one CPU: on a small
    #: virtual machine the CPUs can differ in speed, and the scheduler's
    #: choice would otherwise set the run's speed.
    one_cpu = True

    def warm(self) -> None:
        """Untimed set-up before the first op (fills lazy caches)."""

    def cycle(self, rng, index: int) -> list:
        raise NotImplementedError


class Certified(Workload):
    """Unhinted solves at the certified radius (k = 3, or 2 for
    Terephthalic at r = -2), single worker.  One cycle is one family at
    r in {1, 2, -2}; the families rotate through the anchors and the
    seeded draws around them."""

    name = "certified"
    FAMILIES = ("cubic", "bcc", "tere", "bct", "tere~")

    def warm(self):
        lt.materialize_slk(2)
        lt.materialize_slk(3)

    def cycle(self, rng, index):
        family = self.FAMILIES[index % len(self.FAMILIES)]
        fcc = lt.fcc_basis()
        if family == "cubic":
            g, extra = lt.bcc_basis(), (lambda rep, r: check_bain(rep, r, 1.0))
        elif family == "bcc":
            s = float(rng.uniform(0.95, 1.05))
            g, extra = lt.bcc_basis(s), (lambda rep, r, s=s: check_bain(rep, r, s))
        elif family == "bct":
            g, extra = lt.bct_basis(*_bct_draw(rng)), None
        else:
            params = _tere_params(rng if family == "tere~" else None)
            extra = check_terephthalic if family == "tere" else None
        ops = []
        for r in R_VALUES:
            if family.startswith("tere"):
                def call(r=r, p1=params[0], p2=params[1]):
                    f = lt.triclinic_to_primitive(p1)
                    return f, lt.solve(f, lt.triclinic_to_primitive(p2), lt.StrainMetric(r))
            else:
                def call(r=r, g=g):
                    return fcc, lt.solve(fcc, g, lt.StrainMetric(r))

            def check(ans, r=r, extra=extra):
                f, rep = ans
                return check_report(f, rep.product, r, rep) + (extra(rep, r) if extra else [])

            ops.append(Op(f"{family} r={r:g}", call, check))
        return ops


class Hinted(Workload):
    """Small solves hinted with the Bain correspondence, plus the
    point-group orbit of the first minimizer, on seeded cubic and
    tetragonal products at r in {1, 2, -2}.  Each cycle draws every
    product once from a range below the fcc density scale, where the
    hinted radius is k = 2 for r > 0, and once from a range above it,
    where k = 1."""

    name = "hinted"
    RESOLVED = 2
    #: (bcc scale s range, bct A range); C is drawn from [A, A + 0.1].
    RANGES = (((0.90, 0.95), (0.85, 0.89)), ((1.03, 1.08), (1.03, 1.10)))

    def warm(self):
        lt.materialize_slk(1)
        lt.materialize_slk(2)
        lt.materialize_slk(3)
        lt.cubic_point_group()

    def cycle(self, rng, index):
        fcc = lt.fcc_basis()
        draws = []
        for s_range, a_range in self.RANGES:
            s = float(rng.uniform(*s_range))
            draws.append(("bcc", lt.bcc_basis(s), s))
            a = float(rng.uniform(*a_range))
            draws.append(("bct", lt.bct_basis(a, a + float(rng.uniform(0.0, 0.1))), None))
        # The first cycle marks RESOLVED seeded ops whose check also
        # re-solves them unhinted: the minimizer sets must be identical.
        resolve = set(rng.choice(12, self.RESOLVED, replace=False)) if index == 0 else set()
        ops = []
        for family, g, scale in draws:
            for r in R_VALUES:
                def call(g=g, r=r):
                    rep = lt.solve(fcc, g, lt.StrainMetric(r), hint_mus=[lt.BAIN_MU0])
                    return rep, lt.point_group_orbit(rep.minimizers[0].mu, fcc, g)

                def check(ans, g=g, r=r, scale=scale, resolved=len(ops) in resolve):
                    rep, orbit = ans
                    problems = check_report(fcc, g, r, rep, orbit.mus)
                    if scale is not None:
                        problems += check_bain(rep, r, scale)
                    if resolved:
                        plain = lt.solve(fcc, g, lt.StrainMetric(r))
                        if _keys(plain) != _keys(rep):
                            problems.append("hinted minimizer set differs from the unhinted one")
                    return problems

                ops.append(Op(f"{family} r={r:g}", call, check))
        return ops


def _shears():
    """The twelve elementary integer shears I + s e_i e_j^T, s = +-1."""
    out = []
    for (i, j), s in itertools.product(itertools.permutations(range(3), 2), (1, -1)):
        m = np.eye(3, dtype=np.int64)
        m[i, j] = s
        out.append(m)
    return out


#: Certified radius of every single-shear input at the commit that
#: defined this benchmark, per anchor and side, in the order of _shears().
#: It only sorts the inputs into strata; it is never compared with the
#: program's answers.
_REBASED_K = {
    ("cubic", 1.0): ([8, 3] * 6, [3, 6] * 6),
    ("cubic", 2.0): ([7, 3] * 6, [3, 6] * 6),
    ("cubic", -2.0): ([7, 3] * 6, [2, 7] * 6),
    ("tere", 1.0): ([6, 6, 7, 7, 5, 5, 7, 5, 4, 5, 4, 3], [4, 6, 6, 11, 4, 5, 5, 11, 3, 6, 2, 6]),
    ("tere", 2.0): ([5, 6, 7, 7, 5, 5, 7, 4, 3, 5, 4, 3], [4, 5, 6, 11, 3, 5, 5, 11, 3, 5, 2, 6]),
    ("tere", -2.0): ([4, 4, 8, 7, 4, 3, 8, 5, 3, 3, 4, 3], [5, 6, 4, 9, 4, 6, 3, 7, 2, 5, 2, 5]),
}

#: Ops per cycle from each stratum.  Over all 144 inputs the strata hold
#: 10, 41, 13 and 80 inputs; 1:4:1:8 keeps those shares (8 of 14 ops have
#: k > 4 and exit with code 3 under --guard 4).
_REBASED_QUOTA = {"k2": 1, "k3": 4, "k4": 1, "k5+": 8}


def _stratum(k: int) -> str:
    return "k5+" if k >= 5 else f"k{k}"


def _nine(m) -> str:
    return " ".join(repr(float(v)) for v in np.asarray(m).ravel())


class Rebased(Workload):
    """In-process ``lattrans solve`` CLI calls on the anchors with the
    parent or the product basis re-based by one elementary shear."""

    name = "rebased"
    GUARD = 4
    one_cpu = False

    def __init__(self):
        self.anchors = {}
        self.strata = {name: [] for name in _REBASED_QUOTA}
        for (family, r), sides in _REBASED_K.items():
            for side, ks in zip(("parent", "product"), sides):
                for idx, k in enumerate(ks):
                    self.strata[_stratum(k)].append((family, r, side, idx))

    def warm(self):
        lt.materialize_slk(2)
        lt.materialize_slk(3)
        cubic = (lt.fcc_basis(), lt.bcc_basis(), lt.BAIN_MU0)
        t1, t2 = (lt.triclinic_to_primitive(p) for p in _tere_params())
        tere = (t1, t2, lt.TEREPHTHALIC_MU_MIN)
        for (family, r) in _REBASED_K:
            f, g, hint = cubic if family == "cubic" else tere
            rep = lt.solve(f, g, lt.StrainMetric(r), hint_mus=[hint])
            problems = check_report(f, g, r, rep)
            problems += check_bain(rep, r, 1.0) if family == "cubic" else check_terephthalic(rep, r)
            if problems:
                raise RuntimeError(f"anchor {family} r={r:g}: {problems}")
            self.anchors[family, r] = (f, g, rep)

    def cycle(self, rng, index):
        picks = []
        for name, quota in _REBASED_QUOTA.items():
            members = self.strata[name]
            picks += [(name, *members[i])
                      for i in rng.choice(len(members), size=quota, replace=False)]
        shears = _shears()
        ops = []
        for pos in rng.permutation(len(picks)):
            stratum, family, r, side, idx = picks[pos]
            f, g, ref = self.anchors[family, r]
            eye = np.eye(3, dtype=np.int64)
            u, v = (shears[idx], eye) if side == "parent" else (eye, shears[idx])
            fs, gs = f @ u, g @ v
            argv = ["solve", _nine(fs), _nine(gs), "--r", repr(r),
                    "--format", "structured", "--guard", str(self.GUARD)]

            def call(argv=argv):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = lattrans.cli.main(argv)
                if code != 0:
                    raise OpFailed(f"exit code {code}: {err.getvalue().strip()}")
                return out.getvalue()

            def check(text, fs=fs, gs=gs, r=r, u=u, v=v, ref=ref):
                return check_rebased(text, fs, gs, r, u, v, ref)

            ops.append(Op(f"{stratum} {family} r={r:g} {side}", call, check))
        return ops


def check_rebased(text, fs, gs, r, u, v, ref) -> list:
    """Checks on a structured CLI answer for F' = F U, G' = G V: the
    common solve checks, then mu = V mu' U^-1 must give back the
    un-sheared anchor's minimizer set and m_min."""
    doc = json.loads(text)
    mus = [np.array(m["mu"], dtype=np.int64) for m in doc["minimizers"]]
    hs = [np.array(m["h"], dtype=float) for m in doc["minimizers"]]
    orbit = lt.point_group_orbit(mus[0], fs, gs).mus if mus else []
    problems = check_solution(fs, gs, r, doc["m_min"], doc["bound"]["m0"], doc["certified"],
                              mus, hs, orbit)
    u_inv = np.rint(np.linalg.inv(u)).astype(np.int64)
    mapped = {_key(v @ mu @ u_inv) for mu in mus}
    if mapped != _keys(ref):
        problems.append("minimizers mapped back differ from the anchor's")
    if abs(doc["m_min"] - ref.m_min) > lt.metrics.tie_tolerance(ref.m_min):
        problems.append(f"m_min {doc['m_min']!r} differs from the anchor's {ref.m_min!r}")
    return problems


#: sha256 of the default-grid region CSV at the commit that defined this
#: benchmark; the table must stay byte-identical.
REGION_SHA256 = "7e95e607862493395e509603dd12327192e07cd52412e97d17f21c49b6b661bf"
REGION_CELLS = 48841
SLK_COUNTS = {3: 640824, 4: 2597208}
_STEP = 0.005
_WINDOW = 16


def _rows_by_cell(result) -> dict:
    return {(round(row[0], 9), round(row[1], 9)): row[2:] for row in result.to_rows()}


class Certificates(Workload):
    """The non-solve loops: the default region scan, one seeded
    sub-window at iterations 0 and 1, and count_slk at k = 3 and 4."""

    name = "certificates"

    def __init__(self):
        self.grid_rows = {}

    def warm(self):
        lt.count_slk(1)
        lt.bct_stability_flags(1.0, 1.1)

    def cycle(self, rng, index):
        # A window on the default grid whose lower-left corner lies on the
        # diagonal A = C, so it holds certified cells and the cells that
        # iterations=1 re-anchors on them.
        a = round(1.0 + _STEP * int(rng.integers(0, 71)), 12)
        box = dict(a_range=(a, round(a + _STEP * _WINDOW, 12)),
                   c_range=(a, round(a + _STEP * _WINDOW, 12)))
        count3 = Op("count_slk k=3", lambda: lt.count_slk(3), lambda s: check_count(s, 3),
                    lambda s: (0, s.count))
        # count_slk(3) runs three times so that the median op of a cycle
        # is one of its runs, not the boundary between two op kinds.
        return [
            Op("region", lt.bct_region_scan, self.check_region,
               lambda res: (len(res.flags), 0)),
            Op("window iterations=0", lambda: lt.bct_region_scan(**box),
               lambda res: self.check_window(res, equal=True)),
            Op("window iterations=1", lambda: lt.bct_region_scan(**box, iterations=1),
               self.check_window),
            count3, count3, count3,
            Op("count_slk k=4", lambda: lt.count_slk(4), lambda s: check_count(s, 4),
               lambda s: (0, s.count)),
        ]

    def check_region(self, result) -> list:
        problems = []
        if len(result.flags) != REGION_CELLS:
            problems.append(f"expected {REGION_CELLS} cells, found {len(result.flags)}")
        digest = hashlib.sha256(result.table().encode()).hexdigest()
        if digest != REGION_SHA256:
            problems.append(f"region CSV sha256 {digest} differs from the recorded one")
        self.grid_rows = _rows_by_cell(result)
        return problems

    def check_window(self, result, equal: bool = False) -> list:
        """The window's flags are a superset of the default grid's
        iterations=0 flags on the same cells, or equal to them."""
        rows = _rows_by_cell(result)
        if len(rows) != (_WINDOW + 1) ** 2:
            return [f"window holds {len(rows)} cells"]
        problems = []
        for cell, flags in rows.items():
            base = self.grid_rows.get(cell)
            if base is None:
                problems.append(f"cell {cell} is not on the default grid")
            elif (base != flags) if equal else any(b > w for b, w in zip(base, flags)):
                problems.append(f"cell {cell} flags {flags} do not match the grid's {base}")
        return problems[:5]


def check_count(stats, k) -> list:
    if stats.count != SLK_COUNTS[k]:
        return [f"|SL^{k}| = {stats.count}, expected {SLK_COUNTS[k]}"]
    return []


WORKLOADS = {w.name: w for w in (Certified, Hinted, Rebased, Certificates)}
