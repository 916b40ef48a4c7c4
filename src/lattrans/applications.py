"""Built-in reproductions and closed-form cross-checks.

Covers the cubic cases (fcc to bcc at equal density, volume-scaled
variants, the tetragonal family), the stability-region certificates for
fcc to bct, and the transformation between the two triclinic forms of
Terephthalic Acid.  Each ``verify_*`` driver runs the exhaustive search
and checks the result against independently evaluated closed forms,
raising :class:`VerificationFailed` with one message per mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from .errors import VerificationFailed
from .lattice import TriclinicParams, triclinic_to_primitive
from .matrix3 import frobenius
from .metrics import StrainMetric
from .optimizer import OptimalityReport, solve
from .unimodular import materialize_slk

# Primitive generators of the face-centred cubic cell of unit volume and
# the equal-density body-centred cell.
_FCC = 0.5 * np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
_BCC = 2.0 ** (-1.0 / 3.0) * 0.5 * np.array(
    [[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]]
)

#: The classic fcc-to-bcc correspondence; all 72 minimizers are its
#: point-group orbit.
BAIN_MU0 = np.array([[1, 1, 1], [0, 1, 0], [0, 1, 1]], dtype=np.int64)

#: The correspondence minimising the Terephthalic Acid I -> II strain.
TEREPHTHALIC_MU_MIN = np.array([[0, 1, 0], [1, 0, 0], [1, 1, -1]], dtype=np.int64)

#: Triclinic cell parameters of the two forms (angstroms / degrees).
TEREPHTHALIC_I = TriclinicParams(7.730, 6.443, 3.749, 92.75, 109.15, 95.95)
TEREPHTHALIC_II = TriclinicParams(7.452, 6.856, 5.020, 116.6, 119.2, 96.5)

# Under the quadratic metric a stretch family whose squared principal
# stretches at unit scale sum to S1 and whose squares sum to S2 sits at
# distance sqrt(S2 lam^4 - 2 S1 lam^2 + 3) at volume scale lam.  These are
# (S1, S2) of the Bain ground state, squared stretches (2^(1/3), 2^(1/3),
# 2^(-2/3)); of its first excited level, read off bain_excited_distance;
# and of the body-diagonal family, squared stretches (2^(4/3), 2^(4/3),
# 2^(-8/3)), e.g. mu = [[-2,-1,-1],[-1,-1,-2],[-1,-1,-1]], which undercuts
# both at small scales.
_QUADRATIC_BAIN = (2.0 * 2.0 ** (1.0 / 3.0) + 2.0 ** (-2.0 / 3.0),
                   2.0 * 2.0 ** (2.0 / 3.0) + 2.0 ** (-4.0 / 3.0))
_QUADRATIC_EXCITED = (25.0 / 8.0 * 2.0 ** (1.0 / 3.0), 305.0 / 64.0 * 2.0 ** (2.0 / 3.0))
_QUADRATIC_DIAGONAL = (2.0 * 2.0 ** (4.0 / 3.0) + 2.0 ** (-8.0 / 3.0),
                       2.0 * 2.0 ** (8.0 / 3.0) + 2.0 ** (-16.0 / 3.0))


def _quadratic_crossover(family, other) -> float:
    """The one positive scale at which two families tie under r = 2.

    Equating S2 lam^4 - 2 S1 lam^2 for both gives
    lam^2 = 2 (S1 - S1') / (S2 - S2').
    """
    (s1, s2), (t1, t2) = family, other
    return math.sqrt(2.0 * (s1 - t1) / (s2 - t2))


#: Volume-scale windows (open intervals) within which the scaled cubic
#: stretch is the ground state, per metric exponent.  The r = 2 lower end
#: is derived: the body-diagonal family ties with the Bain stretch at
#: lam* = 0.66887785616... and is strictly closer below it, so no lower
#: end can be smaller.  The r = 1 end 0.84, the r = -2 window (0, 1.19)
#: and the absence of an r = 2 upper end are cited; certified searches
#: just inside the finite ends (0.669, 0.8401 and 1.1899) find the scaled
#: cubic stretch.
BAIN_VALIDITY = {
    1.0: (0.84, math.inf),
    2.0: (_quadratic_crossover(_QUADRATIC_BAIN, _QUADRATIC_DIAGONAL), math.inf),
    -2.0: (0.0, 1.19),
}

#: Volume-scale windows within which ``bain_excited_distance`` is the
#: first excited level, so that it bounds every correspondence outside
#: the ground class from below; the extended stability certificates
#: anchor only inside them.  The r = 2 lower end is derived: below
#: 0.69887845360... the body-diagonal family lies under the closed form
#: (the first excited level at 0.69 is 0.967, the closed form 0.983).
#: The r = 1 window is the ground-state one; exhaustive radius-2 scans
#: on a 0.005 grid over [0.80, 2.0] for r = 1 and [0.70, 2.0] for r = 2
#: match both closed forms.
BAIN_EXCITED_VALIDITY = {
    1.0: BAIN_VALIDITY[1.0],
    2.0: (_quadratic_crossover(_QUADRATIC_EXCITED, _QUADRATIC_DIAGONAL), math.inf),
}


def fcc_basis() -> np.ndarray:
    return _FCC.copy()


def bcc_basis(scale: float = 1.0) -> np.ndarray:
    """Body-centred cubic primitive cell; ``scale`` is the linear factor
    (the volume changes by scale**3)."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    return scale * _BCC


def bct_basis(a_scale: float, c_scale: float) -> np.ndarray:
    """Body-centred tetragonal cell: the bcc cell stretched by a_scale in
    the x and y directions and c_scale along the tetragonal axis."""
    if a_scale <= 0.0 or c_scale <= 0.0:
        raise ValueError("scales must be positive")
    return np.diag([a_scale, a_scale, c_scale]) @ _BCC


def bain_spectrum(scale: float = 1.0) -> tuple:
    """Principal stretches of the fcc-to-bcc ground state, descending."""
    return (
        scale * 2.0 ** (1.0 / 6.0),
        scale * 2.0 ** (1.0 / 6.0),
        scale * 2.0 ** (-1.0 / 3.0),
    )


def bain_min_distance(metric: StrainMetric, scale: float = 1.0) -> float:
    """Closed-form ground distance of the (volume-scaled) cubic case."""
    r = metric.r
    small = (scale * 2.0 ** (-1.0 / 3.0)) ** r
    large = (scale * 2.0 ** (1.0 / 6.0)) ** r
    return math.sqrt((small - 1.0) ** 2 + 2.0 * (large - 1.0) ** 2)


def bain_excited_distance(metric: StrainMetric, scale: float = 1.0) -> float:
    """Closed-form first excited distance of the (scaled) cubic case."""
    lam = scale
    if metric.r == 1.0:
        return 2.0**-1.5 * math.sqrt(
            25.0 * 2.0 ** (1.0 / 3.0) * lam**2
            - 4.0 * 2.0 ** (2.0 / 3.0) * (4.0 + math.sqrt(17.0)) * lam
            + 24.0
        )
    if metric.r == 2.0:
        return 2.0**-3 * math.sqrt(
            305.0 * 2.0 ** (2.0 / 3.0) * lam**4 - 400.0 * 2.0 ** (1.0 / 3.0) * lam**2 + 192.0
        )
    raise ValueError("excited-state closed forms exist for exponents 1 and 2 only")


def _check(failures: list, ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def _spectrum_close(got, want, tol: float) -> bool:
    return max(abs(a - b) for a, b in zip(sorted(got), sorted(want))) <= tol


def _bain_class_checks(report: OptimalityReport, metric: StrainMetric, scale: float,
                       failures: list) -> None:
    want = bain_min_distance(metric, scale)
    _check(failures, len(report.minimizers) == 72,
           f"expected 72 minimizers, found {len(report.minimizers)}")
    sizes = sorted(len(c.members) for c in report.classes)
    _check(failures, sizes == [24, 24, 24],
           f"expected three classes of 24, found sizes {sizes}")
    _check(failures, abs(report.m_min - want) <= 1e-12,
           f"m_min {report.m_min!r} differs from closed form {want!r}")
    spectrum = bain_spectrum(scale)
    perms = {
        tuple(np.diag(p)): p
        for p in (
            np.diag([spectrum[2], spectrum[0], spectrum[0]]),
            np.diag([spectrum[0], spectrum[2], spectrum[0]]),
            np.diag([spectrum[0], spectrum[0], spectrum[2]]),
        )
    }
    matched = set()
    for cls in report.classes:
        _check(failures, _spectrum_close(cls.principal_stretches, spectrum, 1e-10),
               f"class spectrum {cls.principal_stretches} is not the expected stretch")
        rep = cls.stretch
        hit = None
        for key, target in perms.items():
            if np.abs(rep - target).max() <= 1e-9:
                hit = key
                break
        _check(failures, hit is not None and hit not in matched,
               "class stretch is not a distinct axis permutation of the expected diagonal")
        if hit is not None:
            matched.add(hit)


def verify_bain(metric: StrainMetric) -> dict:
    """Reproduce the fcc-to-bcc ground state for r in {1, 2, -2}.

    Uses the known correspondence as a bound hint (the search stays
    exhaustive within the certified radius).  Returns a summary dict;
    raises VerificationFailed listing every mismatched check.
    """
    if metric.r not in (1.0, 2.0, -2.0):
        raise ValueError("the cubic ground state is certified for exponents 1, 2 and -2")
    report = solve(_FCC, _BCC, metric, hint_mus=[BAIN_MU0])
    failures: list = []
    _bain_class_checks(report, metric, 1.0, failures)
    if metric.r == -2.0:
        _check(failures, report.bound.side == "inverse" and report.k_used == 1,
               f"negative exponent should search the inverse box at k=1, "
               f"got {report.bound.side} k={report.k_used}")
    if failures:
        raise VerificationFailed(failures)
    return {
        "metric_r": metric.r,
        "m_min": report.m_min,
        "gap": report.gap,
        "minimizers": len(report.minimizers),
        "classes": len(report.classes),
        "report": report,
    }


def bain_with_volume(scale: float, metric: StrainMetric) -> dict:
    """Solve fcc to the volume-scaled bcc cell.

    Inside ``BAIN_VALIDITY[metric.r]`` the optimum is asserted to be the
    scaled cubic stretch with the closed-form distance; outside, the
    found optimum is reported without assertion.  The r = 2 lower end is
    derived (the body-diagonal crossover), the other ends are cited.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    lo, hi = BAIN_VALIDITY.get(metric.r, (math.nan, math.nan))
    inside = lo < scale < hi if not math.isnan(lo) else False
    report = solve(_FCC, bcc_basis(scale), metric, hint_mus=[BAIN_MU0])
    if inside:
        failures: list = []
        _bain_class_checks(report, metric, scale, failures)
        if failures:
            raise VerificationFailed(failures)
    return {
        "metric_r": metric.r,
        "scale": scale,
        "inside_validity_window": inside,
        "m_min": report.m_min,
        "closed_form": bain_min_distance(metric, scale) if inside else None,
        "report": report,
    }


@lru_cache(maxsize=1)
def sl1_transform_norm_max() -> float:
    """max |mu F^-1|_F over the 3480 radius-1 correspondences.

    Recomputed by enumeration; equals 27**0.5 exactly (the products are
    integer matrices, so the squared norms are integers).
    """
    finv = np.array([[-1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
    mus = materialize_slk(1).astype(float)
    prods = mus @ finv
    return float(np.sqrt((prods**2).sum(axis=(1, 2)).max()))


def _bct_ground_distance(a_scale: float, c_scale: float, r: float) -> float:
    """Distance of diag(2^(1/6)A, 2^(1/6)A, 2^(-1/3)C) to the identity."""
    planar = (2.0 ** (1.0 / 6.0) * a_scale) ** r
    axial = (2.0 ** (-1.0 / 3.0) * c_scale) ** r
    return math.sqrt(2.0 * (planar - 1.0) ** 2 + (axial - 1.0) ** 2)


def _margin(excited: float, r: float, lam: float, ref, target) -> float:
    """Perturbation certificate margin against a reference problem.

    ``excited`` bounds the reference's first excited level from below;
    moving from ``ref`` to ``target`` at volume scale ``lam`` shifts any
    radius-1 distance by at most lam * factor * |ref - target|_F for
    r = 1, and by lam^2 * factor^2 * |ref^T ref - target^T target|_F for
    r = 2, with factor = ``sl1_transform_norm_max()``.
    """
    factor = sl1_transform_norm_max()
    if r == 1.0:
        return excited - lam * factor * frobenius(ref - target)
    return excited - lam**2 * factor**2 * frobenius(ref.T @ ref - target.T @ target)


def bct_ground_spectrum(a_scale: float, c_scale: float) -> tuple:
    return (
        2.0 ** (1.0 / 6.0) * a_scale,
        2.0 ** (1.0 / 6.0) * a_scale,
        2.0 ** (-1.0 / 3.0) * c_scale,
    )


@dataclass(frozen=True)
class BctFlags:
    """Certificates for one (A, C) pair of tetragonal lattice parameters.

    ``d1_sl1``/``d2_sl1``: the radius-1 perturbation certificate holds.
    ``d1_outside``/``d2_outside``: every correspondence outside the
    radius-1 box is provably worse.  ``extended_*``: some volume-scale
    anchor certifies the radius-1 part (outside part still required).
    A metric is certified when its hypothesis, sl1 and outside flags all
    hold, or via the extended route.
    """

    a_scale: float
    c_scale: float
    hypothesis_ok: bool
    d1_sl1: bool
    d1_outside: bool
    d2_sl1: bool
    d2_outside: bool
    extended_d1: bool
    extended_d2: bool

    @property
    def certified_d1(self) -> bool:
        return self.hypothesis_ok and self.d1_outside and (self.d1_sl1 or self.extended_d1)

    @property
    def certified_d2(self) -> bool:
        return self.hypothesis_ok and self.d2_outside and (self.d2_sl1 or self.extended_d2)


_EXTENDED_ANCHORS = (0.9, 1.1, 1.3)


def _scale_anchors(A: float, C: float) -> list:
    """The volume-scale anchors of (A, C), the fixed ones plus 0.995 sqrt(AC),
    each with its scaled cell B_AC / lam."""
    return [(lam, bct_basis(A / lam, C / lam))
            for lam in _EXTENDED_ANCHORS + (0.995 * math.sqrt(A * C),)]


def _anchor_margins(anchors: list, r: float):
    """Certificate margins against the volume-scaled cubic problems at the
    ``anchors`` that lie inside ``BAIN_EXCITED_VALIDITY[r]``, in order."""
    lo, hi = BAIN_EXCITED_VALIDITY[r]
    metric = StrainMetric(r)
    for lam, scaled in anchors:
        if lo < lam < hi:
            yield _margin(bain_excited_distance(metric, lam), r, lam, _BCC, scaled)


def bct_stability_flags(a_scale: float, c_scale: float) -> BctFlags:
    """Evaluate the optimality certificates at one (A, C) point.

    The radius-1 certificate perturbs the equal-density cubic problem:
    excited(1) - 27**0.5 * |B_AC - B|_F >= ground(A, C) for the linear
    metric, and its Gram-space analogue with constant 27 for the
    quadratic one.  The outside certificate uses 2**(2/3) A - 1 (resp.
    2**(4/3) A - 1).  Extended certificates re-anchor on a volume-scaled
    problem at fixed anchors plus 0.995 sqrt(AC), each restricted to
    ``BAIN_EXCITED_VALIDITY``, where the excited closed form is a lower
    bound.
    """
    A, C = float(a_scale), float(c_scale)
    hypothesis = C >= A > 0.75
    bac = bct_basis(A, C)
    m0_1 = _bct_ground_distance(A, C, 1.0)
    m0_2 = _bct_ground_distance(A, C, 2.0)

    d1_sl1 = _margin(bain_excited_distance(StrainMetric(1.0)), 1.0, 1.0, bac, _BCC) >= m0_1
    d2_sl1 = _margin(bain_excited_distance(StrainMetric(2.0)), 2.0, 1.0, bac, _BCC) >= m0_2
    d1_outside = 2.0 ** (2.0 / 3.0) * A - 1.0 > m0_1
    d2_outside = 2.0 ** (4.0 / 3.0) * A - 1.0 > m0_2

    anchors = _scale_anchors(A, C)
    ext1 = any(m >= m0_1 for m in _anchor_margins(anchors, 1.0))
    ext2 = any(m >= m0_2 for m in _anchor_margins(anchors, 2.0))
    return BctFlags(
        a_scale=A,
        c_scale=C,
        hypothesis_ok=hypothesis,
        d1_sl1=bool(d1_sl1),
        d1_outside=bool(d1_outside),
        d2_sl1=bool(d2_sl1),
        d2_outside=bool(d2_outside),
        extended_d1=bool(ext1),
        extended_d2=bool(ext2),
    )


REGION_COLUMNS = (
    "A",
    "C",
    "flag_d1_sl1",
    "flag_d1_outside",
    "flag_d2_sl1",
    "flag_d2_outside",
    "flag_extended_d1",
    "flag_extended_d2",
)


@dataclass
class RegionScanResult:
    """Grid evaluation of the stability certificates.

    Rows are ordered by A then C; flag columns are 0/1.  Cells failing
    the C >= A > 0.75 hypothesis carry all-zero flags (undetermined).
    """

    a_values: np.ndarray
    c_values: np.ndarray
    flags: list

    def to_rows(self):
        for cell in self.flags:
            yield (
                cell.a_scale,
                cell.c_scale,
                int(cell.hypothesis_ok and cell.d1_sl1),
                int(cell.hypothesis_ok and cell.d1_outside),
                int(cell.hypothesis_ok and cell.d2_sl1),
                int(cell.hypothesis_ok and cell.d2_outside),
                int(cell.hypothesis_ok and cell.extended_d1),
                int(cell.hypothesis_ok and cell.extended_d2),
            )

    def table(self) -> str:
        lines = [",".join(REGION_COLUMNS)]
        for row in self.to_rows():
            head = f"{row[0]:.10g},{row[1]:.10g}"
            lines.append(head + "," + ",".join(str(v) for v in row[2:]))
        return "\n".join(lines) + "\n"

    def cell(self, a_scale: float, c_scale: float) -> BctFlags:
        for flags in self.flags:
            if abs(flags.a_scale - a_scale) <= 1e-9 and abs(flags.c_scale - c_scale) <= 1e-9:
                return flags
        raise KeyError(f"no grid cell at ({a_scale}, {c_scale})")


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    n = int(round((hi - lo) / step))
    return np.round(lo + step * np.arange(n + 1), 12)


def bct_region_scan(a_range: tuple = (0.7, 1.8), c_range: tuple = (0.7, 1.8),
                    step: float = 0.005, iterations: int = 0) -> RegionScanResult:
    """Evaluate the certificates over a rectangular (A, C) grid.

    ``iterations`` > 0 re-anchors uncertified cells on already-certified
    ones, chaining the perturbation inequality through the certified
    cell's excited-state lower bound.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    a_values = _grid(*a_range, step)
    c_values = _grid(*c_range, step)
    cells = [bct_stability_flags(a, c) for a in a_values for c in c_values]
    for _ in range(max(0, int(iterations))):
        cells = _refine_extended(cells)
    return RegionScanResult(a_values=a_values, c_values=c_values, flags=cells)


def _refine_extended(cells: list) -> list:
    """One pass of re-anchoring uncertified cells on certified ones."""
    anchors1 = [c for c in cells if c.certified_d1][:: max(1, len(cells) // 512)]
    anchors2 = [c for c in cells if c.certified_d2][:: max(1, len(cells) // 512)]

    @cache
    def reference(anchor: BctFlags, r: float) -> tuple:
        """The best lower bound on the anchor's first excited level, and its basis."""
        A, C = anchor.a_scale, anchor.c_scale
        return max(_anchor_margins(_scale_anchors(A, C), r), default=-math.inf), bct_basis(A, C)

    out = []
    for cell in cells:
        if not cell.hypothesis_ok or (cell.certified_d1 and cell.certified_d2):
            out.append(cell)
            continue
        A, C = cell.a_scale, cell.c_scale
        bac = bct_basis(A, C)
        ext1, ext2 = cell.extended_d1, cell.extended_d2
        if not ext1 and cell.d1_outside:
            m0 = _bct_ground_distance(A, C, 1.0)
            for anchor in anchors1:
                excited, ref = reference(anchor, 1.0)
                if _margin(excited, 1.0, 1.0, bac, ref) >= m0:
                    ext1 = True
                    break
        if not ext2 and cell.d2_outside:
            m0 = _bct_ground_distance(A, C, 2.0)
            for anchor in anchors2:
                excited, ref = reference(anchor, 2.0)
                if _margin(excited, 2.0, 1.0, bac, ref) >= m0:
                    ext2 = True
                    break
        if ext1 != cell.extended_d1 or ext2 != cell.extended_d2:
            cell = replace(cell, extended_d1=ext1, extended_d2=ext2)
        out.append(cell)
    return out


def terephthalic_case() -> dict:
    """Reproduce the Terephthalic Acid I -> II optimal transformations.

    Builds both primitive cells from the published triclinic parameters,
    searches with the automatically certified radii, and checks the
    shared minimiser, distances, stretch spectra and gap for the linear
    and quadratic metrics, plus the different optimum of the
    inverse-quadratic one.
    """
    f1 = triclinic_to_primitive(TEREPHTHALIC_I)
    f2 = triclinic_to_primitive(TEREPHTHALIC_II)
    failures: list = []
    out = {"parent": f1, "product": f2}

    expected = {1.0: 0.474, 2.0: 1.035}
    for r, want in expected.items():
        report = solve(f1, f2, StrainMetric(r))
        out[r] = report
        _check(failures, report.bound.side == "direct" and report.k_used == 3,
               f"r={r}: expected automatic direct radius 3, got "
               f"{report.bound.side} k={report.k_used}")
        _check(failures, len(report.minimizers) == 1 and len(report.classes) == 1,
               f"r={r}: expected a unique minimiser class, got "
               f"{len(report.minimizers)} minimizers in {len(report.classes)} classes")
        _check(failures, np.array_equal(report.minimizers[0].mu, TEREPHTHALIC_MU_MIN),
               f"r={r}: minimiser is not the published correspondence")
        _check(failures, abs(report.m_min - want) <= 1e-3,
               f"r={r}: m_min {report.m_min:.6f} differs from {want} by more than 1e-3")
        _check(failures, _spectrum_close(report.classes[0].principal_stretches,
                                         (0.725, 1.033, 1.385), 1e-3),
               f"r={r}: stretch spectrum {report.classes[0].principal_stretches} is off")
        _check(failures, report.gap is not None and report.gap > 0.015,
               f"r={r}: gap {report.gap} is not above 0.015")

    report = solve(f1, f2, StrainMetric(-2.0))
    out[-2.0] = report
    _check(failures, report.bound.side == "inverse" and report.k_used == 2,
           f"r=-2: expected automatic inverse radius 2, got "
           f"{report.bound.side} k={report.k_used}")
    _check(failures, _spectrum_close(report.classes[0].principal_stretches,
                                     (0.743, 0.977, 1.429), 1e-3),
           f"r=-2: stretch spectrum {report.classes[0].principal_stretches} is off")
    if failures:
        raise VerificationFailed(failures)
    return out
