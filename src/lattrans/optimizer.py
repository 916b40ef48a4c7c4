"""Exhaustive search for optimal lattice transformations.

Every transformation between the lattices generated by F and G has the
form H = G mu F^-1 with mu a determinant-one integer matrix.  The search
minimises the strain distance of H to the identity over mu.  A finite,
certified search radius comes from the stretch-ratio bound: writing
s = |r| and m0 for any achievable distance (by default the distance of
G F^-1 itself),

    r > 0:  |mu|_cols**s  <= (|F|_cols**s / nu_min(G)**s) * (m0 + 1)
    r < 0:  |mu^-1|_cols**s <= (|G|_cols**s / nu_min(F)**s) * (m0 + 1)

where |.|_cols is the column-max norm.  Any integer matrix outside the
entry box [-k, k] has a column of squared norm at least (k+1)**2 + 1
(a column (k+1, 0, 0) would force the determinant to be divisible by
k+1), so the smallest k whose exclusion threshold exceeds the bound
certifies the search.  At r < 0 the box bounds mu^-1: F -> G is then
the problem G -> F at |r| (F mu^-1 G^-1 has singular values 1/nu_i), and
``solve`` searches that one and maps its minimizers back as adj(mu^-1).

Inside the box, the search lists only matrices whose columns lie in the
shells of the same stretch-ratio inequality at a threshold t (Fincke-Pohst
point sets, here cut to the box) and evaluates the determinant-one column
triples.  t starts from below, at the largest per-column minimum bound,
and rises pass by pass; each pass evaluates only the triples with a newly
admitted column, so no triple is evaluated twice.  The fold over them
keeps the exact minimum m_min, every candidate in its tie band, and
m_second, the smallest distance strictly above that band over the
searched box; the shells widen until m_second is exact, so none of these
depends on the shells or on the passes.

The radius depends on the basis typed, not only on the lattice: a
sheared basis of a small-radius problem can need a radius past any
guard.  When the certified radius exceeds ``_REDUCE_ABOVE_K``, both
bases are LLL-reduced to F U and G V first; the reduced problem has the
same transformations H = G mu F^-1 = (G V)(V^-1 mu U)(F U)^-1, and its
minimizers map back to the caller's bases as mu = V mu_red U^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import BudgetExceeded, NotRightHanded, SingularMatrix
from .matrix3 import (adjugate, as_matrix3, det, frobenius, inverse, is_singular,
                      singular_values, spd_power)
from .metrics import StrainMetric, distance_to_identity, distance_to_identity_many, tie_tolerance
from .unimodular import DEFAULT_GUARD, _box_triples, _check_k, _det1_blocks, _require_unimodular

#: Relative widening of the shell threshold that absorbs the rounding of
#: the column bounds and of the evaluator (both near 1e-15 relative).
_SLACK = 1e-9

#: Largest certified radius searched in the caller's own bases; above it
#: ``solve`` (unless ``k`` is forced) and the point groups reduce both
#: bases first and keep the reduced problem when its radius is smaller.
_REDUCE_ABOVE_K = 3

#: Determinant-one matrices evaluated per batch (4.5 MB of transformations).
_ROWS = 1 << 16


@dataclass(frozen=True)
class SearchBound:
    """Certified finite search radius for one problem.

    ``side`` is "direct" when the entry box bounds mu itself (r > 0) and
    "inverse" when it bounds mu^-1 (r < 0), which :func:`solve` searches
    as the problem G -> F at |r|; ``m0`` is the distance of G F^-1 at r
    itself.  ``raw_bound`` is the right
    side of the bound above, constraining the column-max norm to the
    power s.  When :func:`solve` reduced the bases, the bound is that of
    the reduced bases F U and G V, not of the caller's.
    """

    k: int
    m0: float
    raw_bound: float
    side: str


class Minimizer(NamedTuple):
    mu: np.ndarray
    h: np.ndarray


@dataclass
class StretchClass:
    """One equivalence class of minimizers modulo rotation."""

    stretch: np.ndarray
    principal_stretches: tuple
    members: list[int]


@dataclass
class OptimalityReport:
    """Result of one search.

    Every candidate within ``tie_tolerance(m_min)`` of ``m_min`` is a
    minimizer.  ``m_second`` is the smallest distance strictly above that
    band over the searched box, or None when no candidate lies there, so
    ``gap`` = ``m_second - m_min`` > ``tie_tolerance(m_min)`` always holds.
    ``candidates`` counts the determinant-one shell triples evaluated,
    each once, over all threshold passes.
    When the search ran on reduced bases, ``bound`` and ``k_used``
    describe that reduced problem; ``parent``, ``product`` and every
    minimizer's ``mu`` stay in the caller's bases.
    """

    parent: np.ndarray
    product: np.ndarray
    metric: StrainMetric
    bound: SearchBound
    k_used: int
    certified: bool
    minimizers: list[Minimizer]
    classes: list[StretchClass]
    m_min: float
    m_second: float | None
    gap: float | None
    candidates: int = 0


@dataclass
class _Fold:
    """Associative partial result of scanning candidate blocks.

    Keeps the matrices in the tie band of ``m_min`` with their distances
    and, as ``m_second``, the smallest distance above that band.
    """

    m_min: float = math.inf
    mus: np.ndarray = field(default_factory=lambda: np.empty((0, 3, 3), dtype=np.int64))
    ds: np.ndarray = field(default_factory=lambda: np.empty(0))
    m_second: float = math.inf
    count: int = 0


def _merge(a: _Fold, b: _Fold) -> _Fold:
    m_min = min(a.m_min, b.m_min)
    band = m_min + tie_tolerance(m_min)
    ka, kb = a.ds <= band, b.ds <= band
    second = min(a.m_second, b.m_second,
                 float(a.ds.min(initial=math.inf, where=~ka)),
                 float(b.ds.min(initial=math.inf, where=~kb)))
    return _Fold(
        m_min=m_min,
        mus=np.concatenate([a.mus[ka], b.mus[kb]]),
        ds=np.concatenate([a.ds[ka], b.ds[kb]]),
        m_second=second,
        count=a.count + b.count,
    )


def _require_generator(m, name: str) -> np.ndarray:
    a = as_matrix3(m)
    try:
        with np.errstate(over="raise"):
            singular = is_singular(a)  # forms det(A) and |A|_F**3, as every search does
    except FloatingPointError:
        raise ValueError(f"{name} generator overflows double precision") from None
    if singular:
        raise SingularMatrix(f"{name} generator is singular to working precision")
    if det(a) < 0.0:
        raise NotRightHanded(f"{name} generator must have positive determinant")
    return a


def search_bound(f, g, metric: StrainMetric, hint_mus: Iterable | None = None) -> SearchBound:
    """Smallest certified entry-box radius containing every optimum.

    Each correspondence in ``hint_mus`` (a determinant-one integer
    matrix; anything else raises ValueError) is evaluated exactly; a
    distance below the default m0 = distance of G F^-1 to the identity
    shrinks the radius without losing any minimizer.
    """
    f = _require_generator(f, "parent")
    g = _require_generator(g, "product")
    hints = [] if hint_mus is None else [_require_unimodular(mu) for mu in hint_mus]
    return _bound(f, g, metric, hints)


def _bound(f: np.ndarray, g: np.ndarray, metric: StrainMetric,
           hints: list[np.ndarray]) -> SearchBound:
    """:func:`search_bound` of two generators that passed ``_require_generator``
    and of hints that passed ``_require_unimodular``."""
    s = abs(metric.r)
    finv = inverse(f)
    m0 = distance_to_identity(g @ finv, metric)
    m0_eff = m0
    for mu in hints:
        m0_eff = min(m0_eff, distance_to_identity(g @ mu.astype(float) @ finv, metric))
    a, b, side = (f, g, "direct") if metric.r > 0 else (g, f, "inverse")
    col_max = float(np.sqrt((a * a).sum(axis=0)).max())
    with np.errstate(over="ignore"):  # a power past the float range is an unbounded radius
        raw = (col_max / singular_values(b)[2]) ** s * (m0_eff + 1.0)
        limit = float(raw ** (1.0 / s))
    raw = float(raw)
    if not math.isfinite(limit):
        raise BudgetExceeded(f"the certified search radius is unbounded (raw bound {raw!r})")
    # hypot(j + 1, 1) <= limit holds for every j < limit - 1, so start there;
    # a limit within rounding of hypot(k + 1, 1) takes one more k; past
    # 2**52 floats cannot tell k + 1 from k + 2, and k is past any guard
    k = max(1, math.floor(limit) - 1)
    while k < 2**52 and math.hypot(k + 1.0, 1.0) <= limit * (1.0 + _SLACK):
        k += 1
    return SearchBound(k=k, m0=m0, raw_bound=raw, side=side)


def _column_bounds(a: np.ndarray, b: np.ndarray, s: float, box: np.ndarray) -> np.ndarray:
    """Entry [j, i] bounds from below, at exponent s > 0, the distance of
    every H = A mu B^-1 whose column j of mu is v_i = box[i].

    H maps the column b_j of B onto A v_i, and a stretch ratio |H x|/|x|
    lies between the least and the largest principal stretch nu of H, so

        |(|A v_i| / |b_j|)**s - 1|  <=  max |nu**s - 1|
                                   <=  sqrt(sum (nu**s - 1)**2).

    A ratio whose power leaves the float range gives an infinite bound.
    """
    images = np.sqrt(((box @ a.T) ** 2).sum(axis=1))
    lengths = np.sqrt((b**2).sum(axis=0))
    with np.errstate(over="ignore"):
        return np.abs((images[None, :] / lengths[:, None]) ** s - 1.0)


def _evaluate(mus: np.ndarray, finv, g, metric: StrainMetric) -> _Fold:
    """Fold of the matrices ``mus``; merging it keeps only the tie band."""
    d = distance_to_identity_many((g @ mus.astype(float)) @ finv, metric)
    return _Fold(m_min=float(d.min()), mus=mus, ds=d, count=int(d.size))


def _fold_triples(products, finv, g, metric: StrainMetric, fold: _Fold) -> _Fold:
    """Merge into ``fold`` the determinant-one matrices of every shell
    triple in ``products``, gathering up to about ``_ROWS`` rows per
    evaluation.
    """
    pending, rows = [], 0
    for shells in products:
        for cols in _det1_blocks(shells):
            pending.append(cols)
            rows += cols.shape[0]
            if rows >= _ROWS:
                fold = _merge(fold, _evaluate(np.concatenate(pending), finv, g, metric))
                pending, rows = [], 0
    if pending:
        fold = _merge(fold, _evaluate(np.concatenate(pending), finv, g, metric))
    return fold


def _shell_passes(f, g, metric: StrainMetric, k: int) -> Iterator[_Fold]:
    """Folds over every matrix mu of the entry box within reach of the
    threshold, for the direct problem F -> G at r > 0, one after each pass.

    A column whose lower bound exceeds the threshold t cannot belong to a
    matrix at distance t or less.  The search starts at the largest
    per-column minimum bound, below which no matrix lies, and raises t
    pass by pass.  Each pass evaluates only the triples with a newly
    admitted column (new x in x in, old x new x in, old x old x new), so
    no triple is evaluated twice.  m_second is exact once some evaluated
    distance above the tie band is in reach, or once the shells hold the
    whole box; the last fold is the search's answer.  Between passes t
    moves to the least evaluated distance above the band, or to m_min
    while that is out of reach; with nothing found yet it grows by
    (1 + t)/2, and at least to the next column bound.
    """
    box = _box_triples(k)
    lower = _column_bounds(g, f, metric.r, box)
    finv = inverse(f)
    fold = _Fold()
    old = np.zeros_like(lower, dtype=bool)
    t = float(lower.min(axis=1).max())
    while True:
        reach = t + tie_tolerance(t)
        inside = lower <= reach + _SLACK * (1.0 + reach)
        new = inside & ~old
        parts = ((new[0], inside[1], inside[2]), (old[0], new[1], inside[2]),
                 (old[0], old[1], new[2]))
        products = [[box[m] for m in p] for p in parts if all(m.any() for m in p)]
        fold = _fold_triples(products, finv, g, metric, fold)
        yield fold
        if fold.m_second <= reach or inside.all():
            return
        old = inside
        if reach < fold.m_min < math.inf:
            t = fold.m_min
        elif math.isfinite(fold.m_second):
            t = fold.m_second
        else:
            t = max(t + 0.5 * (1.0 + t), float(lower[~inside].min()))


def _lll(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LLL-reduce the columns of F (delta = 3/4): (F U, U) with U an
    integer matrix of determinant +1, so F U spans L(F) with the same
    handedness.  U is tracked exactly; each step forms F U afresh from
    it, so no rounding accumulates in the basis.
    """
    u = np.eye(3, dtype=np.int64)
    k = 1
    while k < 3:
        for j in range(k - 1, -1, -1):
            r = np.linalg.qr(f @ u, mode="r")
            mu = r[j, k] / r[j, j]
            if abs(mu) > 0.5 + _SLACK:  # a rounding error must not break a tie at 1/2
                u[:, k] -= round(mu) * u[:, j]
        r = np.linalg.qr(f @ u, mode="r")
        mu = r[k - 1, k] / r[k - 1, k - 1]
        if r[k, k] ** 2 >= (0.75 - mu * mu) * r[k - 1, k - 1] ** 2:
            k += 1
        else:
            u[:, [k - 1, k]] = u[:, [k, k - 1]]
            k = max(1, k - 1)
    if det(u) < 0:
        u[:, 2] = -u[:, 2]
    return f @ u, u


def _problem(f, g, metric: StrainMetric, hints: list[np.ndarray], k: int | None, guard: int):
    """The problem to search, as (F, G, bound, k_used, back).

    Unless ``k`` is forced, a certified radius above ``_REDUCE_ABOVE_K``
    moves the search to the LLL-reduced bases F U, G V when their radius
    is smaller; each hint mu becomes V^-1 mu U, which has the same
    transformation, and ``back`` = (V, U^-1) maps their minimizers back
    as V mu U^-1.  ``back`` is None when the caller's bases are kept.
    """
    bound = _bound(f, g, metric, hints)
    back = None
    if k is None and bound.k > _REDUCE_ABOVE_K:
        fr, u = _lll(f)
        gr, v = _lll(g)
        hints = [adjugate(v) @ mu @ u for mu in hints]
        reduced = _bound(_require_generator(fr, "parent"), _require_generator(gr, "product"),
                         metric, hints)
        if reduced.k < bound.k:
            f, g, bound, back = fr, gr, reduced, (v, adjugate(u))
    return f, g, bound, _check_k(bound.k if k is None else k, guard), back


def _lex_unique(mus: np.ndarray) -> np.ndarray:
    """Indices of the distinct matrices of a stack, in row-major lex order."""
    rows = mus.reshape(-1, 9)
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    return order[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]


def solve(f, g, metric: StrainMetric, *, k: int | None = None,
          guard: int = DEFAULT_GUARD, hint_mus: Iterable | None = None) -> OptimalityReport:
    """Find every optimal lattice transformation from L(F) to L(G).

    The search radius comes from :func:`search_bound` unless ``k`` forces
    one; a forced radius smaller than the certified one is honoured but
    the report is marked uncertified.  ``hint_mus`` supplies candidate
    correspondences whose (exactly evaluated) distances shrink the bound.
    ``m_second`` is the first excited level over the searched box, also
    for a forced ``k`` (see :class:`OptimalityReport`).

    Unless ``k`` is forced, a certified radius above 3 makes the search
    run on the LLL-reduced bases F U, G V when their radius is smaller;
    ``bound`` and ``k_used`` then describe that reduced problem, the
    guard applies to its radius, and the minimizers are mapped back to
    the caller's bases, which ``parent`` and ``product`` keep.
    At r < 0 the search runs G -> F at |r| over mu^-1, which a forced
    ``k`` bounds, and H = G mu F^-1 is formed for the tie band only.
    """
    f = _require_generator(f, "parent")
    g = _require_generator(g, "product")
    hints = [] if hint_mus is None else [_require_unimodular(mu) for mu in hint_mus]

    fs, gs, bound, k_used, back = _problem(f, g, metric, hints, k, guard)
    certified = k_used >= bound.k
    a, b = (fs, gs) if metric.r > 0 else (gs, fs)
    *_, fold = _shell_passes(a, b, StrainMetric(abs(metric.r)), k_used)

    mus = fold.mus if metric.r > 0 else adjugate(fold.mus)
    hs = (gs @ mus.astype(float)) @ inverse(fs)
    mus = mus if back is None else back[0] @ mus @ back[1]
    minimizers = [Minimizer(mu=mus[i].copy(), h=hs[i].copy()) for i in _lex_unique(mus)]

    classes = group_classes([m.h for m in minimizers])
    m_min = fold.m_min
    m_second = None if math.isinf(fold.m_second) else fold.m_second
    gap = None if m_second is None else m_second - m_min

    return OptimalityReport(
        parent=f, product=g, metric=metric, bound=bound, k_used=k_used, certified=certified,
        minimizers=minimizers, classes=classes, m_min=m_min, m_second=m_second, gap=gap,
        candidates=fold.count)


def group_classes(transformations) -> list[StretchClass]:
    """Partition transformations into classes with equal stretch.

    Two transformations are equivalent (differ by a rotation) exactly
    when their Cauchy-Green tensors H^T H are equal; C1 and C2 count as
    equal when |C1 - C2|_F lies within ``tie_tolerance(|C1|_F)``, the
    band that also decides distance ties and point groups.  Each class
    carries the symmetric stretch factor of its first member, and takes
    every later transformation within the band of that member.
    """
    hs = np.asarray(list(transformations), dtype=float)
    if hs.size and (hs.shape[1:] != (3, 3) or not np.isfinite(hs).all()):
        raise ValueError("transformations must be finite 3x3 matrices")
    hs = hs.reshape(-1, 3, 3)
    grams = np.swapaxes(hs, -1, -2) @ hs
    free = np.ones(len(hs), dtype=bool)
    classes: list[StretchClass] = []
    while free.any():
        idx = int(np.argmax(free))
        ref = grams[idx]
        members = free & (frobenius(grams - ref) <= tie_tolerance(frobenius(ref)))
        free &= ~members
        classes.append(StretchClass(stretch=spd_power(ref, 0.5),
                                    principal_stretches=tuple(singular_values(hs[idx]).tolist()),
                                    members=np.flatnonzero(members).tolist()))
    return classes


class OrbitResult(NamedTuple):
    mus: list


def _point_group(f: np.ndarray) -> np.ndarray:
    """The rotations of L(F) as integer matrices U with F U F^-1 a rotation,
    as a read-only array in lexicographic order, cached per basis (keyed
    on its float64 bytes).

    They are the distance-zero solutions of the problem F -> F, found by
    :func:`solve`'s own set-up and shell search at r = 2, where the
    distance |K^T K - I|_F of K = F U F^-1 takes no eigenvalues.  The
    radius certified for F -> F (m0 = 0) holds them all, and the first
    threshold pass starts at t = 0, so its shells hold the columns with
    |F u_j| = |f_j| to within rounding and its fold keeps the tie band
    of distance zero.  Above radius 3 the group of the reduced basis F U
    is taken when its radius is smaller, and conjugated back as
    U U_red U^-1.
    """
    return _basis_point_group(np.asarray(f, dtype=float).tobytes())


@lru_cache(maxsize=64)
def _basis_point_group(key: bytes) -> np.ndarray:
    f = np.frombuffer(key).reshape(3, 3)
    metric = StrainMetric(2.0)
    f, _, _, k_used, back = _problem(f, f, metric, [], None, DEFAULT_GUARD)
    group = next(_shell_passes(f, f, metric, k_used)).mus
    group = group if back is None else back[0] @ group @ back[1]
    group = group[_lex_unique(group)]
    group.setflags(write=False)
    return group


def cubic_point_group() -> np.ndarray:
    """The 24 rotation matrices mapping a cube to itself, found as the
    point group of the simple cubic basis I: the signed permutation
    matrices with determinant +1, i.e. the orthogonal unimodular integer
    matrices.  Returned as a read-only (24, 3, 3) int64 array in
    lexicographic order.
    """
    return _point_group(np.eye(3))


def point_group_orbit(mu0, f, g) -> OrbitResult:
    """The correspondences U_G mu0 U_F, in lexicographic order, over the
    rotation groups U_F, U_G of L(F), L(G) as integer matrices (matrices
    in the tie band of distance zero).  Each has the transformation
    R_G (G mu0 F^-1) R_F for rotations R_G, R_F, so the same distance.

    ``mu0`` must be a determinant-one integer matrix (ValueError
    otherwise); BudgetExceeded when a lattice's own certified radius
    exceeds the default guard.
    """
    mu0 = _require_unimodular(mu0)
    left = _point_group(_require_generator(g, "product"))
    right = _point_group(_require_generator(f, "parent"))
    mus = (left[:, None] @ mu0 @ right[None, :]).reshape(-1, 3, 3)
    return OrbitResult(mus=list(mus[_lex_unique(mus)]))
