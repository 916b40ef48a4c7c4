"""Enumeration of bounded unimodular integer matrices.

SL^k denotes the 3x3 integer matrices with determinant +1 and all entries
in [-k, k]; SL^-k those whose inverses have entries in [-k, k].

The pruned enumerator fixes the first two rows r1, r2 (each swept over
the (2k+1)^3 box in lexicographic order) and solves the determinant
constraint for the third row: with c = r1 x r2 the determinant is the
linear form r3 . c, so the solutions for r3 lie on an affine plane.  That
plane is swept with two free coordinates while the third is obtained by
an exact integer division, reducing the naive (2k+1)^9 scan to roughly
(2k+1)^6 work.  All arithmetic is int64; entry magnitudes up to the
practical guard keep intermediate products far from overflow.

Matrices are emitted in lexicographic order on the row-major entries,
independent of chunking, so folds over the stream are reproducible.

Counting needs one first row per orbit of the signed column
permutations.  For such a permutation P the map mu -> diag(1, 1, det P)
mu P keeps det = +1 and every entry in [-k, k], and it takes the
completions of the first row r1 one-to-one onto those of r1 P.  Every
row of an orbit therefore has as many completions as the orbit's
representative 0 <= a <= b <= c <= k (20 rows instead of 343 at k = 3),
and the count weighs each representative by its orbit size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded
from .matrix3 import det

#: Largest radius enumerated or searched, unless ``solve`` is given a guard.
DEFAULT_GUARD = 8

#: Largest radius kept in the in-process materialisation cache.
MATERIALIZE_MAX_K = 3


@dataclass(frozen=True)
class EnumerationStats:
    """Result of a counting run; ``candidates_examined`` counts the
    candidates of the first rows actually swept."""

    k: int
    count: int
    candidates_examined: int


def _check_k(k: int, guard: int) -> None:
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > guard:
        raise BudgetExceeded(f"k={k} exceeds the practical guard {guard}")


@lru_cache(maxsize=8)
def _box_triples(k: int) -> np.ndarray:
    """All (2k+1)^3 integer triples with entries in [-k, k], lex order."""
    rng = np.arange(-k, k + 1, dtype=np.int64)
    grid = np.meshgrid(rng, rng, rng, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, 3)


@lru_cache(maxsize=8)
def _box_pairs(k: int) -> np.ndarray:
    rng = np.arange(-k, k + 1, dtype=np.int64)
    g1, g2 = np.meshgrid(rng, rng, indexing="ij")
    return np.stack([g1, g2], axis=-1).reshape(-1, 2)


_FREE_COORDS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}


def _completions(r1: np.ndarray, k: int):
    """Every completion of first row r1 to a matrix in SL^k, unordered.

    Returns (r2 as indices into the box, r3 rows, candidates_examined).
    """
    rows = _box_triples(k)
    pairs = _box_pairs(k)
    c = np.cross(r1[None, :], rows)
    valid = np.nonzero((c != 0).any(axis=1))[0]
    c = c[valid]
    pivot = (c != 0).argmax(axis=1)

    examined = 0
    r2s, r3s = [], []
    for j in (0, 1, 2):
        sel = np.nonzero(pivot == j)[0]
        u, v = _FREE_COORDS[j]
        cj = c[sel, j][:, None]
        num = (
            1
            - c[sel, u][:, None] * pairs[None, :, 0]
            - c[sel, v][:, None] * pairs[None, :, 1]
        )
        examined += num.size
        quot, rem = np.divmod(num, cj)
        pi, gi = np.nonzero((rem == 0) & (np.abs(quot) <= k))
        r3 = np.empty((pi.size, 3), dtype=np.int64)
        r3[:, u] = pairs[gi, 0]
        r3[:, v] = pairs[gi, 1]
        r3[:, j] = quot[pi, gi]
        r2s.append(valid[sel[pi]])
        r3s.append(r3)
    return np.concatenate(r2s), np.concatenate(r3s), examined


def _row_block(r1: np.ndarray, k: int):
    """All matrices in SL^k with first row r1, in (r2, r3) lex order.

    Returns (matrices, candidates_examined).
    """
    r2, r3, examined = _completions(r1, k)
    order = np.lexsort((r3[:, 2], r3[:, 1], r3[:, 0], r2))
    mats = np.empty((order.size, 3, 3), dtype=np.int64)
    mats[:, 0, :] = r1
    mats[:, 1, :] = _box_triples(k)[r2[order]]
    mats[:, 2, :] = r3[order]
    return mats, examined


def _first_row_orbits(k: int) -> Iterator[tuple]:
    """(representative 0 <= a <= b <= c <= k, orbit size) of each orbit of
    the first rows under signed permutations."""
    for row in itertools.combinations_with_replacement(range(k + 1), 3):
        permutations = len(set(itertools.permutations(row)))
        yield np.array(row, dtype=np.int64), permutations * 2 ** sum(v > 0 for v in row)


def iter_slk_blocks(k: int) -> Iterator[np.ndarray]:
    """Stream SL^k as (n, 3, 3) blocks, one per first row, in lex order."""
    _check_k(k, DEFAULT_GUARD)
    for r1 in _box_triples(k):
        block, _ = _row_block(r1, k)
        if block.shape[0]:
            yield block


@lru_cache(maxsize=MATERIALIZE_MAX_K)
def materialize_slk(k: int) -> np.ndarray:
    """SL^k as one read-only array; cached, limited to small radii."""
    if k > MATERIALIZE_MAX_K:
        raise BudgetExceeded(
            f"materialisation is limited to k <= {MATERIALIZE_MAX_K}; stream instead"
        )
    _check_k(k, DEFAULT_GUARD)
    blocks = list(iter_slk_blocks(k))
    arr = np.concatenate(blocks) if blocks else np.empty((0, 3, 3), dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _naive_array(k: int) -> np.ndarray:
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


def _require_unimodular(mu) -> np.ndarray:
    """``mu`` as an int64 (3, 3) array; ValueError unless it is an integer
    matrix (integral floats count) with determinant +1."""
    a = np.asarray(mu, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 integer matrix, got shape {a.shape}")
    if not (np.isfinite(a).all() and (a == np.rint(a)).all()):
        raise ValueError(f"matrix {a.tolist()} has non-integer entries")
    m = a.astype(np.int64)
    d = det(m)
    if d != 1:
        raise ValueError(f"matrix {m.tolist()} must have determinant +1, got {int(d)}")
    return m


def count_slk(k: int) -> EnumerationStats:
    """Count SL^k, reporting how many candidates the search examined."""
    _check_k(k, DEFAULT_GUARD)
    count = 0
    examined = 0
    for r1, size in _first_row_orbits(k):
        r2, _, ex = _completions(r1, k)
        count += size * r2.size
        examined += ex
    return EnumerationStats(k=k, count=count, candidates_examined=examined)
