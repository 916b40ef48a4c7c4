"""Enumeration of bounded unimodular integer matrices.

SL^k denotes the 3x3 integer matrices with determinant +1 and all entries
in [-k, k]; SL^-k those whose inverses have entries in [-k, k].

One kernel finds every determinant-one matrix: the determinant of the
matrix with columns a, b, c is the triple product c . (a x b), so it forms
a x b once for each pair (a, b) of two vector sets, in lexicographic
order, and tests every c of a third set with one matrix product per block
of pairs.  ``solve`` feeds it the column shells of its search.  SL^k is
the case where every set is the (2k+1)^3 box; since SL^k is closed under
transposition, the triples are read as rows, so the matrices come out in
lexicographic order on the row-major entries, independent of the block
size, and folds over the stream are reproducible.

Counting needs one first row per orbit of the signed column
permutations.  For such a permutation P the map mu -> diag(1, 1, det P)
mu P keeps det = +1 and every entry in [-k, k], and it takes the
completions (r2, r3) of the first row r1 one-to-one onto those of r1 P.
Every row of an orbit therefore has as many completions as the orbit's
representative 0 <= a <= b <= c <= k (20 rows instead of 343 at k = 3),
and the count weighs each representative by its orbit size.  Its
completions are the unit triple products r3 . (r1 x r2): (2k+1)^6 products
per representative.
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
    """Result of a counting run; ``candidates_examined`` counts the triple
    products formed: (2k+1)^6 for each first-row orbit."""

    k: int
    count: int
    candidates_examined: int


def _check_k(k, guard: int) -> int:
    """``k`` as an int; ValueError unless it is a positive integer (a bool
    is not), BudgetExceeded above ``guard``."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > guard:
        raise BudgetExceeded(f"k={k} exceeds the practical guard {guard}")
    return int(k)


@lru_cache(maxsize=8)
def _box_triples(k: int) -> np.ndarray:
    """All (2k+1)^3 integer triples with entries in [-k, k], lex order."""
    rng = np.arange(-k, k + 1, dtype=np.int64)
    grid = np.meshgrid(rng, rng, rng, indexing="ij")
    return np.stack(grid, axis=-1).reshape(-1, 3)


#: Triple products formed per block (512 kB of floats, a cache-sized block).
_BLOCK = 1 << 16


def _unit_products(vectors):
    """Yield, block by block, the pairs (a, b) of the first two sets of
    ``vectors`` (three (n, 3) integer arrays) in lex order, as their
    indices (i, j), with the mask c . (a x b) == 1 over the third set.

    A block holds about ``_BLOCK`` products, formed in floats, which are
    exact for entries this small.
    """
    a, b = (v.astype(float) for v in vectors[:2])
    cs = np.ascontiguousarray(vectors[2].T, dtype=float)
    # a x b entrywise: (a_y b_z, a_z b_x, a_x b_y) - (a_z b_y, a_x b_z, a_y b_x)
    a1, a2, b1, b2 = a[:, [1, 2, 0]], a[:, [2, 0, 1]], b[:, [2, 0, 1]], b[:, [1, 2, 0]]
    pairs = a.shape[0] * b.shape[0]
    step = max(1, _BLOCK // max(1, cs.shape[1]))
    for lo in range(0, pairs, step):
        i, j = np.divmod(np.arange(lo, min(lo + step, pairs)), b.shape[0])
        yield i, j, (a1[i] * b1[j] - a2[i] * b2[j]) @ cs == 1.0


def _det1_blocks(columns):
    """Yield, block by block in lex order of the columns, the
    determinant-one matrices whose column j lies in ``columns[j]``
    (int64, (n, 3, 3)); det [a b c] is the triple product c . (a x b).
    """
    for i, j, mask in _unit_products(columns):
        pair, third = np.nonzero(mask)
        if pair.size:
            yield np.stack([columns[0][i[pair]], columns[1][j[pair]], columns[2][third]], axis=-1)


def _first_row_orbits(k: int) -> Iterator[tuple]:
    """(representative 0 <= a <= b <= c <= k, orbit size) of each orbit of
    the first rows under signed permutations."""
    for row in itertools.combinations_with_replacement(range(k + 1), 3):
        permutations = len(set(itertools.permutations(row)))
        yield np.array(row, dtype=np.int64), permutations * 2 ** sum(v > 0 for v in row)


def iter_slk_blocks(k: int) -> Iterator[np.ndarray]:
    """Stream SL^k as (n, 3, 3) blocks in lex order.  SL^k is closed under
    transposition, so its rows are the det-1 column triples of the box."""
    _check_k(k, DEFAULT_GUARD)
    for block in _det1_blocks([_box_triples(k)] * 3):
        yield block.transpose(0, 2, 1)


@lru_cache(maxsize=MATERIALIZE_MAX_K, typed=True)
def materialize_slk(k: int) -> np.ndarray:
    """SL^k as one read-only array; cached, limited to small radii."""
    _check_k(k, DEFAULT_GUARD)
    if k > MATERIALIZE_MAX_K:
        raise BudgetExceeded(
            f"materialisation is limited to k <= {MATERIALIZE_MAX_K}; stream instead"
        )
    # filled in place: a list of the stream's small blocks would leave its
    # freed heap resident after the concatenation
    arr = np.empty((count_slk(k).count, 3, 3), dtype=np.int64)
    end = 0
    for block in iter_slk_blocks(k):
        arr[end : end + block.shape[0]] = block
        end += block.shape[0]
    if end != arr.shape[0]:
        raise RuntimeError(f"the SL^{k} stream holds {end} matrices, its count {arr.shape[0]}")
    arr.setflags(write=False)
    return arr


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
    """Count SL^k, reporting how many triple products the search formed."""
    _check_k(k, DEFAULT_GUARD)
    box = _box_triples(k)
    count = 0
    examined = 0
    for r1, size in _first_row_orbits(k):
        for _, _, mask in _unit_products([r1[None], box, box]):
            count += size * int(np.count_nonzero(mask))
            examined += mask.size
    return EnumerationStats(k=k, count=count, candidates_examined=examined)
