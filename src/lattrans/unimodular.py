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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import BudgetExceeded
from .matrix3 import adjugate, det

#: Default practical enumeration guard; overridable per call.
DEFAULT_GUARD = 8

#: Largest radius kept in the in-process materialisation cache.
MATERIALIZE_MAX_K = 3

#: The brute-force oracle sweeps (2k+1)^9 tuples; only useful for tiny k.
NAIVE_MAX_K = 2


@dataclass(frozen=True)
class EnumerationStats:
    """Result of a counting run."""

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


def _row_block(r1: np.ndarray, k: int):
    """All matrices in SL^k with first row r1, in (r2, r3) lex order.

    Returns (matrices, candidates_examined).
    """
    rows = _box_triples(k)
    pairs = _box_pairs(k)
    c = np.cross(r1[None, :], rows)
    valid = (c != 0).any(axis=1)
    if not valid.any():
        return np.empty((0, 3, 3), dtype=np.int64), 0

    r2_all = rows[valid]
    c = c[valid]
    pivot = (c != 0).argmax(axis=1)

    examined = 0
    chunks = []
    for j in (0, 1, 2):
        sel = pivot == j
        if not sel.any():
            continue
        u, v = _FREE_COORDS[j]
        cj = c[sel, j][:, None]
        num = (
            1
            - c[sel, u][:, None] * pairs[None, :, 0]
            - c[sel, v][:, None] * pairs[None, :, 1]
        )
        examined += num.size
        quot, rem = np.divmod(num, cj)
        ok = (rem == 0) & (np.abs(quot) <= k)
        pi, gi = np.nonzero(ok)
        if pi.size == 0:
            continue
        r3 = np.empty((pi.size, 3), dtype=np.int64)
        r3[:, u] = pairs[gi, 0]
        r3[:, v] = pairs[gi, 1]
        r3[:, j] = quot[pi, gi]
        r2_idx = np.nonzero(sel)[0][pi]
        chunks.append((r2_idx, r3))

    if not chunks:
        return np.empty((0, 3, 3), dtype=np.int64), examined

    r2_idx = np.concatenate([c0 for c0, _ in chunks])
    r3 = np.concatenate([c1 for _, c1 in chunks])
    order = np.lexsort((r3[:, 2], r3[:, 1], r3[:, 0], r2_idx))
    r2_idx = r2_idx[order]
    r3 = r3[order]

    mats = np.empty((r3.shape[0], 3, 3), dtype=np.int64)
    mats[:, 0, :] = r1
    mats[:, 1, :] = r2_all[r2_idx]
    mats[:, 2, :] = r3
    return mats, examined


def iter_slk_blocks(k: int, guard: int = DEFAULT_GUARD) -> Iterator[np.ndarray]:
    """Stream SL^k as (n, 3, 3) blocks, one per first row, in lex order."""
    _check_k(k, guard)
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
    """Brute-force SL^k, lex order: filter det over the full entry box."""
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


def integer_inverse(mu) -> np.ndarray:
    """Exact integer inverse (adjugate) of a determinant-one matrix."""
    return adjugate(_require_unimodular(mu))


def integer_inverse_batch(mus: np.ndarray) -> np.ndarray:
    """Vectorised exact inverse of (n, 3, 3) determinant-one matrices."""
    return adjugate(np.asarray(mus, dtype=np.int64))


def count_slk(k: int, naive: bool = False, guard: int = DEFAULT_GUARD) -> EnumerationStats:
    """Count SL^k, reporting how many candidates the search examined."""
    if naive:
        _check_k(k, min(guard, NAIVE_MAX_K))
        n = 2 * k + 1
        return EnumerationStats(k=k, count=_naive_array(k).shape[0], candidates_examined=n**9)
    _check_k(k, guard)
    count = 0
    examined = 0
    for r1 in _box_triples(k):
        block, ex = _row_block(r1, k)
        count += block.shape[0]
        examined += ex
    return EnumerationStats(k=k, count=count, candidates_examined=examined)
