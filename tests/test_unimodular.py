import numpy as np
import pytest

from lattrans import optimizer, unimodular
from lattrans.errors import BudgetExceeded
from lattrans.matrix3 import adjugate
from lattrans.metrics import StrainMetric
from lattrans.unimodular import _require_unimodular

from conftest import BAIN_MU0, BCC, FCC, naive_array


def _det_int(m):
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def test_count_radius_one():
    assert unimodular.count_slk(1).count == 3480


def test_count_radius_two():
    assert unimodular.count_slk(2).count == 67704


def test_pruned_equals_naive_radius_one():
    pruned = np.concatenate(list(unimodular.iter_slk_blocks(1)))
    naive = naive_array(1)
    assert np.array_equal(pruned, naive)


def test_pruned_equals_naive_radius_two():
    pruned = np.concatenate(list(unimodular.iter_slk_blocks(2)))
    naive = naive_array(2)
    assert np.array_equal(pruned, naive)


def test_stream_contains_identity_and_bain_correspondence():
    seen = {tuple(m.ravel()) for m in unimodular.materialize_slk(1)}
    assert tuple(np.eye(3, dtype=np.int64).ravel()) in seen
    assert tuple(BAIN_MU0.ravel()) in seen


def test_every_emitted_matrix_has_unit_determinant():
    for block in unimodular.iter_slk_blocks(1):
        for m in block:
            assert _det_int(m) == 1
            assert np.abs(m).max() <= 1


def test_stream_is_strictly_lexicographic():
    rows = np.concatenate(list(unimodular.iter_slk_blocks(1))).reshape(-1, 9)
    as_tuples = [tuple(r) for r in rows]
    assert as_tuples == sorted(as_tuples)


def test_radius_guard():
    with pytest.raises(BudgetExceeded):
        unimodular.count_slk(9)
    with pytest.raises(BudgetExceeded):
        list(unimodular.iter_slk_blocks(9))


def test_bad_radius():
    with pytest.raises(ValueError):
        unimodular.count_slk(0)


def test_inverse_bounded_counts_match():
    for k in (1, 2):
        direct = unimodular.count_slk(k).count
        inverse_count = sum(
            adjugate(b).shape[0] for b in unimodular.iter_slk_blocks(k)
        )
        assert inverse_count == direct


def test_inverse_bounded_members_have_bounded_inverses():
    for mu in adjugate(unimodular.materialize_slk(1)):
        assert _det_int(mu) == 1
        inv = adjugate(_require_unimodular(mu))
        assert np.abs(inv).max() <= 1


def test_identity_in_inverse_bounded_set():
    seen = {
        tuple(m.ravel())
        for m in adjugate(unimodular.materialize_slk(1))
    }
    assert tuple(np.eye(3, dtype=np.int64).ravel()) in seen


def test_integer_inverse_identity():
    eye = np.eye(3, dtype=np.int64)
    assert np.array_equal(adjugate(_require_unimodular(eye)), eye)


def test_integer_inverse_terephthalic_correspondence():
    mu = np.array([[0, 1, 0], [1, 0, 0], [1, 1, -1]])
    inv = adjugate(_require_unimodular(mu))
    assert np.array_equal(mu @ inv, np.eye(3, dtype=np.int64))
    assert np.array_equal(inv @ mu, np.eye(3, dtype=np.int64))


def test_integer_inverse_rejects_other_determinants():
    with pytest.raises(ValueError):
        _require_unimodular(np.diag([1, 1, -1]))


def test_integer_inverse_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="non-integer"):
        _require_unimodular([[1.5, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="3x3"):
        _require_unimodular(np.eye(3).ravel())
    assert np.array_equal(adjugate(_require_unimodular(np.eye(3))), np.eye(3, dtype=np.int64))


def test_double_inverse_is_identity_map():
    rng = np.random.default_rng(0)
    pool = unimodular.materialize_slk(2)
    picks = pool[rng.integers(len(pool), size=1000)]
    back = adjugate(adjugate(picks))
    assert np.array_equal(back, picks)


def test_materialize_cache_and_guard():
    arr = unimodular.materialize_slk(1)
    assert arr.shape == (3480, 3, 3)
    assert not arr.flags.writeable
    with pytest.raises(BudgetExceeded):
        unimodular.materialize_slk(4)


def test_stats_fields():
    pruned = unimodular.count_slk(2)
    assert (pruned.k, pruned.count) == (2, naive_array(2).shape[0]) == (2, 67704)
    assert 0 < pruned.candidates_examined < 5**9


def _first_row(r1, k):
    """(completions of the first row r1 in SL^k, triple products formed)."""
    box = unimodular._box_triples(k)
    masks = [mask for _, _, mask in unimodular._unit_products([r1[None], box, box])]
    return sum(int(np.count_nonzero(m)) for m in masks), sum(m.size for m in masks)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_first_row_completes_like_its_orbit_representative(k):
    # mu -> diag(1, 1, det P) mu P maps the completions of r1 onto those of
    # r1 P for every signed permutation P, so a first row has as many
    # completions (and as many products) as the sorted |r1|
    orbits = list(unimodular._first_row_orbits(k))
    assert sum(size for _, size in orbits) == (2 * k + 1) ** 3
    want = {tuple(rep.tolist()): _first_row(rep, k) for rep, _ in orbits}
    for r1 in unimodular._box_triples(k):
        assert _first_row(r1, k) == want[tuple(sorted(np.abs(r1).tolist()))], r1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_orbit_count_equals_sum_over_every_first_row(k):
    total = sum(_first_row(r1, k)[0] for r1 in unimodular._box_triples(k))
    assert unimodular.count_slk(k).count == total


def test_count_examines_one_first_row_per_orbit():
    # 20 representatives 0 <= a <= b <= c <= 3 instead of the 343 rows,
    # each pairing its row with every (r2, r3) of the 7^3 box
    reps = [rep for rep, _ in unimodular._first_row_orbits(3)]
    assert len(reps) == 20
    examined = sum(_first_row(rep, 3)[1] for rep in reps)
    assert unimodular.count_slk(3).candidates_examined == examined == 20 * 7**6


def test_single_pair_blocks(monkeypatch):
    # one (a, b) pair per block, so blocks split every first vector's pairs
    monkeypatch.setattr(unimodular, "_BLOCK", 1)
    assert np.array_equal(np.concatenate(list(unimodular.iter_slk_blocks(1))),
                          naive_array(1))
    assert unimodular.count_slk(2).count == 67704


@pytest.mark.parametrize("k", [2.5, 3.0, "3", True])
def test_radius_must_be_an_integer(k):
    with pytest.raises(ValueError):
        optimizer.solve(FCC, BCC, StrainMetric(1.0), k=k)
    with pytest.raises(ValueError):
        unimodular.count_slk(k)
    with pytest.raises(ValueError):
        list(unimodular.iter_slk_blocks(k))
    with pytest.raises(ValueError):
        unimodular.materialize_slk(k)
