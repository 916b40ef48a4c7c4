import numpy as np
import pytest

from lattrans import unimodular
from lattrans.errors import BudgetExceeded

from conftest import BAIN_MU0


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
    naive = unimodular._naive_array(1)
    assert np.array_equal(pruned, naive)


def test_pruned_equals_naive_radius_two():
    pruned = np.concatenate(list(unimodular.iter_slk_blocks(2)))
    naive = unimodular._naive_array(2)
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


def test_naive_guard():
    with pytest.raises(BudgetExceeded):
        unimodular.count_slk(3, naive=True)


def test_radius_guard():
    with pytest.raises(BudgetExceeded):
        unimodular.count_slk(9)
    with pytest.raises(BudgetExceeded):
        list(unimodular.iter_slk_blocks(9))
    # the guard is configurable
    assert unimodular.count_slk(1, guard=1).count == 3480


def test_bad_radius():
    with pytest.raises(ValueError):
        unimodular.count_slk(0)


def test_inverse_bounded_counts_match():
    for k in (1, 2):
        direct = unimodular.count_slk(k).count
        inverse_count = sum(
            unimodular.integer_inverse_batch(b).shape[0] for b in unimodular.iter_slk_blocks(k)
        )
        assert inverse_count == direct


def test_inverse_bounded_members_have_bounded_inverses():
    for mu in unimodular.integer_inverse_batch(unimodular.materialize_slk(1)):
        assert _det_int(mu) == 1
        inv = unimodular.integer_inverse(mu)
        assert np.abs(inv).max() <= 1


def test_identity_in_inverse_bounded_set():
    seen = {
        tuple(m.ravel())
        for m in unimodular.integer_inverse_batch(unimodular.materialize_slk(1))
    }
    assert tuple(np.eye(3, dtype=np.int64).ravel()) in seen


def test_integer_inverse_identity():
    eye = np.eye(3, dtype=np.int64)
    assert np.array_equal(unimodular.integer_inverse(eye), eye)


def test_integer_inverse_terephthalic_correspondence():
    mu = np.array([[0, 1, 0], [1, 0, 0], [1, 1, -1]])
    inv = unimodular.integer_inverse(mu)
    assert np.array_equal(mu @ inv, np.eye(3, dtype=np.int64))
    assert np.array_equal(inv @ mu, np.eye(3, dtype=np.int64))


def test_integer_inverse_rejects_other_determinants():
    with pytest.raises(ValueError):
        unimodular.integer_inverse(np.diag([1, 1, -1]))


def test_integer_inverse_rejects_non_integral_entries():
    with pytest.raises(ValueError, match="non-integer"):
        unimodular.integer_inverse([[1.5, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="3x3"):
        unimodular.integer_inverse(np.eye(3).ravel())
    assert np.array_equal(unimodular.integer_inverse(np.eye(3)), np.eye(3, dtype=np.int64))


def test_double_inverse_is_identity_map():
    rng = np.random.default_rng(0)
    pool = unimodular.materialize_slk(2)
    picks = pool[rng.integers(len(pool), size=1000)]
    back = unimodular.integer_inverse_batch(unimodular.integer_inverse_batch(picks))
    assert np.array_equal(back, picks)


def test_materialize_cache_and_guard():
    arr = unimodular.materialize_slk(1)
    assert arr.shape == (3480, 3, 3)
    assert not arr.flags.writeable
    with pytest.raises(BudgetExceeded):
        unimodular.materialize_slk(4)


def test_stats_fields():
    stats = unimodular.count_slk(2, naive=True)
    assert stats == unimodular.EnumerationStats(k=2, count=67704, candidates_examined=5**9)
    pruned = unimodular.count_slk(2)
    assert pruned.count == 67704
    assert 0 < pruned.candidates_examined < 5**9
