import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstain.core import LabeledSplit, rank_all, seeded_rng, validate_probs
from oracles import rank

TABLE = np.array([0.1, 0.2, 0.2, 0.7])


def test_rank_hand_values():
    assert rank(0.15, TABLE) == 2
    assert rank(0.05, TABLE) == 1
    assert rank(0.9, TABLE) == 5
    # ties share the smallest rank: 0.2 has one entry strictly below
    assert rank(0.2, TABLE) == 2


def test_rank_empty_table():
    with pytest.raises(ValueError, match="empty rank table"):
        rank(0.5, np.array([]))


def test_rank_rejects_nonfinite():
    with pytest.raises(ValueError, match="finite"):
        rank(float("nan"), TABLE)
    with pytest.raises(ValueError, match="finite"):
        rank_all([0.1, float("inf")], TABLE)


def test_rank_all_matches_scalar_loop(rng):
    table = np.sort(rng.random(50))
    queries = rng.random(100) * 1.4 - 0.2
    vec = rank_all(queries, table)
    assert vec.tolist() == [rank(q, table) for q in queries]


@given(st.lists(st.floats(0, 1, allow_nan=False), min_size=1, max_size=30),
       st.floats(-0.5, 1.5, allow_nan=False))
def test_rank_bounds_and_monotone_transform(table, q):
    t = np.sort(np.asarray(table))
    r = rank(q, t)
    assert 1 <= r <= t.size + 1
    # power-of-two scaling is exact, so it cannot create or break ties
    assert rank(4.0 * q, 4.0 * t) == r


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=25)
def test_seeded_rng_reproducible(seed):
    a = seeded_rng(seed).random(5)
    b = seeded_rng(seed).random(5)
    assert np.array_equal(a, b)


def test_validate_probs_accepts_and_rejects():
    validate_probs([0.3, 0.7])
    with pytest.raises(ValueError, match="at least two"):
        validate_probs([1.0])
    with pytest.raises(ValueError, match="outside"):
        validate_probs([-0.1, 1.1], normalized=False)
    with pytest.raises(ValueError, match="sum to"):
        validate_probs([0.3, 0.3])
    with pytest.raises(ValueError, match="non-finite"):
        validate_probs([np.nan, 1.0])
    # multilabel style entries skip the sum constraint
    validate_probs([0.9, 0.9, 0.1], normalized=False)


def test_labeled_split_validation():
    probs = np.array([[0.6, 0.4], [0.2, 0.8]])
    LabeledSplit(probs, [0, 1])
    with pytest.raises(ValueError, match="row count"):
        LabeledSplit(probs, [0])
    with pytest.raises(ValueError, match="0..C-1"):
        LabeledSplit(probs, [0, 2])
    with pytest.raises(ValueError, match="unknown task"):
        LabeledSplit(probs, [0, 1], task="regression")
    with pytest.raises(ValueError, match="C >= 2"):
        LabeledSplit(np.ones((2, 1)), [0, 0])


def test_labeled_split_multilabel_bits():
    probs = np.array([[0.9, 0.2], [0.4, 0.7]])
    sp = LabeledSplit(probs, [[1, 0], [0, 1]], task="multilabel")
    assert sp.labels.dtype == np.int8
    assert sp.n_classes == 2
    with pytest.raises(ValueError, match="0 or 1"):
        LabeledSplit(probs, [[1, 2], [0, 1]], task="multilabel")
    with pytest.raises(ValueError, match="match probs shape"):
        LabeledSplit(probs, [[1, 0, 1], [0, 1, 0]], task="multilabel")


def test_labeled_split_multilabel_bits_checked_before_int8_cast():
    # 256 and 257 wrap to 0 and 1 in int8, so the 0/1 check must see the input values
    probs = np.array([[0.9, 0.2], [0.4, 0.7]])
    with pytest.raises(ValueError, match="0 or 1"):
        LabeledSplit(probs, [[256, 1], [0, 257]], task="multilabel")


def test_labeled_split_mc_shape_guard():
    probs = np.array([[0.6, 0.4], [0.2, 0.8]])
    LabeledSplit(probs, [0, 1], mc=np.full((2, 3, 2), 0.5))
    with pytest.raises(ValueError, match="\\(n, T, C\\)"):
        LabeledSplit(probs, [0, 1], mc=np.full((2, 3, 4), 0.25))
