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
    with pytest.raises(ValueError, match=r"labels: row 1 holds 2, not an integer in 0\.\.1"):
        LabeledSplit(probs, [0, 2])
    with pytest.raises(ValueError, match="unknown task"):
        LabeledSplit(probs, [0, 1], task="regression")
    with pytest.raises(ValueError, match="C >= 2"):
        LabeledSplit(np.ones((2, 1)), [0, 0])


def test_labeled_split_refuses_rank_0_labels():
    # a scalar has no rows to count: a row count mismatch, not an IndexError;
    # rows of the wrong rank keep their own message
    probs = np.array([[0.6, 0.4], [0.2, 0.8]])
    for task in ("multiclass", "multilabel"):
        with pytest.raises(ValueError, match="labels/probs row count mismatch"):
            LabeledSplit(probs, np.int64(1), task)
    with pytest.raises(ValueError, match="multiclass labels must be one-dimensional"):
        LabeledSplit(probs, [[0, 1], [1, 0]])


def test_labeled_split_multilabel_bits():
    probs = np.array([[0.9, 0.2], [0.4, 0.7]])
    sp = LabeledSplit(probs, [[1, 0], [0, 1]], task="multilabel")
    assert sp.labels.dtype == np.int8
    assert sp.n_classes == 2
    with pytest.raises(ValueError, match=r"labels: row 0 holds 2, not an integer in 0\.\.1"):
        LabeledSplit(probs, [[1, 2], [0, 1]], task="multilabel")
    with pytest.raises(ValueError, match="match probs shape"):
        LabeledSplit(probs, [[1, 0, 1], [0, 1, 0]], task="multilabel")


def test_labeled_split_multilabel_bits_checked_before_int8_cast():
    # 256 and 257 wrap to 0 and 1 in int8, so the 0/1 check must see the input values
    probs = np.array([[0.9, 0.2], [0.4, 0.7]])
    with pytest.raises(ValueError, match=r"labels: row 0 holds 256, not an integer in 0\.\.1"):
        LabeledSplit(probs, [[256, 1], [0, 257]], task="multilabel")


def test_labeled_split_refuses_fractional_labels():
    # a cast to int64 would read 2.5 as 2 and 1.9 as 1
    probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.1, 0.1, 0.8]])
    with pytest.raises(ValueError, match=r"labels: row 1 holds 2\.5, not an integer in 0\.\.2"):
        LabeledSplit(probs, [0.0, 2.5, 1.0])
    with pytest.raises(ValueError, match=r"labels: row 2 holds 1\.9, not an integer in 0\.\.2"):
        LabeledSplit(probs, [0.0, 2.0, 1.9])
    assert LabeledSplit(probs, [0.0, 2.0, 1.0]).labels.tolist() == [0, 2, 1]


@pytest.mark.parametrize("task, row, named", [
    ("multiclass", [np.nan, 1.0], "probs: non-finite probability entry"),
    ("multiclass", [7.0, 0.0], "probs: probability entry outside"),
    ("multiclass", [0.5, 0.4], "probs: probabilities sum to 0.9"),
    ("multilabel", [1.5, 0.5], "probs: probability entry outside"),
])
def test_labeled_split_checks_its_probabilities(task, row, named):
    probs = np.array([[0.6, 0.4], row])
    labels = [0, 1] if task == "multiclass" else [[1, 0], [0, 1]]
    with pytest.raises(ValueError, match=named):
        LabeledSplit(probs, labels, task)


def test_labeled_split_mc_shape_guard():
    probs = np.array([[0.6, 0.4], [0.2, 0.8]])
    LabeledSplit(probs, [0, 1], mc=np.full((2, 3, 2), 0.5))
    with pytest.raises(ValueError, match="\\(n, T, C\\)"):
        LabeledSplit(probs, [0, 1], mc=np.full((2, 3, 4), 0.25))
