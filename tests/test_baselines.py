import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from abstain import baselines
from abstain.baselines import (
    BetaModel,
    _fit_beta_group,
    fit_beta,
    score_beta,
    score_delta,
    score_entropy,
    score_mp,
    score_sr,
)
from abstain.core import LabeledSplit, seeded_rng

# frozen hand values
P3 = [0.7, 0.2, 0.1]


def test_sr_hand_value():
    assert score_sr(P3) == pytest.approx(0.3, abs=1e-15)
    assert score_sr([0.5, 0.5]) == 0.5


def test_delta_hand_value():
    # top two are 0.7 and 0.2
    assert score_delta(P3) == pytest.approx(0.5, abs=1e-15)
    assert score_delta([0.25, 0.25, 0.25, 0.25]) == pytest.approx(1.0)


def test_entropy_hand_value():
    # -(0.7 ln 0.7 + 0.2 ln 0.2 + 0.1 ln 0.1), frozen
    assert score_entropy(P3) == pytest.approx(0.8018185525433373, abs=1e-14)
    assert score_entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("bad", [[1.5, 0.2], [0.3, 0.3], [[0.5, 0.5], [0.6, 0.6]], [0.5, np.nan]],
                         ids=["entry-above-one", "row-sum-below-one", "batch-row-sum", "nan-entry"])
@pytest.mark.parametrize("scorer", [score_entropy, score_delta], ids=["Entropy", "Delta"])
def test_entropy_and_delta_check_rows_as_sr_does(scorer, bad):
    # [1.5, 0.2] once gave Entropy -0.286, a negative entropy
    with pytest.raises(ValueError) as want:
        score_sr(bad)
    with pytest.raises(ValueError) as got:
        scorer(bad)
    assert str(got.value) == str(want.value)


def test_mp_labelwise_hand_values():
    got = score_mp(np.array([[0.9, 0.45], [0.5, 0.2]]))
    assert np.allclose(got, [[0.1, 0.45], [0.5, 0.2]], rtol=0, atol=1e-15)
    assert score_mp([[0.5, 0.2]])[0, 0] == 0.5
    assert score_mp([0.9, 0.45]).shape == (2,)
    assert score_mp([[0.3]]).shape == (1, 1)   # a single sigmoid output is a valid row


@pytest.mark.parametrize("bad", [1.2, -0.1, np.nan, np.inf])
def test_mp_rejects_entries_outside_the_unit_interval(bad):
    with pytest.raises(ValueError):
        score_mp([[0.9, bad], [0.5, 0.5]])


probs_vectors = st.integers(2, 6).flatmap(
    lambda k: st.lists(st.floats(1e-6, 1.0), min_size=k, max_size=k)
).map(lambda xs: np.asarray(xs) / np.sum(xs))


@given(probs_vectors)
def test_uniform_is_most_uncertain(p):
    u = np.full(p.size, 1.0 / p.size)
    assert score_sr(p) <= score_sr(u) + 1e-12
    assert score_entropy(p) <= score_entropy(u) + 1e-9
    assert score_delta(p) <= score_delta(u) + 1e-12


@given(probs_vectors)
def test_scores_lie_in_unit_ranges(p):
    assert 0.0 <= score_sr(p) <= 1.0 - 1.0 / p.size + 1e-12
    assert 0.0 <= score_delta(p) <= 1.0 + 1e-12
    assert -1e-12 <= score_entropy(p) <= np.log(p.size) + 1e-9


# ---------------------------------------------------------------- Beta layer


def test_beta_group_zero_variance_caps_with_warning():
    x = np.full(25, 0.8)
    with pytest.warns(RuntimeWarning, match="no spread"):
        a, b = _fit_beta_group(x)
    assert max(a, b) == pytest.approx(1e4)
    assert a / (a + b) == pytest.approx(0.8, abs=1e-9)  # mean preserved


def test_beta_group_recovers_true_shapes():
    x = seeded_rng(42).beta(5.0, 2.0, size=10000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # neither capping warning
        a, b = _fit_beta_group(x)
    assert a == pytest.approx(5.0, abs=0.3)
    assert b == pytest.approx(2.0, abs=0.15)


def test_beta_group_matches_scipy_mle():
    # scipy's constrained fit solves the same stationarity conditions
    x = np.clip(seeded_rng(7).beta(3.0, 4.0, size=2000), 1e-6, 1 - 1e-6)
    a, b = _fit_beta_group(x)
    a_s, b_s, _, _ = stats.beta.fit(x, floc=0, fscale=1)
    assert a == pytest.approx(a_s, rel=1e-6)
    assert b == pytest.approx(b_s, rel=1e-6)


def test_beta_group_grid_oracle_agreement():
    # independent coarse oracle: maximize the likelihood on a lattice
    from scipy.special import betaln

    x = seeded_rng(42).beta(5.0, 2.0, size=10000)
    a, b = _fit_beta_group(x)
    xc = np.clip(x, 1e-6, 1 - 1e-6)
    m1, m2 = np.log(xc).mean(), np.log1p(-xc).mean()
    grid = np.arange(0.1, 20.0 + 1e-9, 0.01)
    A, B = np.meshgrid(grid, grid, indexing="ij")
    ll = (A - 1) * m1 + (B - 1) * m2 - betaln(A, B)
    i, j = np.unravel_index(np.argmax(ll), ll.shape)
    assert a == pytest.approx(grid[i], abs=0.15)
    assert b == pytest.approx(grid[j], abs=0.15)


@pytest.mark.parametrize("shapes", [(30.0, 1.5), (2.0, 20.0), (0.8, 3.0)])
def test_beta_grid_fallback_lands_on_the_newton_shapes(shapes, monkeypatch):
    # with no Newton steps the fit falls back to the likelihood grid, which
    # must search each shape on its own grid: re-centring both on alpha's
    # best value fitted Beta(30, 1.5) as (121, 30)
    x = seeded_rng(0).beta(*shapes, size=400)
    newton = _fit_beta_group(x)
    monkeypatch.setattr(baselines, "MLE_MAX_ITER", 0)
    grid = _fit_beta_group(x)
    assert grid[0] == pytest.approx(newton[0], rel=1e-3)
    assert grid[1] == pytest.approx(newton[1], rel=1e-3)


def test_beta_model_validation():
    with pytest.raises(ValueError, match="positive"):
        BetaModel(0.0, 1.0, 1.0, 1.0, 0.5, 0.5)
    with pytest.raises(ValueError, match="sum"):
        BetaModel(1.0, 1.0, 1.0, 1.0, 0.9, 0.3)


def _toy_validation(n=400, seed=3):
    rng = seeded_rng(seed)
    correct = rng.random(n) < 0.75
    maxp = np.where(correct, rng.beta(8, 2, n), rng.beta(3, 3, n))
    maxp = np.clip(maxp, 0.51, 0.999)
    probs = np.stack([maxp, 1.0 - maxp], axis=1)
    labels = np.where(correct, 0, 1)
    return LabeledSplit(probs, labels, "multiclass")


def test_fit_beta_and_score_against_closed_form():
    split = _toy_validation()
    model = fit_beta(split)
    # posterior error probability from the two fitted beta densities
    for p in ([0.9, 0.1], [0.55, 0.45]):
        x = max(p)
        f_c = stats.beta.pdf(x, model.alpha_correct, model.gamma_correct)
        f_i = stats.beta.pdf(x, model.alpha_incorrect, model.gamma_incorrect)
        expected = (model.prior_incorrect * f_i) / (
            model.prior_incorrect * f_i + model.prior_correct * f_c
        )
        assert score_beta(p, model) == pytest.approx(expected, rel=1e-9)


def test_score_beta_orders_confidence():
    model = fit_beta(_toy_validation())
    assert score_beta([0.99, 0.01], model) < score_beta([0.55, 0.45], model)


def test_fit_beta_needs_both_outcomes():
    probs = np.tile([0.9, 0.1], (30, 1))
    split = LabeledSplit(probs, np.zeros(30, dtype=int), "multiclass")
    with pytest.raises(ValueError, match="degenerate validation split"):
        fit_beta(split)


def test_fit_beta_rejects_multilabel():
    probs = np.full((30, 2), 0.5)
    split = LabeledSplit(probs, np.zeros((30, 2), dtype=int), "multilabel")
    with pytest.raises(ValueError, match="multiclass"):
        fit_beta(split)
