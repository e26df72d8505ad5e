"""Rejection curves, area metrics, and multilabel per-unit data."""
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abstain.baselines import score_mp
from abstain.rejection import (
    NormalizedAuc,
    build_curve,
    coverages,
    curve_auc,
    curve_value_at,
    multiclass_losses,
    normalize_auc,
    normalized_auc,
    oracle_reference,
    oracle_scores,
    rejection_order,
    unit_data,
)
from abstain.synth import SynthSpec, generate
from oracles import curve_auc_on, curve_value_on

# hand-traced 3 point fixture: one error carrying the top score
LOSSES3 = np.array([1.0, 0.0, 0.0])
SCORES3 = np.array([3.0, 2.0, 1.0])


def naive_f1(tp, fp, fn):
    denom = 2 * tp + fp + fn
    return 1.0 if denom == 0 else 2 * tp / denom


def naive_risk_curve(scores, losses):
    """Independent recomputation: sort, drop one unit at a time, re-average."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    vals = []
    for k in range(len(scores)):
        left = [losses[i] for i in order[k:]]
        vals.append(sum(left) / len(left))
    return np.array(vals)


def pair_counts(pred, truth):
    """(tp, fp, fn) of single (instance, label) units with predicted bits ``pred``."""
    probs = np.asarray(pred)[:, None].astype(float)
    return unit_data(probs, np.asarray(truth)[:, None], "multilabel", "label")[1][1]


def multilabel_curves(probs, truth, level, scores):
    """Accuracy and micro-F1 rejection curves of ``scores`` at ``level``."""
    return tuple(build_curve(scores, data, mode)
                 for mode, data in unit_data(probs, truth, "multilabel", level))


def labelwise_curves(probs, truth):
    """Curves of the MP method: (instance, label) pairs scored by ambiguity."""
    return multilabel_curves(probs, truth, "label", score_mp(probs).reshape(-1))


def instancewise_curves(probs, truth, aggregate=np.mean):
    """Curves of MP-mean (or MP-max): whole instances scored by aggregated
    per-label ambiguity."""
    return multilabel_curves(probs, truth, "instance", aggregate(score_mp(probs), axis=1))


def naive_f1_curve(scores, pred, truth):
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    vals = []
    for k in range(len(scores)):
        keep = order[k:]
        tp = sum(1 for i in keep if pred[i] == 1 and truth[i] == 1)
        fp = sum(1 for i in keep if pred[i] == 1 and truth[i] == 0)
        fn = sum(1 for i in keep if pred[i] == 0 and truth[i] == 1)
        vals.append(naive_f1(tp, fp, fn))
    return np.array(vals)


class TestCurveConstruction:
    def test_hand_traced_risk_points(self):
        curve = build_curve(SCORES3, LOSSES3, "risk")
        assert np.allclose(coverages(len(curve)), [1.0, 2 / 3, 1 / 3])
        assert np.allclose(curve, [1 / 3, 0.0, 0.0])

    def test_all_losses_zero_curve_is_zero(self):
        curve = build_curve([5.0, 1.0, 2.0, 0.5], np.zeros(4), "risk")
        assert np.all(curve == 0.0)

    def test_full_coverage_equals_error_rate_exactly(self):
        rng = np.random.default_rng(3)
        losses = (rng.random(37) < 0.3).astype(float)
        curve = build_curve(rng.random(37), losses, "risk")
        assert curve[0] == losses.sum() / 37

    def test_accuracy_mode_is_one_minus_risk(self):
        rng = np.random.default_rng(4)
        losses = (rng.random(20) < 0.4).astype(float)
        scores = rng.random(20)
        risk = build_curve(scores, losses, "risk")
        acc = build_curve(scores, losses, "accuracy")
        assert np.allclose(acc, 1.0 - risk)

    def test_constant_scores_follow_index_order(self):
        losses = np.array([0.0, 1.0, 0.0, 1.0, 1.0])
        curve = build_curve(np.zeros(5), losses, "risk")
        assert np.allclose(curve, naive_risk_curve(np.zeros(5), losses))

    def test_matches_naive_recompute_random(self):
        rng = np.random.default_rng(11)
        scores = rng.random(25)
        losses = (rng.random(25) < 0.5).astype(float)
        curve = build_curve(scores, losses, "risk")
        assert np.allclose(curve, naive_risk_curve(scores, losses), atol=1e-12)

    def test_bundled_counts_weight_the_average(self):
        # two units: 1 error of 4 decisions, 3 errors of 4 decisions
        errors = np.array([1.0, 3.0])
        totals = np.array([4.0, 4.0])
        curve = build_curve([1.0, 2.0], (errors, totals), "risk")
        assert np.allclose(curve, [0.5, 0.25])

    def test_rejection_order_ties_by_index(self):
        assert rejection_order([1.0, 3.0, 3.0, 2.0]).tolist() == [1, 2, 3, 0]

    def test_rejection_order_of_each_row_is_its_1d_order(self):
        rng = np.random.default_rng(0)
        scores = rng.choice([0.0, -0.0, 1.0, 2.5], size=(5, 40), p=[0.4, 0.4, 0.1, 0.1])
        scores[0] = rng.normal(size=40)
        rows = rejection_order(scores)
        for row, order in zip(scores, rows):
            assert order.tolist() == rejection_order(row).tolist()
            assert order.tolist() == np.lexsort((np.arange(row.size), -row)).tolist()
        # -0.0 and 0.0 are one value: their tie goes by index
        assert rejection_order([0.0, -0.0, 1.0, -0.0]).tolist() == [2, 0, 1, 3]
        assert rejection_order([[-0.0, 0.0], [0.0, -0.0]]).tolist() == [[0, 1], [0, 1]]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            build_curve([1.0, 2.0], LOSSES3, "risk")

    def test_nan_score_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            build_curve([1.0, float("nan"), 2.0], LOSSES3, "risk")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no units"):
            build_curve([], [], "risk")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown mode"):
            build_curve(SCORES3, LOSSES3, "f2_macro")


class TestCurveReadout:
    def test_grid_points_and_interpolation(self):
        curve = build_curve(SCORES3, LOSSES3, "risk")
        assert curve_value_at(curve, 1.0) == pytest.approx(1 / 3)
        assert curve_value_at(curve, 2 / 3) == pytest.approx(0.0)
        # halfway between the 2/3 and 1.0 grid points
        assert curve_value_at(curve, 5 / 6) == pytest.approx(1 / 6)

    def test_out_of_range_coverage_rejected(self):
        curve = build_curve(SCORES3, LOSSES3, "risk")
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="coverage"):
                curve_value_at(curve, bad)

    def test_full_auc_hand_value(self):
        curve = build_curve(SCORES3, LOSSES3, "risk")
        assert curve_auc(curve, "full") == pytest.approx(1 / 12, abs=1e-15)

    def test_first_50_auc_hand_value(self):
        # interpolated point at coverage 0.5 lies on the flat zero stretch
        curve = build_curve(SCORES3, LOSSES3, "risk")
        assert curve_auc(curve, "first_50") == pytest.approx(1 / 9, abs=1e-15)

    def test_first_50_of_constant_curve_equals_full(self):
        curve = build_curve(np.arange(6.0), np.ones(6), "risk")
        assert np.all(curve == 1.0)
        assert curve_auc(curve, "first_50") == curve_auc(curve, "full") == 1.0

    def test_single_point_curve(self):
        curve = build_curve([2.0], [1.0], "risk")
        assert curve_auc(curve, "full") == 1.0
        assert curve_auc(curve, "first_50") == 1.0

    def test_unknown_span_rejected(self):
        curve = build_curve(SCORES3, LOSSES3, "risk")
        with pytest.raises(ValueError, match="unknown span"):
            curve_auc(curve, "last_50")

    def test_readers_refuse_an_empty_or_2d_curve(self):
        reference = oracle_reference(LOSSES3, "risk", "full")
        for bad in (np.array([]), [], np.full((2, 3), 0.1)):
            for read in (curve_auc, lambda c: curve_value_at(c, 0.5), lambda c: normalize_auc(c, reference, "full")):
                with pytest.raises(ValueError, match="non-empty 1-D"):
                    read(bad)


class TestNormalizedAuc:
    def test_oracle_scores_give_exactly_one(self):
        rng = np.random.default_rng(0)
        losses = (rng.random(200) < 0.25).astype(float)
        res = normalized_auc(oracle_scores(losses, "risk"), losses, "risk")
        assert res.normalized == pytest.approx(1.0, abs=1e-12)
        assert res.flag is None

    def test_anti_oracle_hand_fixture_is_minus_one(self):
        # errors rejected last: reversing the 3 point fixture ordering
        res = normalized_auc([1.0, 2.0, 3.0], LOSSES3, "risk")
        assert res.normalized == pytest.approx(-1.0, abs=1e-12)
        assert res.raw_auc == pytest.approx(7 / 12)

    def test_random_scores_average_near_zero(self):
        rng = np.random.default_rng(42)
        losses = (rng.random(400) < 0.3).astype(float)
        vals = [
            normalized_auc(np.random.default_rng(s).random(400), losses, "risk").normalized
            for s in range(200)
        ]
        assert abs(np.mean(vals)) < 0.05

    def test_zero_errors_flagged_degenerate(self):
        res = normalized_auc([3.0, 2.0, 1.0], np.zeros(3), "risk")
        assert res.flag == "degenerate: no errors"
        assert np.isnan(res.normalized)

    def test_references_recorded(self):
        res = normalized_auc(SCORES3, LOSSES3, "risk")
        assert res.rand_auc == pytest.approx(1 / 3)
        assert res.oracle_auc == pytest.approx(1 / 12, abs=1e-15)
        assert res.raw_auc == pytest.approx(1 / 12, abs=1e-15)
        assert res.normalized == pytest.approx(1.0, abs=1e-12)
        assert isinstance(res, NormalizedAuc)

    def test_first_50_span_carried_through(self):
        res = normalized_auc(SCORES3, LOSSES3, "risk", span="first_50")
        assert res.span == "first_50"
        assert res.raw_auc == pytest.approx(1 / 9, abs=1e-15)


class TestOracleScores:
    def test_risk_oracle_is_the_loss_vector(self):
        losses = np.array([0.0, 1.0, 0.0])
        out = oracle_scores(losses, "risk")
        assert np.array_equal(out, losses)
        out[0] = 9.0
        assert losses[0] == 0.0  # caller owns a copy

    def test_pair_oracle_ranks_fp_over_fn_over_rest(self):
        pred = np.array([1, 1, 0, 0])
        truth = np.array([1, 0, 1, 0])  # TP, FP, FN, TN
        assert oracle_scores(pair_counts(pred, truth), "f1_micro").tolist() == [0.0, 2.0, 1.0, 0.0]

    @pytest.mark.parametrize(
        "counts",
        [
            (3, 2, 2, 5),  # nTP, nFP, nFN, nTN
            (0, 3, 2, 1),  # no true positives at all
            (2, 0, 0, 2),  # error free
            (1, 4, 0, 1),
        ],
    )
    def test_pair_oracle_prefix_optimal_exhaustively(self, counts):
        # on single label-pair units the greedy order must attain the best
        # reachable F1 at every removal count, over all same-size subsets
        ntp, nfp, nfn, ntn = counts
        pred = np.array([1] * ntp + [1] * nfp + [0] * nfn + [0] * ntn)
        truth = np.array([1] * ntp + [0] * nfp + [1] * nfn + [0] * ntn)
        rng = np.random.default_rng(sum(counts))
        perm = rng.permutation(pred.size)
        pred, truth = pred[perm], truth[perm]
        triple = pair_counts(pred, truth)
        curve = build_curve(oracle_scores(triple, "f1_micro"), triple, "f1_micro")
        units = list(range(pred.size))
        for k in range(pred.size):
            best = max(
                naive_f1(
                    sum(1 for i in units if i not in drop and pred[i] == 1 and truth[i] == 1),
                    sum(1 for i in units if i not in drop and pred[i] == 1 and truth[i] == 0),
                    sum(1 for i in units if i not in drop and pred[i] == 0 and truth[i] == 1),
                )
                for drop in map(set, itertools.combinations(units, k))
            )
            assert curve[k] == pytest.approx(best, abs=1e-12)

    def test_pair_oracle_prefix_optimal_random_bits(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pred = rng.integers(0, 2, 9)
            truth = rng.integers(0, 2, 9)
            triple = pair_counts(pred, truth)
            curve = build_curve(oracle_scores(triple, "f1_micro"), triple, "f1_micro")
            units = list(range(9))
            for k in range(9):
                best = max(
                    naive_f1(
                        sum(1 for i in units if i not in d and pred[i] == 1 and truth[i] == 1),
                        sum(1 for i in units if i not in d and pred[i] == 1 and truth[i] == 0),
                        sum(1 for i in units if i not in d and pred[i] == 0 and truth[i] == 1),
                    )
                    for d in map(set, itertools.combinations(units, k))
                )
                assert curve[k] == pytest.approx(best, abs=1e-12)

    def test_count_triples_normalize_to_one_against_own_reference(self):
        # bundled (tp, fp, fn) units: the 2*fp + fn ordering is the declared
        # reference, not a proven optimum, so only self-consistency is pinned
        rng = np.random.default_rng(8)
        triple = tuple(rng.integers(0, 3, 12).astype(float) for _ in range(3))
        res = normalized_auc(oracle_scores(triple, "f1_micro"), triple, "f1_micro")
        assert res.normalized == pytest.approx(1.0, abs=1e-12)


class TestF1Curves:
    def test_vacuous_f1_after_removing_last_error(self):
        pred = np.array([1, 0])  # FP then TN
        truth = np.array([0, 0])
        curve = build_curve([5.0, 1.0], pair_counts(pred, truth), "f1_micro")
        assert curve.tolist() == [0.0, 1.0]

    def test_matches_naive_recompute(self):
        rng = np.random.default_rng(21)
        pred = rng.integers(0, 2, 30)
        truth = rng.integers(0, 2, 30)
        scores = rng.random(30)
        curve = build_curve(scores, pair_counts(pred, truth), "f1_micro")
        assert np.allclose(curve, naive_f1_curve(scores, pred, truth), atol=1e-12)

    def test_bad_data_forms_rejected(self):
        with pytest.raises(ValueError, match="f1_micro needs"):
            build_curve(SCORES3, LOSSES3, "f1_micro")
        with pytest.raises(ValueError, match="f1_micro needs"):
            build_curve([1.0, 2.0], (np.ones(2), np.ones(2)), "f1_micro")
        with pytest.raises(ValueError, match="matching 1-D"):
            build_curve([1.0, 2.0], (np.ones(2), np.ones(2), np.ones(3)), "f1_micro")

    def test_rand_reference_tracks_permutation_monte_carlo(self):
        # analytic constant reference vs 200 random removal orders
        rng = np.random.default_rng(5)
        pred = rng.integers(0, 2, 300)
        truth = (rng.random(300) < 0.45).astype(int)
        triple = pair_counts(pred, truth)
        res = normalized_auc(rng.random(300), triple, "f1_micro")
        mc = np.mean(
            [
                curve_auc(
                    build_curve(np.random.default_rng(s).random(300), triple, "f1_micro")
                )
                for s in range(200)
            ]
        )
        assert abs(mc - res.rand_auc) < 0.01


class TestMulticlassLosses:
    def test_argmax_disagreement(self):
        probs = np.array([[0.7, 0.3], [0.2, 0.8], [0.6, 0.4]])
        assert multiclass_losses(probs, [0, 0, 1]).tolist() == [0.0, 1.0, 1.0]


class TestUnitData:
    def test_label_level_is_instance_major_with_hand_counts(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.3]])
        truth = np.array([[1, 0], [0, 1], [1, 1]])
        (acc_mode, (errors, totals)), (f1_mode, (tp, fp, fn)) = unit_data(
            probs, truth, "multilabel", "label")
        assert (acc_mode, f1_mode) == ("accuracy", "f1_micro")
        # pairs (0,0) (0,1) (1,0) (1,1) (2,0) (2,1): TP TN TN TP TP FN
        assert tp.tolist() == [1.0, 0.0, 0.0, 1.0, 1.0, 0.0]
        assert fp.tolist() == [0.0] * 6
        assert fn.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert errors.tolist() == [0.0, 0.0, 0.0, 0.0, 0.0, 1.0]
        assert totals.tolist() == [1.0] * 6

    def test_instance_level_counts_rows(self):
        probs = np.array([[0.9, 0.7, 0.2], [0.5, 0.1, 0.4]])
        truth = np.array([[1, 0, 1], [0, 0, 0]])
        (_, (errors, totals)), (_, (tp, fp, fn)) = unit_data(
            probs, truth, "multilabel", "instance")
        # row 0: TP FP FN; row 1: FP (0.5 is predicted positive) TN TN
        assert tp.tolist() == [1.0, 0.0]
        assert fp.tolist() == [1.0, 1.0]
        assert fn.tolist() == [1.0, 0.0]
        assert errors.tolist() == [2.0, 1.0]
        assert totals.tolist() == [3.0, 3.0]

    def test_counts_are_integers(self):
        rng = np.random.default_rng(5)
        probs, truth = rng.random((4, 3)), rng.integers(0, 2, (4, 3))
        for level, dtype in (("label", np.int8), ("instance", np.int64)):
            (_, (errors, totals)), (_, counts) = unit_data(probs, truth, "multilabel", level)
            assert [x.dtype for x in (errors, totals, *counts)] == [dtype] * 5, level

    def test_both_levels_give_the_same_total_counts(self):
        rng = np.random.default_rng(19)
        probs = rng.random((15, 6))
        truth = rng.integers(0, 2, (15, 6))
        label = unit_data(probs, truth, "multilabel", "label")
        inst = unit_data(probs, truth, "multilabel", "instance")
        for (_, a), (_, b) in zip(label, inst):
            assert [x.sum() for x in a] == [x.sum() for x in b]

    def test_shape_mismatch_rejected_at_both_levels(self):
        probs = np.ones((3, 2)) * 0.7
        truth = np.ones((3, 2), dtype=int)
        for level in ("label", "instance"):
            with pytest.raises(ValueError, match="matching"):
                unit_data(probs, truth[:2], "multilabel", level)
        with pytest.raises(ValueError, match="unknown level"):
            unit_data(probs, truth, "multilabel", "pair")


class TestLabelwise:
    def test_two_pair_hand_fixture(self):
        probs = np.array([[0.9, 0.45]])
        truth = np.array([[1, 0]])
        scores = score_mp(probs).reshape(-1)
        assert scores == pytest.approx([0.1, 0.45], abs=1e-12)
        # the second pair is the shakier one and goes first
        assert rejection_order(scores).tolist() == [1, 0]
        acc, f1 = labelwise_curves(probs, truth)
        assert np.allclose(coverages(len(acc)), [1.0, 0.5])
        assert np.all(acc == 1.0)
        assert np.all(f1 == 1.0)

    def test_all_correct_curves_constant_one(self):
        probs = np.array([[0.9, 0.2], [0.1, 0.8]])
        truth = (probs >= 0.5).astype(int)
        acc, f1 = labelwise_curves(probs, truth)
        assert np.all(acc == 1.0) and np.all(f1 == 1.0)

    def test_labelwise_matches_naive_recompute(self):
        rng = np.random.default_rng(13)
        probs = rng.random((12, 4))
        truth = rng.integers(0, 2, (12, 4))
        acc, f1 = labelwise_curves(probs, truth)
        scores = score_mp(probs).reshape(-1)
        pred, true = (probs >= 0.5).astype(int).reshape(-1), truth.reshape(-1)
        assert np.allclose(f1, naive_f1_curve(scores, pred, true), atol=1e-12)
        assert np.allclose(
            acc, 1.0 - naive_risk_curve(scores, (pred != true).astype(float)), atol=1e-12
        )

    def test_labelwise_dominates_instancewise_on_synth(self):
        data = generate(SynthSpec(seed=7, task="multilabel", n_train=200,
                                  n_validation=200, n_test=300, n_labels=8, dim=6))
        split = data.splits["test"]
        label_acc, _ = labelwise_curves(split.probs, split.labels)
        inst_acc, _ = instancewise_curves(split.probs, split.labels)
        n = split.probs.shape[0]
        for cov in [(n - j) / n for j in range(0, n // 2, 7)]:
            assert curve_value_at(label_acc, cov) >= curve_value_at(inst_acc, cov) - 1e-12


class TestInstancewise:
    def test_crisp_instance_scores_zero(self):
        probs = np.array([[1.0, 0.0, 1.0], [0.6, 0.4, 0.5]])
        per_label = 1.0 - np.maximum(probs, 1.0 - probs)
        assert per_label[0].max() == 0.0

    def test_ambiguous_instance_rejected_first_under_both_aggregations(self):
        probs = np.array([[0.5, 0.5, 0.5], [0.9, 0.1, 0.8]])
        truth = np.array([[1, 0, 1], [1, 0, 1]])
        for agg in (np.mean, np.max):
            acc, _ = instancewise_curves(probs, truth, agg)
            # after one removal only the sharp, fully correct instance is left
            assert acc[1] == 1.0

    def test_matches_naive_recompute(self):
        rng = np.random.default_rng(31)
        probs = rng.random((9, 5))
        truth = rng.integers(0, 2, (9, 5))
        acc, f1 = instancewise_curves(probs, truth)
        scores = (1.0 - np.maximum(probs, 1.0 - probs)).mean(axis=1)
        order = sorted(range(9), key=lambda i: (-scores[i], i))
        pred = (probs >= 0.5).astype(int)
        exp_acc, exp_f1 = [], []
        for k in range(9):
            keep = order[k:]
            p, t = pred[keep].reshape(-1), truth[keep].reshape(-1)
            exp_acc.append(np.mean(p == t))
            exp_f1.append(
                naive_f1(
                    int(((p == 1) & (t == 1)).sum()),
                    int(((p == 1) & (t == 0)).sum()),
                    int(((p == 0) & (t == 1)).sum()),
                )
            )
        assert np.allclose(acc, exp_acc, atol=1e-12)
        assert np.allclose(f1, exp_f1, atol=1e-12)

    def test_single_label_reduces_to_labelwise_exactly(self):
        rng = np.random.default_rng(17)
        probs = rng.random((20, 1))
        truth = rng.integers(0, 2, (20, 1))
        la, lf = labelwise_curves(probs, truth)
        ia, if_ = instancewise_curves(probs, truth)
        assert np.array_equal(la, ia)
        assert np.array_equal(lf, if_)


class TestScoreInvariance:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 40))
    @settings(max_examples=60, deadline=None)
    def test_curve_shape_and_range(self, seed, n):
        rng = np.random.default_rng(seed)
        losses = (rng.random(n) < 0.4).astype(float)
        curve = build_curve(rng.standard_normal(n), losses, "risk")
        assert len(curve) == n
        assert np.all(np.diff(coverages(n)) < 0)
        assert np.all((curve >= 0.0) & (curve <= 1.0))
        assert curve[0] == losses.mean()

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 30))
    @settings(max_examples=60, deadline=None)
    def test_exact_invariance_under_power_of_two_scaling(self, seed, n):
        # power-of-two scaling is exact in floats, so ties cannot appear
        # or vanish and the curve must not move at all
        rng = np.random.default_rng(seed)
        scores = rng.standard_normal(n)
        losses = (rng.random(n) < 0.5).astype(float)
        a = build_curve(scores, losses, "risk")
        b = build_curve(4.0 * scores, losses, "risk")
        assert np.array_equal(a, b)

    def test_invariance_under_exp_on_separated_scores(self):
        scores = np.array([3.0, -1.0, 0.5, 2.0, -2.5])
        losses = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        a = build_curve(scores, losses, "risk")
        b = build_curve(np.exp(scores), losses, "risk")
        assert np.array_equal(a, b)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_normalized_never_beats_oracle_on_unit_losses(self, seed):
        rng = np.random.default_rng(seed)
        losses = (rng.random(30) < 0.4).astype(float)
        if losses.sum() in (0, 30):
            return  # degenerate by construction
        res = normalized_auc(rng.standard_normal(30), losses, "risk")
        assert res.normalized <= 1.0 + 1e-9


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _counts_as(data, dtype):
    """Per-unit data with each count array cast to ``dtype``."""
    if isinstance(data, tuple):
        return tuple(np.asarray(x, dtype) for x in data)
    return np.asarray(data, dtype)


class TestIntegerCounts:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 60), st.integers(1, 30))
    @settings(max_examples=80, deadline=None)
    def test_int8_and_int64_counts_give_the_float_curves(self, seed, n, width):
        """Partial sums of counts below 2**53 are exact in float64, so
        integer counts give the float64 counts' curves and areas bit for
        bit, in every mode, for 0/1 pair data and per-instance counts up
        to the label count."""
        rng = np.random.default_rng(seed)
        pair = rng.integers(0, 4, n)   # 0 true negative, 1 tp, 2 fp, 3 fn
        tp, fp, fn = (pair == k for k in (1, 2, 3))
        split = rng.multinomial(width, [0.25] * 4, size=n)   # per instance: tn, tp, fp, fn up to L
        scores = rng.integers(0, 5, n) / 4.0   # ties, broken by index
        datasets = [("risk", fp + fn), ("accuracy", (fp + fn, np.ones(n))), ("f1_micro", (tp, fp, fn)),
                    ("accuracy", (split[:, 2] + split[:, 3], np.full(n, width))),
                    ("f1_micro", tuple(split[:, 1:].T))]
        for mode, data in datasets:
            floats = _counts_as(data, float)
            want = build_curve(scores, floats, mode)
            want_oracle = build_curve(oracle_scores(floats, mode), floats, mode)
            for dtype in (np.int8, np.int64):
                counts = _counts_as(data, dtype)
                got = build_curve(scores, counts, mode)
                oracle = build_curve(oracle_scores(counts, mode), counts, mode)
                assert _bits(got) == _bits(want), (mode, dtype)
                assert _bits(oracle) == _bits(want_oracle), (mode, dtype)
                for span in ("full", "first_50"):
                    a = normalize_auc(got, oracle_reference(counts, mode, span), span)
                    b = normalize_auc(want, oracle_reference(floats, mode, span), span)
                    fields = ("raw_auc", "rand_auc", "oracle_auc", "normalized")
                    assert _bits([getattr(a, f) for f in fields]) == _bits([getattr(b, f) for f in fields])
                    assert a.flag == b.flag


class TestCurveReadersBitwise:
    @given(st.integers(0, 2 ** 31 - 1), st.integers(1, 60))
    @example(0, 1)
    @example(1, 2)
    @example(2, 7)    # 0.5 lies between two grid points
    @example(3, 8)    # 0.5 is a grid point
    @settings(max_examples=80, deadline=None)
    def test_readers_match_the_explicit_coverage_arithmetic(self, seed, n):
        """curve_auc over both spans, curve_value_at and normalize_auc give,
        bit for bit, the readers that took a curve's coverages as an array
        of (n - k)/n, in every mode, for int8, int64 and float counts."""
        rng = np.random.default_rng(seed)
        pair = rng.integers(0, 4, n)   # 0 true negative, 1 tp, 2 fp, 3 fn
        tp, fp, fn = (pair == k for k in (1, 2, 3))
        scores = rng.integers(0, 5, n) / 4.0
        explicit = np.array([(n - k) / n for k in range(n)])
        points = [1.0, 0.5, explicit[-1], *(1.0 - rng.random(3))]
        datasets = [("risk", fp + fn), ("accuracy", (fp + fn, np.ones(n))), ("f1_micro", (tp, fp, fn))]
        for mode, data in datasets:
            for dtype in (np.int8, np.int64, float):
                counts = _counts_as(data, dtype)
                curve = build_curve(scores, counts, mode)
                oracle = build_curve(oracle_scores(counts, mode), counts, mode)
                for c in points:
                    assert _bits(curve_value_at(curve, c)) == _bits(curve_value_on(explicit, curve, c))
                for span in ("full", "first_50"):
                    raw, best = curve_auc_on(explicit, curve, span), curve_auc_on(explicit, oracle, span)
                    rand = float(oracle[0])
                    want = float("nan") if abs(best - rand) < 1e-15 else (raw - rand) / (best - rand)
                    got = normalize_auc(curve, oracle_reference(counts, mode, span), span)
                    assert _bits(curve_auc(curve, span)) == _bits(raw), (mode, dtype, span)
                    assert _bits([got.raw_auc, got.rand_auc, got.oracle_auc, got.normalized]) == \
                        _bits([raw, rand, best, want]), (mode, dtype, span)
