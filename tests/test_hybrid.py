import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstain.cli import METHODS, _load_fitted, main, score_split
from abstain.core import LabeledSplit, seeded_rng
from abstain.dataio import load_manifest, load_splits, read_scores, split_source
from abstain.hybrid import (
    ALPHA_GRID,
    C_GRID,
    DELTA_MIN_QUANTILES,
    VARIANTS,
    HybridConfig,
    _calibration_grid,
    fit_hybrid,
    score_hybrid_batch,
)
from abstain.rejection import build_curve, curve_auc, multiclass_losses, rejection_order
from abstain.synth import SynthSpec
from oracles import (DELTA_MAX_QUANTILES, brute_force_fit_hybrid, brute_force_hybrid_objectives,
                     score_huq, score_huq2, score_three_region_huq)

TA = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
TE = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])


def hand_config(**kw):
    base = dict(table_ambiguity=TA, table_novelty=TE, alpha=0.5, delta_min=4.0, c=1.0, objective=0.0)
    base.update(kw)
    return HybridConfig(**base)


def test_case_offset_clears_rank_range():
    cfg = hand_config()
    assert cfg.n_validation == 6
    assert cfg.case_offset == 8  # N + 2, above any reachable rank


# hand-walked values for both regions of the threshold rule:
# low novelty ranks inside TA shifted by 8, high novelty mixes both
# full-table ranks shifted by 16
HUQ_CASES = [
    (0.15, 2.0, 10.0),
    (0.05, 3.5, 9.0),
    (0.45, 1.0, 13.0),
    (0.35, 3.9, 12.0),
    (0.25, 5.5, 20.5),
    (0.55, 7.0, 22.5),
]


@pytest.mark.parametrize("ua,ue,want", HUQ_CASES)
def test_huq_hand_fixture(ua, ue, want):
    assert score_huq(ua, ue, hand_config()) == want
    assert score_hybrid_batch([ua], [ue], hand_config(), "huq")[0] == want


def test_huq_regions_never_interleave():
    cfg = hand_config()
    rng = seeded_rng(0)
    low, high = [], []
    for _ in range(300):
        ua = float(rng.uniform(0, 0.8))
        ue = float(rng.uniform(0, 8.0))
        (low if ue <= cfg.delta_min else high).append(score_huq(ua, ue, cfg))
    assert max(low) < min(high)


def test_huq2_hand_fixture():
    cfg = HybridConfig(np.array([0.1, 0.2, 0.3, 0.4, 0.5]), np.array([10.0, 20.0, 30.0, 40.0, 50.0]),
                       0.5, 99.0, 2.0, 0.0)
    # r_a = 3, r_e = 4, levers 0.7 and 0.6:
    # 0.5*16*0.7 + 0.5*9*0.6 = 8.3
    assert score_huq2(0.25, 35.0, cfg) == pytest.approx(8.3, abs=1e-12)


def test_huq_alpha_one_reduces_to_ambiguity_rank_in_novel_region():
    cfg = hand_config(alpha=1.0, delta_min=float("-inf"))
    # everything is novel; alpha 1 keeps only the ambiguity rank
    for ua in (0.15, 0.45, 0.05):
        expected = np.searchsorted(TA, ua, side="left") + 1 + 2 * cfg.case_offset
        assert score_huq(ua, 3.0, cfg) == expected


def test_huq_alpha_zero_reduces_to_novelty_rank_in_novel_region():
    cfg = hand_config(alpha=0.0, delta_min=float("-inf"))
    for ue in (1.5, 5.5, 0.2):
        expected = np.searchsorted(TE, ue, side="left") + 1 + 2 * cfg.case_offset
        assert score_huq(0.3, ue, cfg) == expected


def test_config_validation():
    with pytest.raises(ValueError, match="unknown variant"):
        score_hybrid_batch([0.1], [1.0], hand_config(), "huq3")
    with pytest.raises(ValueError, match="alpha"):
        hand_config(alpha=1.5)
    with pytest.raises(ValueError, match="sorted ascending"):
        hand_config(table_ambiguity=np.array([0.3, 0.1]))
    with pytest.raises(ValueError, match="c must be"):
        hand_config(c=7.0)
    for tables in ((TA[:0], TE[:0]), (TA, TE[:5])):
        with pytest.raises(ValueError, match="non-empty and of one length"):
            hand_config(table_ambiguity=tables[0], table_novelty=tables[1])


def test_batch_matches_scalar_loop():
    rng = seeded_rng(3)
    u_a = rng.random(40)
    u_e = rng.random(40) * 8
    for cfg, variant, scalar_fn in ((hand_config(), "huq", score_huq), (hand_config(c=2.0), "huq2", score_huq2)):
        batch = score_hybrid_batch(u_a, u_e, cfg, variant)
        loop = np.array([scalar_fn(a, e, cfg) for a, e in zip(u_a, u_e)])
        assert np.array_equal(batch, loop)


def test_batch_rejects_nonfinite_and_mismatch():
    cfg = hand_config()
    with pytest.raises(ValueError, match="finite"):
        score_hybrid_batch(np.array([0.1, np.nan]), np.array([1.0, 2.0]), cfg, "huq")
    with pytest.raises(ValueError, match="matching"):
        score_hybrid_batch(np.array([0.1]), np.array([1.0, 2.0]), cfg, "huq")


def _calibration_split(n=60, seed=0):
    rng = seeded_rng(seed)
    maxp = rng.uniform(0.4, 0.999, n)
    probs = np.stack([maxp, 1 - maxp], axis=1)
    labels = (rng.random(n) < np.where(maxp > 0.7, 0.1, 0.45)).astype(int)
    return LabeledSplit(probs, labels, "multiclass")


def test_fit_hybrid_insufficient_data():
    split = _calibration_split(n=19)
    with pytest.raises(ValueError, match="insufficient calibration data"):
        fit_hybrid(split, np.zeros(19), np.zeros(19))


def test_fit_hybrid_argument_validation():
    split = _calibration_split()
    u = np.zeros(60)
    with pytest.raises(ValueError, match="unknown variant"):
        fit_hybrid(split, u, u, variant="nope")
    multilabel = LabeledSplit(split.probs, np.zeros((60, 2), dtype=int), "multilabel")
    with pytest.raises(ValueError, match="needs a multiclass split"):
        fit_hybrid(multilabel, u, u)
    with pytest.raises(ValueError, match="match the validation"):
        fit_hybrid(split, np.zeros(59), u)
    with pytest.raises(ValueError, match="finite"):
        fit_hybrid(split, np.full(60, np.nan), u)


def test_fit_hybrid_matches_brute_force_search():
    split = _calibration_split(seed=5)
    rng = seeded_rng(6)
    u_a = 1 - split.probs.max(axis=1)
    u_e = rng.random(60) * 4 + u_a
    fitted = fit_hybrid(split, u_a, u_e, variant="huq2")

    # independent search: plain python rejection-curve area
    losses = (split.probs.argmax(axis=1) != split.labels).astype(float)

    def rc_area(scores):
        order = sorted(range(60), key=lambda i: (-scores[i], i))
        risks = []
        kept = list(order)
        for k in range(60):
            remaining = kept[k:]
            risks.append(sum(losses[i] for i in remaining) / len(remaining))
        xs = [(60 - k) / 60 for k in range(60)]
        area = 0.0
        for k in range(59):
            area += (xs[k] - xs[k + 1]) * (risks[k] + risks[k + 1]) / 2
        return area / (xs[0] - xs[-1])

    best = None
    ta, te = np.sort(u_a), np.sort(u_e)
    for alpha in ALPHA_GRID:
        for c in C_GRID:
            cfg = HybridConfig(ta, te, alpha, float(te[-1]), float(c), 0.0)
            val = rc_area(score_hybrid_batch(u_a, u_e, cfg, "huq2"))
            if best is None or val < best[0] - 1e-15:
                best = (val, alpha, c)
    assert fitted.alpha == best[1]
    assert fitted.c == best[2]


def assert_same_config(got, split, u_a, u_e, variant):
    """``got``, fitted on ``split``, holds the point and the objective of
    the brute-force search, the held-out tables, and the removal order of
    the brute-force winner's validation scores."""
    area, point, scores = brute_force_fit_hybrid(split, u_a, u_e, variant)
    for field in ("alpha", "delta_min", "c"):
        assert getattr(got, field) == point[field], field
    assert got.objective == area
    assert np.array_equal(got.table_ambiguity, np.sort(u_a))
    assert np.array_equal(got.table_novelty, np.sort(u_e))
    assert np.array_equal(rejection_order(score_hybrid_batch(u_a, u_e, got, variant)), rejection_order(scores))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fit_hybrid_equals_brute_force_reference(seed):
    split = _calibration_split(seed=seed)
    rng = seeded_rng(100 + seed)
    u_a = 1 - split.probs.max(axis=1)
    u_e = rng.random(60) * 4 + u_a
    for variant in ("huq", "huq2"):
        assert_same_config(fit_hybrid(split, u_a, u_e, variant=variant), split, u_a, u_e, variant)


def test_fit_hybrid_ties_resolve_like_brute_force_reference():
    # few distinct score values: many thresholds coincide and many grid
    # points give the same objective, so only the grid order can decide
    split = _calibration_split(seed=4)
    rng = seeded_rng(7)
    u_a = np.round(1 - split.probs.max(axis=1), 1)
    u_e = rng.integers(0, 2, 60).astype(float)
    for variant in ("huq", "huq2"):
        assert_same_config(fit_hybrid(split, u_a, u_e, variant=variant), split, u_a, u_e, variant)


def test_fit_hybrid_tie_prefers_first_grid_point():
    # constant losses make every configuration equivalent
    rng = seeded_rng(2)
    maxp = rng.uniform(0.55, 0.99, 30)
    probs = np.stack([maxp, 1 - maxp], axis=1)
    split = LabeledSplit(probs, np.zeros(30, dtype=int), "multiclass")
    u_a, u_e = 1 - maxp, rng.random(30)
    for variant in ("huq", "huq2"):
        cfg = fit_hybrid(split, u_a, u_e, variant=variant)
        assert cfg.alpha == 0.0
        if variant == "huq2":
            assert cfg.c == 1
        else:
            assert cfg.delta_min == float(np.quantile(u_e, 0.5, method="lower"))


def test_fit_hybrid_rank_invariance_small():
    split = _calibration_split(seed=8)
    rng = seeded_rng(9)
    u_a = 1 - split.probs.max(axis=1)
    u_e = rng.random(60) * 3
    test_a, test_e = rng.random(25), rng.random(25) * 3
    for variant in ("huq", "huq2"):
        base_cfg = fit_hybrid(split, u_a, u_e, variant=variant)
        base = score_hybrid_batch(test_a, test_e, base_cfg, variant)
        for f in (np.exp, lambda x: 10 * x + 3):
            cfg2 = fit_hybrid(split, f(u_a), f(u_e), variant=variant)
            again = score_hybrid_batch(f(test_a), f(test_e), cfg2, variant)
            assert np.array_equal(base, again)


def assert_grid_objectives_are_curve_areas(split, u_a, u_e):
    """Each grid point's batched objective is bitwise the area of the one
    full rejection curve of that point's scores."""
    losses = multiclass_losses(split.probs, split.labels)
    sizes = {"huq": len(ALPHA_GRID) * len(DELTA_MIN_QUANTILES), "huq2": len(ALPHA_GRID) * len(C_GRID)}
    for variant, size in sizes.items():
        objectives, config = _calibration_grid(split, u_a, u_e, variant)
        assert objectives.shape == (size,)
        want = [curve_auc(build_curve(score_hybrid_batch(u_a, u_e, config(k), variant), losses, "risk"), "full")
                for k in range(size)]
        assert objectives.tolist() == want, variant
        assert [config(k).objective for k in range(size)] == want, variant
        assert fit_hybrid(split, u_a, u_e, variant).objective == objectives.min(), variant


def validation_size_fixture():
    split = _calibration_split(n=800, seed=11)
    rng = seeded_rng(12)
    u_a = 1 - split.probs.max(axis=1)
    return split, u_a, rng.random(800) * 4 + u_a


def heavy_ties_fixture():
    split = _calibration_split(n=200, seed=13)
    rng = seeded_rng(14)
    return split, np.round(1 - split.probs.max(axis=1), 1), rng.integers(0, 3, 200).astype(float)


def test_grid_objectives_match_full_curves_at_validation_size():
    split, u_a, u_e = validation_size_fixture()
    # the fixture must reach the case where the HUQ region offset 2 * (n + 2)
    # rounds distinct high-novelty mixes to one double, so that the index
    # tie-break orders them
    r_a, r_e = (np.searchsorted(np.sort(u), u) + 1.0 for u in (u_a, u_e))
    mixes = [(1 - alpha) * r_e + alpha * r_a for alpha in ALPHA_GRID]
    assert any(np.unique(m).size > np.unique(m + 2 * 802).size for m in mixes)
    assert_grid_objectives_are_curve_areas(split, u_a, u_e)


def test_grid_objectives_match_full_curves_under_heavy_ties():
    assert_grid_objectives_are_curve_areas(*heavy_ties_fixture())


@pytest.mark.parametrize("fixture", [validation_size_fixture, heavy_ties_fixture])
def test_no_ambiguity_threshold_moves_a_huq_objective(fixture):
    """Under the three-region rule, every ambiguity threshold of the full
    grid gives the same removal orders, so the two-region rule, which has
    none, reaches the same minimum objective as the 1,008-point search, and
    the validation removal order of its winner."""
    split, u_a, u_e = fixture()
    searched = brute_force_hybrid_objectives(split, u_a, u_e, "huq")
    assert len(searched) == len(ALPHA_GRID) * len(DELTA_MIN_QUANTILES) * len(DELTA_MAX_QUANTILES) == 1008
    areas = np.array([val for val, _, _ in searched]).reshape(len(ALPHA_GRID), len(DELTA_MIN_QUANTILES), -1)
    assert np.array_equal(areas, np.repeat(areas[..., :1], len(DELTA_MAX_QUANTILES), axis=2))
    fitted = fit_hybrid(split, u_a, u_e, variant="huq")
    assert fitted.objective == areas.min()
    assert_same_config(fitted, split, u_a, u_e, "huq")


@given(st.integers(0, 500))
@settings(max_examples=20, deadline=None)
def test_huq2_nonnegative_for_c_large_enough(seed):
    # with c >= 2 the leverage terms stay positive for any rank <= N+1
    rng = seeded_rng(seed)
    table = np.sort(rng.random(15))
    cfg = HybridConfig(table, table, 0.3, 1.0, 2.0, 0.0)
    u = rng.random(10)
    v = rng.random(10)
    assert np.all(score_hybrid_batch(u, v, cfg, "huq2") >= 0.0)


@pytest.mark.parametrize("variant", VARIANTS)
def test_calibration_holds_one_alpha_of_mixes_at_a_time(variant):
    """On 5,000 validation rows the search peaks under 4 MB (tracemalloc):
    stacking the mixes of one alpha at a time reads 2.2 MB (HUQ) and 0.8 MB
    (HUQ-2); one stack of every alpha's mixes reads 27.8 and 10.4 MB; a
    1,008-point HUQ grid with an (8, 6, n) loss buffer read 8.7 MB."""
    split = _calibration_split(n=5000, seed=15)
    u_a = 1 - split.probs.max(axis=1)
    u_e = seeded_rng(16).random(5000) * 4 + u_a
    tracemalloc.start()
    try:
        fit_hybrid(split, u_a, u_e, variant=variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, peak


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("sizes", [{}, {"n_train": 5000, "n_test": 5000}], ids=["mc-default", "mc-scale"])
def test_fit_and_score_give_the_columns_of_the_three_region_calibration(sizes, seed, tmp_path):
    """``fit`` then ``score`` give every hybrid column that ``score
    --calibrate validation`` gave when ``score`` calibrated the hybrids
    itself: the point the brute-force search picks on the validation split
    (HUQ over 1,008 points of its three-region rule), applied to the test
    split.  HUQ-2 columns are bit-equal.  HUQ columns are too, except at the
    units the three-region rule scored exactly 1.0 (low novelty, ambiguity
    at most the smallest validation ambiguity), which the two-region rule
    scores n_validation + 3, still below every other unit."""
    spec = tmp_path / "spec.json"
    spec.write_text(SynthSpec(**sizes).to_json())
    ds, models, table = tmp_path / "ds", tmp_path / "models.bin", tmp_path / "scores.csv"
    hybrids = [name for name, method in METHODS.items() if method.hybrid]
    argv = [["gen-synth", "--spec", spec, "--seed", seed, "--out", ds],
            ["fit", "--manifest", ds / "manifest.json", "--out", models,
             "--methods", ",".join(["md", "rde", "ddu"] + [METHODS[name].model for name in hybrids])],
            ["score", "--manifest", ds / "manifest.json", "--models", models,
             "--methods", ",".join(["SR", "MD", "RDE", "DDU"] + hybrids), "--out", table]]
    for command in argv:
        assert main([str(a) for a in command]) == 0
    manifest = load_manifest(ds / "manifest.json")
    validation = load_splits(manifest, ds, {"validation": ("embeddings",)})["validation"]
    fitted = _load_fitted(models, manifest)
    held_out = score_split(["SR", "MD", "RDE", "DDU"], validation, fitted)
    got = read_scores(table, "instance", manifest.splits["test"].n, manifest.n_classes, split_source(manifest, "test"))
    for name in hybrids:
        variant, novelty = METHODS[name].hybrid
        u_a, u_e, t_a, t_e = held_out["SR"], held_out[novelty], got["SR"], got[novelty]
        area, point, _ = brute_force_fit_hybrid(validation, u_a, u_e, variant)
        tables = np.sort(u_a), np.sort(u_e)
        if variant == "huq2":
            want = score_hybrid_batch(t_a, t_e, HybridConfig(*tables, point["alpha"], point["delta_min"],
                                                             point["c"], area), variant)
        else:
            want = score_three_region_huq(t_a, t_e, point["alpha"], point["delta_min"], point["delta_max"],
                                          tables[0], np.sort(u_a[u_e <= point["delta_min"]]), tables[1])
        ones = want == 1.0
        assert got[name][~ones].tobytes() == want[~ones].tobytes(), name
        assert np.all(got[name][ones] == len(u_a) + 3), name
        assert variant == "huq" or not ones.any(), name
        assert fitted[METHODS[name].model].objective == area, name
