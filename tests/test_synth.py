"""Synthetic benchmark generator: determinism, contamination, probe quality."""
import hashlib

import numpy as np
import pytest

from abstain.core import seeded_rng
from abstain.density import fit_md, score_md
from abstain.synth import SynthDataset, SynthSpec, _sigmoid, generate
from oracles import masked_sigmoid

SMALL = dict(n_train=80, n_validation=40, n_test=40, n_classes=3, dim=4, mc_passes=4)


def split_digest(split):
    h = hashlib.sha256()
    for arr in (split.probs, split.labels, split.embeddings, split.mc):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


class TestSpec:
    def test_json_roundtrip(self):
        spec = SynthSpec(seed=11, task="multilabel", n_labels=6, overlap=0.2)
        again = SynthSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    @pytest.mark.parametrize(
        "kw, msg",
        [
            (dict(task="regression"), "unknown task"),
            (dict(n_classes=1), "at least two classes"),
            (dict(task="multilabel", n_labels=1), "at least two labels"),
            (dict(dim=0), "dim must be positive"),
            (dict(n_test=2, n_classes=4), "at least one instance per class"),
            (dict(n_train=10, n_classes=4), "train split too small"),
            (dict(overlap=1.5), "overlap"),
            (dict(ood_fraction=0.6), "ood fraction"),
            (dict(spacing=0.0), "spacing"),
            (dict(ood_displacement=-1.0), "displacement"),
            (dict(mc_passes=1), "two stochastic passes"),
            (dict(mc_noise=-0.1), "non-negative"),
        ],
    )
    def test_invalid_specs_rejected(self, kw, msg):
        base = dict(n_train=100, n_validation=50, n_test=50)
        base.update(kw)
        with pytest.raises(ValueError, match=msg):
            SynthSpec(**base)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        spec = SynthSpec(seed=3, **SMALL)
        a, b = generate(spec), generate(spec)
        for role in ("train", "validation", "test"):
            assert split_digest(a.splits[role]) == split_digest(b.splits[role])
            assert np.array_equal(a.ood_flags[role], b.ood_flags[role])
            assert np.array_equal(a.flipped_flags[role], b.flipped_flags[role])

    def test_different_seed_different_bytes(self):
        a = generate(SynthSpec(seed=3, **SMALL))
        b = generate(SynthSpec(seed=4, **SMALL))
        assert split_digest(a.splits["test"]) != split_digest(b.splits["test"])

    def test_multilabel_determinism(self):
        spec = SynthSpec(seed=5, task="multilabel", n_labels=4, **SMALL)
        a, b = generate(spec), generate(spec)
        assert split_digest(a.splits["validation"]) == split_digest(b.splits["validation"])


class TestContamination:
    def test_ood_counts_are_floored_fractions(self):
        spec = SynthSpec(seed=2, ood_fraction=0.1, n_train=80, n_validation=45,
                         n_test=73, n_classes=3, dim=4, mc_passes=4)
        data = generate(spec)
        assert data.ood_flags["train"].sum() == 0
        assert data.ood_flags["validation"].sum() == int(np.floor(0.1 * 45))
        assert data.ood_flags["test"].sum() == int(np.floor(0.1 * 73))

    def test_no_instance_is_both_flipped_and_ood(self):
        data = generate(SynthSpec(seed=6, overlap=0.5, **SMALL))
        for role in ("validation", "test"):
            assert not np.any(data.flipped_flags[role] & data.ood_flags[role])

    def test_zero_overlap_flips_nothing(self):
        data = generate(SynthSpec(seed=6, overlap=0.0, **SMALL))
        assert all(not data.flipped_flags[r].any() for r in ("train", "validation", "test"))

    def test_positive_overlap_flips_something(self):
        # tight spacing keeps plenty of instances inside the boundary band
        data = generate(SynthSpec(seed=6, overlap=0.8, spacing=1.5, **SMALL))
        assert data.flipped_flags["train"].sum() > 0

    def test_balanced_labels_without_contamination(self):
        data = generate(SynthSpec(seed=9, overlap=0.0, ood_fraction=0.0, **SMALL))
        counts = np.bincount(data.splits["train"].labels, minlength=3)
        assert counts.max() - counts.min() <= 1

    def test_ood_instances_score_higher_on_density(self):
        # the separation the downstream acceptance checks lean on
        data = generate(SynthSpec())
        model = fit_md(data.splits["train"])
        test = data.splits["test"]
        scores = np.array([score_md(e, model) for e in test.embeddings])
        ood = data.ood_flags["test"]
        assert scores[ood].mean() > scores[~ood].mean()


class TestProbe:
    def test_easy_spec_reaches_high_accuracy(self):
        spec = SynthSpec(seed=7, overlap=0.0, ood_fraction=0.0, spacing=10.0,
                         n_train=400, n_validation=200, n_test=400, n_classes=3,
                         dim=4, mc_passes=4)
        data = generate(spec)
        test = data.splits["test"]
        acc = np.mean(test.probs.argmax(axis=1) == test.labels)
        assert acc >= 0.99

    def test_probabilities_are_valid(self):
        data = generate(SynthSpec(seed=1, **SMALL))
        for split in data.splits.values():
            assert np.all(split.probs >= 0.0) and np.all(split.probs <= 1.0)
            assert np.allclose(split.probs.sum(axis=1), 1.0, atol=1e-6)
            assert split.mc.shape == (len(split.probs), 4, 3)

    def test_zero_mc_noise_reproduces_the_probabilities(self):
        data = generate(SynthSpec(seed=1, mc_noise=0.0, **SMALL))
        split = data.splits["test"]
        assert np.array_equal(split.mc, np.broadcast_to(split.probs[:, None, :], split.mc.shape))

    def test_mc_spread_shrinks_with_noise(self):
        small = generate(SynthSpec(seed=1, mc_noise=0.05, **SMALL))
        large = generate(SynthSpec(seed=1, mc_noise=0.8, **SMALL))
        dev = lambda d: np.abs(
            d.splits["test"].mc - d.splits["test"].probs[:, None, :]
        ).mean()
        assert dev(small) < dev(large)


class TestMultilabel:
    def test_shapes_and_bits(self):
        spec = SynthSpec(seed=12, task="multilabel", n_labels=5, **SMALL)
        data = generate(spec)
        assert isinstance(data, SynthDataset)
        test = data.splits["test"]
        assert test.task == "multilabel"
        assert test.probs.shape == (40, 5)
        assert test.labels.shape == (40, 5)
        assert set(np.unique(test.labels)) <= {0, 1}
        assert test.mc.shape == (40, 4, 5)
        assert np.all((test.probs >= 0.0) & (test.probs <= 1.0))

    def test_ood_rows_present_in_eval_splits_only(self):
        spec = SynthSpec(seed=12, task="multilabel", n_labels=5, **SMALL)
        data = generate(spec)
        assert data.ood_flags["train"].sum() == 0
        assert data.ood_flags["test"].sum() == 4


def test_sigmoid_matches_masked_oracle_bitwise():
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 710.0, -710.0, 745.0, -745.0]
    z = np.concatenate([special, seeded_rng(0).normal(size=10_000) * 40.0])
    got, want = _sigmoid(z), masked_sigmoid(z)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))
