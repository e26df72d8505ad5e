"""Synthetic benchmark generator: determinism, contamination, probe quality."""
import hashlib

import numpy as np
import pytest
import scipy.optimize

from abstain import synth
from abstain.core import BLOCK_ROWS, seeded_rng
from abstain.density import fit_md, score_md
from abstain.synth import SynthDataset, SynthSpec, _lbfgs, _sigmoid, _softmax, generate
from oracles import masked_sigmoid, sample_split_whole_array, whole_tensor_passes

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


@pytest.mark.parametrize("task", ["multiclass", "multilabel"])
def test_block_filled_passes_match_the_whole_tensor_oracle(task, monkeypatch):
    n = 2 * BLOCK_ROWS + 1   # every split crosses two block boundaries
    spec = SynthSpec(seed=6, task=task, n_train=n, n_validation=n, n_test=n,
                     n_classes=3, n_labels=5, dim=4, mc_passes=6)
    blocked = generate(spec)
    monkeypatch.setattr(synth, "_stochastic_passes", whole_tensor_passes)
    whole = generate(spec)
    for role, split in blocked.splits.items():
        assert split.mc.shape == (n, 6, 3 if task == "multiclass" else 5)
        assert np.array_equal(split.mc, whole.splits[role].mc)
        assert split_digest(split) == split_digest(whole.splits[role])



@pytest.mark.parametrize("task", ["multiclass", "multilabel"])
def test_centroid_distances_taken_one_centroid_at_a_time_match_the_whole_array_oracle(task, monkeypatch):
    """At the paper's embedding width, each row's distances measured one
    centroid at a time give the bits of one (n, C, d) difference array:
    every array and flag of every split is the same."""
    spec = SynthSpec(seed=7, task=task, n_train=120, n_validation=60, n_test=60,
                     n_classes=4, n_labels=5, dim=768, mc_passes=3)
    each = generate(spec)
    monkeypatch.setattr(synth, "_sample_split", sample_split_whole_array)
    whole = generate(spec)
    assert any(flags.any() for flags in whole.flipped_flags.values())
    for role, split in each.splits.items():
        for name in ("probs", "labels", "embeddings", "mc"):
            assert np.array_equal(getattr(split, name), getattr(whole.splits[role], name)), (role, name)
        assert np.array_equal(each.ood_flags[role], whole.ood_flags[role])
        assert np.array_equal(each.flipped_flags[role], whole.flipped_flags[role])

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


def scipy_lbfgsb(fun_grad, x0):
    """The reference solver: scipy's L-BFGS-B with the probe's stopping rules."""
    res = scipy.optimize.minimize(fun_grad, x0, jac=True, method="L-BFGS-B",
                                  options={"maxiter": 500, "ftol": 1e-12, "gtol": 1e-10})
    return res.x, res.nit


def rosenbrock(x):
    r = x[1:] - x[:-1] ** 2
    g = np.zeros_like(x)
    g[:-1] = -400.0 * x[:-1] * r - 2.0 * (1.0 - x[:-1])
    g[1:] += 200.0 * r
    return float((100.0 * r**2 + (1.0 - x[:-1]) ** 2).sum()), g


class TestProbeSolver:
    @pytest.mark.parametrize("kw", [{}, {"task": "multilabel"}, {"dim": 256}],
                             ids=["default", "multilabel", "dim256"])
    def test_matches_scipy_lbfgsb(self, kw, monkeypatch):
        solved = []

        def recorded(solver):
            def solve(fun_grad, x0):
                x, n_iter = solver(fun_grad, x0)
                solved.append((fun_grad(x)[0], n_iter))
                return x, n_iter
            return solve

        spec = SynthSpec(**kw)
        monkeypatch.setattr(synth, "_lbfgs", recorded(_lbfgs))
        ours = generate(spec)
        monkeypatch.setattr(synth, "_lbfgs", recorded(scipy_lbfgsb))
        ref = generate(spec)
        (f_ours, n_iter), (f_ref, _) = solved
        assert abs(f_ours - f_ref) <= 1e-9 * abs(f_ref)
        assert n_iter < 500
        for role, split in ours.splits.items():
            for field in ("probs", "mc"):
                np.testing.assert_allclose(getattr(split, field), getattr(ref.splits[role], field),
                                           rtol=0, atol=1e-4, err_msg=(role, field))

    def test_reaches_the_rosenbrock_minimum(self):
        x, n_iter = _lbfgs(rosenbrock, np.array([-1.2, 1.0]))
        assert n_iter < 500
        np.testing.assert_allclose(x, 1.0, rtol=0, atol=1e-6)

    def test_returns_a_stationary_start_unmoved(self):
        x0 = np.zeros(3)
        x, n_iter = _lbfgs(lambda x: (0.5 * float(x @ x), x), x0)
        assert n_iter == 0 and np.array_equal(x, x0)


@pytest.mark.parametrize("link", [_softmax, _sigmoid], ids=["softmax", "sigmoid"])
def test_links_leave_their_input_unchanged(link):
    z = seeded_rng(3).normal(size=(50, 4, 3)) * 5.0
    before = z.copy()
    link(z)
    assert np.array_equal(z, before)


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
