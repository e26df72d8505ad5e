"""Batch scoring against row-by-row scoring, for every registry method.

A batch and its rows scored one at a time must agree bitwise, except
RDE and NUQ, whose kernel rows go through a matrix product whose
summation order depends on the batch shape; those are held to 1e-12
relative.  The fixture keeps the default spec's embedding width: with
d=4 and 64 kernel components RDE's component space is ill-conditioned
enough to turn that reordering into 5e-12.
"""
from dataclasses import replace

import numpy as np
import pytest

from abstain import baselines, core, density, mc
from abstain.cli import FITTERS, METHODS, score_split
from abstain.core import LabeledSplit, seeded_rng
from abstain.synth import SynthSpec, generate

KERNEL_METHODS = ("RDE", "NUQ")
SPEC = dict(n_train=300, n_validation=100, n_test=150, n_classes=3, dim=8, mc_passes=5)


def _fitted(task):
    data = generate(SynthSpec(seed=11, task=task, **SPEC))
    models = {key: fitter.fit(data.splits[fitter.split])
              for key, fitter in FITTERS.items() if task in fitter.tasks}
    return data.splits["test"], models


@pytest.fixture(scope="module", params=["multiclass", "multilabel"])
def fitted(request):
    return request.param, *_fitted(request.param)


def assert_agree(name, got, want):
    if name in KERNEL_METHODS:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    else:
        assert np.array_equal(got, want), name


def test_every_registry_method_batch_matches_rows(fitted):
    task, split, models = fitted
    base = [name for name, m in METHODS.items() if task in m.tasks and m.hybrid is None]
    assert base
    for name in base:
        method = METHODS[name]
        batch = getattr(split, method.input)
        model = models.get(method.model)
        whole = method.score(batch, model)
        rows = np.concatenate([method.score(batch[i:i + 1], model) for i in range(len(batch))])
        assert whole.shape[0] == len(batch)
        assert_agree(name, whole, rows)


SCALAR_SCORERS = {
    "SR": baselines.score_sr, "Entropy": baselines.score_entropy,
    "Delta": baselines.score_delta, "Beta": baselines.score_beta,
    "SMP": mc.score_smp, "PV": mc.score_pv, "BALD": mc.score_bald,
    "MD": density.score_md, "RDE": density.score_rde,
    "DDU": density.score_ddu, "NUQ": density.score_nuq,
}


def test_single_row_gives_the_batch_value_as_float():
    split, models = _fitted("multiclass")
    for name, fn in SCALAR_SCORERS.items():
        method = METHODS[name]
        batch = getattr(split, method.input)
        extra = (models[method.model],) if method.model else ()
        whole = fn(batch, *extra)
        rows = [fn(row, *extra) for row in batch]
        assert all(type(v) is float for v in rows), name
        assert_agree(name, whole, np.array(rows))


def test_blocks_leave_scores_unchanged(monkeypatch):
    split, models = _fitted("multiclass")
    names = [name for name, m in METHODS.items() if "multiclass" in m.tasks]
    whole = score_split(names, split, models, split)
    monkeypatch.setattr(core, "BLOCK_ROWS", 7)  # 150 rows -> 22 blocks
    blocked = score_split(names, split, models, split)
    for name in names:
        assert_agree(name, blocked[name], whole[name])


def test_identical_passes_score_exactly_zero_inside_a_batch():
    rng = seeded_rng(3)
    t = rng.dirichlet(np.ones(4), size=(6, 5))
    for i in (1, 4):
        t[i] = np.tile(t[i, 0], (5, 1))
    for fn in (mc.score_pv, mc.score_bald):
        out = fn(t)
        assert out[1] == 0.0 and out[4] == 0.0, fn.__name__
        assert np.all(np.delete(out, [1, 4]) > 0.0), fn.__name__
        assert np.array_equal(out, [fn(row) for row in t]), fn.__name__


def test_nuq_underflow_inside_a_batch_is_inf_with_warning():
    rng = seeded_rng(5)
    X = rng.normal(size=(30, 2))
    train = LabeledSplit(np.full((30, 2), 0.5), np.arange(30) % 2, "multiclass", X)
    model = replace(density.fit_nuq(train), bandwidth=0.5)
    queries = np.vstack([X[:3], [[500.0, -500.0]], X[3:5]])
    with pytest.warns(RuntimeWarning, match="density underflow"):
        out = density.score_nuq(queries, model)
    assert out[3] == np.inf
    assert np.all(np.isfinite(np.delete(out, 3)))
    rows = [density.score_nuq(q, model) for q in np.delete(queries, 3, axis=0)]
    np.testing.assert_allclose(np.delete(out, 3), rows, rtol=1e-12, atol=0)


@pytest.mark.parametrize("d", [256, 768])
def test_md_and_ddu_at_embedding_dimensions(d):
    rng = seeded_rng(8)
    C = 3
    labels = np.arange(600) % C
    X = rng.normal(size=(C, d))[labels] * 3.0 + rng.normal(size=(600, d))
    train = LabeledSplit(np.full((600, C), 1.0 / C), labels, "multiclass", X)
    queries = rng.normal(size=(40, d)) * 2.0
    for fn, model in ((density.score_md, density.fit_md(train)),
                      (density.score_ddu, density.fit_ddu(train))):
        out = fn(queries, model)
        assert out.shape == (40,) and np.all(np.isfinite(out)), fn.__name__
        assert np.array_equal(out, [fn(q, model) for q in queries]), fn.__name__


def test_batch_checks_keep_their_messages():
    split, models = _fitted("multiclass")
    probs = split.probs[:4].copy()
    probs[2, 0] += 0.5
    with pytest.raises(ValueError, match="probabilities sum to"):
        baselines.score_sr(probs)
    with pytest.raises(ValueError, match="dimension mismatch"):
        density.score_md(np.zeros((3, 5)), models["md"])
    with pytest.raises(ValueError, match="at least 2 passes"):
        mc.score_pv(np.full((3, 1, 2), 0.5))
    with pytest.raises(ValueError, match="rectangular"):
        mc.score_smp(np.full((2, 3, 4, 5), 0.2))


@pytest.mark.parametrize("bad", [1.2, np.nan])
def test_mp_methods_reject_invalid_sigmoid_outputs(bad):
    probs = np.array([[0.9, 0.3], [bad, 0.5]])
    for name in ("MP", "MP-mean", "MP-max"):
        with pytest.raises(ValueError, match="outside|non-finite"):
            METHODS[name].score(probs, None)
