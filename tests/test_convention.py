"""One contract across the whole package: larger score, less trust.

Each scorer gets a pair of inputs where the right answer is beyond
argument (a crisp in-distribution case against an ambiguous or foreign
one) and must rank the shaky case strictly higher.
"""
import numpy as np
import pytest

from abstain import baselines, density, hybrid, mc
from abstain.core import LabeledSplit

CRISP = np.array([0.97, 0.02, 0.01])
FLAT = np.array([0.34, 0.33, 0.33])


@pytest.fixture(scope="module")
def train():
    rng = np.random.default_rng(0)
    centers = np.array([[6.0, 0.0], [-6.0, 0.0], [0.0, 6.0]])
    X = np.vstack([c + 0.5 * rng.standard_normal((30, 2)) for c in centers])
    y = np.repeat([0, 1, 2], 30)
    d2 = ((X[:, None, :] - centers[None]) ** 2).sum(axis=2)
    logits = -d2
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return LabeledSplit(probs, y, "multiclass", X)


HOME = np.array([6.0, 0.0])      # first class centroid
FOREIGN = np.array([30.0, 30.0])  # nowhere near any train mass


def test_probability_scorers(train):
    for fn in (baselines.score_sr, baselines.score_entropy, baselines.score_delta):
        assert fn(FLAT) > fn(CRISP), fn.__name__
    model = baselines.BetaModel(
        alpha_correct=8.0, gamma_correct=2.0, alpha_incorrect=2.0,
        gamma_incorrect=8.0, prior_correct=0.7, prior_incorrect=0.3,
    )
    assert baselines.score_beta(FLAT, model) > baselines.score_beta(CRISP, model)


def test_labelwise_ambiguity():
    shaky, crisp = baselines.score_mp(np.array([[0.5, 0.9]]))[0]
    assert shaky > crisp


def test_stochastic_pass_scorers():
    steady = np.tile(CRISP, (6, 1))
    rng = np.random.default_rng(1)
    jitter = rng.dirichlet(np.ones(3), size=6)
    for fn in (mc.score_smp, mc.score_pv, mc.score_bald):
        assert fn(jitter) > fn(steady), fn.__name__


@pytest.mark.filterwarnings("ignore:kernel spectrum collapsed")
@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
def test_density_scorers(train):
    pairs = [
        (density.score_md, density.fit_md(train)),
        (density.score_rde, density.fit_rde(train)),
        (density.score_ddu, density.fit_ddu(train)),
        (density.score_nuq, density.fit_nuq(train)),
    ]
    for fn, model in pairs:
        assert fn(FOREIGN, model) > fn(HOME, model), fn.__name__


def test_hybrid_scorers():
    table_a = np.linspace(0.1, 0.9, 40)
    table_e = np.linspace(1.0, 9.0, 40)
    for variant in ("huq", "huq2"):
        config = hybrid.HybridConfig(
            variant=variant, alpha=0.5, delta_min=6.0, delta_max=0.5, c=2,
            n_validation=40, table_ambiguity=table_a,
            table_ambiguity_id=table_a[:30], table_novelty=table_e,
        )
        calm, shaky = hybrid.score_hybrid_batch([0.15, 0.85], [2.0, 8.5], config)
        assert shaky > calm, variant
