import os

import numpy as np
import pytest

from abstain.core import LabeledSplit, seeded_rng


def make_multiclass_split(n=40, C=3, d=2, seed=0, with_mc=False, T=4):
    """Small well-separated clusters, every class populated."""
    rng = seeded_rng(seed)
    labels = np.arange(n) % C
    centers = np.eye(C, d) * 6.0 if d >= C else rng.normal(size=(C, d)) * 6.0
    X = centers[labels] + rng.normal(size=(n, d))
    logits = -((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    z = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = z / z.sum(axis=1, keepdims=True)
    mc = None
    if with_mc:
        noise = rng.normal(size=(n, T, C)) * 0.1
        raw = np.exp(logits[:, None, :] + noise)
        mc = raw / raw.sum(axis=2, keepdims=True)
    return LabeledSplit(probs, labels, "multiclass", X, mc)


@pytest.fixture
def small_split():
    return make_multiclass_split()


@pytest.fixture
def rng():
    return seeded_rng(0)


@pytest.fixture()
def forks(monkeypatch):
    """The pids of the children forked while the test runs; the test is
    skipped where the score-table writer cannot fork, on fewer than two CPUs."""
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("the score-table writer forks only on two CPUs")
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids
