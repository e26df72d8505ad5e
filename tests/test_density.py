import copy
import itertools
import json
import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg
import scipy.spatial.distance
from hypothesis import given, settings
from hypothesis import strategies as st

from abstain import density
from abstain.core import LabeledSplit, seeded_rng
from abstain.density import (
    DduModel,
    _ridge_lambda,
    fast_mcd,
    fit_ddu,
    fit_md,
    fit_nuq,
    fit_rde,
    score_ddu,
    score_md,
    score_nuq,
    score_rde,
)
from abstain.rejection import rejection_order
from abstain.synth import SynthSpec, generate
from oracles import (dense_kernel_pca, dense_top_eigenpairs, einsum_fast_mcd, kernel_pca_transform,
                     mahalanobis_sq, naive_nuq, ridged_inverse)

# 2-class symmetric fixture used by several MD/DDU checks
CLASS0 = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
CLASS1 = CLASS0 + np.array([4.0, 0.0])


def two_class_split(repeat=1):
    X = np.vstack([CLASS0, CLASS1])
    labels = np.array([0] * 4 + [1] * 4)
    if repeat > 1:
        X = np.tile(X, (repeat, 1))
        labels = np.tile(labels, repeat)
    probs = np.full((len(labels), 2), 0.5)
    return LabeledSplit(probs, labels, "multiclass", X)


def random_split(n, C, d, seed, spread=4.0):
    rng = seeded_rng(seed)
    labels = np.arange(n) % C
    centers = rng.normal(size=(C, d)) * spread
    X = centers[labels] + rng.normal(size=(n, d))
    return LabeledSplit(np.full((n, C), 1.0 / C), labels, "multiclass", X)


# ------------------------------------------------------------------ MD


def test_md_centroids_and_pooled_covariance():
    model = fit_md(two_class_split())
    assert np.allclose(model.centroids, [[0.0, 0.0], [4.0, 0.0]], atol=1e-15)
    # per-class scatter diag(2,2); pooled over n-C=6
    assert np.allclose(model.covariance, np.diag([2 / 3, 2 / 3]), atol=1e-15)


def test_md_precision_matches_direct_inverse():
    model = fit_md(two_class_split())
    lam = 1e-6 * np.trace(model.covariance) / 2
    direct = np.linalg.inv(model.covariance + lam * np.eye(2))
    assert np.allclose(model.whitener.T @ model.whitener, direct, atol=1e-9)


def test_md_score_at_centroid_is_zero():
    model = fit_md(two_class_split())
    assert score_md(np.array([0.0, 0.0]), model) == 0.0
    assert score_md(np.array([4.0, 0.0]), model) == 0.0


def test_md_equidistant_point_matches_quadform_oracle():
    model = fit_md(two_class_split())
    e = np.array([2.0, 0.0])
    # naive per-class quadratic forms
    precision = model.whitener.T @ model.whitener
    dists = [
        float((e - c) @ precision @ (e - c)) for c in model.centroids
    ]
    assert dists[0] == pytest.approx(dists[1], abs=1e-12)
    assert score_md(e, model) == pytest.approx(min(dists), abs=1e-12)


def test_md_duplication_changes_covariance_by_denominator_only():
    # duplicating every point doubles the scatter but moves the pooled
    # denominator from n-C to 2n-C, so the covariance picks up exactly
    # that ratio; centroids stay identical
    base = fit_md(two_class_split())
    doubled = fit_md(two_class_split(repeat=2))
    assert np.array_equal(base.centroids, doubled.centroids)
    n, C = 8, 2
    factor = (2 * (n - C)) / (2 * n - C)
    assert np.allclose(doubled.covariance, base.covariance * factor, atol=1e-12)


def test_md_absent_class_error():
    probs = np.full((4, 3), 1 / 3)
    split = LabeledSplit(probs, [0, 0, 1, 1], "multiclass",
                         np.arange(8.0).reshape(4, 2))
    with pytest.raises(ValueError, match="class 2 absent"):
        fit_md(split)


def test_md_short_class_error():
    probs = np.full((3, 2), 0.5)
    split = LabeledSplit(probs, [0, 0, 1], "multiclass",
                         np.arange(6.0).reshape(3, 2))
    with pytest.raises(ValueError, match="class 1 has 1"):
        fit_md(split)


def test_md_dimension_mismatch():
    model = fit_md(two_class_split())
    with pytest.raises(ValueError, match="dimension mismatch"):
        score_md(np.zeros(3), model)


def test_md_multilabel_fits_single_shared_component():
    rng = seeded_rng(4)
    X = rng.normal(size=(12, 2))
    bits = rng.integers(0, 2, size=(12, 3))
    split = LabeledSplit(np.full((12, 3), 0.5), bits, "multilabel", X)
    model = fit_md(split)
    assert model.centroids.shape == (1, 2)
    assert np.allclose(model.centroids[0], X.mean(axis=0))
    assert np.allclose(model.covariance, np.cov(X, rowvar=False, ddof=1))


def test_md_similarity_transform_invariance():
    split = random_split(120, 3, 5, seed=9)
    rng = seeded_rng(11)
    Q = np.linalg.qr(rng.normal(size=(5, 5)))[0] * 1.7
    b = rng.normal(size=5)
    mapped = LabeledSplit(split.probs, split.labels, "multiclass",
                          split.embeddings @ Q.T + b)
    m1, m2 = fit_md(split), fit_md(mapped)
    for _ in range(20):
        e = rng.normal(size=5) * 3
        s1 = score_md(e, m1)
        s2 = score_md(e @ Q.T + b, m2)
        assert s2 == pytest.approx(s1, rel=1e-9)


@given(st.integers(0, 1000))
@settings(max_examples=20, deadline=None)
def test_md_scores_nonnegative(seed):
    split = random_split(30, 3, 2, seed=seed)
    model = fit_md(split)
    q = seeded_rng(seed + 1).normal(size=2) * 10
    assert score_md(q, model) >= 0.0


@pytest.mark.parametrize("d", [8, 256, 768])
def test_whitened_distances_and_log_dets_match_ridged_inverse(d):
    # whitened squared norms and Cholesky log-dets against an LU inverse
    # and slogdet, up to the paper's embedding width
    split = random_split(3000, 3, d, seed=31)
    X, labels = split.embeddings, split.labels
    queries = np.vstack([X[:100], seeded_rng(32).normal(size=(100, d)) * 4])
    md, ddu = fit_md(split), fit_ddu(split)
    covs = np.array([np.cov(X[labels == c], rowvar=False, ddof=1) for c in range(3)])
    for model, W, cov in ((md, md.whitener, md.covariance), (ddu, ddu.whiteners, covs)):
        got = density._sq_dists(queries, model.centroids, W)
        want = mahalanobis_sq(queries, model.centroids, cov)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    want_log_dets = [ridged_inverse(cov)[1] for cov in covs]
    np.testing.assert_allclose(ddu.log_dets, want_log_dets, rtol=0, atol=1e-11)


def test_ridge_lambda_floor():
    assert _ridge_lambda(np.zeros((3, 3))) == 1e-12


# ------------------------------------------------------------------ MCD


def exhaustive_mcd_det(X, h):
    """Minimum determinant over every size-h subset, brute force."""
    best = math.inf
    for idx in itertools.combinations(range(X.shape[0]), h):
        sub = X[list(idx)]
        d = np.linalg.det(np.cov(sub, rowvar=False, ddof=1))
        best = min(best, d)
    return best


@pytest.mark.parametrize("seed", range(5))
def test_fast_mcd_matches_exhaustive_oracle(seed):
    rng = seeded_rng(seed)
    X = rng.normal(size=(12, 2)) * 2.0
    mu, cov = fast_mcd(X, seeded_rng(100 + seed))
    h = max(math.ceil(0.75 * 12), math.ceil((12 + 2 + 1) / 2))
    target = exhaustive_mcd_det(X, h)
    got = np.linalg.det(cov)
    assert got <= 1.05 * target + 1e-12


def test_fast_mcd_resists_planted_outliers():
    rng = seeded_rng(1)
    clean = rng.normal(size=(20, 2)) * 0.3
    X = np.vstack([clean, [[25.0, 25.0], [-30.0, 40.0]]])
    mu, cov = fast_mcd(X, seeded_rng(2))
    assert np.linalg.norm(mu - clean.mean(axis=0)) < 0.1
    assert np.linalg.norm(X.mean(axis=0) - clean.mean(axis=0)) > 0.5


def test_fast_mcd_identical_points_degenerate_warning():
    X = np.ones((10, 2))
    with pytest.warns(RuntimeWarning, match="degenerate MCD covariance"):
        mu, cov = fast_mcd(X, seeded_rng(0))
    assert np.allclose(mu, [1.0, 1.0])


def test_fast_mcd_record_order_invariant():
    rng = seeded_rng(3)
    X = rng.normal(size=(15, 2))
    perm = seeded_rng(4).permutation(15)
    mu1, cov1 = fast_mcd(X, seeded_rng(9))
    mu2, cov2 = fast_mcd(X[perm], seeded_rng(9))
    assert np.array_equal(mu1, mu2)
    assert np.array_equal(cov1, cov2)


@pytest.mark.parametrize("k", [8, 64])
def test_fast_mcd_blas_csteps_match_einsum_oracle(k):
    Z = seeded_rng(k).normal(size=(300, k)) * seeded_rng(k + 1).uniform(0.5, 3.0, k)
    mu, cov = fast_mcd(Z, seeded_rng(7))
    mu_ref, cov_ref = einsum_fast_mcd(Z, rng=seeded_rng(7))
    assert np.array_equal(mu, mu_ref) and np.array_equal(cov, cov_ref)


@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
def test_fast_mcd_matches_einsum_oracle_in_rde_component_space(monkeypatch):
    calls = []

    def checked(Z, rng):
        ref = einsum_fast_mcd(Z, rng=copy.deepcopy(rng))
        got = fast_mcd(Z, rng)
        calls.append(Z.shape)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        return got

    monkeypatch.setattr(density, "fast_mcd", checked)
    fit_rde(random_split(300, 3, 8, seed=21))
    assert calls == [(100, 64)] * 3


# ------------------------------------------------------------------ RDE


def test_rde_identical_class_scores_zero_at_its_point():
    rng = seeded_rng(2)
    X = np.vstack([np.zeros((10, 2)), rng.normal(size=(10, 2)) + 5.0])
    labels = np.array([0] * 10 + [1] * 10)
    split = LabeledSplit(np.full((20, 2), 0.5), labels, "multiclass", X)
    model = fit_rde(split)
    assert score_rde(np.zeros(2), model) == pytest.approx(0.0, abs=1e-6)


def test_rde_far_point_beats_train_quantile():
    split = random_split(80, 2, 3, seed=6)
    model = fit_rde(split)
    train_scores = np.array([score_rde(e, model) for e in split.embeddings])
    far = score_rde(np.full(3, 60.0), model)
    assert far > np.quantile(train_scores, 0.99)


def test_rde_shuffle_invariance_is_exact():
    split = random_split(60, 3, 4, seed=12)
    perm = seeded_rng(13).permutation(60)
    shuffled = LabeledSplit(split.probs[perm], split.labels[perm], "multiclass",
                            split.embeddings[perm])
    m1 = fit_rde(split)
    m2 = fit_rde(shuffled)
    queries = seeded_rng(14).normal(size=(10, 4)) * 4
    s1 = np.array([score_rde(q, m1) for q in queries])
    s2 = np.array([score_rde(q, m2) for q in queries])
    assert np.array_equal(s1, s2)


@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
def test_rde_spectrum_collapse_reduces_components():
    rng = seeded_rng(4)
    locs0 = rng.normal(size=(3, 2))
    locs1 = rng.normal(size=(3, 2)) + 6
    X = np.vstack([locs0[np.arange(10) % 3], locs1[np.arange(10) % 3]])
    labels = np.array([0] * 10 + [1] * 10)
    split = LabeledSplit(np.full((20, 2), 0.5), labels, "multiclass", X)
    with pytest.warns(RuntimeWarning, match="kernel spectrum collapsed"):
        model = fit_rde(split)
    assert model.centroids.shape[1] < 8


def test_rde_component_count_validation():
    # k = min(64, smallest class count - 2)
    def split(smallest):
        labels = np.array([0] * 20 + [1] * smallest)
        X = seeded_rng(smallest).normal(size=(labels.size, 2)) + 4.0 * labels[:, None]
        return LabeledSplit(np.full((labels.size, 2), 0.5), labels, "multiclass", X)

    with pytest.raises(ValueError, match="at least one kernel component"):
        fit_rde(split(2))
    model = fit_rde(split(10))
    assert model.centroids.shape[1] == 8
    assert model.basis.dual_vectors.shape[1] == 8


def test_rde_dimension_mismatch():
    model = fit_rde(random_split(30, 2, 2, seed=1))
    with pytest.raises(ValueError, match="dimension mismatch"):
        score_rde(np.zeros(5), model)


@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
@pytest.mark.parametrize("d", [8, 256, 768])
def test_rde_lanczos_matches_dense_eigh(monkeypatch, d):
    split = random_split(300, 3, d, seed=21)
    solves = []
    real = scipy.sparse.linalg.eigsh

    def spy(A, k, **kw):
        # the matrix the solver sees: the kernel operator applied to I
        solves.append((A @ np.eye(A.shape[0]), real(A, k, **kw)))
        return solves[-1][1]

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", spy)
    fit_rde(split)
    ((A, (evals, evecs)),) = solves
    ref_vals, ref_vecs = dense_top_eigenpairs(A, evals.size)
    order = np.argsort(evals)
    assert evals.size == 64
    # both solvers are backward stable, so they agree to a fraction of the
    # largest eigenvalue; on the smallest kept ones (3e-5 of the largest)
    # LAPACK's own error is about 3e-12 of the eigenvalue
    assert np.abs(evals[order] - ref_vals).max() <= 1e-12 * ref_vals.max()
    cos = np.abs(np.einsum("ik,ik->k", evecs[:, order], ref_vecs))
    assert np.all(cos >= 1 - 1e-12)


@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
def test_kernel_pca_transform_matches_out_of_place_expression():
    split = random_split(300, 3, 8, seed=21)
    basis = fit_rde(split).basis
    queries = np.vstack([split.embeddings[:40], seeded_rng(24).normal(size=(60, 8)) * 4])
    for E in (queries, queries[0]):
        got, want = basis.transform(E), kernel_pca_transform(basis, E)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
def test_rde_scores_match_model_from_dense_pairs(monkeypatch):
    split = random_split(300, 3, 8, seed=21)
    queries = np.vstack([split.embeddings, seeded_rng(22).normal(size=(50, 8)) * 4])
    lanczos = score_rde(queries, fit_rde(split))
    monkeypatch.setattr("scipy.sparse.linalg.eigsh", dense_top_eigenpairs)
    dense = score_rde(queries, fit_rde(split))
    # the per-class whiteners in 64 components amplify the solvers'
    # 1e-16 eigenvector differences to a few 1e-10
    np.testing.assert_allclose(lanczos, dense, rtol=1e-9, atol=0)


@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
def test_rde_model_ignores_solver_eigenvector_signs(monkeypatch):
    # fast_mcd sorts rows by component 0 first, so a flipped sign would
    # reorder its rows and change which subsets the restarts draw
    split = random_split(240, 3, 8, seed=23)
    model = fit_rde(split)
    real = scipy.sparse.linalg.eigsh

    def negated(A, k, **kw):
        evals, evecs = real(A, k, **kw)
        return evals, -evecs

    monkeypatch.setattr("scipy.sparse.linalg.eigsh", negated)
    assert pickle.dumps(fit_rde(split)) == pickle.dumps(model)


# fits RDE on n train rows in a fresh interpreter and prints the growth
# of its peak resident memory across that one fit, in bytes.  The peak is
# read as VmHWM, the high-water mark of this process image: ru_maxrss
# outlives exec, so in a child it starts at the peak of the test process.
RSS_PROBE = """
import json, sys, warnings
import numpy as np
from abstain.core import LabeledSplit, seeded_rng
from abstain.density import fit_rde

def peak_rss():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("VmHWM:"))

def split(n, seed):
    rng = seeded_rng(seed)
    labels = np.arange(n) % 4
    X = (rng.normal(size=(4, 8)) * 4.0)[labels] + rng.normal(size=(n, 8))
    return LabeledSplit(np.full((n, 4), 0.25), labels, "multiclass", X)

warnings.simplefilter("ignore")
n, median = json.loads(sys.argv[1])
fit_rde(split(200, 1))                    # load the solvers before the mark
train = split(n, 3)
train.median_pairwise_distance = median   # its pdist vector would set the mark
before = peak_rss()
fit_rde(train)
print(peak_rss() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_rde_fit_commits_one_triangle_of_the_kernel():
    # the kernel's lower triangle is n^2 * 4 bytes, and it commits about a
    # page more per row: the growth measures 0.77 * n^2 * 8 bytes, and 1.23
    # with the full kernel resident
    n = 3000
    median = random_split(n, 4, 8, seed=3).median_pairwise_distance
    src = str(Path(density.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = subprocess.run([sys.executable, "-c", RSS_PROBE, json.dumps([n, median])],
                           env=env, capture_output=True, text=True, check=True)
    growth = int(probe.stdout.split()[-1])
    assert growth < 0.875 * n * n * 8


@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
def test_rde_fit_never_reads_the_upper_triangle(monkeypatch):
    split = random_split(240, 3, 8, seed=23)
    model = fit_rde(split)
    real = density._kernel_buffer

    def poisoned(n):
        K = real(n)
        K[np.triu_indices(n, 1)] = np.nan
        return K

    monkeypatch.setattr(density, "_kernel_buffer", poisoned)
    assert pickle.dumps(fit_rde(split)) == pickle.dumps(model)


@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
@pytest.mark.parametrize("d", [8, 256, 768])
def test_rde_scores_match_dense_kernel_oracle(monkeypatch, d):
    data = generate(SynthSpec(dim=d))   # the shipped default spec at each width
    train, queries = data.splits["train"], data.splits["test"].embeddings
    model = fit_rde(train)
    monkeypatch.setattr(density, "_kernel_pca", dense_kernel_pca)
    dense = fit_rde(train)
    assert np.array_equal(model.basis.col_means, dense.basis.col_means)
    got, want = score_rde(queries, model), score_rde(queries, dense)
    # the grand mean's and the projections' summation orders differ
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
    assert np.array_equal(rejection_order(got), rejection_order(want))


@pytest.mark.filterwarnings("ignore:degenerate MCD covariance")
def test_rde_fit_ignores_kernel_block_rows(monkeypatch):
    split = random_split(240, 3, 8, seed=23)
    model = fit_rde(split)
    for rows in (1, 7, 240):
        monkeypatch.setattr(density, "KERNEL_BLOCK_ROWS", rows)
        assert pickle.dumps(fit_rde(split)) == pickle.dumps(model)


# ------------------------------------------------------------------ DDU


def test_ddu_standard_normal_closed_form():
    # single component, mean 0, identity covariance, query at the mean:
    # density 1/(2 pi), score is its negative log
    model = DduModel(np.zeros((1, 2)), np.eye(2)[None], np.zeros(1), np.zeros(1))
    assert score_ddu(np.zeros(2), model) == pytest.approx(np.log(2 * np.pi), abs=1e-12)


def test_ddu_priors_are_label_frequencies():
    split = random_split(40, 2, 2, seed=3)  # alternating labels, 20/20
    model = fit_ddu(split)
    assert np.allclose(np.exp(model.log_priors), [0.5, 0.5], atol=1e-12)
    rng = seeded_rng(8)
    X = rng.normal(size=(40, 2))
    labels = np.array([0] * 32 + [1] * 8)
    X[labels == 1] += 5
    split2 = LabeledSplit(np.full((40, 2), 0.5), labels, "multiclass", X)
    assert np.allclose(np.exp(fit_ddu(split2).log_priors), [0.8, 0.2], atol=1e-12)


def test_ddu_class_covariance_matches_hand_value():
    model = fit_ddu(two_class_split())
    cov = np.diag([2 / 3, 2 / 3])
    lam = 1e-6 * np.trace(cov) / 2
    W = model.whiteners[0]
    assert np.allclose(W.T @ W, np.linalg.inv(cov + lam * np.eye(2)), atol=1e-9)


def test_ddu_two_identical_classes_collapse_to_one():
    rng = seeded_rng(2)
    pts = rng.normal(size=(12, 3))
    X = np.vstack([pts, pts])
    labels = np.array([0] * 12 + [1] * 12)
    split = LabeledSplit(np.full((24, 2), 0.5), labels, "multiclass", X)
    mixture = fit_ddu(split)
    cov = np.cov(pts, rowvar=False, ddof=1)
    lam = _ridge_lambda(cov)
    reg = cov + lam * np.eye(3)
    single = DduModel(pts.mean(axis=0)[None], np.linalg.inv(np.linalg.cholesky(reg))[None],
                      np.array([np.linalg.slogdet(reg)[1]]), np.array([0.0]))
    for _ in range(10):
        q = rng.normal(size=3) * 2
        assert score_ddu(q, mixture) == pytest.approx(score_ddu(q, single), abs=1e-12)


def test_ddu_logsumexp_matches_naive_density_sum():
    split = random_split(60, 3, 2, seed=7)
    model = fit_ddu(split)
    rng = seeded_rng(9)
    for _ in range(20):
        q = rng.normal(size=2) * 3
        dens = 0.0
        for c in range(3):
            diff = q - model.centroids[c]
            quad = diff @ model.whiteners[c].T @ model.whiteners[c] @ diff
            # naive: prior * (2 pi)^(-d/2) * det^(-1/2) * exp(-quad/2)
            dens += np.exp(model.log_priors[c]) * (2 * np.pi) ** -1 \
                * np.exp(-0.5 * model.log_dets[c]) * np.exp(-0.5 * quad)
        if dens > 1e-290:
            assert score_ddu(q, model) == pytest.approx(-np.log(dens), abs=1e-9)


def test_ddu_score_grows_with_distance():
    model = fit_ddu(two_class_split())
    scores = [score_ddu(np.array([x, 0.0]), model) for x in (6.0, 10.0, 20.0, 40.0)]
    assert all(a < b for a, b in zip(scores, scores[1:]))
    assert np.isfinite(scores[0])


# ------------------------------------------------------------------ NUQ


def test_nuq_auto_bandwidth_is_median_over_sqrt2():
    X = np.array([[0.0], [1.0], [3.0], [7.0]])
    # pairwise distances 1,3,7,2,6,4 -> median 3.5
    sp = LabeledSplit(np.full((4, 2), 0.5), [0, 1, 0, 1], "multiclass", X)
    m = fit_nuq(sp)
    assert m.bandwidth == pytest.approx(3.5 / np.sqrt(2), abs=1e-15)


def _split_of(X):
    return LabeledSplit(np.full((len(X), 2), 0.5), np.arange(len(X)) % 2, "multiclass", X)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 42, 44])
def test_median_pairwise_distance_is_np_median_bitwise(n):
    # n(n-1)/2 pairs: an odd count at n = 2, 3, 42, an even one at n = 4, 5, 44
    X = seeded_rng(n).normal(size=(n, 3)) * 2.5
    want = np.median(scipy.spatial.distance.pdist(X))
    assert _split_of(X).median_pairwise_distance == want
    perm = seeded_rng(n + 1).permutation(n)
    assert _split_of(X[perm]).median_pairwise_distance == want
    assert _split_of(X[np.lexsort(X.T[::-1])]).median_pairwise_distance == want


def test_median_pairwise_distance_with_ties_and_below_two_rows():
    ties = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])   # 10 pairs
    assert _split_of(ties).median_pairwise_distance == np.median(scipy.spatial.distance.pdist(ties))
    grid = np.repeat(np.arange(6.0), 3)[:, None]   # 153 pairs, many equal
    assert _split_of(grid).median_pairwise_distance == np.median(scipy.spatial.distance.pdist(grid))
    assert _split_of(np.ones((1, 2))).median_pairwise_distance == 0.0


def test_nuq_single_label_gives_zero():
    rng = seeded_rng(1)
    X = rng.normal(size=(8, 2))
    bits = np.ones((8, 1), dtype=int)
    # multilabel path with a constant bit: no label variance anywhere
    sp = LabeledSplit(np.full((8, 2), 0.9), np.hstack([bits, bits]), "multilabel",
                      X)
    m = replace(fit_nuq(sp), bandwidth=1.0)
    assert score_nuq(X[0], m) == 0.0


def _kernel_constant_fixture(name):
    """Six alternating-label rows at d=2 fit at bandwidth 1.0 ("d2-h1"), or
    at d=1 fit at bandwidth 2.0 ("d1-h2"): NUQ's kernel constant
    h**d / (2 sqrt(pi)) is 0.28209479177387814 or 0.5641895835477563."""
    rng = seeded_rng(0)
    X2, X1 = rng.normal(size=(6, 2)), rng.normal(size=(6, 1))
    X, h = (X2, 1.0) if name == "d2-h1" else (X1, 2.0)
    labels = np.array([0, 1, 0, 1, 0, 1])
    sp = LabeledSplit(np.full((6, 2), 0.5), labels, "multiclass", X)
    return X, labels, 2, replace(fit_nuq(sp), bandwidth=h)


@pytest.mark.parametrize("seed", [*range(8), "d2-h1", "d1-h2"])
def test_nuq_matches_naive_double_loop(seed):
    if isinstance(seed, str):
        X, labels, C, model = _kernel_constant_fixture(seed)
        rng, d, tolerance = seeded_rng(1), X.shape[1], dict(rel=1e-15, abs=0.0)
    else:
        rng = seeded_rng(seed)
        n = int(rng.integers(5, 51))
        d = int(rng.integers(1, 4))
        C = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d)) * 3
        labels = rng.integers(0, C, size=n)
        labels[:C] = np.arange(C)
        sp = LabeledSplit(np.full((n, C), 1.0 / C), labels, "multiclass", X)
        model, tolerance = fit_nuq(sp), dict(abs=1e-10)
    for _ in range(6):
        e = rng.normal(size=d) * 3
        got = score_nuq(e, model)
        want = naive_nuq(e, X, labels, C, model.bandwidth)
        if math.isinf(want):
            assert math.isinf(got)
        else:
            assert got == pytest.approx(want, **tolerance)


def test_nuq_duplication_scales_by_sample_size():
    rng = seeded_rng(4)
    X = rng.normal(size=(12, 2))
    labels = rng.integers(0, 2, 12)
    labels[:2] = [0, 1]
    sp = LabeledSplit(np.full((12, 2), 0.5), labels, "multiclass", X)
    m1 = replace(fit_nuq(sp), bandwidth=1.3)
    sp2 = LabeledSplit(np.full((24, 2), 0.5), np.tile(labels, 2), "multiclass",
                       np.tile(X, (2, 1)))
    m2 = replace(fit_nuq(sp2), bandwidth=1.3)
    q = rng.normal(size=2) * 0.5
    # tau^2 carries a 1/|D| factor, so the score drops by sqrt(1/2)
    assert score_nuq(q, m2) / score_nuq(q, m1) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_nuq_underflow_returns_inf_with_warning():
    rng = seeded_rng(5)
    X = rng.normal(size=(10, 2))
    sp = LabeledSplit(np.full((10, 2), 0.5), rng.integers(0, 2, 10), "multiclass",
                      X)
    m = replace(fit_nuq(sp), bandwidth=0.05)
    with pytest.warns(RuntimeWarning, match="density underflow"):
        out = score_nuq(np.array([500.0, -500.0]), m)
    assert out == float("inf")


def test_nuq_bandwidth_validation():
    # the bandwidth is the median pairwise distance / sqrt(2), so it is
    # positive unless that median is zero, which fit_nuq refuses: all rows
    # equal, or 4 equal rows of 5 (6 of the 10 distances are zero)
    assert fit_nuq(random_split(10, 2, 2, seed=0)).bandwidth > 0.0
    for X in (np.ones((4, 2)), np.vstack([np.ones((4, 2)), [[2.0, 2.0]]])):
        same = LabeledSplit(np.full((len(X), 2), 0.5), np.arange(len(X)) % 2, "multiclass", X)
        with pytest.raises(ValueError, match="median pairwise distance is zero"):
            fit_nuq(same)
