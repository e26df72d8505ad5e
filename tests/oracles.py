"""Reference implementations the tests hold the library to.

The scalar hybrid rules score one (ambiguity, novelty) pair with scalar
ranks, written from the definitions rather than from the vectorised
code.  The brute-force hybrid search builds every grid config and scores
it with ``score_hybrid_batch`` in the documented grid order.  The dense
eigensolver stands in for RDE's Lanczos top-k solve.  The csv-module
score-table reader parses row by row in Python, as ``read_scores_csv``
did before it parsed in one numpy pass.
"""
import csv

import numpy as np
from scipy.linalg import eigh

from abstain.core import rank
from abstain.hybrid import (
    ALPHA_GRID,
    C_GRID,
    DELTA_MAX_QUANTILES,
    DELTA_MIN_QUANTILES,
    HybridConfig,
    score_hybrid_batch,
)
from abstain.rejection import build_curve, curve_auc, multiclass_losses


def score_huq(u_ambiguity: float, u_novelty: float, config: HybridConfig) -> float:
    """Three-region rule on the novelty threshold, one instance."""
    base = config.case_offset
    if u_novelty <= config.delta_min:
        if u_ambiguity <= config.delta_max:
            return float(rank(u_ambiguity, config.table_ambiguity_id))
        return float(rank(u_ambiguity, config.table_ambiguity) + base)
    mixed = (1.0 - config.alpha) * rank(u_novelty, config.table_novelty) + config.alpha * rank(
        u_ambiguity, config.table_ambiguity
    )
    return float(mixed + 2 * base)


def score_huq2(u_ambiguity: float, u_novelty: float, config: HybridConfig) -> float:
    """Smooth product form over squared ranks, one instance."""
    n = config.n_validation
    r_a = rank(u_ambiguity, config.table_ambiguity)
    r_e = rank(u_novelty, config.table_novelty)
    lever_a = 1.0 - r_a / (config.c * n)
    lever_e = 1.0 - r_e / (config.c * n)
    return float(
        (1.0 - config.alpha) * r_e * r_e * lever_a + config.alpha * r_a * r_a * lever_e
    )


def brute_force_fit_hybrid(validation, u_a, u_e, variant):
    """The rc_auc grid search done the slow way: alpha outermost, then
    the novelty threshold, then the ambiguity threshold (or c); the
    first strictly better config wins."""
    u_a, u_e = np.asarray(u_a, dtype=float), np.asarray(u_e, dtype=float)
    n = len(u_a)
    losses = multiclass_losses(validation.probs, validation.labels)
    table_a, table_e = np.sort(u_a), np.sort(u_e)
    configs = []
    for alpha in ALPHA_GRID:
        if variant == "huq":
            for q_min in DELTA_MIN_QUANTILES:
                dmin = float(np.quantile(u_e, q_min, method="lower"))
                for q_max in DELTA_MAX_QUANTILES:
                    dmax = float(np.quantile(u_a, q_max, method="lower"))
                    configs.append(HybridConfig("huq", alpha, dmin, dmax, 1, n, table_a,
                                                np.sort(u_a[u_e <= dmin]), table_e))
        else:
            for c in C_GRID:
                configs.append(HybridConfig("huq2", alpha, float(table_e[-1]), float(table_a[-1]),
                                            c, n, table_a, table_a, table_e))
    best = None
    for cfg in configs:
        val = curve_auc(build_curve(score_hybrid_batch(u_a, u_e, cfg), losses, "risk"), "full")
        if best is None or val < best[0]:
            best = (val, cfg)
    return best[1]


def dense_top_eigenpairs(A, k, **_):
    """The k largest eigenpairs of a symmetric matrix from a full dense
    LAPACK solve, ascending like ``eigsh``; solver options are ignored."""
    n = A.shape[0]
    return eigh(A, subset_by_index=(n - k, n - 1))


def csv_read_scores(path):
    """(instance, label, method, score) arrays of a score table read with
    the csv module; a blank or wrong-width row is a ValueError."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["instance", "label", "method", "score"]:
            raise ValueError("missing score-table header")
        body = list(reader)
    if any(len(row) != 4 for row in body):
        raise ValueError("malformed row")
    instance, label, method, score = (list(column) for column in zip(*body)) if body else ([],) * 4
    labels = np.array([int(v) if v != "" else -1 for v in label], dtype=int)
    return (np.array([int(v) for v in instance], dtype=int), labels, np.array(method, dtype=str),
            np.array([float(v) for v in score], dtype=float))
