"""Selective prediction toolkit for exported classifier outputs.

Scores instances by uncertainty (output-probability baselines,
stochastic-pass aggregators, embedding-density scorers, and rank-space
hybrids), then measures what rejecting the most uncertain units does to
risk, accuracy, or micro-F1.
"""

from .baselines import (
    BetaModel,
    fit_beta,
    score_beta,
    score_delta,
    score_entropy,
    score_mp,
    score_sr,
)
from .core import LabeledSplit, rank_all, seeded_rng
from .density import (
    DduModel,
    MdModel,
    NuqModel,
    RdeModel,
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
from .hybrid import HybridConfig, fit_hybrid, score_hybrid_batch
from .mc import score_bald, score_pv, score_smp
from .rejection import (
    NormalizedAuc,
    RejectionCurve,
    build_curve,
    curve_auc,
    curve_value_at,
    multiclass_losses,
    normalized_auc,
)
from .synth import SynthDataset, SynthSpec, generate

__version__ = "0.1.0"

__all__ = [
    "BetaModel", "DduModel", "HybridConfig", "LabeledSplit", "MdModel",
    "NormalizedAuc", "NuqModel", "RdeModel", "RejectionCurve", "SynthDataset",
    "SynthSpec", "build_curve", "curve_auc", "curve_value_at", "fast_mcd",
    "fit_beta", "fit_ddu", "fit_hybrid", "fit_md", "fit_nuq", "fit_rde",
    "generate", "multiclass_losses", "normalized_auc", "rank_all",
    "score_bald", "score_beta", "score_ddu", "score_delta", "score_entropy",
    "score_hybrid_batch", "score_md",
    "score_mp", "score_nuq", "score_pv", "score_rde", "score_smp",
    "score_sr", "seeded_rng",
]
