"""Scientometric indices with fractional allocation and award-based
effectiveness evaluation."""

from .corpus import (
    AuthorCorpus,
    AuthorProfile,
    AwardCatalogEntry,
    AwardGrant,
    PublicationRecord,
    Snapshot,
    snapshot_at,
)
from .errors import DegenerateInputError, ParseError
from .evaluation import (
    AuthorFilter,
    AwardScheme,
    EvaluationSeries,
    award_scores,
    effectiveness,
    measure_correlation_matrix,
    predictive_power,
    series,
    series_grid,
)
from .indices import Measure, compute_all, compute_measure, measure_table
from .rankcorr import (
    PairCounts,
    RocCurve,
    goodman_gamma,
    kendall_tau_a,
    kendall_tau_b,
    pair_counts,
    roc_curve,
    somers_d,
    spearman_rho,
)
from .synth import SynthConfig, generate

__all__ = [
    "AuthorCorpus",
    "AuthorFilter",
    "AuthorProfile",
    "AwardCatalogEntry",
    "AwardGrant",
    "AwardScheme",
    "DegenerateInputError",
    "EvaluationSeries",
    "Measure",
    "PairCounts",
    "ParseError",
    "PublicationRecord",
    "RocCurve",
    "Snapshot",
    "SynthConfig",
    "award_scores",
    "compute_all",
    "compute_measure",
    "effectiveness",
    "generate",
    "goodman_gamma",
    "kendall_tau_a",
    "kendall_tau_b",
    "measure_correlation_matrix",
    "measure_table",
    "pair_counts",
    "predictive_power",
    "roc_curve",
    "series",
    "series_grid",
    "snapshot_at",
    "somers_d",
    "spearman_rho",
]

__version__ = "0.1.0"
