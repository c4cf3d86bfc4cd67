"""Scientometric indices with fractional allocation and award-based
effectiveness evaluation."""

from .corpus import (
    AuthorCorpus,
    AuthorProfile,
    AwardCatalogEntry,
    AwardGrant,
    CitationVector,
    PublicationRecord,
    Snapshot,
    avg_authors_per_publication,
    citation_vector,
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
from .indices import Measure, compute_all, compute_measure
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
    "CitationVector",
    "DegenerateInputError",
    "EvaluationSeries",
    "Measure",
    "PairCounts",
    "ParseError",
    "PublicationRecord",
    "RocCurve",
    "Snapshot",
    "SynthConfig",
    "avg_authors_per_publication",
    "award_scores",
    "citation_vector",
    "compute_all",
    "compute_measure",
    "effectiveness",
    "generate",
    "goodman_gamma",
    "kendall_tau_a",
    "kendall_tau_b",
    "measure_correlation_matrix",
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
