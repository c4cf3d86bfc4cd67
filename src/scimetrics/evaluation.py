"""Experiment layer: award rankings under several schemes, effectiveness and
predictive power over time, robustness filters, and measure-vs-measure
correlation matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rankcorr
from .corpus import AuthorCorpus, Snapshot, snapshot_at
from .errors import DegenerateInputError
from .indices import Measure, measure_columns

AWARD_MODES = ("equal_weight", "selective_weight", "binary")
FILTER_MODES = ("all", "no_hyperauthors", "bottom_half_citations", "peak_in_window")
CRITERIA = ("tau_b", "auc", "somers_d", "gamma", "rho")


@dataclass(frozen=True)
class AwardScheme:
    mode: str = "equal_weight"
    selective_threshold: int = 100
    selective_factor: float = 10.0
    subset_fraction: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.mode not in AWARD_MODES:
            raise ValueError(f"unknown award mode {self.mode!r}")
        if self.selective_threshold < 1:
            raise ValueError("selective_threshold must be >= 1")
        if self.selective_factor <= 0:
            raise ValueError("selective_factor must be > 0")
        if not 0 < self.subset_fraction <= 1:
            raise ValueError("subset_fraction must be in (0, 1]")


@dataclass(frozen=True)
class AuthorFilter:
    mode: str = "all"
    max_avg_authors: float = 100.0
    window: tuple[int, int] = (2000, 2010)

    def __post_init__(self):
        if self.mode not in FILTER_MODES:
            raise ValueError(f"unknown filter mode {self.mode!r}")
        if self.mode == "peak_in_window" and self.window[0] >= self.window[1]:
            raise ValueError("window start must precede end")


@dataclass(frozen=True)
class EvaluationSeries:
    measure: Measure
    criterion: str
    horizon: int
    years: tuple[int, ...]
    values: tuple[float | None, ...]  # None marks a degenerate (gap) year
    n_authors: tuple[int, ...]
    gap_reasons: tuple[str | None, ...]  # why each gap year is one; None if defined


def _retained_award_ids(corpus: AuthorCorpus, scheme: AwardScheme) -> set[str]:
    award_ids = sorted(corpus.catalog)
    if scheme.subset_fraction >= 1:
        return set(award_ids)
    # Subsetting removes whole award types, deterministically per seed.
    n_remove = round((1 - scheme.subset_fraction) * len(award_ids))
    rng = np.random.default_rng(scheme.rng_seed)
    removed = set(rng.choice(award_ids, size=n_remove, replace=False).tolist())
    return set(award_ids) - removed


def award_scores(
    corpus: AuthorCorpus, year: int, scheme: AwardScheme = AwardScheme()
) -> dict[str, float]:
    """Per-author award score counting grants conferred up to `year`."""
    retained = _retained_award_ids(corpus, scheme)
    scores: dict[str, float] = {}
    for author_id, author in corpus.authors.items():
        total = 0.0
        for grant in author.awards:
            if grant.year_conferred > year or grant.award_id not in retained:
                continue
            if (
                scheme.mode == "selective_weight"
                and corpus.catalog[grant.award_id].total_laureates
                <= scheme.selective_threshold
            ):
                total += scheme.selective_factor
            else:
                total += 1.0
        if scheme.mode == "binary":
            total = 1.0 if total > 0 else 0.0
        scores[author_id] = total
    return scores


def apply_filter(
    corpus: AuthorCorpus, snapshot: Snapshot, author_filter: AuthorFilter
) -> list[str]:
    """Author subset (sorted by id) surviving a robustness filter."""
    ids = sorted(snapshot.corpus.authors)
    if author_filter.mode == "all":
        kept = ids
    elif author_filter.mode == "no_hyperauthors":
        # Integer sums in float64, exact; the mean rounds as int / int does.
        row, pub = snapshot.in_view(ids)
        papers = np.bincount(row, minlength=len(ids))
        authors = np.bincount(
            row, weights=snapshot.corpus.arrays.author_count[pub], minlength=len(ids)
        )
        mean = np.where(papers > 0, authors / np.maximum(papers, 1), 0.0)
        kept = [
            a for a, v in zip(ids, mean.tolist()) if v <= author_filter.max_avg_authors
        ]
    elif author_filter.mode == "bottom_half_citations":
        row, pub = snapshot.in_view(ids)
        totals = np.bincount(row, weights=snapshot.citations[pub], minlength=len(ids))
        ranked = np.argsort(totals, kind="stable")  # ties by id, as ids are sorted
        kept = [ids[i] for i in np.sort(ranked[: len(ids) // 2])]
    else:  # peak_in_window, judged on the full corpus history
        start, end = author_filter.window
        kept = []
        for a in ids:
            counts: dict[int, int] = {}
            for pub in corpus.authors[a].publications:
                counts[pub.effective_year] = counts.get(pub.effective_year, 0) + 1
            if not counts:
                continue
            peak = max(counts.values())
            peak_year = min(y for y, c in counts.items() if c == peak)
            if start <= peak_year < end:
                kept.append(a)
    if not kept:
        raise DegenerateInputError(
            f"filter {author_filter.mode!r} leaves no authors at "
            f"{snapshot.observation_year}"
        )
    return kept


def apply_criterion(criterion: str, measure_values, award_values) -> float:
    """Dispatch a named criterion over aligned value sequences."""
    if criterion == "tau_b":
        return rankcorr.kendall_tau_b(measure_values, award_values)
    if criterion == "auc":
        return rankcorr.roc_curve(measure_values, award_values).auc
    if criterion == "somers_d":
        return rankcorr.somers_d(measure_values, award_values)
    if criterion == "gamma":
        return rankcorr.goodman_gamma(measure_values, award_values)
    if criterion == "rho":
        return rankcorr.spearman_rho(measure_values, award_values)
    raise ValueError(f"unknown criterion {criterion!r}")


def _year_columns(
    corpus: AuthorCorpus,
    year: int,
    award_year: int,
    scheme: AwardScheme,
    author_filter: AuthorFilter,
) -> tuple[dict[Measure, list[float]], list[float]]:
    """Measure columns at `year` and award scores by `award_year`, both
    aligned with the authors the filter keeps."""
    snapshot = snapshot_at(corpus, year)
    ids = apply_filter(corpus, snapshot, author_filter)
    scores = award_scores(corpus, award_year, scheme)
    return measure_columns(snapshot, ids), [scores[a] for a in ids]


def _cell(
    measure: Measure,
    criterion: str,
    year: int,
    columns: dict[Measure, list[float]],
    awards: list[float],
) -> float:
    """One criterion value; a degenerate one names year, measure, criterion."""
    if len(awards) < 2:
        raise DegenerateInputError(
            f"fewer than 2 authors at year {year} after filtering"
        )
    try:
        return apply_criterion(criterion, columns[measure], awards)
    except DegenerateInputError as exc:
        raise DegenerateInputError(
            f"{criterion} degenerate at year {year} "
            f"for measure {measure.value}: {exc}"
        ) from exc


def effectiveness(
    corpus: AuthorCorpus,
    measure: Measure,
    criterion: str,
    year: int,
    scheme: AwardScheme = AwardScheme(),
    author_filter: AuthorFilter = AuthorFilter(),
) -> float:
    """Correlation of a measure's ranking with same-year award scores."""
    return predictive_power(corpus, measure, criterion, year, 0, scheme, author_filter)


def predictive_power(
    corpus: AuthorCorpus,
    measure: Measure,
    criterion: str,
    year: int,
    horizon: int,
    scheme: AwardScheme = AwardScheme(),
    author_filter: AuthorFilter = AuthorFilter(),
) -> float:
    """Correlation of a measure at year Y with awards held by Y + horizon."""
    columns, awards = _year_columns(corpus, year, year + horizon, scheme, author_filter)
    return _cell(measure, criterion, year, columns, awards)


def series_grid(
    corpus: AuthorCorpus,
    measures: list[Measure],
    criteria: list[str],
    year_range: tuple[int, int],
    horizon: int = 0,
    scheme: AwardScheme = AwardScheme(),
    author_filter: AuthorFilter = AuthorFilter(),
) -> dict[tuple[Measure, str], EvaluationSeries]:
    """Per-year evaluation of every (measure, criterion) over [start, end].

    Each year's snapshot, filter, award scores and measure columns are built
    once and shared by all cells; degenerate cells become gaps.
    """
    start, end = year_range
    if start > end:
        raise ValueError("empty year range")
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
    years = tuple(range(start, end + 1))
    values: dict[tuple[Measure, str], list[float | None]] = {
        (m, c): [] for m in measures for c in criteria
    }
    reasons: dict[tuple[Measure, str], list[str | None]] = {k: [] for k in values}
    counts = []
    for year in years:
        nobody = None
        try:
            columns, awards = _year_columns(
                corpus, year, year + horizon, scheme, author_filter
            )
        except DegenerateInputError as exc:  # the filter keeps nobody
            columns, awards, nobody = {}, [], str(exc)
        counts.append(len(awards))
        for (measure, criterion), cell in values.items():
            try:
                value, reason = _cell(measure, criterion, year, columns, awards), None
            except DegenerateInputError as exc:
                value, reason = None, nobody or str(exc)
            cell.append(value)
            reasons[measure, criterion].append(reason)
    return {
        (m, c): EvaluationSeries(
            m, c, horizon, years, tuple(v), tuple(counts), tuple(reasons[m, c])
        )
        for (m, c), v in values.items()
    }


def series(
    corpus: AuthorCorpus,
    measure: Measure,
    criterion: str,
    year_range: tuple[int, int],
    horizon: int = 0,
    scheme: AwardScheme = AwardScheme(),
    author_filter: AuthorFilter = AuthorFilter(),
) -> EvaluationSeries:
    """Per-year evaluation over [start, end]; degenerate years become gaps."""
    grid = series_grid(
        corpus, [measure], [criterion], year_range, horizon, scheme, author_filter
    )
    return grid[measure, criterion]


def measure_correlation_matrix(
    corpus: AuthorCorpus, year: int, measures: list[Measure]
) -> np.ndarray:
    """Symmetric tau_b matrix over per-author measure values; constant
    columns yield NaN (undefined), never 0."""
    ids = sorted(corpus.authors)
    if len(ids) < 2:
        raise DegenerateInputError("need at least 2 authors")
    columns = measure_columns(snapshot_at(corpus, year), ids)
    k = len(measures)
    matrix = np.full((k, k), np.nan)
    for i, mi in enumerate(measures):
        for j in range(i, k):
            mj = measures[j]
            try:
                value = rankcorr.kendall_tau_b(columns[mi], columns[mj])
            except DegenerateInputError:
                continue
            matrix[i, j] = value
            matrix[j, i] = value
    return matrix
