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
# Each criterion's statistic over aligned (measure values, award scores).
_STATISTICS = {
    "tau_b": rankcorr.kendall_tau_b,
    "auc": lambda measure_values, award_values: rankcorr.roc_curve(
        measure_values, award_values
    ).auc,
    "somers_d": rankcorr.somers_d,
    "gamma": rankcorr.goodman_gamma,
    "rho": rankcorr.spearman_rho,
}
CRITERIA = tuple(_STATISTICS)


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
    for author_id in corpus.arrays.index:
        total = 0.0
        for grant in corpus.grants.get(author_id, ()):
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
    ids = sorted(snapshot.corpus.arrays.index)
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
        # Each author's busiest year, the earliest of ties: one count per
        # (author, year) pair that has publications.
        arrays = corpus.arrays
        start, end = author_filter.window
        author = np.repeat(np.arange(len(arrays.names)), np.diff(arrays.starts))
        year = arrays.effective_year.astype(np.int64)
        low = year.min(initial=0)
        span = year.max(initial=0) - low + 1
        pair, count = np.unique(author * span + (year - low), return_counts=True)
        owner, year = pair // span, pair % span + low
        best = np.lexsort((year, -count, owner))
        peak = best[np.diff(owner[best], prepend=-1) > 0]
        in_window = np.zeros(len(arrays.names), dtype=bool)
        in_window[owner[peak]] = (start <= year[peak]) & (year[peak] < end)
        kept = [a for a in ids if in_window[arrays.index[a]]]
    if not kept:
        raise DegenerateInputError(
            f"filter {author_filter.mode!r} leaves no authors at "
            f"{snapshot.observation_year}"
        )
    return kept


def apply_criterion(criterion: str, measure_values, award_values) -> float:
    """A named criterion over aligned value sequences."""
    try:
        statistic = _STATISTICS[criterion]
    except KeyError:
        raise ValueError(f"unknown criterion {criterion!r}") from None
    return statistic(measure_values, award_values)


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
    """Correlation of a measure at year Y with awards held by Y + horizon:
    the one-year series, whose gap raises its reason."""
    cell = series(
        corpus, measure, criterion, (year, year), horizon, scheme, author_filter
    )
    if cell.values[0] is None:
        raise DegenerateInputError(cell.gap_reasons[0])
    return cell.values[0]


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

    Each year's snapshot, filter, award scores (by year + horizon) and
    measure columns are built once and shared by all cells.  This is the one
    place a year becomes criterion values: a degenerate cell is a gap, and
    its gap reason says why.
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
        snapshot = snapshot_at(corpus, year)
        try:
            ids = apply_filter(corpus, snapshot, author_filter)
        except DegenerateInputError as exc:  # the filter keeps nobody
            ids, gap = [], str(exc)
        else:
            scores = award_scores(corpus, year + horizon, scheme)
            awards = [scores[a] for a in ids]
            columns = measure_columns(snapshot, ids, measures)
            gap = None
            if len(ids) < 2:
                gap = f"fewer than 2 authors at year {year} after filtering"
        counts.append(len(ids))
        for (measure, criterion), cell in values.items():
            value, reason = None, gap
            if gap is None:
                try:
                    value = apply_criterion(criterion, columns[measure], awards)
                except DegenerateInputError as exc:
                    reason = (
                        f"{criterion} degenerate at year {year} "
                        f"for measure {measure.value}: {exc}"
                    )
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
    ids = sorted(corpus.arrays.index)
    if len(ids) < 2:
        raise DegenerateInputError("need at least 2 authors")
    columns = measure_columns(snapshot_at(corpus, year), ids, measures)
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
