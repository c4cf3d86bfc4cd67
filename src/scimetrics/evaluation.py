"""Experiment layer: award rankings under several schemes, effectiveness and
predictive power over time, robustness filters, and measure-vs-measure
correlation matrices."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import rankcorr
from .corpus import AuthorCorpus, accrued, author_positions, check_years
from .errors import DegenerateInputError
from .indices import Measure, measure_table

AWARD_MODES = ("equal_weight", "selective_weight", "binary")
FILTER_MODES = ("all", "no_hyperauthors", "bottom_half_citations", "peak_in_window")


class _Pair:
    """A measure column's `rankcorr.dense_ranks`, all any criterion reads of
    it, and the award column it is judged against with its ranks.  The pair
    counts are built on first use and shared by tau_b, somers_d and gamma."""

    def __init__(self, measure_values, awards: np.ndarray, award_ranks: np.ndarray):
        self.ranks = rankcorr.dense_ranks(measure_values)
        self.awards, self.award_ranks = awards, award_ranks

    @cached_property
    def counts(self) -> rankcorr.PairCounts:
        return rankcorr.pair_counts_of_ranks(self.ranks, self.award_ranks)


# Each criterion's statistic of a _Pair.
_STATISTICS = {
    "tau_b": lambda pair: pair.counts.tau_b(),
    "auc": lambda pair: rankcorr.roc_curve(pair.ranks, pair.awards).auc,
    "somers_d": lambda pair: pair.counts.somers_d(),
    "gamma": lambda pair: pair.counts.gamma(),
    "rho": lambda pair: rankcorr.spearman_rho_of_ranks(pair.ranks, pair.award_ranks),
}
CRITERIA = tuple(_STATISTICS)


# The range of each numeric AwardScheme field; NaN lies in none of them.  An
# infinite factor would make award scores infinite, which no statistic takes.
SCHEME_RANGES = {
    "selective_threshold": (">= 1", lambda v: v >= 1),
    "selective_factor": ("finite and > 0", lambda v: 0 < v < math.inf),
    "subset_fraction": ("in (0, 1]", lambda v: 0 < v <= 1),
    "rng_seed": (">= 0", lambda v: v >= 0),
}


def check_range(name: str, field: str, value) -> None:
    """Raise a ValueError naming `name` unless `value` lies in the range of
    the AwardScheme field `field`."""
    requirement, holds = SCHEME_RANGES[field]
    if not holds(value):
        raise ValueError(f"{name} must be {requirement}, got {value}")


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
        for field in SCHEME_RANGES:
            check_range(field, field, getattr(self, field))


@dataclass(frozen=True)
class AuthorFilter:
    mode: str = "all"
    max_avg_authors: float = 100.0
    window: tuple[int, int] = (2000, 2010)

    def __post_init__(self):
        if self.mode not in FILTER_MODES:
            raise ValueError(f"unknown filter mode {self.mode!r}")
        if math.isnan(self.max_avg_authors):
            raise ValueError("max_avg_authors must be a number, got nan")
        if self.mode == "peak_in_window" and self.window[0] >= self.window[1]:
            raise ValueError("window start must precede end")


@dataclass(frozen=True)
class EvaluationSeries:
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
    corpus: AuthorCorpus, years: Sequence[int], scheme: AwardScheme = AwardScheme()
) -> np.ndarray:
    """(len(years), n_authors) float64: each author's award score counting
    grants conferred up to each of `years`, authors in id order.  One
    np.bincount a year adds the retained grants in each author's stored
    order; one not yet conferred adds +0.0, which changes no sum."""
    retained = _retained_award_ids(corpus, scheme)
    position = {a: i for i, a in enumerate(sorted(corpus.arrays.index))}
    holder, conferred, weight = [], [], []
    for author_id, grants in corpus.grants.items():
        for grant in grants:
            if grant.award_id not in retained:
                continue
            selective = (
                scheme.mode == "selective_weight"
                and corpus.catalog[grant.award_id].total_laureates
                <= scheme.selective_threshold
            )
            holder.append(position[author_id])
            conferred.append(grant.year_conferred)
            weight.append(scheme.selective_factor if selective else 1.0)
    holder, weight = np.array(holder, dtype=np.int64), np.array(weight, dtype=float)
    conferred = np.array(conferred, dtype=object)  # compares ints of any size
    scores = np.zeros((len(years), len(position)))
    for row, year in zip(scores, years):
        row[:] = np.bincount(holder, weight * (conferred <= year), len(position))
    return (scores > 0).astype(float) if scheme.mode == "binary" else scores


def apply_filter(
    corpus: AuthorCorpus, years: Sequence[int], author_filter: AuthorFilter
) -> np.ndarray:
    """(len(years), n_authors) bool: whether a robustness filter keeps each
    author, authors in id order, at the end of each of the ascending
    `years`.  no_hyperauthors keeps an author with no paper in view, or one
    whose papers in view, counted by `accrued` with their author counts in
    int64, average at most max_avg_authors authors."""
    years = check_years(years)
    arrays = corpus.arrays
    ids = sorted(arrays.index)
    if author_filter.mode == "all":
        return np.ones((len(years), len(ids)), dtype=bool)
    if author_filter.mode == "bottom_half_citations":
        totals = measure_table(corpus, years, ids, [Measure.C])[:, 0]
        ranked = np.argsort(totals, axis=1, kind="stable")  # ties by id
        keep = np.zeros(totals.shape, dtype=bool)
        np.put_along_axis(keep, ranked[:, : len(ids) // 2], True, axis=1)
        return keep
    # Authors in corpus order here, put in id order at the end.
    n = len(arrays.names)
    author = np.repeat(np.arange(n), np.diff(arrays.starts))  # of each paper
    year = arrays.effective_year.astype(np.int64)
    if author_filter.mode == "no_hyperauthors":
        since = np.searchsorted(years, year)
        papers = accrued(since, author, len(years), n)
        authors = accrued(since, author, len(years), n, arrays.author_count)
        mean = np.where(papers > 0, authors / np.maximum(papers, 1), 0.0)
        keep = mean <= author_filter.max_avg_authors
    else:  # peak_in_window, judged on the full corpus history
        # Each author's busiest year, the earliest of ties: one count per
        # (author, year) pair that has publications.
        start, end = author_filter.window
        low = year.min(initial=0)
        span = year.max(initial=0) - low + 1
        pair, count = np.unique(author * span + (year - low), return_counts=True)
        owner, year = pair // span, pair % span + low
        best = np.lexsort((year, -count, owner))
        peak = best[np.diff(owner[best], prepend=-1) > 0]
        in_window = np.zeros(n, dtype=bool)
        in_window[owner[peak]] = (start <= year[peak]) & (year[peak] < end)
        keep = np.broadcast_to(in_window, (len(years), n))
    return keep[:, author_positions(arrays, ids)]


def apply_criterion(criterion: str, measure_values, award_values) -> float:
    """A named criterion over aligned value sequences."""
    try:
        statistic = _STATISTICS[criterion]
    except KeyError:
        raise ValueError(f"unknown criterion {criterion!r}") from None
    awards = np.asarray(award_values, dtype=float)
    return statistic(_Pair(measure_values, awards, rankcorr.dense_ranks(awards)))


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

    One `apply_filter` gives the authors the filter keeps at each year, one
    `measure_table` over the whole run of years the measure values of every
    author it keeps in any year, and one `award_scores` their scores by each
    year + horizon; each year's columns and award scores, masked to that
    year's authors, and their ranks are then shared by all cells, and so are
    the pair counts of each (measure, awards) pair.  This is the one place a
    year becomes criterion values: a degenerate cell is a gap, and its gap
    reason says why.
    """
    start, end = year_range
    if start > end:
        raise ValueError(f"years must not end before they start, got {start}:{end}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    for criterion in criteria:
        if criterion not in CRITERIA:
            raise ValueError(f"unknown criterion {criterion!r}")
    check_years(sorted({start, end}))  # never build a run to a year beyond 64 bits
    years = tuple(range(start, end + 1))
    keep = apply_filter(corpus, years, author_filter)
    held = keep.any(axis=0)
    ids = [a for a, h in zip(sorted(corpus.arrays.index), held.tolist()) if h]
    keep = keep[:, held]
    table = measure_table(corpus, years, ids, measures)
    scores = award_scores(corpus, [y + horizon for y in years], scheme)[:, held]
    values: dict[tuple[Measure, str], list[float | None]] = {
        (m, c): [] for m in measures for c in criteria
    }
    reasons: dict[tuple[Measure, str], list[str | None]] = {k: [] for k in values}
    counts = keep.sum(axis=1).tolist()
    for year, row, count, columns, score in zip(years, keep, counts, table, scores):
        gap = None
        if count == 0:
            gap = f"filter {author_filter.mode!r} leaves no authors at {year}"
        elif count < 2:
            gap = f"fewer than 2 authors at year {year} after filtering"
        else:
            awards = score[row]
            award_ranks = rankcorr.dense_ranks(awards)
            pairs = {
                m: _Pair(column, awards, award_ranks)
                for m, column in zip(measures, columns[:, row])
            }
        for (measure, criterion), cell in values.items():
            value, reason = None, gap
            if gap is None:
                try:
                    value = _STATISTICS[criterion](pairs[measure])
                except DegenerateInputError as exc:
                    reason = (
                        f"{criterion} degenerate at year {year} "
                        f"for measure {measure.value}: {exc}"
                    )
            cell.append(value)
            reasons[measure, criterion].append(reason)
    return {
        (m, c): EvaluationSeries(years, tuple(v), tuple(counts), tuple(reasons[m, c]))
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


def measure_correlation_matrix(columns: np.ndarray) -> np.ndarray:
    """Symmetric tau_b matrix of the measures of one year's (measures x
    authors) table, such as a year of `measure_table`; constant columns yield
    NaN (undefined), never 0."""
    if np.shape(columns)[1] < 2:
        raise DegenerateInputError("need at least 2 authors")
    ranks = [rankcorr.dense_ranks(column) for column in columns]
    k = len(ranks)
    matrix = np.full((k, k), np.nan)
    # A column agrees fully with itself, unless it is constant (all ranks 0).
    np.fill_diagonal(matrix, [1.0 if r.any() else np.nan for r in ranks])
    for i in range(k):
        for j in range(i + 1, k):
            try:
                value = rankcorr.pair_counts_of_ranks(ranks[i], ranks[j]).tau_b()
            except DegenerateInputError:
                continue
            matrix[i, j] = value
            matrix[j, i] = value
    return matrix
