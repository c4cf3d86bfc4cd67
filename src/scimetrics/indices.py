"""Scientometric indices of authors, computed as a per-year table.

Traditional measures (h, c, mu, g, o, m) run on raw counts; their -frac
counterparts run on counts divided by author count; h-i/h-m/h-p/h-ap apply
coauthor normalization to the h-index in other ways.  `measure_table` is
the one implementation, over a run of years at once; `measure_columns` is
its view of one snapshot, and `compute_all` and `compute_measure` its views
of one author.  The tests hold it, bit for bit, to the per-vector
definitions in tests/reference_indices.py.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from enum import Enum

import numpy as np

from .corpus import (
    AuthorCorpus,
    CorpusArrays,
    Snapshot,
    accrued,
    author_positions,
    check_years,
    citations_through,
    in_view,
    runs,
)


class Measure(str, Enum):
    H = "h"
    C = "c"
    MU = "mu"
    G = "g"
    O = "o"
    M = "m"
    H_FRAC = "h-frac"
    C_FRAC = "c-frac"
    MU_FRAC = "mu-frac"
    G_FRAC = "g-frac"
    O_FRAC = "o-frac"
    M_FRAC = "m-frac"
    H_I = "h-i"
    H_M = "h-m"
    H_P = "h-p"
    H_AP = "h-ap"


TRADITIONAL = (Measure.H, Measure.C, Measure.MU, Measure.G, Measure.O, Measure.M)
FRACTIONAL = (
    Measure.H_FRAC,
    Measure.C_FRAC,
    Measure.MU_FRAC,
    Measure.G_FRAC,
    Measure.O_FRAC,
    Measure.M_FRAC,
)
COAUTHOR_NORMALIZED = (Measure.H_I, Measure.H_M, Measure.H_P, Measure.H_AP)

FRAC_OF = dict(zip(FRACTIONAL, TRADITIONAL))


# Bounds on the transients of `measure_table`: a chunk of authors spans at
# most _TABLE (publication, year) citation counts (or one author's), and a
# piece of a block at most _PIECE padded (year, row, paper) cells.
_TABLE = 2**17
_PIECE = 2**16

_FRACTIONAL_OF = {t: f for f, t in FRAC_OF.items()}


def _gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[..., index[..., k]] row by row, for a contiguous `values` whose
    rows `index` matches or broadcasts over: one flat take."""
    width = values.shape[-1]
    rows = np.arange(0, values.size, width).reshape(*values.shape[:-1], 1)
    return values.reshape(-1).take(index + rows)


def _at(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[..., index[...]]: one entry of each row."""
    return _gather(values, index[..., None])[..., 0]


def _descending(fresh: np.ndarray) -> np.ndarray:
    """`fresh`, an array nothing else holds, sorted in place within each row,
    largest first (-inf last)."""
    np.negative(fresh, out=fresh)
    fresh.sort(axis=-1)
    return np.negative(fresh, out=fresh)


def _h_column(entries: np.ndarray) -> np.ndarray:
    """h of every row of a descending, -inf padded array."""
    return (entries >= np.arange(1, entries.shape[-1] + 1)).sum(axis=-1)


def _base_columns(
    entries: np.ndarray, n: np.ndarray, wanted: set[Measure]
) -> dict[Measure, np.ndarray]:
    """At least those of h, c, mu, g, o and m in `wanted` (named by their
    traditional measures) of every row of a descending, -inf padded array
    holding n[...] entries in each row."""
    columns = {}
    if wanted & {Measure.H, Measure.O, Measure.M}:
        h = columns[Measure.H] = _h_column(entries)
    if wanted & {Measure.C, Measure.MU, Measure.G}:
        running = np.cumsum(entries, axis=-1)  # left to right, like the reference
        total = np.where(n > 0, _at(running, np.maximum(n - 1, 0)), 0.0)
        columns[Measure.C] = total
        columns[Measure.MU] = total / np.maximum(n, 1)
        if Measure.G in wanted:
            rank = np.arange(1, entries.shape[-1] + 1)
            columns[Measure.G] = np.where(running >= rank * rank, rank, 0).max(axis=-1)
    if Measure.O in wanted:
        columns[Measure.O] = np.sqrt(h * np.where(n > 0, entries[..., 0], 0.0))
    if Measure.M in wanted:
        half = h // 2
        lower = _at(entries, half)
        upper = _at(entries, np.maximum(half - 1, 0))
        median = np.where(h % 2 == 1, lower, (lower + upper) / 2)
        columns[Measure.M] = np.where(h > 0, median, 0.0)
    return columns


def _block_columns(
    cites: np.ndarray, authors: np.ndarray, n: np.ndarray, wanted: set[Measure]
) -> dict[Measure, np.ndarray]:
    """At least `wanted` over rows cites[y, r] holding n[y, r] papers each in
    view, padded with -inf citations; authors[r] are the rows' author counts,
    at least 1 everywhere.  Only the layouts those measures read are
    sorted."""
    columns = {}
    h_core = wanted & {Measure.H_I, Measure.H_M, Measure.H_P}
    traditional = wanted.intersection(TRADITIONAL)
    if h_core:
        # Ties keep publication order, as in the reference's citation
        # vectors, so the author counts line up with them; -inf padding
        # sorts last, in any order.
        order = np.argsort(-cites, axis=-1, kind="stable")
        raw = _gather(cites, order)
        columns.update(_base_columns(raw, n, traditional | {Measure.H}))
        h = columns[Measure.H]
        raw_authors = _gather(authors, order)  # authors are alike in every year
        core = _at(np.cumsum(raw_authors, axis=-1), np.maximum(h - 1, 0))  # int64
        mean_authors = np.where(h > 0, core / np.maximum(h, 1), 1.0)
        effective_rank = np.cumsum(1.0 / raw_authors, axis=-1)
        covered = raw >= effective_rank
        last = raw.shape[-1] - 1 - np.argmax(covered[..., ::-1], axis=-1)
        columns[Measure.H_I] = np.where(h > 0, h / mean_authors, 0.0)
        columns[Measure.H_M] = np.where(
            covered.any(axis=-1), _at(effective_rank, last), 0.0
        )
        columns[Measure.H_P] = np.where(h > 0, h / np.sqrt(mean_authors), 0.0)
    elif traditional:
        # The other layouts are used for their values alone, which ties share.
        columns.update(_base_columns(_descending(cites.copy()), n, traditional))
    fractional = {FRAC_OF[m] for m in wanted.intersection(FRACTIONAL)}
    if fractional:
        base = _base_columns(_descending(cites / authors), n, fractional)
        columns.update((_FRACTIONAL_OF[m], column) for m, column in base.items())
    if Measure.H_AP in wanted:
        columns[Measure.H_AP] = _h_column(_descending(cites / np.sqrt(authors)))
    return columns


def measure_table(
    corpus: AuthorCorpus,
    years: Sequence[int],
    ids: list[str],
    measures: Sequence[Measure],
) -> np.ndarray:
    """The (len(years), len(measures), len(ids)) float64 values of
    `measures` over `ids` at the end of each of the ascending `years`, each
    equal bit for bit to the per-vector reference in
    tests/reference_indices.py at that year's snapshot.

    The authors are taken in corpus order, in chunks whose publications span
    at most _TABLE citation counts over the years, so that
    `citations_through` sums each chunk's citation events once for all
    years.  Within a chunk, each author's publications in view by the last
    year become one row of a padded array, one layer per year, with -inf
    citations where a paper is not yet in view; each layout the measures
    read is sorted once within the rows, for all years together.  Every sum
    runs left to right along a row (np.cumsum), never pairwise, so the
    floats match the reference's per-vector loops exactly.  Rows whose final
    paper counts share a power of two form one block no wider than twice
    its shortest row, taken in pieces of at most _PIECE cells, so memory
    stays O(authors x years) plus bounded transients, however many papers
    the most prolific author has.
    """
    years = check_years(years)
    arrays = corpus.arrays
    k = author_positions(arrays, ids)
    out = np.zeros((len(years), len(measures), len(ids)))
    if not len(years) or not measures:
        return out
    order = np.argsort(k, kind="stable")
    begin, end = arrays.starts[k[order]], arrays.starts[k[order] + 1]
    for i, j in runs(begin, end, max(_TABLE // len(years), 1)):
        members = order[i:j]
        for rows, columns in _chunk_columns(arrays, years, k[members], set(measures)):
            out[:, :, members[rows]] = np.stack([columns[m] for m in measures], axis=1)
    return out


def _chunk_columns(
    arrays: CorpusArrays, years: np.ndarray, k: np.ndarray, wanted: set[Measure]
) -> Iterator[tuple[np.ndarray, dict[Measure, np.ndarray]]]:
    """(rows, columns) for pieces of the authors at the ascending corpus
    positions `k`, rows indexing `k`: at least `wanted` of those authors,
    each column a (len(years), len(rows)) array."""
    first, last = int(arrays.starts[k[0]]), int(arrays.starts[k[-1] + 1])
    row, pub = in_view(arrays, k, int(years[-1]))
    # The index of the first of `years` at which each publication is in view,
    # and its citations through each year, -inf before that.
    since = np.searchsorted(years, arrays.effective_year[pub])
    cites = np.where(
        np.arange(len(years))[:, None] >= since,
        citations_through(arrays, first, last, years)[:, pub - first],
        -np.inf,
    )
    n = np.bincount(row, minlength=len(k))
    col = np.arange(len(row)) - np.repeat(np.cumsum(n) - n, n)
    # Each row's papers in view at each year.
    counts = accrued(since, row, len(years), len(k))
    block = np.frexp(n)[1]  # non-negative exponents
    slot = np.empty(len(k), dtype=np.int64)  # each row's position in its block
    # Block 0 holds the authors without papers, whose every measure is 0.
    for b in np.flatnonzero(np.bincount(block)[1:]) + 1:
        rows = np.flatnonzero(block == b)
        slot[rows] = np.arange(len(rows))
        papers = np.flatnonzero(block[row] == b)  # grouped by row, like `rows`
        ends = np.concatenate(([0], np.cumsum(n[rows])))
        width = int(n[rows].max())
        step = max(_PIECE // (len(years) * width), 1)
        for lo in range(0, len(rows), step):
            hi = min(lo + step, len(rows))
            piece = papers[ends[lo] : ends[hi]]
            at = (slot[row[piece]] - lo, col[piece])
            grid = np.full((len(years), hi - lo, width), -np.inf)
            grid[:, at[0], at[1]] = cites[:, piece]
            authors = np.ones((hi - lo, width), dtype=arrays.author_count.dtype)
            authors[at] = arrays.author_count[pub[piece]]
            yield rows[lo:hi], _block_columns(
                grid, authors, counts[:, rows[lo:hi]], wanted
            )


def measure_columns(
    snapshot: Snapshot, ids: list[str], measures: Sequence[Measure]
) -> dict[Measure, list[float]]:
    """The values of `measures` over `ids` at the snapshot, aligned with
    them: the snapshot's year of `measure_table`."""
    table = measure_table(snapshot.corpus, [snapshot.observation_year], ids, measures)
    return {m: column.tolist() for m, column in zip(measures, table[0])}


def compute_all(author_id: str, snapshot: Snapshot) -> dict[Measure, float]:
    """Every measure for one author at a snapshot."""
    columns = measure_columns(snapshot, [author_id], list(Measure))
    return {m: column[0] for m, column in columns.items()}


def compute_measure(author_id: str, snapshot: Snapshot, measure: Measure) -> float:
    """One measure for one author at a snapshot."""
    return measure_columns(snapshot, [author_id], [measure])[measure][0]
