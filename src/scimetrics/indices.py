"""Scientometric indices of authors at a snapshot, computed as columns.

Traditional measures (h, c, mu, g, o, m) run on raw counts; their -frac
counterparts run on counts divided by author count; h-i/h-m/h-p/h-ap apply
coauthor normalization to the h-index in other ways.  `measure_columns` is
the one implementation; `compute_all` and `compute_measure` are its views of
one author.  The tests hold it, bit for bit, to the per-vector definitions
in tests/reference_indices.py.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum

import numpy as np

from .corpus import Snapshot


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


def _h_column(entries: np.ndarray) -> np.ndarray:
    """h of every row of a descending, -inf padded matrix."""
    return (entries >= np.arange(1, entries.shape[1] + 1)).sum(axis=1)


def _base_columns(entries: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """h, c, mu, g, o and m of every row of a descending, -inf padded matrix
    holding n[i] entries in row i."""
    rows = np.arange(len(n))
    rank = np.arange(1, entries.shape[1] + 1)
    h = _h_column(entries)
    running = np.cumsum(entries, axis=1)  # left to right, like the reference
    total = np.where(n > 0, running[rows, n - 1], 0.0)
    g = np.where(running >= rank * rank, rank, 0).max(axis=1)
    top = np.where(n > 0, entries[:, 0], 0.0)
    half = h // 2
    lower, upper = entries[rows, half], entries[rows, np.maximum(half - 1, 0)]
    median = np.where(h % 2 == 1, lower, (lower + upper) / 2)
    return (
        h,
        total,
        total / np.maximum(n, 1),
        g,
        np.sqrt(h * top),
        np.where(h > 0, median, 0.0),
    )


def _block_columns(
    cites: np.ndarray, authors: np.ndarray, n: np.ndarray, measures: set[Measure]
) -> dict[Measure, np.ndarray]:
    """At least `measures` over rows holding n[i] papers each, in publication
    order, padded with -inf citations and author count 1; only the layouts
    those measures read are sorted."""
    columns = {}
    h_core = measures & {Measure.H_I, Measure.H_M, Measure.H_P}
    if h_core or measures.intersection(TRADITIONAL):
        # A stable sort keeps ties in publication order, as the reference's
        # citation vectors do, so the author counts line up with them; -inf
        # padding sorts last.
        order = np.argsort(-cites, axis=1, kind="stable")
        raw = np.take_along_axis(cites, order, axis=1)
        traditional = _base_columns(raw, n)
        columns.update(zip(TRADITIONAL, traditional))
        if h_core:
            h = traditional[0]
            raw_authors = np.take_along_axis(authors, order, axis=1)
            rows = np.arange(len(n))
            core = np.cumsum(raw_authors, axis=1)[rows, np.maximum(h - 1, 0)]  # int64
            mean_authors = np.where(h > 0, core / np.maximum(h, 1), 1.0)
            effective_rank = np.cumsum(1.0 / raw_authors, axis=1)
            covered = raw >= effective_rank
            last = raw.shape[1] - 1 - np.argmax(covered[:, ::-1], axis=1)
            columns[Measure.H_I] = np.where(h > 0, h / mean_authors, 0.0)
            columns[Measure.H_M] = np.where(
                covered.any(axis=1), effective_rank[rows, last], 0.0
            )
            columns[Measure.H_P] = np.where(h > 0, h / np.sqrt(mean_authors), 0.0)
    # The normalized layouts are used for their values alone, which ties share.
    if measures.intersection(FRACTIONAL):
        frac = -np.sort(-(cites / authors), axis=1)
        columns.update(zip(FRACTIONAL, _base_columns(frac, n)))
    if Measure.H_AP in measures:
        columns[Measure.H_AP] = _h_column(-np.sort(-(cites / np.sqrt(authors)), axis=1))
    return columns


def measure_columns(
    snapshot: Snapshot, ids: list[str], measures: Sequence[Measure]
) -> dict[Measure, list[float]]:
    """The values of `measures` over `ids`, aligned with them and equal bit
    for bit to the per-vector reference in tests/reference_indices.py.

    Each author's publications in view become one row of a padded matrix,
    sorted within the row for each normalizer the measures use; every sum
    runs left to right along a row (np.cumsum), never pairwise, so the floats
    match the reference's per-vector loops exactly.  Rows whose paper counts share a
    power of two form one block no wider than twice its shortest row, so
    memory stays O(authors + papers) however many papers the most prolific
    author has.
    """
    wanted = set(measures)
    row, pub = snapshot.in_view(ids)
    n = np.bincount(row, minlength=len(ids))
    col = np.arange(len(row)) - np.repeat(np.cumsum(n) - n, n)
    cites = snapshot.citations[pub]
    authors = snapshot.corpus.arrays.author_count[pub]
    block = np.frexp(n)[1]  # non-negative exponents
    out = np.empty((len(measures), len(ids)))
    for b in np.flatnonzero(np.bincount(block)):
        rows = np.flatnonzero(block == b)
        papers = block[row] == b
        at = (np.searchsorted(rows, row[papers]), col[papers])
        shape = (len(rows), max(int(n[rows].max()), 1))
        block_cites = np.full(shape, -np.inf)
        block_cites[at] = cites[papers]
        block_authors = np.ones(shape, dtype=authors.dtype)
        block_authors[at] = authors[papers]
        columns = _block_columns(block_cites, block_authors, n[rows], wanted)
        for i, m in enumerate(measures):
            out[i, rows] = columns[m]
    return {m: column.tolist() for m, column in zip(measures, out)}


def compute_all(author_id: str, snapshot: Snapshot) -> dict[Measure, float]:
    """Every measure for one author at a snapshot."""
    columns = measure_columns(snapshot, [author_id], list(Measure))
    return {m: column[0] for m, column in columns.items()}


def compute_measure(author_id: str, snapshot: Snapshot, measure: Measure) -> float:
    """One measure for one author at a snapshot."""
    return measure_columns(snapshot, [author_id], [measure])[measure][0]
