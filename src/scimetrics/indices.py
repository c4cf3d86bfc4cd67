"""Scientometric indices computed from a citation vector.

Traditional measures (h, c, mu, g, o, m) run on raw counts; their -frac
counterparts run on counts divided by author count; h-i/h-m/h-p/h-ap apply
coauthor normalization to the h-index in other ways.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from enum import Enum

import numpy as np

from .corpus import NORMALIZERS, CitationVector, Snapshot, citation_vector


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


def h_index(v: CitationVector) -> int:
    """Largest h such that the h-th entry (descending) is >= h."""
    h = 0
    for i, c in enumerate(v.entries, start=1):
        if c >= i:
            h = i
        else:
            break
    return h


def c_index(v: CitationVector) -> float:
    """Total citations over all papers, added left to right (the built-in
    sum is compensated from Python 3.12 on)."""
    total = 0.0
    for c in v.entries:
        total += c
    return total


def mu_index(v: CitationVector) -> float:
    """Mean citations per paper; 0 for an empty record."""
    if not v.entries:
        return 0.0
    return c_index(v) / len(v.entries)


def g_index(v: CitationVector) -> int:
    """Largest g <= N whose top-g papers collectively have >= g^2 citations."""
    g = 0
    total = 0.0
    for i, c in enumerate(v.entries, start=1):
        total += c
        if total >= i * i:
            g = i
    return g


def o_index(v: CitationVector) -> float:
    """Geometric mean of h and the top citation count."""
    if not v.entries:
        return 0.0
    return math.sqrt(h_index(v) * v.entries[0])


def m_index(v: CitationVector) -> float:
    """Median citations among the top-h papers; 0 when h = 0."""
    h = h_index(v)
    if h == 0:
        return 0.0
    return float(statistics.median(v.entries[:h]))


_BASE_FUNCS = {
    Measure.H: h_index,
    Measure.C: c_index,
    Measure.MU: mu_index,
    Measure.G: g_index,
    Measure.O: o_index,
    Measure.M: m_index,
}


def fractional_index(base: Measure, v_frac: CitationVector) -> float:
    """A traditional measure applied to an author-count-normalized vector."""
    if base not in _BASE_FUNCS:
        raise ValueError(f"{base} is not a base measure")
    return float(_BASE_FUNCS[base](v_frac))


def h_i_index(v: CitationVector) -> float:
    """h divided by the mean author count of the h-core (Batista-style)."""
    h = h_index(v)
    if h == 0:
        return 0.0
    mean_authors = sum(v.author_counts[:h]) / h
    return h / mean_authors


def h_p_index(v: CitationVector) -> float:
    """h divided by the square root of the h-core's mean author count."""
    h = h_index(v)
    if h == 0:
        return 0.0
    mean_authors = sum(v.author_counts[:h]) / h
    return h / math.sqrt(mean_authors)


def h_ap_index(v: CitationVector) -> float:
    """h-style index on citations normalized by sqrt(author count)."""
    pairs = sorted(
        ((c / math.sqrt(a), a) for c, a in zip(v.entries, v.author_counts)),
        key=lambda t: -t[0],
    )
    normalized = CitationVector(
        entries=tuple(c for c, _ in pairs),
        author_counts=tuple(a for _, a in pairs),
    )
    return float(h_index(normalized))


def h_m_index(v: CitationVector) -> float:
    """Effective-rank h (Schreiber-style): ranks grow by 1/A per paper and the
    index is the largest effective rank still covered by its citation count.

    Input must be sorted by raw citations descending (the default vector).
    """
    best = 0.0
    r_eff = 0.0
    for c, a in zip(v.entries, v.author_counts):
        r_eff += 1.0 / a
        if c >= r_eff:
            best = r_eff
    return best


# Measure -> (citation_vector normalizer, index function on that vector).
_DISPATCH = {
    **{m: ("none", _BASE_FUNCS[m]) for m in TRADITIONAL},
    **{m: ("author_count", _BASE_FUNCS[FRAC_OF[m]]) for m in FRACTIONAL},
    Measure.H_I: ("none", h_i_index),
    Measure.H_M: ("none", h_m_index),
    Measure.H_P: ("none", h_p_index),
    Measure.H_AP: ("sqrt_author_count", h_index),
}


def compute_all(author_id: str, snapshot: Snapshot) -> dict[Measure, float]:
    """Every measure for one author at a snapshot."""
    vectors = {
        n: citation_vector(author_id, snapshot, normalizer=n) for n in NORMALIZERS
    }
    return {m: float(func(vectors[n])) for m, (n, func) in _DISPATCH.items()}


def compute_measure(author_id: str, snapshot: Snapshot, measure: Measure) -> float:
    """One measure for one author at a snapshot."""
    normalizer, func = _DISPATCH[measure]
    return float(func(citation_vector(author_id, snapshot, normalizer=normalizer)))


def _h_column(entries: np.ndarray) -> np.ndarray:
    """h of every row of a descending, -inf padded matrix."""
    return (entries >= np.arange(1, entries.shape[1] + 1)).sum(axis=1)


def _base_columns(entries: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, ...]:
    """h, c, mu, g, o and m of every row of a descending, -inf padded matrix
    holding n[i] entries in row i."""
    rows = np.arange(len(n))
    rank = np.arange(1, entries.shape[1] + 1)
    h = _h_column(entries)
    running = np.cumsum(entries, axis=1)  # left to right, like c_index
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
        # A stable sort keeps ties in publication order, as citation_vector
        # does, so the author counts line up with it; -inf padding sorts last.
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
    """The values of `measures` over `ids`, aligned with them and equal to
    compute_all's bit for bit.

    Each author's publications in view become one row of a padded matrix,
    sorted within the row for each normalizer the measures use; every sum
    runs left to right along a row (np.cumsum), never pairwise, so the floats
    match the per-vector functions exactly.  Rows whose paper counts share a
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
