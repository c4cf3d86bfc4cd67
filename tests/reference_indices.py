"""The per-author reference for `scimetrics.indices.measure_table`.

Each author's publications in view become one object per paper, each
normalizer's citation vector is sorted in Python, and every measure is a
loop over that vector.  Each paper's citations through the year are its
citation events added one by one in Python.  It shares only the Measure
names and the corpus columns with the library, so the tests can hold
`measure_table` (and `measure_columns` and `compute_all`, its one-year and
one-author views) to it value for value and type for type.
"""

from __future__ import annotations

import math
import statistics
import weakref
from dataclasses import dataclass

from scimetrics.corpus import Snapshot
from scimetrics.indices import FRAC_OF, FRACTIONAL, TRADITIONAL, Measure

NORMALIZERS = ("none", "author_count", "sqrt_author_count")


@dataclass(frozen=True)
class SnapshotPublication:
    """A publication restricted to citations up to the observation year."""

    pub_id: str
    effective_year: int
    author_count: int
    citations: int


_PUBLICATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def publications(snapshot: Snapshot) -> dict[str, tuple[SnapshotPublication, ...]]:
    """Each author's publications in view, in publication order; built once
    per snapshot, straight from the corpus columns."""
    if snapshot not in _PUBLICATIONS:
        a = snapshot.corpus.arrays
        year = snapshot.observation_year
        starts, bounds = a.starts.tolist(), a.event_start.tolist()
        pub_years, author_counts = a.effective_year.tolist(), a.author_count.tolist()
        _PUBLICATIONS[snapshot] = {
            author_id: tuple(
                SnapshotPublication(
                    a.pub_id[i], pub_years[i], author_counts[i],
                    cited_through(a, bounds[i], bounds[i + 1], year),
                )
                for i in range(starts[k], starts[k + 1])
                if pub_years[i] <= year
            )
            for author_id, k in a.index.items()
        }
    return _PUBLICATIONS[snapshot]


# Events converted to Python ints at once, so that a paper with millions of
# events holds no list of them all.
_EVENTS_AT_ONCE = 1 << 16


def cited_through(arrays, first: int, last: int, year: int) -> int:
    """The counts of citation events first:last dated at or before `year`,
    added one event at a time, so a year a paper lists twice counts twice."""
    total = 0
    for lo in range(first, last, _EVENTS_AT_ONCE):
        hi = min(lo + _EVENTS_AT_ONCE, last)
        years = arrays.event_year[lo:hi].tolist()
        for y, c in zip(years, arrays.event_count[lo:hi].tolist()):
            if y <= year:
                total += c
    return total


@dataclass(frozen=True)
class CitationVector:
    """Per-paper citation counts in non-increasing order, with the aligned
    author counts retained for coauthor-normalized indices."""

    entries: tuple[float, ...]
    author_counts: tuple[int, ...]

    def __post_init__(self):
        if len(self.entries) != len(self.author_counts):
            raise ValueError("entries and author_counts must align")
        if any(a < b for a, b in zip(self.entries, self.entries[1:])):
            raise ValueError("entries must be non-increasing")

    def __len__(self) -> int:
        return len(self.entries)


def citation_vector(
    author_id: str, snapshot: Snapshot, normalizer: str = "none"
) -> CitationVector:
    """Build the (optionally coauthor-normalized) citation vector of an author.

    Normalization is applied before sorting, so the descending order reflects
    the normalized counts.
    """
    if author_id not in snapshot.corpus.arrays.index:
        raise KeyError(f"unknown author {author_id!r}")
    if normalizer not in NORMALIZERS:
        raise ValueError(f"unknown normalizer {normalizer!r}")
    pairs = []
    for pub in publications(snapshot)[author_id]:
        if normalizer == "author_count":
            value = pub.citations / pub.author_count
        elif normalizer == "sqrt_author_count":
            value = pub.citations / math.sqrt(pub.author_count)
        else:
            value = float(pub.citations)
        pairs.append((value, pub.author_count))
    pairs.sort(key=lambda t: -t[0])
    return CitationVector(
        entries=tuple(v for v, _ in pairs),
        author_counts=tuple(a for _, a in pairs),
    )


def avg_authors_per_publication(author_id: str, snapshot: Snapshot) -> float:
    """Arithmetic mean of author_count over the author's snapshot papers."""
    if author_id not in snapshot.corpus.arrays.index:
        raise KeyError(f"unknown author {author_id!r}")
    pubs = publications(snapshot)[author_id]
    if not pubs:
        return 0.0
    return sum(p.author_count for p in pubs) / len(pubs)


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
