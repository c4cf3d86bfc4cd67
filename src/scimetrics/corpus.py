"""Immutable data model for authors, publications, citations, and awards,
plus temporal snapshots restricting a corpus to an observation year."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

VALID_YEAR_RANGE = (1950, 2030)

NORMALIZERS = ("none", "author_count", "sqrt_author_count")


@dataclass(frozen=True)
class PublicationRecord:
    """One paper: when it appeared, how many authors, citations per year."""

    pub_id: str
    effective_year: int
    author_count: int
    citations_by_year: dict[int, int]

    def __post_init__(self):
        if self.author_count < 1:
            raise ValueError(f"{self.pub_id}: author_count must be >= 1")
        for year, count in self.citations_by_year.items():
            if count < 0:
                raise ValueError(f"{self.pub_id}: negative citation count in {year}")
            if year < self.effective_year:
                raise ValueError(
                    f"{self.pub_id}: citation year {year} precedes "
                    f"effective year {self.effective_year}"
                )


@dataclass(frozen=True)
class AwardCatalogEntry:
    award_id: str
    name: str
    total_laureates: int

    def __post_init__(self):
        if self.total_laureates < 1:
            raise ValueError(f"{self.award_id}: total_laureates must be >= 1")


@dataclass(frozen=True)
class AwardGrant:
    award_id: str
    year_conferred: int


@dataclass(frozen=True)
class AuthorProfile:
    author_id: str
    display_name: str
    field_tag: str
    publications: tuple[PublicationRecord, ...]
    awards: tuple[AwardGrant, ...] = ()

    def __post_init__(self):
        pub_ids = [p.pub_id for p in self.publications]
        if len(set(pub_ids)) != len(pub_ids):
            raise ValueError(f"{self.author_id}: duplicate pub_ids")


@dataclass(frozen=True)
class AuthorCorpus:
    """Authors plus the award catalog their grants reference."""

    authors: dict[str, AuthorProfile] = field(default_factory=dict)
    catalog: dict[str, AwardCatalogEntry] = field(default_factory=dict)

    def __post_init__(self):
        for author in self.authors.values():
            for grant in author.awards:
                if grant.award_id not in self.catalog:
                    raise ValueError(
                        f"{author.author_id}: unknown award_id {grant.award_id!r}"
                    )

    @cached_property
    def arrays(self) -> CorpusArrays:
        """The corpus flattened into columns, built on first use."""
        return CorpusArrays.build(self)


@dataclass(frozen=True, eq=False)
class CorpusArrays:
    """Publications in author order and citation events in year order.

    Author k's publications are rows starts[k]:starts[k + 1] of the
    per-publication columns.  The citation events (pub, count) dated up to
    year Y are the first events_until[Y - VALID_YEAR_RANGE[0]] events.
    """

    index: dict[str, int]  # author id -> position in corpus order
    starts: np.ndarray  # int64, one more than there are authors
    effective_year: np.ndarray  # int32 per publication
    author_count: np.ndarray  # int32 per publication
    event_pub: np.ndarray  # int32 per citation event
    event_count: np.ndarray  # int32 per citation event
    events_until: np.ndarray  # int64 per year of VALID_YEAR_RANGE

    @classmethod
    def build(cls, corpus: AuthorCorpus) -> CorpusArrays:
        authors = corpus.authors.values()
        pubs = [p for author in authors for p in author.publications]
        cites = [p.citations_by_year for p in pubs]
        per_pub = np.fromiter(map(len, cites), np.int64, len(pubs))
        n_events = int(per_pub.sum())
        # Event columns are sorted by year one at a time, each temporary
        # dropped once used, so the peak stays near the columns' own size.
        year = np.fromiter(chain.from_iterable(cites), np.int32, n_events)
        order = np.argsort(year, kind="stable")
        lo, hi = VALID_YEAR_RANGE
        events_until = np.searchsorted(year[order], np.arange(lo, hi + 1), "right")
        del year
        event_pub = np.repeat(np.arange(len(pubs), dtype=np.int32), per_pub)[order]
        event_count = np.fromiter(
            chain.from_iterable(c.values() for c in cites), np.int32, n_events
        )[order]
        per_author = np.fromiter((len(a.publications) for a in authors), np.int64)
        return cls(
            index={a: k for k, a in enumerate(corpus.authors)},
            starts=np.concatenate(([0], np.cumsum(per_author))),
            effective_year=np.fromiter(
                (p.effective_year for p in pubs), np.int32, len(pubs)
            ),
            author_count=np.fromiter(
                (p.author_count for p in pubs), np.int32, len(pubs)
            ),
            event_pub=event_pub,
            event_count=event_count,
            events_until=events_until,
        )


@dataclass(frozen=True)
class SnapshotPublication:
    """A publication restricted to citations up to the observation year."""

    pub_id: str
    effective_year: int
    author_count: int
    citations: int


@dataclass(frozen=True, eq=False)
class Snapshot:
    """The corpus as observable at the end of `observation_year`: a column
    slice of the corpus arrays."""

    observation_year: int
    corpus: AuthorCorpus
    citations: np.ndarray  # float64 per publication, integer-valued

    def __contains__(self, author_id: str) -> bool:
        return author_id in self.corpus.authors

    @cached_property
    def publications(self) -> dict[str, tuple[SnapshotPublication, ...]]:
        """Each author's publications in view, in publication order; built on
        first use for the per-author reference path."""
        cites = iter(self.citations.tolist())
        # zip stops at an author's last paper without taking a count from
        # `cites`, so the counts stay aligned with the next author's papers.
        return {
            author_id: tuple(
                SnapshotPublication(p.pub_id, p.effective_year, p.author_count, int(c))
                for p, c in zip(author.publications, cites)
                if p.effective_year <= self.observation_year
            )
            for author_id, author in self.corpus.authors.items()
        }

    def in_view(self, ids: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(row, pub) of every publication in view of the authors `ids`,
        where row is the author's position in `ids`; grouped by row, in
        publication order within a row."""
        arrays = self.corpus.arrays
        try:
            k = np.array([arrays.index[a] for a in ids], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"unknown author {exc.args[0]!r}") from None
        first, lengths = arrays.starts[k], arrays.starts[k + 1] - arrays.starts[k]
        row = np.repeat(np.arange(len(ids)), lengths)
        shift = first - (np.cumsum(lengths) - lengths)  # pub minus flat position
        pub = np.arange(len(row)) + np.repeat(shift, lengths)
        keep = arrays.effective_year[pub] <= self.observation_year
        return row[keep], pub[keep]


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


def snapshot_at(corpus: AuthorCorpus, year: int) -> Snapshot:
    """Restrict the corpus to publications with effective_year <= year and
    citations accrued through the end of that year.

    Authors with no publications yet remain present with empty sets.
    """
    lo, hi = VALID_YEAR_RANGE
    if not lo <= year <= hi:
        raise ValueError(f"snapshot year {year} outside valid range [{lo}, {hi}]")
    arrays = corpus.arrays
    cut = arrays.events_until[year - lo]
    citations = np.zeros(len(arrays.effective_year))
    # Chunks bound bincount's int64/float64 copies of its inputs to twice
    # the size of the result; the integer sums are exact in float64.
    chunk = max(len(citations), 1 << 16)
    for begin in range(0, cut, chunk):
        end = min(begin + chunk, cut)
        citations += np.bincount(
            arrays.event_pub[begin:end],
            weights=arrays.event_count[begin:end],
            minlength=len(citations),
        )
    return Snapshot(observation_year=year, corpus=corpus, citations=citations)


def citation_vector(
    author_id: str, snapshot: Snapshot, normalizer: str = "none"
) -> CitationVector:
    """Build the (optionally coauthor-normalized) citation vector of an author.

    Normalization is applied before sorting, so the descending order reflects
    the normalized counts.
    """
    if author_id not in snapshot:
        raise KeyError(f"unknown author {author_id!r}")
    if normalizer not in NORMALIZERS:
        raise ValueError(f"unknown normalizer {normalizer!r}")
    pairs = []
    for pub in snapshot.publications[author_id]:
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
    if author_id not in snapshot:
        raise KeyError(f"unknown author {author_id!r}")
    pubs = snapshot.publications[author_id]
    if not pubs:
        return 0.0
    return sum(p.author_count for p in pubs) / len(pubs)
