"""Immutable data model for authors, publications, citations, and awards,
plus temporal snapshots restricting a corpus to an observation year."""

from __future__ import annotations

import math
from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

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


class AuthorCorpus:
    """A corpus as columns (`arrays`), each author's grants and the award
    catalog the grants reference.

    The constructor flattens profiles, for tests and library callers; ingest
    and synth write the columns directly and call `from_columns`.  `authors`
    rebuilds the profiles from the columns on first use, for the per-author
    reference path; no CLI command builds it.
    """

    def __init__(
        self,
        authors: dict[str, AuthorProfile] | None = None,
        catalog: dict[str, AwardCatalogEntry] | None = None,
    ):
        authors = authors or {}
        columns = ColumnBuilder()
        for author_id, author in authors.items():
            for p in author.publications:
                columns.add_publication(
                    p.pub_id, p.effective_year, p.author_count, p.citations_by_year
                )
            columns.add_author(author_id, author.display_name, author.field_tag)
        grants = {a: author.awards for a, author in authors.items() if author.awards}
        self._set(columns.finish(), grants, catalog or {})

    @classmethod
    def from_columns(
        cls,
        arrays: CorpusArrays,
        grants: dict[str, Sequence[AwardGrant]],
        catalog: dict[str, AwardCatalogEntry],
    ) -> AuthorCorpus:
        """A corpus over columns that are already built."""
        corpus = cls.__new__(cls)
        corpus._set(arrays, grants, catalog)
        return corpus

    def _set(
        self,
        arrays: CorpusArrays,
        grants: dict[str, Sequence[AwardGrant]],
        catalog: dict[str, AwardCatalogEntry],
    ) -> None:
        for author_id, author_grants in grants.items():
            for grant in author_grants:
                if grant.award_id not in catalog:
                    raise ValueError(
                        f"{author_id}: unknown award_id {grant.award_id!r}"
                    )
        self.arrays = arrays
        self.grants = {a: tuple(g) for a, g in grants.items()}
        self.catalog = catalog

    def __eq__(self, other) -> bool:
        if not isinstance(other, AuthorCorpus):
            return NotImplemented
        return (self.authors, self.catalog) == (other.authors, other.catalog)

    @cached_property
    def authors(self) -> dict[str, AuthorProfile]:
        """The profiles, in corpus order, rebuilt from the columns."""
        a = self.arrays
        pubs = [
            PublicationRecord(pub_id, year, count, dict(zip(*cites)))
            for pub_id, year, count, cites in zip(
                a.pub_id,
                a.effective_year.tolist(),
                a.author_count.tolist(),
                a.citations(0, len(a.pub_id)),
            )
        ]
        starts = a.starts.tolist()
        return {
            author_id: AuthorProfile(
                author_id,
                a.names[k],
                a.fields[k],
                tuple(pubs[starts[k] : starts[k + 1]]),
                self.grants.get(author_id, ()),
            )
            for k, author_id in enumerate(a.index)
        }


@dataclass(frozen=True, eq=False)
class CorpusArrays:
    """Authors, their publications and the publications' citation events as
    columns, in the order they were added.

    Author k is the k-th key of `index`, named names[k] in field fields[k];
    its publications are rows starts[k]:starts[k + 1] of the per-publication
    columns.  Publication i's citation events (year, count) are rows
    event_start[i]:event_start[i + 1] of the per-event columns, in the order
    its record listed them.
    """

    index: dict[str, int]  # author id -> position in corpus order
    names: list[str]
    fields: list[str]
    starts: np.ndarray  # int64, one more than there are authors
    pub_id: list[str]
    effective_year: np.ndarray  # int32 per publication
    author_count: np.ndarray  # int32 per publication
    event_start: np.ndarray  # int64, one more than there are publications
    event_year: np.ndarray  # int32 per citation event
    event_count: np.ndarray  # int32 per citation event

    @cached_property
    def cited(self) -> tuple[np.ndarray, np.ndarray]:
        """Which publications have citation events, and where each such one's
        events begin: the indices for a reduceat over the event columns.
        reduceat reads an empty run as the event after it, and a trailing one
        as out of range, so uncited publications are left out."""
        start = self.event_start
        cited = start[:-1] < start[1:]
        return cited, start[:-1][cited]

    def citations(
        self, first: int, last: int
    ) -> Iterator[tuple[list[int], list[int]]]:
        """Each of publications first:last as its citation years and the
        counts of those years."""
        bounds = self.event_start[first : last + 1].tolist()
        lo = bounds[0]
        years = self.event_year[lo : bounds[-1]].tolist()
        counts = self.event_count[lo : bounds[-1]].tolist()
        for begin, end in zip(bounds, bounds[1:]):
            yield years[begin - lo : end - lo], counts[begin - lo : end - lo]


class ColumnBuilder:
    """Appends authors and their publications to column buffers, then
    `finish`es them, once, into CorpusArrays.

    The integer buffers are array("i"), 4 bytes a value, so a value that does
    not fit an int32 column fails where it is added, named, instead of in
    numpy later.  A loader holding an author's publications as columns
    extends the buffers itself: per_pub[i] events, in event order, belong to
    publication i.
    """

    def __init__(self) -> None:
        self.index: dict[str, int] = {}
        self.names: list[str] = []
        self.fields: list[str] = []
        self.starts = array("q", [0])
        self.pub_id: list[str] = []
        self.effective_year = array("i")
        self.author_count = array("i")
        self.per_pub = array("i")  # citation events of each publication
        self.event_year = array("i")
        self.event_count = array("i")

    def add_publication(
        self,
        pub_id: str,
        effective_year: int,
        author_count: int,
        citations: dict[int, int],
    ) -> None:
        """Append a publication of the author that `add_author` adds next."""
        try:
            self.effective_year.append(effective_year)
            self.author_count.append(author_count)
            self.event_year.extend(citations)
            self.event_count.extend(citations.values())
        except OverflowError:
            raise ValueError(
                _outside_int32(effective_year, author_count, citations)
            ) from None
        self.per_pub.append(len(citations))
        self.pub_id.append(pub_id)

    def add_author(self, author_id: str, name: str, field: str) -> None:
        """Append an author whose publications are the ones added since the
        previous author."""
        self.index[author_id] = len(self.names)
        self.names.append(name)
        self.fields.append(field)
        self.starts.append(len(self.pub_id))

    def finish(self) -> CorpusArrays:
        per_pub = np.frombuffer(self.per_pub, np.int32)
        return CorpusArrays(
            index=self.index,
            names=self.names,
            fields=self.fields,
            starts=np.frombuffer(self.starts, np.int64),
            pub_id=self.pub_id,
            effective_year=np.frombuffer(self.effective_year, np.int32),
            author_count=np.frombuffer(self.author_count, np.int32),
            event_start=np.concatenate(([0], np.cumsum(per_pub, dtype=np.int64))),
            event_year=np.frombuffer(self.event_year, np.int32),
            event_count=np.frombuffer(self.event_count, np.int32),
        )


def _outside_int32(
    effective_year: int, author_count: int, citations: dict[int, int]
) -> str:
    """Names the first value of a publication that does not fit an int32."""
    named = [("citation year", y) for y in citations]
    named += [("year", effective_year), ("authors", author_count)]
    named += [("citation count", c) for c in citations.values()]
    return outside_int32(*next((w, v) for w, v in named if not -(2**31) <= v < 2**31))


def outside_int32(what: str, value: int) -> str:
    return f"{what} {value} is outside the 32-bit integer range"


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
    citations: np.ndarray  # int64 per publication

    def __contains__(self, author_id: str) -> bool:
        return author_id in self.corpus.arrays.index

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
    cited, first_event = arrays.cited
    citations = np.zeros(len(cited), dtype=np.int64)
    citations[cited] = np.add.reduceat(
        np.multiply(arrays.event_count, arrays.event_year <= year, dtype=np.int64),
        first_event,
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
