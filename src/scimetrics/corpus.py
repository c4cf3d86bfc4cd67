"""Immutable data model for authors, publications, citations, and awards,
plus temporal snapshots restricting a corpus to an observation year.

A publication's citations are its rows of the event columns of
`CorpusArrays`; `citations_through` is the one reader that turns them into
totals through a year."""

from __future__ import annotations

from array import array
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

VALID_YEAR_RANGE = (1950, 2030)


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
    rebuilds the profiles from the columns on first use, for `==` and for
    callers that read profiles; no CLI command builds it.
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
            if author_id not in arrays.index:
                raise ValueError(f"grants for unknown author {author_id!r}")
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
        bounds = a.event_start.tolist()
        years, counts = a.event_year.tolist(), a.event_count.tolist()
        pubs = [
            PublicationRecord(pub_id, year, n, _by_year(years[b:e], counts[b:e]))
            for pub_id, year, n, b, e in zip(
                a.pub_id, a.effective_year.tolist(), a.author_count.tolist(),
                bounds, bounds[1:],
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


def _by_year(years: list[int], counts: list[int]) -> dict[int, int]:
    """Citation counts by year; columns built directly, unlike the loaders,
    may repeat a year within a paper, and its counts are then summed."""
    cites = dict.fromkeys(years, 0)
    for year, count in zip(years, counts):
        cites[year] += count
    return cites


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


# The citation events one pass of `citations_through` sums at most, so that
# its transients stay small however large the corpus.
_EVENT_CHUNK = 2**15


def check_years(years: Sequence[int]) -> np.ndarray:
    """`years` as int64; a ValueError unless they ascend and a snapshot can
    observe each.  Each is checked before the conversion, so a year beyond
    64 bits is named like any other out of range."""
    lo, hi = VALID_YEAR_RANGE
    for year in years:
        if not lo <= year <= hi:
            raise ValueError(f"snapshot year {year} outside valid range [{lo}, {hi}]")
    years = np.asarray(years, dtype=np.int64)
    if np.any(np.diff(years) <= 0):
        raise ValueError(f"years must ascend, got {years.tolist()}")
    return years


def accrued(
    since: np.ndarray, owner: np.ndarray, n_years: int, n: int, weights=None
) -> np.ndarray:
    """(n_years, n) int64: for each of owners 0..n-1, the total of the
    integer `weights` (1 each by default) of its items counted in each of
    n_years ascending years.  Item i counts in year index since[i] and every
    later one, so since[i] == n_years counts it in none; callers compute
    `since` as np.searchsorted(years, when) of the items' dates.  Each item
    is added into the bucket of (since, owner), and a running sum over the
    years accumulates the buckets."""
    # A row of owners per year, and a last row that counts in none of them.
    totals = np.zeros((n_years + 1, n), dtype=np.int64)
    # int64 weights keep np.add.at on its fast path.
    added = 1 if weights is None else np.asarray(weights, dtype=np.int64)
    np.add.at(totals.reshape(-1), since * n + owner, added)
    return np.cumsum(totals[:-1], axis=0)


def citations_through(
    arrays: CorpusArrays, first: int, last: int, years: np.ndarray
) -> np.ndarray:
    """(len(years), last - first) int64: the citations of each of
    publications first:last accrued through the end of each of the
    ascending, non-empty `years`.

    The publications are taken in runs of at most _EVENT_CHUNK citation
    events (or one publication with more).  For several years, `accrued`
    sums each run's events by publication.  For one year, a masked
    np.add.reduceat per run does the same with half the passes over the
    events.
    """
    start = arrays.event_start[first : last + 1]
    out = np.zeros((len(years), last - first), dtype=np.int64)
    for a, b in runs(start[:-1], start[1:], _EVENT_CHUNK):
        events = slice(start[a], start[b])
        if len(years) == 1:
            counted = arrays.event_year[events] <= int(years[0])
            counted = np.multiply(arrays.event_count[events], counted, dtype=np.int64)
            # reduceat reads an empty run as the event after it: skip those.
            cited = start[a:b] < start[a + 1 : b + 1]
            out[0, a:b][cited] = np.add.reduceat(counted, start[a:b][cited] - start[a])
        else:
            pub = np.repeat(np.arange(b - a), np.diff(start[a : b + 1]))
            since = np.searchsorted(years, arrays.event_year[events])
            out[:, a:b] = accrued(
                since, pub, len(years), b - a, arrays.event_count[events]
            )
    return out


def runs(
    begin: np.ndarray, end: np.ndarray, size: int
) -> Iterator[tuple[int, int]]:
    """Consecutive runs [i, j) of items, item t spanning begin[t]:end[t] of
    one ascending range, each run spanning at most `size` (or holding one
    item)."""
    i = 0
    while i < len(begin):
        j = max(int(np.searchsorted(end, begin[i] + size, side="right")), i + 1)
        yield i, j
        i = j


@dataclass(frozen=True, eq=False)
class Snapshot:
    """The corpus as observable at the end of `observation_year`."""

    observation_year: int
    corpus: AuthorCorpus


def author_positions(arrays: CorpusArrays, ids: list[str]) -> np.ndarray:
    """The corpus position of each of `ids`; an unknown id is a KeyError."""
    try:
        return np.array([arrays.index[a] for a in ids], dtype=np.int64)
    except KeyError as exc:
        raise KeyError(f"unknown author {exc.args[0]!r}") from None


def in_view(
    arrays: CorpusArrays, k: np.ndarray, year: int
) -> tuple[np.ndarray, np.ndarray]:
    """(row, pub) of every publication dated at or before `year` of the
    authors at corpus positions `k`, where row indexes `k`; grouped by row,
    in publication order within a row."""
    first, lengths = arrays.starts[k], arrays.starts[k + 1] - arrays.starts[k]
    row = np.repeat(np.arange(len(k)), lengths)
    shift = first - (np.cumsum(lengths) - lengths)  # pub minus flat position
    pub = np.arange(len(row)) + np.repeat(shift, lengths)
    keep = arrays.effective_year[pub] <= year
    return row[keep], pub[keep]


def snapshot_at(corpus: AuthorCorpus, year: int) -> Snapshot:
    """Restrict the corpus to publications with effective_year <= year and
    citations accrued through the end of that year.

    Authors with no publications yet remain present with empty sets.  Only
    the year is checked: a snapshot does no per-publication work, and
    `citations_through` sums the citations of publications in its view.
    """
    check_years([year])
    return Snapshot(observation_year=year, corpus=corpus)
