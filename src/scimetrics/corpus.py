"""Immutable data model for authors, publications, citations, and awards,
plus temporal snapshots restricting a corpus to an observation year."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

VALID_YEAR_RANGE = (1950, 2030)

FIELD_TAGS = ("biology", "computer-science", "economics", "physics", "other")

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

    def citations_until(self, year: int) -> int:
        return sum(c for y, c in self.citations_by_year.items() if y <= year)


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


@dataclass(frozen=True)
class SnapshotPublication:
    """A publication restricted to citations up to the observation year."""

    pub_id: str
    effective_year: int
    author_count: int
    citations: int


@dataclass(frozen=True)
class Snapshot:
    """The corpus as observable at the end of `observation_year`."""

    observation_year: int
    publications: dict[str, tuple[SnapshotPublication, ...]]

    def __contains__(self, author_id: str) -> bool:
        return author_id in self.publications


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
    by_author: dict[str, tuple[SnapshotPublication, ...]] = {}
    for author_id, author in corpus.authors.items():
        pubs = tuple(
            SnapshotPublication(
                pub_id=p.pub_id,
                effective_year=p.effective_year,
                author_count=p.author_count,
                citations=p.citations_until(year),
            )
            for p in author.publications
            if p.effective_year <= year
        )
        by_author[author_id] = pubs
    return Snapshot(observation_year=year, publications=by_author)


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
