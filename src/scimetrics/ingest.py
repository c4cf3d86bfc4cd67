"""File loading, cleaning, and offline profile matching.

Formats:
  authors.jsonl  one author per line:
                 {"author_id", "name", "field", "publications": [
                     {"pub_id", "year", "authors", "cites": {year: count},
                      "is_patent"?, "is_duplicate"?}]}
                 with string ids, name and field, integer year, authors and
                 counts, and boolean flags; an optional first line
                 {"schema_version": 1} is honored.
  awards.csv     header author_id,award_id,year
  catalog.csv    header award_id,name,total_laureates
"""

from __future__ import annotations

import csv
import io
import json
import string
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .corpus import (
    VALID_YEAR_RANGE,
    AuthorCorpus,
    AuthorProfile,
    AwardCatalogEntry,
    AwardGrant,
    PublicationRecord,
)
from .errors import ParseError

SCHEMA_VERSION = 1

REJECT_MISSING_AUTHORS = "missing_authors"
REJECT_MISSING_YEAR = "missing_year"
REJECT_PATENT = "patent"
REJECT_DUPLICATE = "duplicate"


@dataclass(frozen=True)
class RawPublication:
    """A publication as it appears in an export, before cleaning."""

    pub_id: str
    declared_year: int | None = None
    author_count: int | None = None
    citations_by_year: dict[int, int] = field(default_factory=dict)
    is_patent: bool = False
    is_duplicate: bool = False


@dataclass
class CleaningReport:
    accepted: int = 0
    rejected_by_reason: Counter = field(default_factory=Counter)
    reject_log: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def rejected(self) -> int:
        return sum(self.rejected_by_reason.values())

    @property
    def total(self) -> int:
        return self.accepted + self.rejected

    def record_reject(self, author_id: str, pub_id: str, reason: str) -> None:
        self.rejected_by_reason[reason] += 1
        self.reject_log.append((author_id, pub_id, reason))

    def csv_text(self) -> str:
        """Counts by reason as CSV text (the csv default dialect, CRLF rows)."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["reason", "count"])
        writer.writerow(["accepted", self.accepted])
        for reason in sorted(self.rejected_by_reason):
            writer.writerow([reason, self.rejected_by_reason[reason]])
        return buf.getvalue()


def clean_publication(
    raw: RawPublication,
) -> tuple[PublicationRecord | None, str | None]:
    """Apply the cleaning rules to one raw record.

    Returns (record, None) on acceptance or (None, reason) on rejection.
    The effective year is the minimum of the declared year and the first
    citation year, which repairs records cited before their listed date.
    """
    if raw.is_patent:
        return None, REJECT_PATENT
    if raw.is_duplicate:
        return None, REJECT_DUPLICATE
    if raw.author_count is None or raw.author_count < 1:
        return None, REJECT_MISSING_AUTHORS
    if raw.declared_year is None:
        return None, REJECT_MISSING_YEAR
    effective_year = raw.declared_year
    if raw.citations_by_year:
        effective_year = min(effective_year, min(raw.citations_by_year))
    return (
        PublicationRecord(
            pub_id=raw.pub_id,
            effective_year=effective_year,
            author_count=raw.author_count,
            citations_by_year=dict(raw.citations_by_year),
        ),
        None,
    )


def _integer(value, what: str) -> int | None:
    """A JSON integer or null; floats and strings are rejected, never
    truncated."""
    if value is not None and type(value) is not int:  # bool subclasses int
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


# Canonical keys of the years a snapshot can observe.  On the common path a
# lookup is both the check and the conversion, and all parsed years share
# these int objects instead of holding one each.
_YEAR_KEYS = {str(y): y for y in range(VALID_YEAR_RANGE[0], VALID_YEAR_RANGE[1] + 1)}


def _citations(raw: dict[str, object]) -> dict[int, object]:
    """Citation counts by year from keys written as canonical decimals, e.g.
    "2001"; " 2001", "02001" and "2_001", which int() accepts, are rejected
    so that no two keys can name one year, and so are years after the last
    one a snapshot can observe.  Earlier years are counted at every
    snapshot."""
    try:
        return {_YEAR_KEYS[y]: c for y, c in raw.items()}
    except KeyError:
        pass
    for y in raw:
        if str(int(y)) != y:
            raise ValueError(f"citation year {y!r} is not a canonical decimal year")
        if int(y) > VALID_YEAR_RANGE[1]:
            raise ValueError(f"citation year {y} after {VALID_YEAR_RANGE[1]}")
    return {int(y): c for y, c in raw.items()}


def _year(value) -> int | None:
    """A publication year a snapshot can observe, or null; a year before the
    first snapshot is in view at every one."""
    year = _integer(value, "year")
    if year is not None and year > VALID_YEAR_RANGE[1]:
        raise ValueError(f"year {year} after {VALID_YEAR_RANGE[1]}")
    return year


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object whose keys are all distinct; json.loads alone would keep
    the last of a repeated key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key in counts if counts[key] > 1)
        raise ValueError(f"duplicate key {repeated!r}")
    return obj


def _flag(p: dict, key: str) -> bool:
    """A JSON boolean, false when absent; strings such as "false" are rejected."""
    value = p.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _object(value, what: str) -> dict:
    """A JSON object; arrays and scalars are rejected, never iterated."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _string(obj: dict, key: str, default: str | None = None) -> str:
    """A JSON string, or `default` when the key is absent and there is one;
    numbers and null are rejected, never converted."""
    value = obj[key] if default is None else obj.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def _raw_publication(p) -> RawPublication:
    p = _object(p, "publication")
    cites = p.get("cites")  # absent or null: no citations
    cites = _citations({} if cites is None else _object(cites, "cites"))
    if not all(type(c) is int for c in cites.values()):
        raise ValueError(f"citation counts must be integers: {cites}")
    return RawPublication(
        pub_id=_string(p, "pub_id"),
        declared_year=_year(p.get("year")),
        author_count=_integer(p.get("authors"), "authors"),
        citations_by_year=cites,
        is_patent=_flag(p, "is_patent"),
        is_duplicate=_flag(p, "is_duplicate"),
    )


def load_authors(path: str | Path) -> tuple[dict[str, AuthorProfile], CleaningReport]:
    """Load and clean an authors.jsonl file.  Whatever is wrong with a line,
    from its JSON to a repeated author_id, fails as one ParseError naming
    path:line."""
    authors: dict[str, AuthorProfile] = {}
    report = CleaningReport()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = _object(
                    json.loads(line, object_pairs_hook=_unique_keys), "the line"
                )
                if "schema_version" in obj and "author_id" not in obj:
                    if obj["schema_version"] != SCHEMA_VERSION:
                        raise ValueError(
                            f"unsupported schema_version {obj['schema_version']}"
                        )
                    continue
                author_id = _string(obj, "author_id")
                if author_id in authors:
                    raise ValueError(f"duplicate author_id {author_id!r}")
                publications = obj.get("publications", [])
                if not isinstance(publications, list):
                    raise ValueError(
                        "publications must be a JSON array, "
                        f"got {type(publications).__name__}"
                    )
                cleaned = []
                for p in publications:
                    raw = _raw_publication(p)
                    record, reason = clean_publication(raw)
                    if record is None:
                        report.record_reject(author_id, raw.pub_id, reason)
                    else:
                        report.accepted += 1
                        cleaned.append(record)
                authors[author_id] = AuthorProfile(
                    author_id=author_id,
                    display_name=_string(obj, "name", ""),
                    field_tag=_string(obj, "field", "other"),
                    publications=tuple(cleaned),
                )
            except (KeyError, TypeError, ValueError) as exc:
                # JSONDecodeError and every record and profile check are
                # ValueErrors; ParseError is one too, so none is raised here.
                raise ParseError(
                    str(path), lineno, f"bad author record: {exc}"
                ) from exc
    return authors, report


def load_catalog(path: str | Path) -> dict[str, AwardCatalogEntry]:
    catalog: dict[str, AwardCatalogEntry] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for lineno, row in enumerate(reader, start=2):
            try:
                entry = AwardCatalogEntry(
                    award_id=row["award_id"],
                    name=row.get("name", ""),
                    total_laureates=int(row["total_laureates"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(str(path), lineno, f"bad catalog row: {exc}") from exc
            if entry.award_id in catalog:
                raise ParseError(
                    str(path), lineno, f"duplicate award_id {entry.award_id!r}"
                )
            catalog[entry.award_id] = entry
    return catalog


def load_grants(
    path: str | Path,
    authors: dict[str, AuthorProfile],
    catalog: dict[str, AwardCatalogEntry],
) -> dict[str, list[AwardGrant]]:
    """Grants by author; a grant naming an unknown author or award, or
    repeating an earlier row, fails at its line."""
    grants: dict[str, list[AwardGrant]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for lineno, row in enumerate(reader, start=2):
            try:
                author_id = row["author_id"]
                grant = AwardGrant(
                    award_id=row["award_id"], year_conferred=int(row["year"])
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(str(path), lineno, f"bad award row: {exc}") from exc
            if author_id not in authors:
                raise ParseError(
                    str(path), lineno, f"award grant for unknown author {author_id!r}"
                )
            if grant.award_id not in catalog:
                raise ParseError(
                    str(path), lineno,
                    f"{author_id}: grant references unknown award {grant.award_id!r}",
                )
            if grant in grants.get(author_id, ()):
                raise ParseError(
                    str(path), lineno,
                    f"repeated grant {author_id},{grant.award_id},{grant.year_conferred}",
                )
            grants.setdefault(author_id, []).append(grant)
    return grants


def load_corpus(
    authors_path: str | Path,
    awards_path: str | Path | None = None,
    catalog_path: str | Path | None = None,
) -> tuple[AuthorCorpus, CleaningReport]:
    """Load a full corpus; grants referencing unknown authors or award ids
    fail."""
    authors, report = load_authors(authors_path)
    catalog = load_catalog(catalog_path) if catalog_path else {}
    grants = load_grants(awards_path, authors, catalog) if awards_path else {}
    for author_id, author_grants in grants.items():
        authors[author_id] = replace(authors[author_id], awards=tuple(author_grants))
    return AuthorCorpus(authors=authors, catalog=catalog), report


def save_corpus(corpus: AuthorCorpus, out_dir: str | Path) -> dict[str, Path]:
    """Write authors.jsonl, awards.csv, catalog.csv; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "authors": out / "authors.jsonl",
        "awards": out / "awards.csv",
        "catalog": out / "catalog.csv",
    }
    with open(paths["authors"], "w") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION}) + "\n")
        for author_id in sorted(corpus.authors):
            author = corpus.authors[author_id]
            obj = {
                "author_id": author.author_id,
                "name": author.display_name,
                "field": author.field_tag,
                "publications": [
                    {
                        "pub_id": p.pub_id,
                        "year": p.effective_year,
                        "authors": p.author_count,
                        "cites": {
                            str(y): p.citations_by_year[y]
                            for y in sorted(p.citations_by_year)
                        },
                    }
                    for p in author.publications
                ],
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
    with open(paths["awards"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["author_id", "award_id", "year"])
        for author_id in sorted(corpus.authors):
            for grant in corpus.authors[author_id].awards:
                writer.writerow([author_id, grant.award_id, grant.year_conferred])
    with open(paths["catalog"], "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["award_id", "name", "total_laureates"])
        for award_id in sorted(corpus.catalog):
            entry = corpus.catalog[award_id]
            writer.writerow([award_id, entry.name, entry.total_laureates])
    return paths


# --- profile matching -------------------------------------------------------

_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


@dataclass(frozen=True)
class ProfileExport:
    """One author profile from a bibliographic export: papers as
    (title, citation_count), plus the profile's total paper count."""

    profile_id: str
    name: str
    papers: tuple[tuple[str, int], ...]
    paper_count: int


@dataclass(frozen=True)
class MatchResult:
    pairs: tuple[tuple[str, str], ...]
    ambiguous: tuple[str, ...]  # a-profiles with tied best candidates


def normalize_title(title: str) -> str:
    """Casefold, strip punctuation, collapse whitespace."""
    return " ".join(title.casefold().translate(_PUNCT_TABLE).split())


def _top_titles(profile: ProfileExport, limit: int = 100) -> set[str]:
    top = sorted(profile.papers, key=lambda t: -t[1])[:limit]
    return {normalize_title(title) for title, _ in top}


def match_profiles(
    a_profiles: list[ProfileExport],
    b_profiles: list[ProfileExport],
    min_papers_b: int = 50,
    min_title_matches: int = 3,
) -> MatchResult:
    """Pair profiles by overlapping normalized titles among each profile's
    100 most-cited papers.

    Candidate b-profiles must have paper_count > min_papers_b.  An a-profile
    pairs with the candidate sharing the most titles, provided the overlap
    reaches min_title_matches; ties between candidates are reported as
    ambiguous, not guessed.
    """
    candidates = [b for b in b_profiles if b.paper_count > min_papers_b]
    candidate_titles = [(b, _top_titles(b)) for b in candidates]
    pairs = []
    ambiguous = []
    for a in a_profiles:
        a_titles = _top_titles(a)
        scored = []
        for b, b_titles in candidate_titles:
            overlap = len(a_titles & b_titles)
            if overlap >= min_title_matches:
                scored.append((overlap, b.profile_id))
        if not scored:
            continue
        best = max(count for count, _ in scored)
        winners = [pid for count, pid in scored if count == best]
        if len(winners) > 1:
            ambiguous.append(a.profile_id)
        else:
            pairs.append((a.profile_id, winners[0]))
    return MatchResult(pairs=tuple(pairs), ambiguous=tuple(ambiguous))
