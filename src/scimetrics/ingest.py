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
from array import array
from collections import Counter
from collections.abc import Container, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import orjson

from .corpus import (
    VALID_YEAR_RANGE,
    AuthorCorpus,
    AwardCatalogEntry,
    AwardGrant,
    ColumnBuilder,
    CorpusArrays,
)
from .errors import ParseError

SCHEMA_VERSION = 1

REJECT_MISSING_AUTHORS = "missing_authors"
REJECT_MISSING_YEAR = "missing_year"
REJECT_PATENT = "patent"
REJECT_DUPLICATE = "duplicate"


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


def _decimal(text: str, what: str, noun: str = "integer") -> int:
    """An integer written as a canonical decimal, e.g. "2001"; " 2001",
    "02001" and "2_001", which int() accepts, are rejected, so that no two
    spellings name one value."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{what} {text!r} is not a canonical decimal {noun}")
    return value


def _citations(raw: dict[str, object]) -> dict[int, object]:
    """Citation counts by year from keys written as canonical decimals;
    years after the last one a snapshot can observe are rejected.  Earlier
    years are counted at every snapshot."""
    try:
        return {_YEAR_KEYS[y]: c for y, c in raw.items()}
    except KeyError:
        pass
    cites = {}
    for y, c in raw.items():
        year = _decimal(y, "citation year", "year")
        if year > VALID_YEAR_RANGE[1]:
            raise ValueError(f"citation year {year} after {VALID_YEAR_RANGE[1]}")
        cites[year] = c
    return cites


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


def load_authors(path: str | Path) -> tuple[CorpusArrays, CleaningReport]:
    """Load and clean an authors.jsonl file into columns.  Whatever is wrong
    with a line, from its bytes to a repeated author_id, fails as one
    ParseError naming path:line."""
    columns = ColumnBuilder()
    report = CleaningReport()
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
            if not line.strip():
                continue
            try:
                _add_line(columns, report, line)
            except (KeyError, TypeError, ValueError) as exc:
                # JSONDecodeError and every record and column check are
                # ValueErrors; ParseError is one too, so none is raised here.
                raise ParseError(
                    str(path), lineno, f"bad author record: {exc}"
                ) from exc
    arrays = columns.finish()
    _backdate(arrays)
    return arrays, report


def _backdate(arrays: CorpusArrays) -> None:
    """Lower each publication's effective year, in place, to its first
    citation year where that is earlier.  The column pass appends declared
    years; walked publications already hold the minimum."""
    cited, first_event = arrays.cited
    years = arrays.effective_year
    years[cited] = np.minimum(
        years[cited], np.minimum.reduceat(arrays.event_year, first_event)
    )


def _utf8_lines(fh: Iterable[str], path: str | Path) -> Iterator[str]:
    """The lines of a file opened with errors="surrogateescape"; a line
    holding bytes that are not UTF-8 fails as a ParseError at its path:line,
    where strict decoding would fail in a read that names neither."""
    for lineno, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(str(path), lineno, str(exc)) from None
        yield line


_INT, _STR, _BOOL, _DICT = (frozenset([t]) for t in (int, str, bool, dict))
_DICT_OR_NULL = frozenset([dict, type(None)])


def _values(objects: list[dict], key: str, default=None) -> list:
    """Each object's value of `key`, or `default` where it has none."""
    return list(map(dict.get, objects, repeat(key), repeat(default)))


def _add_line(columns: ColumnBuilder, report: CleaningReport, line: str) -> None:
    """Decode one authors.jsonl line and append the author and its accepted
    publications: in one pass over columns when they are all accepted, else
    by the per-publication walk.

    orjson decodes the line first, keeping the last of a repeated key; its
    object goes only to `_keys_unique` and `_add_clean_author`, which accept
    only the strings, int32 integers, booleans, objects and arrays that
    orjson and json decode alike.  A line the column pass does not take is
    decoded again with json, so `_walk` and its messages see json's values
    where the two differ: orjson makes an integer beyond 64 bits a float and
    rejects NaN, Infinity, 1e400 and a lone surrogate escape.  When
    `_keys_unique` cannot show that no key repeated, json decodes with
    `_unique_keys`, which fails on one, before the column pass.
    """
    try:
        obj = orjson.loads(line)
    except orjson.JSONDecodeError:
        obj = None
    if _keys_unique(line, obj):
        if not _add_clean_author(columns, report, obj):
            _walk(columns, report, json.loads(line))
        return
    obj = json.loads(line, object_pairs_hook=_unique_keys)
    if not _add_clean_author(columns, report, obj):
        _walk(columns, report, obj)


def _keys_unique(line: str, obj) -> bool:
    """Whether `line`, which orjson decoded to `obj`, is shown to repeat
    no key in any of its objects.

    Each member of a JSON object puts exactly one colon outside any string,
    and colons inside strings only add to the count.  So when the line holds
    exactly as many colons as the author, publication and cites objects hold
    keys, no key repeated and no other object has one.
    """
    if type(obj) is not dict:
        return False
    pubs = obj.get("publications", [])
    if not (type(pubs) is list and _DICT.issuperset(map(type, pubs))):
        return False
    cites = _values(pubs, "cites")
    if not _DICT_OR_NULL.issuperset(map(type, cites)):
        return False
    keys = len(obj) + sum(map(len, pubs)) + sum(map(len, filter(None, cites)))
    return line.count(":") == keys


def _add_clean_author(columns: ColumnBuilder, report: CleaningReport, obj) -> bool:
    """Append an author whose publications are all accepted, in one pass over
    columns, and return True; return False, having appended nothing, for any
    other line's object, which `_walk` then takes.  `obj` repeats no key.

    A null cites, a citation year that is not a canonical key from 1950 to
    2030 and a value outside int32 also send the author to the walk, which
    alone records rejects and names faults.
    """
    if type(obj) is not dict:
        return False
    author_id, name, field_tag = (
        obj.get("author_id"), obj.get("name", ""), obj.get("field", "other")
    )
    pubs = obj.get("publications", [])
    if not (type(pubs) is list and _DICT.issuperset(map(type, pubs))):
        return False
    cites = _values(pubs, "cites", {})
    if not (
        _STR.issuperset(map(type, (author_id, name, field_tag)))
        and author_id not in columns.index
        and _DICT.issuperset(map(type, cites))
    ):
        return False
    pub_ids, years = _values(pubs, "pub_id"), _values(pubs, "year")
    n_authors = _values(pubs, "authors")
    flags = _values(pubs, "is_patent", False) + _values(pubs, "is_duplicate", False)
    if not (
        _STR.issuperset(map(type, pub_ids))
        and len(set(pub_ids)) == len(pub_ids)
        and _INT.issuperset(map(type, chain(years, n_authors)))
        and _BOOL.issuperset(map(type, flags))
        and not any(flags)
        and max(years, default=0) <= VALID_YEAR_RANGE[1]
        and min(n_authors, default=1) >= 1
    ):
        return False
    counts = list(chain.from_iterable(map(dict.values, cites)))
    if not (_INT.issuperset(map(type, counts)) and min(counts, default=0) >= 0):
        return False
    cite_years = list(map(_YEAR_KEYS.get, chain.from_iterable(cites)))
    try:
        # A key that is not a canonical year from 1950 to 2030 gave None, a
        # TypeError here.
        cite_years, years, n_authors, counts = (
            array("i", v) for v in (cite_years, years, n_authors, counts)
        )
    except (TypeError, OverflowError):
        return False
    columns.pub_id.extend(pub_ids)
    columns.effective_year.extend(years)  # lowered in `_backdate`
    columns.author_count.extend(n_authors)
    columns.per_pub.extend(map(len, cites))
    columns.event_year.extend(cite_years)
    columns.event_count.extend(counts)
    columns.add_author(author_id, name, field_tag)
    report.accepted += len(pubs)
    return True


def _walk(columns: ColumnBuilder, report: CleaningReport, obj) -> None:
    """Check one decoded authors.jsonl line a publication at a time and
    append the author and its accepted publications.

    The cleaning rule: a patent, a duplicate, a record without a positive
    author count and one without a year are rejected, in that order; an
    accepted publication's effective year is the minimum of its declared
    year and its first citation year, which repairs records cited before
    their listed date.  Every record is type-checked, but only accepted ones
    have their counts checked for sign and their pub_ids for repeats.
    """
    obj = _object(obj, "the line")
    if "schema_version" in obj and "author_id" not in obj:
        if obj["schema_version"] != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {obj['schema_version']}")
        return
    author_id = _string(obj, "author_id")
    if author_id in columns.index:
        raise ValueError(f"duplicate author_id {author_id!r}")
    publications = obj.get("publications", [])
    if not isinstance(publications, list):
        raise ValueError(
            f"publications must be a JSON array, got {type(publications).__name__}"
        )
    first = len(columns.pub_id)
    for p in publications:
        p = _object(p, "publication")
        cites = p.get("cites")  # absent or null: no citations
        cites = _citations({} if cites is None else _object(cites, "cites"))
        if not all(type(c) is int for c in cites.values()):
            raise ValueError(f"citation counts must be integers: {cites}")
        pub_id = _string(p, "pub_id")
        year = _year(p.get("year"))
        n_authors = _integer(p.get("authors"), "authors")
        patent, duplicate = _flag(p, "is_patent"), _flag(p, "is_duplicate")
        if patent:
            report.record_reject(author_id, pub_id, REJECT_PATENT)
        elif duplicate:
            report.record_reject(author_id, pub_id, REJECT_DUPLICATE)
        elif n_authors is None or n_authors < 1:
            report.record_reject(author_id, pub_id, REJECT_MISSING_AUTHORS)
        elif year is None:
            report.record_reject(author_id, pub_id, REJECT_MISSING_YEAR)
        else:
            for y, c in cites.items():
                if c < 0:
                    raise ValueError(f"{pub_id}: negative citation count in {y}")
            effective_year = min(year, min(cites, default=year))
            columns.add_publication(pub_id, effective_year, n_authors, cites)
            report.accepted += 1
    name = _string(obj, "name", "")
    field_tag = _string(obj, "field", "other")
    pub_ids = columns.pub_id[first:]
    if len(set(pub_ids)) != len(pub_ids):
        raise ValueError(f"{author_id}: duplicate pub_ids")
    columns.add_author(author_id, name, field_tag)


def _csv_records(fh: Iterable[str], path: str | Path) -> Iterator[tuple[int, dict]]:
    """The records of a CSV file after its header row, each as a dict by the
    header with the number of the physical line it starts on.  A quoted
    field can hold line breaks, so a record can span lines, and
    csv.DictReader skips empty lines, so the count of records is not a line
    number."""
    start = []  # the first line the reader pulled since the last record

    def lines() -> Iterator[str]:
        for lineno, line in enumerate(_utf8_lines(fh, path), start=1):
            if not start and line.strip("\r\n"):
                start.append(lineno)
            yield line

    reader = csv.DictReader(lines())
    reader.fieldnames  # reads the header row
    start.clear()
    for row in reader:
        yield start.pop(), row


def load_catalog(path: str | Path) -> dict[str, AwardCatalogEntry]:
    catalog: dict[str, AwardCatalogEntry] = {}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, row in _csv_records(fh, path):
            try:
                entry = AwardCatalogEntry(
                    award_id=row["award_id"],
                    name=row.get("name", ""),
                    total_laureates=_decimal(
                        row["total_laureates"], "total_laureates"
                    ),
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
    author_ids: Container[str],
    catalog: dict[str, AwardCatalogEntry],
) -> dict[str, list[AwardGrant]]:
    """Grants by author; a grant naming an unknown author or award, dated
    after the last year a snapshot can observe, or repeating an earlier row,
    fails at its line."""
    grants: dict[str, list[AwardGrant]] = {}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, row in _csv_records(fh, path):
            try:
                author_id = row["author_id"]
                grant = AwardGrant(
                    award_id=row["award_id"],
                    year_conferred=_year(_decimal(row["year"], "year", "year")),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(str(path), lineno, f"bad award row: {exc}") from exc
            if author_id not in author_ids:
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
    arrays, report = load_authors(authors_path)
    catalog = load_catalog(catalog_path) if catalog_path else {}
    grants = load_grants(awards_path, arrays.index, catalog) if awards_path else {}
    return AuthorCorpus.from_columns(arrays, grants, catalog), report


class _CiteKeys(dict):
    """'"YYYY": ', the key of a `cites` entry, made once per citation year."""

    def __missing__(self, year: int) -> str:
        self[year] = key = f'"{year}": '
        return key


def save_corpus(corpus: AuthorCorpus, out_dir: str | Path) -> dict[str, Path]:
    """Write authors.jsonl, awards.csv, catalog.csv; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "authors": out / "authors.jsonl",
        "awards": out / "awards.csv",
        "catalog": out / "catalog.csv",
    }
    arrays = corpus.arrays
    starts = arrays.starts.tolist()
    years = arrays.effective_year.tolist()
    counts = arrays.author_count.tolist()
    cite_key = _CiteKeys().__getitem__
    text = encode_basestring_ascii  # json.dumps's own escaper
    with open(paths["authors"], "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION}) + "\n")
        # Each line is the bytes of json.dumps(author, sort_keys=True): keys
        # in string order, ", " and ": " separators.  A '"YYYY": ' cites key
        # sorts as its year string does, since '"' sorts before "-" and digits.
        for author_id in sorted(arrays.index):
            k = arrays.index[author_id]
            first, last = starts[k], starts[k + 1]
            cites = (
                ", ".join(sorted([cite_key(y) + str(c) for y, c in zip(ys, cs)]))
                for ys, cs in arrays.citations(first, last)
            )
            pubs = ", ".join(
                f'{{"authors": {n}, "cites": {{{c}}}, '
                f'"pub_id": {text(p)}, "year": {y}}}'
                for p, y, n, c in zip(
                    arrays.pub_id[first:last], years[first:last], counts[first:last], cites
                )
            )
            fh.write(
                f'{{"author_id": {text(author_id)}, "field": {text(arrays.fields[k])}, '
                f'"name": {text(arrays.names[k])}, "publications": [{pubs}]}}\n'
            )
    with open(paths["awards"], "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["author_id", "award_id", "year"])
        for author_id in sorted(arrays.index):
            for grant in corpus.grants.get(author_id, ()):
                writer.writerow([author_id, grant.award_id, grant.year_conferred])
    with open(paths["catalog"], "w", newline="", encoding="utf-8") as fh:
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
