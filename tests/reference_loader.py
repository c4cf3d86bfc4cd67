"""A reference authors.jsonl loader: every line is decoded with a
repeated-key hook and walked one publication at a time.

This is the per-publication loader from before `load_authors` gained its
one-pass column path for clean lines.  It shares only the column builder,
the report and the error type with `scimetrics.ingest`, so the differential
test in test_ingest_lines.py can hold `load_authors` to the same columns,
reject log and ParseError line and message.
"""

from __future__ import annotations

import json
from collections import Counter

from scimetrics.corpus import VALID_YEAR_RANGE, ColumnBuilder, CorpusArrays
from scimetrics.errors import ParseError
from scimetrics.ingest import CleaningReport

_YEAR_KEYS = {str(y): y for y in range(VALID_YEAR_RANGE[0], VALID_YEAR_RANGE[1] + 1)}


def _integer(value, what):
    if value is not None and type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _decimal(text, what, noun="integer"):
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{what} {text!r} is not a canonical decimal {noun}")
    return value


def _citations(raw):
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


def _year(value):
    year = _integer(value, "year")
    if year is not None and year > VALID_YEAR_RANGE[1]:
        raise ValueError(f"year {year} after {VALID_YEAR_RANGE[1]}")
    return year


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        counts = Counter(key for key, _ in pairs)
        repeated = next(key for key in counts if counts[key] > 1)
        raise ValueError(f"duplicate key {repeated!r}")
    return obj


def _flag(p, key):
    value = p.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"{key} must be true or false, got {value!r}")
    return value


def _object(value, what):
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _string(obj, key, default=None):
    value = obj[key] if default is None else obj.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string, got {value!r}")
    return value


def load_authors(path) -> tuple[CorpusArrays, CleaningReport]:
    columns = ColumnBuilder()
    report = CleaningReport()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                _add_line(columns, report, line)
            except (KeyError, TypeError, ValueError) as exc:
                raise ParseError(
                    str(path), lineno, f"bad author record: {exc}"
                ) from exc
    return columns.finish(), report


def _add_line(columns, report, line):
    obj = _object(json.loads(line, object_pairs_hook=_unique_keys), "the line")
    if "schema_version" in obj and "author_id" not in obj:
        if obj["schema_version"] != 1:
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
        cites = p.get("cites")
        cites = _citations({} if cites is None else _object(cites, "cites"))
        if not all(type(c) is int for c in cites.values()):
            raise ValueError(f"citation counts must be integers: {cites}")
        pub_id = _string(p, "pub_id")
        year = _year(p.get("year"))
        n_authors = _integer(p.get("authors"), "authors")
        patent, duplicate = _flag(p, "is_patent"), _flag(p, "is_duplicate")
        if patent:
            report.record_reject(author_id, pub_id, "patent")
        elif duplicate:
            report.record_reject(author_id, pub_id, "duplicate")
        elif n_authors is None or n_authors < 1:
            report.record_reject(author_id, pub_id, "missing_authors")
        elif year is None:
            report.record_reject(author_id, pub_id, "missing_year")
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
