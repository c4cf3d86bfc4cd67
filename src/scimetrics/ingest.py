"""File loading, cleaning, and offline profile matching.

Formats:
  authors.jsonl  one author per line:
                 {"author_id", "name", "field", "publications": [
                     {"pub_id", "year", "authors", "cites": {year: count},
                      "is_patent"?, "is_duplicate"?}]}
                 with string ids, name and field, integer year, authors and
                 counts, and boolean flags; an optional first line
                 {"schema_version": 1} is honored.
  awards.csv     header exactly author_id,award_id,year (AWARDS_COLUMNS)
  catalog.csv    header exactly award_id,name,total_laureates (CATALOG_COLUMNS)
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import json
import os
import string
import tempfile
import zipfile
from array import array
from collections import Counter
from collections.abc import Callable, Container, Iterable, Iterator
from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import methodcaller
from pathlib import Path
from typing import BinaryIO

import numpy as np
import orjson

from .corpus import (
    VALID_YEAR_RANGE,
    AuthorCorpus,
    AwardCatalogEntry,
    AwardGrant,
    ColumnBuilder,
    CorpusArrays,
    runs,
)
from .errors import ParseError

SCHEMA_VERSION = 1
# Each CSV file's header: exactly these names, in this order.
AWARDS_COLUMNS = ("author_id", "award_id", "year")
CATALOG_COLUMNS = ("award_id", "name", "total_laureates")

REJECT_MISSING_AUTHORS = "missing_authors"
REJECT_MISSING_YEAR = "missing_year"
REJECT_PATENT = "patent"
REJECT_DUPLICATE = "duplicate"


@dataclass
class CleaningReport:
    accepted: int = 0
    reject_log: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def rejected_by_reason(self) -> Counter:
        return Counter(reason for _, _, reason in self.reject_log)

    @property
    def rejected(self) -> int:
        return len(self.reject_log)

    def record_reject(self, author_id: str, pub_id: str, reason: str) -> None:
        self.reject_log.append((author_id, pub_id, reason))

    def csv_text(self) -> str:
        """Counts by reason as CSV text."""
        counts = sorted(self.rejected_by_reason.items())
        return csv_text([["reason", "count"], ["accepted", self.accepted], *counts])


def csv_text(rows: Iterable[Iterable[object]], newline: str = "\r\n") -> str:
    """`rows` as CSV text in the csv default dialect, each row ended by `newline`."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator=newline).writerows(rows)
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
    ParseError naming path:line.

    The columns and report of a successful parse are kept in a column cache
    beside the file (`cache_path`), and later loads read them back while the
    file's bytes and the loader's code are those they were parsed with.  A
    cache that cannot be written is skipped, and deleting one is always safe.
    """
    cache = cache_path(path)
    cached = _read_cache(cache, path)
    if cached is not None:
        return cached
    arrays, report, digest = parse_authors(path)
    try:
        write_files({cache: lambda fh: _write_cache(fh, arrays, report, digest)})
    except OSError:
        pass  # a read-only directory: the next load parses again
    return arrays, report


def parse_authors(path: str | Path) -> tuple[CorpusArrays, CleaningReport, bytes]:
    """`load_authors` without the column cache: the columns and report of the
    file at `path`, and the SHA-256 of the bytes they were parsed from,
    hashed as they are read."""
    columns = ColumnBuilder()
    report = CleaningReport()
    with open(path, "rb", buffering=0) as file:
        raw = _HashingReader(file)
        # open()'s own text layers: universal newlines, "\r" included.
        fh = io.TextIOWrapper(
            io.BufferedReader(raw), encoding="utf-8", errors="surrogateescape"
        )
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
    report.accepted = len(arrays.pub_id)  # each accepted publication is a row
    return arrays, report, raw.sha.digest()


class _HashingReader(io.RawIOBase):
    """A raw file, opened and closed by the caller, whose bytes are hashed
    into `sha` as they are read."""

    def __init__(self, file: BinaryIO) -> None:
        self._file = file
        self.sha = hashlib.sha256()

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(buffer)
        self.sha.update(memoryview(buffer)[:n])
        return n


def cache_path(path: str | Path) -> Path:
    """The column cache of an authors file: `.authors.jsonl.columns.npz`
    beside `authors.jsonl`."""
    path = Path(path)
    return path.with_name(f".{path.name}.columns.npz")


@functools.cache
def _code_key() -> bytes:
    """The SHA-256 of the source of this loader and of the columns it
    builds, so that any edit to either invalidates every column cache."""
    sha = hashlib.sha256()
    for source in (Path(__file__), Path(__file__).with_name("corpus.py")):
        sha.update(source.read_bytes())
    return sha.digest()


def _sha256(path: str | Path) -> bytes:
    """The digest `parse_authors` returns for the file at `path`."""
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            sha.update(block)
    return sha.digest()


# Every member of a column cache, in the order a hit reads them, each a
# one-dimensional array of this dtype.  The integer columns of CorpusArrays
# are kept as they are.  The author ids, names and fields, the pub_ids and
# the reject log's triples are one ASCII `text`: lines that each hold a
# compact JSON array of up to _STRINGS_AT_ONCE strings, which escapes NUL
# and lone surrogates like any other character.
_CACHE_DTYPES = {
    "code": np.uint8,
    "digest": np.uint8,
    "starts": np.int64,
    "effective_year": np.int32,
    "text": np.uint8,
    "author_count": np.int32,
    "event_start": np.int64,
    "event_year": np.int32,
    "event_count": np.int32,
}
_CACHE_FAULTS = (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile)
_STRINGS_AT_ONCE = 1 << 14


def _write_cache(
    fh: BinaryIO, arrays: CorpusArrays, report: CleaningReport, digest: bytes
) -> None:
    """Write the column cache of `arrays` and `report`, parsed from bytes
    whose SHA-256 is `digest`, in the format np.savez writes: a zip of
    stored .npy members.  np.savez would copy each column in 16 MiB pieces
    and need the text as one array; here each column is written from its
    own buffer and the text a line at a time, so that writing adds little
    more than the encoded lines to memory, and a load that writes a cache
    peaks no higher than a parse."""
    strings = chain(
        arrays.index, arrays.names, arrays.fields, arrays.pub_id,
        chain.from_iterable(report.reject_log),
    )
    text = [
        (json.dumps(batch, separators=(",", ":")) + "\n").encode("ascii")
        for batch in iter(lambda: list(islice(strings, _STRINGS_AT_ONCE)), [])
    ]
    members = {
        "code": (32, [_code_key()]),
        "digest": (32, [digest]),
        "text": (sum(map(len, text)), text),
    }
    for name in _CACHE_DTYPES.keys() - members.keys():  # the integer columns
        column = getattr(arrays, name)
        members[name] = (len(column), [column])
    with zipfile.ZipFile(fh, "w") as zf:
        for name, dtype in _CACHE_DTYPES.items():
            count, chunks = members[name]
            header = {
                "descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
                "fortran_order": False,
                "shape": (count,),
            }
            with zf.open(f"{name}.npy", "w", force_zip64=True) as out:
                np.lib.format.write_array_header_1_0(out, header)
                for chunk in chunks:
                    out.write(memoryview(chunk).cast("B"))


def _read_cache(
    cache: Path, path: str | Path
) -> tuple[CorpusArrays, CleaningReport] | None:
    """The columns and report kept in `cache`, or None unless it is a zip of
    every member with its dtype and a consistent length, written by this
    loader's code from the bytes now at `path`.  The members are read
    through the zip and .npy layers `_write_cache` writes with, so nothing
    is unpickled, and the file is closed on every path."""
    try:
        with zipfile.ZipFile(cache) as zf:
            return _cached_columns(zf, path)
    except _CACHE_FAULTS:
        return None


def _cached_columns(
    zf: zipfile.ZipFile, path: str | Path
) -> tuple[CorpusArrays, CleaningReport] | None:
    """`_read_cache` of an open zip; a member that is not as `_write_cache`
    writes it is a ValueError.  The strings are cut before the citation
    events are read, so that a hit peaks lower than a parse."""

    def member(name: str) -> np.ndarray:
        with zf.open(f"{name}.npy") as fh:
            array = np.lib.format.read_array(fh, allow_pickle=False)
        if array.dtype != _CACHE_DTYPES[name] or array.ndim != 1:
            raise ValueError(f"column cache member {name} is {array.dtype}")
        return array

    if bytes(member("code")) != _code_key():
        return None
    if bytes(member("digest")) != _sha256(path):
        return None
    starts, effective_year = member("starts"), member("effective_year")
    n_authors, n_pubs = len(starts) - 1, len(effective_year)
    ids, names, fields, pub_id, rejects = _cut(
        member("text"), [n_authors] * 3 + [n_pubs]
    )
    author_count, event_start = member("author_count"), member("event_start")
    event_year, event_count = member("event_year"), member("event_count")
    if not (
        len(author_count) == len(event_start) - 1 == n_pubs == starts[-1]
        and len(event_year) == len(event_count) == event_start[-1]
    ):
        raise ValueError("column cache members differ in length")
    reject_log = list(zip(*[iter(rejects)] * 3))
    arrays = CorpusArrays(
        index=dict(zip(ids, range(n_authors))),
        names=names,
        fields=fields,
        starts=starts,
        pub_id=pub_id,
        effective_year=effective_year,
        author_count=author_count,
        event_start=event_start,
        event_year=event_year,
        event_count=event_count,
    )
    # every accepted publication is a row of the columns
    return arrays, CleaningReport(accepted=n_pubs, reject_log=reject_log)


def _cut(text: np.ndarray, counts: list[int]) -> list[list[str]]:
    """The strings of a column cache's `text` as lists of `counts` strings
    each, then one list of the rest, which must make whole triples."""
    *lines, end = text.tobytes().split(b"\n")
    if end:
        raise ValueError("column cache text does not end with a newline")
    strings = chain.from_iterable(map(_json_strings, lines))
    cut = [list(islice(strings, n)) for n in counts]  # a count < 0 is a ValueError
    cut.append(list(strings))
    if list(map(len, cut[:-1])) != counts or len(cut[-1]) % 3:
        raise ValueError("column cache strings do not fit its columns")
    return cut


def _json_strings(line: bytes) -> list[str]:
    """A line of a column cache's text, which must be a JSON array of
    strings."""
    try:
        strings = orjson.loads(line)
    except orjson.JSONDecodeError:
        strings = json.loads(line)  # orjson refuses a lone surrogate escape
    if type(strings) is not list or not _STR.issuperset(map(type, strings)):
        raise ValueError("column cache text holds a line that is not strings")
    return strings


@functools.cache
def _umask() -> int:
    """The process's umask, read once: reading it means setting it."""
    mask = os.umask(0o077)
    os.umask(mask)
    return mask


def encoded(path: Path, text: str) -> bytes:
    """`text`, to be written to `path`, as UTF-8; text UTF-8 cannot hold,
    such as an id with a lone surrogate, is an error naming path:line."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        line = text.count("\n", 0, exc.start) + 1
        raise ValueError(
            f"{path}:{line}: cannot write {exc.object[exc.start:exc.end]!r} "
            f"as UTF-8 ({exc.reason})"
        ) from None


def write_files(writers: dict[Path, Callable[[BinaryIO], object]]) -> None:
    """Write each path through its writer under a temporary name beside it,
    and rename them all into place once every one is written; on a failure
    every temporary is removed, so no file is replaced and none is partial
    (a failed rename leaves those before it).  Each file gets the mode
    `open()` would give it, where mkstemp's 0600 would hide it from others."""
    staged = []
    try:
        for path, write in writers.items():
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
            staged.append((tmp, path))
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fh.fileno(), 0o666 & ~_umask())
                write(fh)
        for tmp, path in staged:
            os.replace(tmp, path)
    except BaseException:
        for tmp, _ in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)
        raise


def _backdate(arrays: CorpusArrays) -> None:
    """Lower each publication's effective year, in place, to its first
    citation year where that is earlier, which repairs records cited before
    their listed date.  This is the only place the rule is applied: the
    column pass and `_walk` both append declared years."""
    # reduceat reads an empty run as the event after it, and a trailing one
    # as out of range, so uncited publications are left out.
    start = arrays.event_start
    cited = start[:-1] < start[1:]
    years = arrays.effective_year
    years[cited] = np.minimum(
        years[cited], np.minimum.reduceat(arrays.event_year, start[:-1][cited])
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
        if not _add_clean_author(columns, obj):
            _walk(columns, report, json.loads(line))
        return
    obj = json.loads(line, object_pairs_hook=_unique_keys)
    if not _add_clean_author(columns, obj):
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


def _add_clean_author(columns: ColumnBuilder, obj) -> bool:
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
    return True


def _walk(columns: ColumnBuilder, report: CleaningReport, obj) -> None:
    """Check one decoded authors.jsonl line a publication at a time and
    append the author and its accepted publications.

    The cleaning rule: a patent, a duplicate, a record without a positive
    author count and one without a year are rejected, in that order; an
    accepted publication is appended with its declared year, which
    `_backdate` later lowers to its first citation year where that is
    earlier.  Every record is type-checked, but only accepted ones have
    their counts checked for sign and their pub_ids for repeats.
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
            columns.add_publication(pub_id, year, n_authors, cites)
    name = _string(obj, "name", "")
    field_tag = _string(obj, "field", "other")
    pub_ids = columns.pub_id[first:]
    if len(set(pub_ids)) != len(pub_ids):
        raise ValueError(f"{author_id}: duplicate pub_ids")
    columns.add_author(author_id, name, field_tag)


def _csv_records(
    fh: Iterable[str], path: str | Path, columns: tuple[str, ...]
) -> Iterator[tuple[int, list[str]]]:
    """The records of a CSV file after its header row, each as its list of
    fields with the number of the physical line it starts on.  A quoted
    field can hold line breaks, so a record can span lines, and empty lines
    are empty rows, so a record starts on the line after the row before it
    ends (`csv.reader.line_num`).  A header that repeats a name or is not
    exactly `columns`, in order, or a record with more or fewer fields than
    the header, fails at its line, as does a row `csv` cannot read, such as
    one with a field over `csv.field_size_limit()`; an empty file has no
    records."""
    reader = csv.reader(_utf8_lines(fh, path))
    end = 0  # the last line of the row before
    try:
        header = next(reader, [])
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ParseError(str(path), 1, f"header repeats column {name!r}")
        if header and tuple(header) != columns:
            message = f"header {','.join(header)!r} is not {','.join(columns)!r}"
            raise ParseError(str(path), 1, message)
        end = reader.line_num
        for row in reader:
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(header):
                message = f"record has {len(row)} fields, header has {len(header)}"
                raise ParseError(str(path), lineno, message)
            yield lineno, row
    except csv.Error as exc:
        raise ParseError(str(path), end + 1, str(exc)) from None


def load_catalog(path: str | Path) -> dict[str, AwardCatalogEntry]:
    catalog: dict[str, AwardCatalogEntry] = {}
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, (award_id, name, total) in _csv_records(fh, path, CATALOG_COLUMNS):
            try:
                entry = AwardCatalogEntry(
                    award_id, name, _decimal(total, "total_laureates")
                )
            except ValueError as exc:
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
        for lineno, (author_id, award_id, year) in _csv_records(
            fh, path, AWARDS_COLUMNS
        ):
            try:
                grant = AwardGrant(award_id, _year(_decimal(year, "year", "year")))
            except ValueError as exc:
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


# Citation events one block of authors holds at most, unless a single author
# holds more: enough to amortise the numpy calls, few enough that the block's
# strings stay a small transient beside the corpus.
_WRITE_EVENTS = 1 << 14


def save_corpus(corpus: AuthorCorpus, out_dir: str | Path) -> dict[str, Path]:
    """Write authors.jsonl, awards.csv and catalog.csv into `out_dir`, all
    or none (`write_files`); returns the paths.  The CSV text is encoded
    before any directory or file is made, and authors.jsonl is written a
    block of authors at a time, so the write's peak memory is one block's.
    Columns that repeat a year within a paper are a ValueError."""
    out = Path(out_dir)
    paths = {
        "authors": out / "authors.jsonl",
        "awards": out / "awards.csv",
        "catalog": out / "catalog.csv",
    }
    arrays = corpus.arrays
    ids = sorted(arrays.index)
    tables = {
        "awards": [AWARDS_COLUMNS] + [
            [author_id, grant.award_id, grant.year_conferred]
            for author_id in ids
            for grant in corpus.grants.get(author_id, ())
        ],
        "catalog": [CATALOG_COLUMNS] + [
            [award_id, entry.name, entry.total_laureates]
            for award_id, entry in sorted(corpus.catalog.items())
        ],
    }
    writers = {
        paths[name]: methodcaller("write", encoded(paths[name], csv_text(rows)))
        for name, rows in tables.items()
    }
    ks = np.fromiter(map(arrays.index.__getitem__, ids), np.int64, len(ids))
    author_events = arrays.event_start[arrays.starts]  # author k's: [k] to [k + 1]
    events = author_events[ks + 1] - author_events[ks]
    end = np.cumsum(events)  # author i's events: end[i] - events[i] to end[i]

    def write_authors(fh: BinaryIO) -> None:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION}).encode() + b"\n")
        for lo, hi in runs(end - events, end, _WRITE_EVENTS):
            fh.write(_author_lines(arrays, ids[lo:hi], ks[lo:hi]).encode())

    out.mkdir(parents=True, exist_ok=True)
    write_files({paths["authors"]: write_authors, **writers})
    return paths


def _ranges(begin: np.ndarray, length: np.ndarray) -> np.ndarray:
    """The indices begin[i]:begin[i] + length[i], for each i in turn, as one
    array."""
    offset = np.cumsum(length) - length
    return np.repeat(begin - offset, length) + np.arange(length.sum())


def _joined(items: list[str], lengths: np.ndarray) -> list[str]:
    """Each run of lengths[i] consecutive items, in turn, joined by ", "."""
    bounds = [0, *accumulate(lengths.tolist())]
    return [", ".join(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _author_lines(arrays: CorpusArrays, ids: list[str], ks: np.ndarray) -> str:
    """The authors.jsonl lines of authors ids, at corpus positions ks.

    Each line is the bytes of json.dumps(author, sort_keys=True): keys in
    string order, ", " and ": " separators.  A '"YYYY": ' cites key sorts as
    its year string does, since '"' sorts before "-" and digits.
    """
    starts, event_start = arrays.starts, arrays.event_start
    per_author = starts[ks + 1] - starts[ks]
    pubs = _ranges(starts[ks], per_author)
    per_pub = event_start[pubs + 1] - event_start[pubs]
    events = _ranges(event_start[pubs], per_pub)
    # each publication's events in the string order of their years
    years, year = np.unique(arrays.event_year[events], return_inverse=True)
    keys = list(map(str, years.tolist()))
    rank = np.empty(len(keys), np.int64)
    rank[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    pub = np.repeat(np.arange(len(pubs)), per_pub)
    key = pub * len(keys) + rank[year]
    order = np.argsort(key, kind="stable")
    # a "cites" object holds a year once; columns built directly may repeat it
    repeats = order[1:][np.diff(key[order]) == 0]
    if len(repeats):
        i = repeats[0]
        pub_id = arrays.pub_id[pubs[pub[i]]]
        raise ValueError(f"{pub_id}: repeated citation year {keys[year[i]]}")
    # each distinct (year, count) pair formatted once; counts are >= 0
    pairs, which = np.unique(
        (year[order].astype(np.int64) << 32) + arrays.event_count[events[order]],
        return_inverse=True,
    )
    cite = [
        f'"{keys[y]}": {c}'
        for y, c in zip(*(column.tolist() for column in np.divmod(pairs, 1 << 32)))
    ]
    text = encode_basestring_ascii  # json.dumps's own escaper
    pub_text = [
        f'{{"authors": {n}, "cites": {{{c}}}, "pub_id": {text(p)}, "year": {y}}}'
        for p, y, n, c in zip(
            map(arrays.pub_id.__getitem__, pubs.tolist()),
            arrays.effective_year[pubs].tolist(),
            arrays.author_count[pubs].tolist(),
            _joined(list(map(cite.__getitem__, which.tolist())), per_pub),
        )
    ]
    return "".join(
        f'{{"author_id": {text(a)}, "field": {text(arrays.fields[k])}, '
        f'"name": {text(arrays.names[k])}, "publications": [{p}]}}\n'
        for a, k, p in zip(ids, ks.tolist(), _joined(pub_text, per_author))
    )


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
