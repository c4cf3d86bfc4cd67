"""The column cache beside authors.jsonl: a load that hits it returns exactly
what a parse returns, and anything stale, damaged or foreign in its place is
a miss that parses and rewrites it."""

import dataclasses
import hashlib
import json
import os
import pickle
import stat
import zipfile
from pathlib import Path

import numpy as np
import pytest

from scimetrics import cli, ingest
from scimetrics.errors import ParseError
from scimetrics.ingest import cache_path, load_authors, parse_authors, save_corpus
from scimetrics.synth import SynthConfig, generate


def columns_and_report(arrays, report):
    """Every field of the columns, with each array's dtype, and the report."""
    columns = {f.name: getattr(arrays, f.name) for f in dataclasses.fields(arrays)}
    for name, column in columns.items():
        if hasattr(column, "dtype"):
            columns[name] = (column.dtype.str, column.shape, column.tolist())
    reasons = list(report.rejected_by_reason.items())
    return columns, report.accepted, report.reject_log, reasons


@pytest.fixture
def parses(monkeypatch):
    """The paths that `load_authors` parsed, in order."""
    parsed = []

    def spy(path):
        parsed.append(path)
        return parse(path)

    parse = ingest.parse_authors
    monkeypatch.setattr(ingest, "parse_authors", spy)
    return parsed


def load_twice(path, parses):
    """Load `path` into a new cache, then again from it; both equal a parse."""
    assert not cache_path(path).exists()
    expected = columns_and_report(*parse_authors(path)[:2])
    assert columns_and_report(*load_authors(path)) == expected
    assert parses == [path] and cache_path(path).is_file()
    hit = load_authors(path)
    assert columns_and_report(*hit) == expected
    assert parses == [path]
    columns = vars(hit[0]).values()
    assert all(c.flags.writeable for c in columns if isinstance(c, np.ndarray))
    return expected


def line(author_id, pubs=(), **extra):
    return json.dumps({"author_id": author_id, "publications": list(pubs), **extra})


def pub(pub_id, **fields):
    return {"pub_id": pub_id, "year": 2000, "authors": 2, "cites": {"2001": 3}} | fields


def write_lines(tmp_path, *lines):
    path = tmp_path / "authors.jsonl"
    path.write_text("".join(text + "\n" for text in lines), encoding="utf-8")
    return path


class TestHitEqualsParse:
    @pytest.mark.parametrize("regime", ["classic", "growing", "hyper"])
    def test_saved_synthetic_corpus(self, tmp_path, parses, regime):
        config = SynthConfig(n_authors=30, team_size_regime=regime, rng_seed=7)
        path = save_corpus(generate(config), tmp_path)["authors"]
        columns, accepted, _, _ = load_twice(path, parses)
        assert accepted == len(columns["pub_id"]) > 0

    def test_a_reject_of_each_reason(self, tmp_path, parses):
        path = write_lines(
            tmp_path,
            '{"schema_version": 1}',
            line("a1", [pub("p1"), pub("p2", is_patent=True), pub("p3", year=None)]),
            line("a2", [pub("q1", authors=None), pub("q2", is_duplicate=True)]),
            line("a3", [pub("r1", authors=0, is_patent=True), pub("r2")]),
        )
        _, accepted, reject_log, reasons = load_twice(path, parses)
        assert accepted == 2
        assert reject_log == [
            ("a1", "p2", "patent"),
            ("a1", "p3", "missing_year"),
            ("a2", "q1", "missing_authors"),
            ("a2", "q2", "duplicate"),
            ("a3", "r1", "patent"),
        ]
        assert reasons == [
            ("patent", 2), ("missing_year", 1), ("missing_authors", 1), ("duplicate", 1)
        ]

    def test_non_ascii_and_lone_surrogates(self, tmp_path, parses):
        # "\ud83d" then "\ude00" would be one emoji as a pair; ids are stored
        # next to each other, so the two must come back as two lone halves.
        path = write_lines(
            tmp_path,
            r'{"author_id": "Gödel-\ud83d", "name": "x\ud800", "field": "数学", '
            r'"publications": [{"pub_id": "p-\udfff\u00e9", "year": 2000, '
            r'"authors": 2}]}',
            r'{"author_id": "\ude00", "name": "🙂 ü\n\"q\"", "publications": '
            r'[{"pub_id": "\ud800", "year": 2000, "authors": 2, "is_patent": true}]}',
        )
        columns, _, reject_log, _ = load_twice(path, parses)
        assert list(columns["index"]) == ["Gödel-\ud83d", "\ude00"]
        assert columns["names"] == ["x\ud800", '🙂 ü\n"q"']
        assert columns["fields"] == ["数学", "other"]
        assert columns["pub_id"] == ["p-\udfffé"]
        assert reject_log == [("\ude00", "\ud800", "patent")]

    def test_empty_file(self, tmp_path, parses):
        path = write_lines(tmp_path)
        columns, accepted, reject_log, _ = load_twice(path, parses)
        assert columns["index"] == {} and (accepted, reject_log) == (0, [])
        assert columns["starts"] == ("<i8", (1,), [0])

    def test_author_without_publications(self, tmp_path, parses):
        path = write_lines(tmp_path, line("a1"), line("a2", [pub("p1")]), line("a3"))
        columns, _, _, _ = load_twice(path, parses)
        assert columns["starts"] == ("<i8", (4,), [0, 0, 1, 1])


def cache_members(path):
    with np.load(cache_path(path), allow_pickle=False) as npz:
        return dict(npz)


def rewrite_cache(path, **members):
    """Replace members of the cache of `path`, keeping its keys valid."""
    members = {**cache_members(path), **members}
    with open(cache_path(path), "wb") as fh:
        np.savez(fh, **members)


def edit_text(text, old, new):
    """The cache's `text` with its first `old` bytes replaced by `new`."""
    edited = bytes(text).replace(old, new, 1)
    assert edited != bytes(text)
    return np.frombuffer(edited, np.uint8)


class TestMissRewrites:
    @pytest.fixture
    def path(self, tmp_path):
        """An authors file with a reject, loaded once into a new cache."""
        path = write_lines(tmp_path, line("a1", [pub("p1"), pub("p2", is_patent=True)]))
        load_authors(path)
        return path

    def assert_missed(self, path, parses):
        """The next load parses, rewrites the cache, and the one after hits."""
        expected = columns_and_report(*parse_authors(path)[:2])
        parsed = len(parses)
        assert columns_and_report(*load_authors(path)) == expected
        assert parses[parsed:] == [path]
        members = cache_members(path)
        assert bytes(members["digest"]) == hashlib.sha256(path.read_bytes()).digest()
        assert bytes(members["code"]) == ingest._code_key()
        assert columns_and_report(*load_authors(path)) == expected
        assert parses[parsed:] == [path]

    def test_one_byte_edit(self, path, parses):
        path.write_text(path.read_text().replace('"2001": 3', '"2001": 4'))
        self.assert_missed(path, parses)
        assert load_authors(path)[0].event_count.tolist() == [4]

    def test_changed_code_key(self, path, parses, monkeypatch):
        monkeypatch.setattr(ingest, "_code_key", lambda: bytes(32))
        self.assert_missed(path, parses)

    def test_truncated_cache(self, path, parses):
        cache = cache_path(path)
        cache.write_bytes(cache.read_bytes()[:10])
        self.assert_missed(path, parses)

    def test_random_bytes(self, path, parses):
        cache_path(path).write_bytes(np.random.default_rng(1).bytes(4096))
        self.assert_missed(path, parses)

    @pytest.mark.parametrize(
        "change",
        [
            lambda m: {"event_year": m["event_year"].astype(np.int64)},
            lambda m: {"starts": m["starts"].astype(np.int32)},
            lambda m: {"event_count": m["event_count"][:-1]},
            lambda m: {"effective_year": m["effective_year"][:0]},
            lambda m: {"text": m["text"][:-1]},
            lambda m: {"text": edit_text(m["text"], b'["a1"', b'[a1"')},
            lambda m: {"text": edit_text(m["text"], b'"a1"', b"7")},
            lambda m: {"text": edit_text(m["text"], b'other","p1', b"otherp1")},
            lambda m: {"text": edit_text(m["text"], b',"p1","a1","p2","patent"', b"")},
            lambda m: {"text": np.append(m["text"], np.frombuffer(b"[]", np.uint8))},
            # as many characters as the columns need strings
            lambda m: {"text": np.frombuffer(b'"abcdefg"\n', np.uint8)},
            lambda m: {"author_count": m["author_count"].reshape(1, -1)},
        ],
        ids=["int64-events", "int32-starts", "short-events", "no-years",
             "short-text", "text-not-json", "text-holding-a-number",
             "text-with-two-strings-joined", "text-with-too-few-strings",
             "text-without-a-final-newline", "text-a-string-not-an-array",
             "2d-authors"],
    )
    def test_wrong_dtype_or_length(self, path, parses, change):
        rewrite_cache(path, **change(cache_members(path)))
        self.assert_missed(path, parses)

    def test_object_array_is_not_unpickled(self, path, parses, monkeypatch):
        rewrite_cache(path, starts=cache_members(path)["starts"].astype(object))

        def refuse(*args, **kwargs):
            raise AssertionError("a column cache was unpickled")

        monkeypatch.setattr(pickle, "load", refuse)
        monkeypatch.setattr(pickle, "loads", refuse)
        self.assert_missed(path, parses)

    def test_npy_in_place_of_the_npz(self, path, parses):
        with open(cache_path(path), "wb") as fh:
            np.save(fh, np.arange(3))
        self.assert_missed(path, parses)

    def test_member_that_is_not_an_npy(self, path, parses):
        with zipfile.ZipFile(cache_path(path)) as zf:
            members = {name: zf.read(name) for name in zf.namelist()}
        with zipfile.ZipFile(cache_path(path), "w") as zf:
            for name, data in members.items():
                zf.writestr(name, b"not an npy" if name == "code.npy" else data)
        self.assert_missed(path, parses)


# A read-only directory fails at mkstemp; a failure after the temporary file
# exists must remove it.
@pytest.mark.parametrize(
    "module, name", [(ingest.tempfile, "mkstemp"), (ingest.os, "replace")],
    ids=["mkstemp", "replace"],
)
def test_unwritable_directory_loads_and_leaves_no_file(
    tmp_path, monkeypatch, module, name
):
    path = write_lines(tmp_path, line("a1", [pub("p1")]))
    expected = columns_and_report(*parse_authors(path)[:2])

    def deny(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(module, name, deny)
    assert columns_and_report(*load_authors(path)) == expected
    assert [p.name for p in tmp_path.iterdir()] == ["authors.jsonl"]


@pytest.fixture
def umask(request):
    """Run under the umask `request.param`, read afresh by `write_files`."""
    ingest._umask.cache_clear()
    old = os.umask(request.param)
    yield request.param
    os.umask(old)
    ingest._umask.cache_clear()


# mkstemp creates 0600 whatever the umask; the cache, the CLI's reports and
# synth's corpus get the mode that open() gives, so a shared corpus and its
# cache stay readable.
@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o002, 0o664), (0o077, 0o600)],
    indirect=["umask"], ids=["022", "002", "077"],
)
def test_cache_and_reports_get_the_umask_mode(tmp_path, umask, mode):
    path = write_lines(tmp_path, line("a1", [pub("p1")]))
    load_authors(path)
    assert stat.S_IMODE(cache_path(path).stat().st_mode) == mode
    report = tmp_path / "out" / "report.csv"
    assert cli.main(["validate", "--corpus", str(tmp_path), "--report", str(report)]) == 0
    assert stat.S_IMODE(report.stat().st_mode) == mode
    config = tmp_path / "config.json"
    config.write_text('{"n_authors": 3}')
    corpus = tmp_path / "synth"
    assert cli.main(["synth", "--config", str(config), "--out", str(corpus)]) == 0
    names = ["authors.jsonl", "awards.csv", "catalog.csv"]
    assert sorted(p.name for p in corpus.iterdir()) == names
    for name in names:
        assert stat.S_IMODE((corpus / name).stat().st_mode) == mode


def test_malformed_line_fails_alike_twice_and_is_never_cached(tmp_path, parses):
    path = write_lines(tmp_path, line("a1", [pub("p1")]), '{"author_id": "a2", ')
    messages = []
    for _ in range(2):
        with pytest.raises(ParseError) as err:
            load_authors(path)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"{path}:2: bad author record: ")
    assert parses == [path, path]
    assert [p.name for p in tmp_path.iterdir()] == ["authors.jsonl"]


def test_strings_with_nul_or_a_lone_surrogate_are_cached(tmp_path, parses, capsys):
    # The cache's text is JSON, which escapes both like any other character.
    pubs = [pub("p\u00001"), pub("p2", is_patent=True)]
    path = write_lines(tmp_path, line("a1", pubs, name="N\u0000me\ud800"))
    expected = columns_and_report(*parse_authors(path)[:2])
    assert expected[0]["pub_id"] == ["p\u00001"]
    assert expected[0]["names"] == ["N\u0000me\ud800"]
    outputs = []
    for _ in range(2):
        assert cli.main(["validate", "--corpus", str(tmp_path)]) == 0
        outputs.append(capsys.readouterr())
        assert parses == [path] and cache_path(path).is_file()
    assert outputs[0] == outputs[1]
    assert columns_and_report(*load_authors(path)) == expected
    assert parses == [path]


def test_cache_name_and_members(tmp_path):
    path = write_lines(tmp_path, line("a1", [pub("p1")]))
    load_authors(path)
    assert cache_path(path) == tmp_path / ".authors.jsonl.columns.npz"
    members = cache_members(path)
    assert {name: a.dtype.str for name, a in members.items()} == {
        "code": "|u1", "digest": "|u1", "starts": "<i8", "effective_year": "<i4",
        "author_count": "<i4", "event_start": "<i8", "event_year": "<i4",
        "event_count": "<i4", "text": "|u1",
    }
    # the author id, name and field, then the pub_id, as a line of JSON
    assert bytes(members["text"]) == b'["a1","","other","p1"]\n'


def test_code_key_is_the_digest_of_the_loader_source():
    package = Path(ingest.__file__).parent
    source = (package / "ingest.py").read_bytes() + (package / "corpus.py").read_bytes()
    assert ingest._code_key() == hashlib.sha256(source).digest()
