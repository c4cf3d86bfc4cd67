"""load_authors against a reference per-publication loader: clean lines take
one column pass, proven free of repeated keys by a colon count, and every
line, clean or not, loads or fails exactly as the reference walk has it."""

import dataclasses
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

import reference_loader
from scimetrics import ingest
from scimetrics.errors import ParseError
from scimetrics.ingest import load_authors, save_corpus
from scimetrics.synth import SynthConfig, generate


def outcome(load, path):
    """What a loader makes of a file: its columns and report, or its error."""
    try:
        arrays, report = load(path)
    except ParseError as exc:
        return "error", str(exc)
    columns = {
        f.name: getattr(arrays, f.name) for f in dataclasses.fields(arrays)
    }
    for name, column in columns.items():
        if hasattr(column, "dtype"):
            columns[name] = (column.dtype.str, column.tolist())
    return "ok", columns, report.accepted, report.reject_log


def check_against_reference(tmp_path, text):
    path = tmp_path / "authors.jsonl"
    path.write_text(text, encoding="utf-8")
    result = outcome(load_authors, path)
    assert result == outcome(reference_loader.load_authors, path)
    return result


GOOD_PUB = '{"pub_id": "p1", "year": 2000, "authors": 2, "cites": {"2001": 3}}'


def author_line(body: str) -> str:
    return '{"author_id": "a1", ' + body + "}\n"


class TestRepeatedKeyProof:
    @pytest.mark.parametrize(
        "line, message",
        [
            (author_line('"a": 1, "a": 2, "publications": []'), "duplicate key 'a'"),
            (
                author_line('"extra": {"k": 1, "k": 2}, "publications": []'),
                "duplicate key 'k'",
            ),
            (
                author_line(
                    '"publications": [{"pub_id": "p1", "year": 2000, "authors": 2, '
                    '"extra": {"k": 1, "k": 2}}]'
                ),
                "duplicate key 'k'",
            ),
            (
                author_line('"\\u0061": 1, "a": 2, "publications": []'),
                "duplicate key 'a'",
            ),
            (
                '{"author_id": "a1", "a": 1, "a": 2, "publications": []} trailing\n',
                "duplicate key 'a'",
            ),
            (
                author_line('"name": "\\u003a", "a": 1, "a": 2, "publications": []'),
                "duplicate key 'a'",
            ),
            (
                author_line('"name": "x:y", "a": ":", "a": 2, "publications": []'),
                "duplicate key 'a'",
            ),
            (
                author_line(
                    '"a": 1, "a": 2, "publications": [{"pub_id": "p1", "year": 2000, '
                    '"authors": 2, "cites": [1]}]'
                ),
                "duplicate key 'a'",
            ),
        ],
        ids=["top", "extra", "extra-in-pub", "escaped", "trailing", "escaped-colon",
             "string-colons", "array-cites"],
    )
    def test_repeated_key_fails(self, tmp_path, line, message):
        # A key repeated in cites: test_colliding_citation_years_fail_with_location.
        result = check_against_reference(tmp_path, line)
        path = tmp_path / "authors.jsonl"
        assert result == ("error", f"{path}:1: bad author record: {message}")

    @pytest.mark.parametrize(
        "line",
        [
            author_line(
                '"publications": [{"pub_id": "p1", "year" : 2000, "authors": 2}]'
            ),
            author_line('"name": "x\\":\\"y", "publications": [' + GOOD_PUB + "]"),
            author_line('"name": "q\\\\\\":", "publications": [' + GOOD_PUB + "]"),
            author_line('"extra": {"k": 1}, "publications": [' + GOOD_PUB + "]"),
            author_line('"publications": [], "title": "a: b"'),
        ],
        ids=["spaced-colon", "quoted-colon", "escaped-quote-colon", "extra", "title"],
    )
    def test_colons_beyond_the_keys_still_load(self, tmp_path, line):
        result = check_against_reference(tmp_path, line)
        assert result[0] == "ok"
        assert result[1]["index"] == {"a1": 0}

    def test_names_with_colons_keep_their_text(self, tmp_path):
        names = ['x":"y', 'q\\":']
        text = "".join(
            json.dumps({"author_id": f"a{i}", "name": name, "publications": []}) + "\n"
            for i, name in enumerate(names)
        )
        _, columns, _, _ = check_against_reference(tmp_path, text)
        assert columns["names"] == names

    @pytest.mark.parametrize(
        "fault, reason",
        [
            ('"year": 2001, "authors": 1, "is_patent": true', "patent"),
            ('"year": 2001, "authors": 1, "is_duplicate": true', "duplicate"),
            ('"year": 2001, "authors": 0', "missing_authors"),
            ('"year": 2001, "authors": null', "missing_authors"),
            ('"year": null, "authors": 1', "missing_year"),
        ],
    )
    def test_reject_among_accepted_papers(self, tmp_path, fault, reason):
        line = author_line(
            '"publications": [' + GOOD_PUB + ", "
            '{"pub_id": "p2", ' + fault + "}, "
            '{"pub_id": "p3", "year": 2002, "authors": 1, "cites": {"2002": 4}}]'
        )
        _, columns, accepted, reject_log = check_against_reference(tmp_path, line)
        assert (accepted, reject_log) == (2, [("a1", "p2", reason)])
        assert columns["pub_id"] == ["p1", "p3"]

    def test_null_and_absent_cites_load(self, tmp_path):
        line = author_line(
            '"publications": [' + GOOD_PUB + ", "
            '{"pub_id": "p2", "year": 2001, "authors": 1, "cites": null}, '
            '{"pub_id": "p3", "year": 2002, "authors": 1}]'
        )
        _, columns, accepted, _ = check_against_reference(tmp_path, line)
        assert accepted == 3
        assert columns["event_start"] == ("<i8", [0, 1, 1, 1])

    def test_citation_before_1950(self, tmp_path):
        line = author_line(
            '"publications": [{"pub_id": "p1", "year": 1960, "authors": 2, '
            '"cites": {"1940": 1, "1961": 2}}]'
        )
        _, columns, _, _ = check_against_reference(tmp_path, line)
        assert columns["effective_year"] == ("<i4", [1940])
        assert columns["event_year"] == ("<i4", [1940, 1961])

    def test_saved_author_lines_take_the_column_pass(self, tmp_path, monkeypatch):
        walked = []
        _walk = ingest._walk

        def walk(columns, report, obj):
            walked.append(obj)
            return _walk(columns, report, obj)

        monkeypatch.setattr(ingest, "_walk", walk)
        corpus = generate(SynthConfig(n_authors=20, rng_seed=4))
        paths = save_corpus(corpus, tmp_path / "out")
        assert outcome(load_authors, paths["authors"]) == outcome(
            reference_loader.load_authors, paths["authors"]
        )
        assert walked == [{"schema_version": 1}]

    def test_only_unproven_lines_are_decoded_again(self, tmp_path, monkeypatch):
        hooked = []
        _unique_keys = ingest._unique_keys

        def unique_keys(pairs):
            hooked.append(pairs[0][0])
            return _unique_keys(pairs)

        monkeypatch.setattr(ingest, "_unique_keys", unique_keys)
        reject = '{"pub_id": "p2", "year": 2001, "authors": 1, "is_patent": true}'
        lines = [
            '{"author_id": "a1", "publications": [' + GOOD_PUB + ", " + reject + "]}",
            '{"author_id": "a2", "publications": [' + GOOD_PUB + "]}",
            '{"author_id": "a3", "publications": [], "b": 1, "b": 2}',
        ]
        text = "".join(line + "\n" for line in lines)
        assert check_against_reference(tmp_path, text)[0] == "error"
        assert hooked == ["author_id"]


class TestDecoderBoundary:
    """orjson decodes every line first, but only the column pass sees its
    object: it makes an integer beyond 64 bits a float and rejects what json
    accepts as NaN, infinity and a lone surrogate, so a line the pass does
    not take loads or fails on json's values."""

    @pytest.mark.parametrize(
        "fault, reason",
        [
            (f'"authors": {10**20}, "is_patent": true', "patent"),
            (f'"authors": {-(2**63) - 1}, "is_patent": true', "patent"),
            (f'"authors": {-(2**63) - 1}', "missing_authors"),
        ],
        ids=["patent-1e20", "patent-below-int64", "missing-authors-below-int64"],
    )
    def test_huge_author_count_on_a_reject(self, tmp_path, fault, reason):
        line = author_line(
            '"publications": [' + GOOD_PUB + ', {"pub_id": "p2", "year": 2001, '
            + fault + "}]"
        )
        _, columns, accepted, reject_log = check_against_reference(tmp_path, line)
        assert (accepted, reject_log) == (1, [("a1", "p2", reason)])
        assert columns["pub_id"] == ["p1"]

    @pytest.mark.parametrize("count", [10**20, 2**64])
    def test_huge_author_count_fails_as_outside_int32(self, tmp_path, count):
        line = author_line(
            f'"publications": [{{"pub_id": "p1", "year": 2000, "authors": {count}}}]'
        )
        path = tmp_path / "authors.jsonl"
        assert check_against_reference(tmp_path, line) == (
            "error",
            f"{path}:1: bad author record: "
            f"authors {count} is outside the 32-bit integer range",
        )

    @pytest.mark.parametrize(
        "count, shown", [("NaN", "nan"), ("Infinity", "inf"), ("1e400", "inf")]
    )
    def test_non_finite_count_fails(self, tmp_path, count, shown):
        line = author_line(
            '"publications": [{"pub_id": "p1", "year": 2000, "authors": 2, '
            f'"cites": {{"2001": {count}}}}}]'
        )
        path = tmp_path / "authors.jsonl"
        assert check_against_reference(tmp_path, line) == (
            "error",
            f"{path}:1: bad author record: "
            f"citation counts must be integers: {{2001: {shown}}}",
        )

    def test_lone_surrogate_name_loads(self, tmp_path):
        line = author_line('"name": "x\\ud800", "publications": [' + GOOD_PUB + "]")
        _, columns, accepted, _ = check_against_reference(tmp_path, line)
        assert (columns["names"], accepted) == (["x\ud800"], 1)

    def test_walk_never_sees_an_orjson_object(self, tmp_path, monkeypatch):
        decoded, walked = [], []
        loads, _walk = ingest.orjson.loads, ingest._walk

        def orjson_loads(line):
            decoded.append(loads(line))
            return decoded[-1]

        def walk(columns, report, obj):
            walked.append(obj)
            return _walk(columns, report, obj)

        monkeypatch.setattr(ingest.orjson, "loads", orjson_loads)
        monkeypatch.setattr(ingest, "_walk", walk)
        patent = '{"pub_id": "p2", "year": 2001, "authors": 1, "is_patent": true}'
        lines = [
            '{"schema_version": 1}',
            author_line('"publications": [' + GOOD_PUB + ", " + patent + "]"),
            author_line('"name": "x:y", "publications": [' + patent + "]"),
            author_line(
                '"publications": [{"pub_id": "p1", "year": 2000, "authors": 2, '
                '"cites": null}]'
            ),
            author_line(
                '"publications": [{"pub_id": "p1", "year": 2000, "authors": '
                + str(10**20)
                + ', "is_duplicate": true}]'
            ),
        ]
        text = "".join(
            line.rstrip("\n").replace('"a1"', f'"a{i}"') + "\n"
            for i, line in enumerate(lines)
        )
        assert check_against_reference(tmp_path, text)[0] == "ok"
        assert len(walked) == len(decoded) == len(lines)
        assert not any(obj is other for obj in walked for other in decoded)

# --- differential test -------------------------------------------------------


@dataclass
class Obj:
    """A JSON object as members [key, value, how the key is written], so that
    a key can repeat and be spelled in more than one way."""

    members: list


def render(value) -> str:
    if isinstance(value, Obj):
        return "{" + ", ".join(
            _key(key, spelling) + render(v) for key, v, spelling in value.members
        ) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(render, value)) + "]"
    return json.dumps(value)


def _key(key: str, spelling: str) -> str:
    text = json.dumps(key)
    if spelling == "escaped" and key:
        text = f'"\\u{ord(key[0]):04x}' + text[2:]
    return text + (" : " if spelling == "spaced" else ": ")


BAD_VALUES = [
    None, True, False, 0, -1, 1, 1.5, 2000.0, "", "2000", "x:y", [], [1], Obj([]),
    1940, 2031, 2**31 - 1, 2**31, -(2**31) - 1, 3000000000, -3000000000, 10**20,
]
INTEGERS = [0, -1, 1940, 2031, 2**31, -(2**31) - 1, 2**64, -(2**64), 10**20]
# The values a mutation gives a member, by the member's key; any other key is
# a citation year, whose count takes one of COUNTS.
VALUES = {
    "author_id": ["a1", 7, None, "x:y"],
    "name": [None, 3, "x:y"],
    "field": [None, 3, "x:y"],
    "publications": [None, [], [1], Obj([]), "x"],
    "pub_id": ["p0", 7, None, "x:y"],
    "year": [None, True, 2000.0, "2000"] + INTEGERS,
    "authors": [None, True, 1.5, "2"] + INTEGERS,
    "cites": [None, [], [1, 2], Obj([]), Obj([["k", 1, "plain"]] * 2)],
    "is_patent": [True, False, 0, "false", None],
    "is_duplicate": [True, False, 0, "false", None],
}
COUNTS = [None, True, 1.5, "3"] + INTEGERS
CITE_KEYS = [
    "1950", "2001", "2030", "1949", "999", "02001", " 2001", "2_001", "2031", "-5",
    "x", "1e3", "3000000000", "-3000000000",
]
EXTRA_KEYS = ["is_patent", "is_duplicate", "title", "extra", "cites", "a"]
SPELLINGS = ["plain", "spaced", "escaped"]
OTHER_LINES = ['{"schema_version": 1}', '{"schema_version": 2}', "", "[]", "{", "7"]


@st.composite
def publications(draw, i):
    years = draw(st.lists(st.integers(1950, 2030), max_size=4, unique=True))
    cites = Obj([[str(y), draw(st.integers(0, 9)), "plain"] for y in years])
    return Obj([
        ["pub_id", draw(st.sampled_from([f"p{i}", "p0"])), "plain"],
        ["year", draw(st.integers(1950, 2030)), "plain"],
        ["authors", draw(st.integers(1, 5)), "plain"],
        ["cites", cites, "plain"],
    ])


@st.composite
def author_lines(draw):
    pubs = [draw(publications(i)) for i in range(draw(st.integers(0, 3)))]
    author = Obj([
        ["author_id", draw(st.sampled_from(["a1", "a2"])), "plain"],
        ["name", draw(st.sampled_from(["A", 'x":"y', "é"])), "plain"],
        ["field", "physics", "plain"],
        ["publications", pubs, "plain"],
    ])
    objects = [author] + pubs + [p.members[3][1] for p in pubs]
    for _ in range(draw(st.integers(0, 3))):
        obj = draw(st.sampled_from(objects))
        kind = draw(st.sampled_from(
            ["drop", "value", "value", "repeat", "add", "spell", "cite key"]
        ))
        if kind == "add":
            key = draw(st.sampled_from(EXTRA_KEYS))
            value = draw(st.sampled_from(VALUES.get(key, BAD_VALUES)))
            obj.members.append([key, value, "plain"])
            continue
        if not obj.members:
            continue
        member = draw(st.sampled_from(obj.members))
        if kind == "drop":
            obj.members.remove(member)
        elif kind == "value":
            member[1] = draw(st.sampled_from(VALUES.get(member[0], COUNTS)))
        elif kind == "repeat":
            again = [member[0], draw(st.sampled_from([member[1], 1])), "plain"]
            obj.members.append(again)
            member[2] = draw(st.sampled_from(SPELLINGS))
        elif kind == "spell":
            member[2] = draw(st.sampled_from(SPELLINGS))
        else:
            member[0] = draw(st.sampled_from(CITE_KEYS))
    line = render(author)
    return line + draw(st.sampled_from(["", "", "", " x", "}"]))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.one_of(author_lines(), st.sampled_from(OTHER_LINES)), min_size=1, max_size=3
    )
)
def test_load_authors_matches_the_reference_walk(tmp_path_factory, lines):
    tmp_path = tmp_path_factory.mktemp("lines")
    check_against_reference(tmp_path, "".join(line + "\n" for line in lines))

