import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from scimetrics.corpus import (
    AuthorCorpus,
    AuthorProfile,
    PublicationRecord,
    snapshot_at,
)
from scimetrics.errors import ParseError
from scimetrics.ingest import (
    CleaningReport,
    ProfileExport,
    load_corpus,
    match_profiles,
    normalize_title,
    save_corpus,
)
from scimetrics.synth import SynthConfig, generate


def load_publications(tmp_path, pubs):
    """load_corpus of one author line holding `pubs`."""
    path = tmp_path / "authors.jsonl"
    path.write_text(json.dumps({"author_id": "a1", "publications": pubs}) + "\n")
    return load_corpus(path)


class TestCleanPublication:
    def test_cited_before_published(self, tmp_path):
        corpus, report = load_publications(tmp_path, [
            {"pub_id": "p1", "year": 2010, "authors": 3,
             "cites": {"2008": 1, "2011": 4}},
        ])
        assert report.accepted == 1 and report.rejected == 0
        (record,) = corpus.authors["a1"].publications
        assert record.effective_year == 2008

    def test_patent_rejected(self, tmp_path):
        corpus, report = load_publications(tmp_path, [
            {"pub_id": "p1", "year": 2010, "authors": 1, "is_patent": True},
        ])
        assert report.reject_log == [("a1", "p1", "patent")]
        assert corpus.authors["a1"].publications == ()

    def test_duplicate_rejected(self, tmp_path):
        corpus, report = load_publications(tmp_path, [
            {"pub_id": "p1", "year": 2010, "authors": 1, "is_duplicate": True},
        ])
        assert report.reject_log == [("a1", "p1", "duplicate")]
        assert corpus.authors["a1"].publications == ()

    def test_missing_authors_rejected(self, tmp_path):
        corpus, report = load_publications(tmp_path, [
            {"pub_id": "p1", "year": 2010, "authors": None},
        ])
        assert report.reject_log == [("a1", "p1", "missing_authors")]
        assert corpus.authors["a1"].publications == ()

    def test_missing_year_rejected(self, tmp_path):
        corpus, report = load_publications(tmp_path, [
            {"pub_id": "p1", "year": None, "authors": 2},
        ])
        assert report.reject_log == [("a1", "p1", "missing_year")]
        assert corpus.authors["a1"].publications == ()

    def test_idempotent_on_own_output(self, tmp_path):
        first, _ = load_publications(tmp_path, [
            {"pub_id": "p1", "year": 2012, "authors": 4,
             "cites": {"2009": 2, "2013": 5}},
        ])
        paths = save_corpus(first, tmp_path / "again")
        again, report = load_corpus(paths["authors"])
        assert report.rejected == 0
        assert again.authors == first.authors
        (p1,) = again.authors["a1"].publications
        assert (p1.effective_year, p1.citations_by_year) == (2009, {2009: 2, 2013: 5})

    def test_fuzz_accepted_records_satisfy_invariants(self, tmp_path):
        # One file of 100 authors x 100 publications, loaded once; the
        # expected reason follows the rule's precedence.
        rng = random.Random(31337)
        lines, expected = [], []
        for a in range(100):
            pubs = []
            for i in range(100):
                pub = {
                    "pub_id": f"p{i}",
                    "year": rng.choice([None, rng.randint(1960, 2020)]),
                    "authors": rng.choice([None, rng.randint(1, 3000)]),
                    "cites": {
                        str(rng.randint(1960, 2020)): rng.randint(0, 50)
                        for _ in range(rng.randint(0, 6))
                    },
                    "is_patent": rng.random() < 0.1,
                    "is_duplicate": rng.random() < 0.1,
                }
                pubs.append(pub)
                for reason, applies in (
                    ("patent", pub["is_patent"]),
                    ("duplicate", pub["is_duplicate"]),
                    ("missing_authors", pub["authors"] is None),
                    ("missing_year", pub["year"] is None),
                ):
                    if applies:
                        expected.append((f"a{a}", pub["pub_id"], reason))
                        break
            lines.append(json.dumps({"author_id": f"a{a}", "publications": pubs}))
        path = tmp_path / "authors.jsonl"
        path.write_text("\n".join(lines) + "\n")
        corpus, report = load_corpus(path)
        assert report.total == 10000
        assert report.reject_log == expected
        assert 0 < report.accepted < report.total
        kept = [p for a in corpus.authors.values() for p in a.publications]
        assert report.accepted == len(kept)
        for record in kept:
            assert record.author_count >= 1
            assert all(y >= record.effective_year for y in record.citations_by_year)


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "authors.jsonl"
        path.write_text("")
        corpus, report = load_corpus(path)
        assert corpus.authors == {}
        assert report.total == 0

    def test_fixture_counts(self, tmp_path):
        pubs = [
            {"pub_id": "p1", "year": 2000, "authors": 2, "cites": {"2001": 3}},
            {"pub_id": "p2", "year": 2001, "authors": 1, "cites": {}},
            {"pub_id": "p3", "year": 2002, "authors": 3, "cites": {"2003": 1}},
            {"pub_id": "p4", "year": None, "authors": 2, "cites": {}},
            {"pub_id": "p5", "year": 2004, "authors": 4, "cites": {},
             "is_patent": True},
            {"pub_id": "p6", "year": 2005, "authors": 1, "cites": {"2006": 2}},
            {"pub_id": "p7", "year": 2006, "authors": 2, "cites": {"2007": 9}},
        ]
        path = tmp_path / "authors.jsonl"
        path.write_text(
            json.dumps(
                {"author_id": "a1", "name": "A", "field": "physics",
                 "publications": pubs}
            )
            + "\n"
        )
        corpus, report = load_corpus(path)
        assert report.accepted == 5
        assert report.rejected == 2
        assert report.rejected_by_reason == {"missing_year": 1, "patent": 1}
        assert len(corpus.authors["a1"].publications) == 5

    def test_title_key_is_accepted_and_ignored(self, tmp_path):
        pub = {"pub_id": "p1", "year": 2000, "authors": 2, "cites": {"2001": 3}}
        path = tmp_path / "authors.jsonl"
        lines = [
            {"author_id": a, "publications": [dict(pub, **extra)]}
            for a, extra in (("a1", {}), ("a2", {"title": "On Tied Ranks"}))
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        corpus, report = load_corpus(path)
        assert report.accepted == 2
        a1, a2 = (corpus.authors[a].publications for a in ("a1", "a2"))
        assert a1 == a2

    def test_round_trip_identity(self, tmp_path):
        corpus = generate(SynthConfig(n_authors=12, rng_seed=3))
        paths = save_corpus(corpus, tmp_path / "out")
        loaded, report = load_corpus(
            paths["authors"], paths["awards"], paths["catalog"]
        )
        assert report.rejected == 0
        assert loaded.catalog == corpus.catalog
        assert set(loaded.authors) == set(corpus.authors)
        for aid, author in corpus.authors.items():
            other = loaded.authors[aid]
            assert other.publications == author.publications
            assert other.awards == author.awards

    def test_years_before_first_snapshot_round_trip(self, tmp_path):
        # Papers and citations dated before 1950 are in view at every snapshot.
        pubs = (
            PublicationRecord("old", 1940, 2, {1940: 3, 1949: 1, 1950: 2}),
            PublicationRecord("new", 1950, 1, {1950: 5}),
        )
        corpus = AuthorCorpus(authors={"a1": AuthorProfile("a1", "A", "other", pubs)})
        paths = save_corpus(corpus, tmp_path / "out")
        loaded, report = load_corpus(paths["authors"])
        assert report.rejected == 0
        assert loaded.authors["a1"].publications == pubs
        snap = snapshot_at(loaded, 1950)
        assert [p.citations for p in snap.publications["a1"]] == [6, 5]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "authors.jsonl"
        path.write_text('{"author_id": "a1", "publications": []}\nnot json\n')
        with pytest.raises(ParseError) as err:
            load_corpus(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "pub, message",
        [
            ({"cites": {"2001": -3}}, "negative citation count"),
            ({"authors": 2.9}, "authors must be an integer"),
            ({"cites": {"2001": 1.5}}, "citation counts must be integers"),
            ({"year": "2000"}, "year must be an integer"),
            ({"is_patent": "false"}, "is_patent must be true or false"),
            ({"is_duplicate": 0}, "is_duplicate must be true or false"),
            ({"year": 3000}, "year 3000 after 2030"),
            ({"cites": {"2100": 1}}, "citation year 2100 after 2030"),
            ({"year": -3000000000}, "year -3000000000 is outside the 32-bit"),
            ({"authors": 3000000000}, "authors 3000000000 is outside the 32-bit"),
            (
                {"cites": {"2001": 3000000000}},
                "citation count 3000000000 is outside the 32-bit",
            ),
        ],
    )
    def test_bad_publication_fails_with_location(self, tmp_path, pub, message):
        good = {"pub_id": "p1", "year": 2000, "authors": 2, "cites": {"2001": 3}}
        path = tmp_path / "authors.jsonl"
        path.write_text(
            '{"author_id": "a0", "publications": []}\n'
            + json.dumps({"author_id": "a1", "publications": [{**good, **pub}]})
            + "\n"
        )
        with pytest.raises(ParseError, match=message) as err:
            load_corpus(path)
        assert str(err.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize(
        "line, message",
        [
            ('"publications": [7]', "publication must be a JSON object, got int"),
            (
                '"publications": [{"pub_id": "p1", "year": 2000, "authors": 2, '
                '"cites": [1, 2]}]',
                "cites must be a JSON object, got list",
            ),
            ('"publications": {"x": 1}', "publications must be a JSON array, got dict"),
        ],
        ids=["publication", "cites", "publications"],
    )
    def test_non_object_input_fails_with_location(self, tmp_path, line, message):
        path = tmp_path / "authors.jsonl"
        path.write_text(
            '{"author_id": "a0", "publications": []}\n'
            f'{{"author_id": "a1", {line}}}\n'
        )
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_corpus(path)
        assert str(err.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize(
        "author, message",
        [
            ({"author_id": 7}, "author_id must be a string, got 7"),
            ({"name": None}, "name must be a string, got None"),
            ({"field": 3}, "field must be a string, got 3"),
            (
                {"publications": [{"pub_id": 7, "year": 2000, "authors": 2}]},
                "pub_id must be a string, got 7",
            ),
        ],
        ids=["author_id", "name", "field", "pub_id"],
    )
    def test_non_string_id_or_name_fails_with_location(self, tmp_path, author, message):
        path = tmp_path / "authors.jsonl"
        path.write_text(
            '{"author_id": "a0", "publications": []}\n'
            + json.dumps({"author_id": "a1", "publications": [], **author})
            + "\n"
        )
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_corpus(path)
        assert str(err.value).startswith(f"{path}:2: ")

    def test_absent_name_and_field_keep_defaults(self, tmp_path):
        path = tmp_path / "authors.jsonl"
        path.write_text('{"author_id": "a1", "publications": []}\n')
        corpus, _ = load_corpus(path)
        author = corpus.authors["a1"]
        assert (author.display_name, author.field_tag) == ("", "other")

    def test_duplicate_pub_id_fails_with_location(self, tmp_path):
        pub = {"pub_id": "p1", "year": 2000, "authors": 2}
        path = tmp_path / "authors.jsonl"
        path.write_text(
            '{"author_id": "a0", "publications": []}\n'
            + json.dumps({"author_id": "a1", "publications": [pub, pub]})
            + "\n"
        )
        with pytest.raises(ParseError, match="a1: duplicate pub_ids") as err:
            load_corpus(path)
        assert str(err.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize(
        "cites, message",
        [
            ('{"2001": 5, "2001": 9}', "duplicate key '2001'"),
            ('{"2001": 5, "02001": 7}', "'02001' is not a canonical decimal year"),
            ('{" 2002": 5}', "' 2002' is not a canonical decimal year"),
            ('{"2_003": 5}', "'2_003' is not a canonical decimal year"),
        ],
    )
    def test_colliding_citation_years_fail_with_location(self, tmp_path, cites, message):
        path = tmp_path / "authors.jsonl"
        path.write_text(
            '{"author_id": "a0", "publications": []}\n'
            '{"author_id": "a1", "publications": [{"pub_id": "p1", "year": 2000, '
            f'"authors": 2, "cites": {cites}}}]}}\n'
        )
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_corpus(path)
        assert str(err.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("zz,aw,2001", "award grant for unknown author 'zz'"),
            ("a1,ghost,2001", "a1: grant references unknown award 'ghost'"),
            ("a1,aw,2000", "repeated grant a1,aw,2000"),
            ("a1,aw,2_001", "year '2_001' is not a canonical decimal year"),
            ("a1,aw, 2001", "year ' 2001' is not a canonical decimal year"),
            ("a1,aw,3000", "year 3000 after 2030"),
        ],
    )
    def test_bad_grant_fails_with_location(self, tmp_path, row, message):
        (tmp_path / "authors.jsonl").write_text(
            '{"author_id": "a1", "publications": []}\n'
        )
        awards = tmp_path / "awards.csv"
        awards.write_text(f"author_id,award_id,year\na1,aw,2000\n{row}\n")
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("award_id,name,total_laureates\naw,Prize,5\n")
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_corpus(tmp_path / "authors.jsonl", awards, catalog)
        assert str(err.value).startswith(f"{awards}:3: ")

    def test_duplicate_catalog_id_fails_with_location(self, tmp_path):
        (tmp_path / "authors.jsonl").write_text("")
        catalog = tmp_path / "catalog.csv"
        catalog.write_text(
            "award_id,name,total_laureates\nx,X,5\ny,Y,9\nx,X again,7\n"
        )
        with pytest.raises(ParseError, match="duplicate award_id 'x'") as err:
            load_corpus(tmp_path / "authors.jsonl", catalog_path=catalog)
        assert err.value.line == 4

    def test_non_canonical_catalog_total_fails_with_location(self, tmp_path):
        (tmp_path / "authors.jsonl").write_text("")
        catalog = tmp_path / "catalog.csv"
        catalog.write_text("award_id,name,total_laureates\nx,X,5\ny,Y, 1_0\n")
        message = "total_laureates ' 1_0' is not a canonical decimal integer"
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_corpus(tmp_path / "authors.jsonl", catalog_path=catalog)
        assert str(err.value).startswith(f"{catalog}:3: ")

    @pytest.mark.parametrize(
        "name, rows, message",
        [
            (
                "catalog.csv",
                'aw,"Two\nlines",5\n\nx,X,abc\n',
                "bad catalog row: invalid literal for int() with base 10: 'abc'",
            ),
            (
                "awards.csv",
                'a1,"aw\nx",2000\n\na1,aw,20x0\n',
                "bad award row: invalid literal for int() with base 10: '20x0'",
            ),
        ],
        ids=["catalog", "awards"],
    )
    def test_csv_fault_names_the_physical_line(self, tmp_path, name, rows, message):
        # A quoted field spans lines 2-3 and line 4 is empty, so the third
        # record, the second one read, starts on line 5.
        files = {
            "authors.jsonl": '{"author_id": "a1", "publications": []}\n',
            "awards.csv": "author_id,award_id,year\na1,aw,2000\n",
            "catalog.csv": 'award_id,name,total_laureates\naw,Prize,5\n"aw\nx",X,1\n',
        }
        header = files[name].partition("\n")[0]
        files[name] = f"{header}\n{rows}"
        for file, text in files.items():
            (tmp_path / file).write_text(text, encoding="utf-8")
        paths = [tmp_path / file for file in files]
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_corpus(*paths)
        assert str(err.value).startswith(f"{tmp_path / name}:5: ")

    @pytest.mark.parametrize("name", ["authors.jsonl", "awards.csv", "catalog.csv"])
    def test_invalid_utf8_fails_with_location(self, tmp_path, name):
        files = {
            "authors.jsonl": b'{"author_id": "a1", "publications": []}\n',
            "awards.csv": b"author_id,award_id,year\na1,aw,2000\n",
            "catalog.csv": b"award_id,name,total_laureates\naw,Prize,5\n",
        }
        files[name] += b"\xfc" if name == "authors.jsonl" else b"a1,\xfc,2001\n"
        for file, data in files.items():
            (tmp_path / file).write_bytes(data)
        paths = [tmp_path / file for file in files]
        line = 2 if name == "authors.jsonl" else 3
        message = "'utf-8' codec can't decode byte 0xfc in position"
        with pytest.raises(ParseError, match=re.escape(message)) as err:
            load_corpus(*paths)
        assert str(err.value).startswith(f"{tmp_path / name}:{line}: ")

    def test_valid_utf8_names_load(self, tmp_path):
        path = tmp_path / "authors.jsonl"
        path.write_bytes('{"author_id": "a1", "name": "Gödel"}\n'.encode())
        corpus, _ = load_corpus(path)
        assert corpus.authors["a1"].display_name == "Gödel"

    def test_unknown_award_reference(self, tmp_path):
        (tmp_path / "authors.jsonl").write_text(
            '{"author_id": "a1", "publications": []}\n'
        )
        (tmp_path / "awards.csv").write_text(
            "author_id,award_id,year\na1,ghost,2001\n"
        )
        (tmp_path / "catalog.csv").write_text("award_id,name,total_laureates\n")
        with pytest.raises(ValueError, match="ghost"):
            load_corpus(
                tmp_path / "authors.jsonl",
                tmp_path / "awards.csv",
                tmp_path / "catalog.csv",
            )

    def test_schema_version_header(self, tmp_path):
        path = tmp_path / "authors.jsonl"
        path.write_text('{"schema_version": 99}\n')
        with pytest.raises(ParseError):
            load_corpus(path)

    def test_report_conservation(self, tmp_path):
        corpus = generate(SynthConfig(n_authors=8, rng_seed=5))
        paths = save_corpus(corpus, tmp_path / "out")
        _, report = load_corpus(paths["authors"])
        n_pubs = sum(len(a.publications) for a in corpus.authors.values())
        assert report.accepted + report.rejected == n_pubs

    def test_report_csv(self):
        report = CleaningReport(accepted=5)
        report.record_reject("a1", "p1", "patent")
        assert report.csv_text() == "reason,count\r\naccepted,5\r\npatent,1\r\n"


def profile(pid, titles, paper_count=None):
    papers = tuple((t, 100 - i) for i, t in enumerate(titles))
    return ProfileExport(
        profile_id=pid,
        name=pid,
        papers=papers,
        paper_count=paper_count if paper_count is not None else len(papers),
    )


class TestMatchProfiles:
    def test_identical_profiles_match(self):
        titles = [f"title number {i}" for i in range(100)]
        result = match_profiles(
            [profile("g1", titles)], [profile("s1", titles, paper_count=120)]
        )
        assert result.pairs == (("g1", "s1"),)

    def test_two_shared_titles_do_not_match(self):
        a = profile("g1", [f"a-{i}" for i in range(10)] + ["x", "y"])
        b = profile("s1", [f"b-{i}" for i in range(60)] + ["x", "y"],
                    paper_count=62)
        result = match_profiles([a], [b])
        assert result.pairs == ()

    def test_three_shared_titles_match(self):
        a = profile("g1", [f"a-{i}" for i in range(10)] + ["x", "y", "z"])
        b = profile("s1", [f"b-{i}" for i in range(60)] + ["x", "y", "z"],
                    paper_count=63)
        result = match_profiles([a], [b])
        assert result.pairs == (("g1", "s1"),)

    def test_candidate_floor(self):
        titles = [f"shared {i}" for i in range(40)]
        result = match_profiles(
            [profile("g1", titles)], [profile("s1", titles, paper_count=40)],
            min_papers_b=50,
        )
        assert result.pairs == ()

    def test_normalization_insensitive_matching(self):
        a = profile("g1", ["The  Quick, Brown Fox!", "second paper", "third one"])
        b = profile(
            "s1", ["the quick brown fox", "Second Paper", "THIRD ONE"],
            paper_count=60,
        )
        result = match_profiles([a], [b])
        assert result.pairs == (("g1", "s1"),)

    def test_ambiguous_tie_reported_not_guessed(self):
        shared = ["x", "y", "z"]
        a = profile("g1", shared)
        b1 = profile("s1", shared + [f"b1-{i}" for i in range(10)], paper_count=60)
        b2 = profile("s2", shared + [f"b2-{i}" for i in range(10)], paper_count=60)
        result = match_profiles([a], [b1, b2])
        assert result.pairs == ()
        assert result.ambiguous == ("g1",)

    def test_best_candidate_wins(self):
        a = profile("g1", ["x", "y", "z", "w"])
        b1 = profile("s1", ["x", "y", "z"] + [f"b1-{i}" for i in range(10)],
                     paper_count=60)
        b2 = profile("s2", ["x", "y", "z", "w"] + [f"b2-{i}" for i in range(10)],
                     paper_count=60)
        result = match_profiles([a], [b1, b2])
        assert result.pairs == (("g1", "s2"),)

    def test_only_top_100_papers_considered(self):
        # The shared titles sit beyond the candidate's top-100 by citations.
        a_titles = ["x", "y", "z"]
        b_papers = tuple(
            (f"b-{i}", 1000 - i) for i in range(100)
        ) + tuple((t, 1) for t in a_titles)
        b = ProfileExport("s1", "s1", b_papers, paper_count=103)
        result = match_profiles([profile("g1", a_titles)], [b])
        assert result.pairs == ()

    @given(st.text(max_size=80))
    def test_normalize_idempotent(self, title):
        once = normalize_title(title)
        assert normalize_title(once) == once
