import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from scimetrics.errors import ParseError
from scimetrics.ingest import (
    CleaningReport,
    ProfileExport,
    RawPublication,
    clean_publication,
    load_corpus,
    match_profiles,
    normalize_title,
    save_corpus,
)
from scimetrics.synth import SynthConfig, generate


class TestCleanPublication:
    def test_cited_before_published(self):
        raw = RawPublication(
            "p1", declared_year=2010, author_count=3,
            citations_by_year={2008: 1, 2011: 4},
        )
        record, reason = clean_publication(raw)
        assert reason is None
        assert record.effective_year == 2008

    def test_patent_rejected(self):
        record, reason = clean_publication(
            RawPublication("p1", declared_year=2010, author_count=1, is_patent=True)
        )
        assert record is None and reason == "patent"

    def test_duplicate_rejected(self):
        record, reason = clean_publication(
            RawPublication("p1", declared_year=2010, author_count=1,
                           is_duplicate=True)
        )
        assert record is None and reason == "duplicate"

    def test_missing_authors_rejected(self):
        record, reason = clean_publication(
            RawPublication("p1", declared_year=2010, author_count=None)
        )
        assert record is None and reason == "missing_authors"

    def test_missing_year_rejected(self):
        record, reason = clean_publication(
            RawPublication("p1", declared_year=None, author_count=2)
        )
        assert record is None and reason == "missing_year"

    def test_idempotent_on_own_output(self):
        raw = RawPublication(
            "p1", declared_year=2012, author_count=4,
            citations_by_year={2009: 2, 2013: 5},
        )
        first, _ = clean_publication(raw)
        again, reason = clean_publication(
            RawPublication(
                first.pub_id,
                declared_year=first.effective_year,
                author_count=first.author_count,
                citations_by_year=first.citations_by_year,
            )
        )
        assert reason is None
        assert again == first

    def test_fuzz_accepted_records_satisfy_invariants(self):
        rng = random.Random(31337)
        total = accepted = 0
        for _ in range(10000):
            years = {
                rng.randint(1960, 2020): rng.randint(0, 50)
                for _ in range(rng.randint(0, 6))
            }
            raw = RawPublication(
                "p",
                declared_year=rng.choice([None, rng.randint(1960, 2020)]),
                author_count=rng.choice([None, rng.randint(1, 3000)]),
                citations_by_year=years,
                is_patent=rng.random() < 0.1,
                is_duplicate=rng.random() < 0.1,
            )
            record, reason = clean_publication(raw)
            total += 1
            if record is None:
                assert reason
                continue
            accepted += 1
            assert record.author_count >= 1
            assert all(y >= record.effective_year for y in record.citations_by_year)
        assert 0 < accepted < total


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

    def test_report_csv(self, tmp_path):
        report = CleaningReport(accepted=5)
        report.record_reject("a1", "p1", "patent")
        out = tmp_path / "report.csv"
        report.write_csv(out)
        assert out.read_text() == "reason,count\naccepted,5\npatent,1\n"


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
