import json

import pytest
from hypothesis import given, strategies as st

from scimetrics.corpus import (
    AuthorCorpus,
    AuthorProfile,
    CitationVector,
    PublicationRecord,
    avg_authors_per_publication,
    citation_vector,
    snapshot_at,
)
from scimetrics.ingest import load_corpus


def make_author(author_id, pubs):
    return AuthorProfile(
        author_id=author_id,
        display_name=author_id,
        field_tag="other",
        publications=tuple(pubs),
    )


def single_author_corpus(pubs):
    return AuthorCorpus(authors={"a1": make_author("a1", pubs)})


@pytest.fixture
def five_paper_corpus():
    # (citations, authors): (10,2) (8,1) (5,5) (4,4) (3,1), all in 2000,
    # cited in 2001
    pubs = [
        PublicationRecord(f"p{i}", 2000, a, {2001: c})
        for i, (c, a) in enumerate([(10, 2), (8, 1), (5, 5), (4, 4), (3, 1)])
    ]
    return single_author_corpus(pubs)


class TestSnapshot:
    def test_restriction_by_year(self):
        corpus = single_author_corpus(
            [PublicationRecord("p1", 2005, 1, {2006: 3, 2012: 7})]
        )
        snap = snapshot_at(corpus, 2010)
        (pub,) = snap.publications["a1"]
        assert pub.citations == 3

    def test_boundary_exclusion(self):
        corpus = single_author_corpus(
            [PublicationRecord("p1", 2005, 1, {2006: 3, 2012: 7})]
        )
        snap = snapshot_at(corpus, 2004)
        assert "a1" in snap
        assert snap.publications["a1"] == ()

    def test_year_range_error(self):
        corpus = single_author_corpus([])
        with pytest.raises(ValueError):
            snapshot_at(corpus, 1900)
        with pytest.raises(ValueError):
            snapshot_at(corpus, 2100)

    def test_monotone_growth_against_brute_force(self, random_corpus):
        # Oracle: re-scan every citation event from the raw records.
        def brute_totals(year):
            total = 0
            for author in random_corpus.authors.values():
                for pub in author.publications:
                    if pub.effective_year <= year:
                        total += sum(
                            c for y, c in pub.citations_by_year.items() if y <= year
                        )
            return total

        prev = -1
        for year in range(1980, 2020, 4):
            snap = snapshot_at(random_corpus, year)
            snap_total = sum(
                p.citations
                for pubs in snap.publications.values()
                for p in pubs
            )
            assert snap_total == brute_totals(year)
            assert snap_total >= prev
            prev = snap_total

    @pytest.mark.parametrize(
        "lines",
        [
            [
                # Uncited papers first, in the middle (absent and null cites,
                # an empty object) and last; cites keys out of year order; an
                # author with no publications between two with some.
                {"author_id": "a1", "publications": [
                    {"pub_id": "p1", "year": 2000, "authors": 1},
                    {"pub_id": "p2", "year": 2000, "authors": 2,
                     "cites": {"2005": 3, "2001": 2, "2003": 1}},
                    {"pub_id": "p3", "year": 2001, "authors": 1, "cites": None},
                    {"pub_id": "p4", "year": 2002, "authors": 1, "cites": {}},
                    {"pub_id": "p5", "year": 2002, "authors": 3,
                     "cites": {"2010": 4, "2002": 5}},
                ]},
                {"author_id": "a2", "publications": []},
                {"author_id": "a3", "publications": [
                    {"pub_id": "q1", "year": 1999, "authors": 1,
                     "cites": {"2004": 7, "1999": 1, "2002": 2}},
                    {"pub_id": "q2", "year": 2003, "authors": 1, "cites": None},
                    {"pub_id": "q3", "year": 2004, "authors": 2},
                ]},
            ],
            [
                # No citation events anywhere.
                {"author_id": "a1", "publications": [
                    {"pub_id": "p1", "year": 2000, "authors": 1},
                    {"pub_id": "p2", "year": 2001, "authors": 1, "cites": None},
                ]},
                {"author_id": "a2", "publications": []},
            ],
        ],
    )
    def test_per_publication_citations_against_raw_records(self, tmp_path, lines):
        # Oracle: sum each raw record's cites up to the year, publication by
        # publication in file order.
        path = tmp_path / "authors.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        corpus, _ = load_corpus(path)
        pubs = [p for line in lines for p in line["publications"]]
        for year in (1998, 1999, 2001, 2002, 2004, 2005, 2010, 2030):
            expected = [
                sum(c for y, c in (p.get("cites") or {}).items() if int(y) <= year)
                for p in pubs
            ]
            assert snapshot_at(corpus, year).citations.tolist() == expected


@pytest.fixture
def random_corpus():
    import random

    rng = random.Random(1234)
    authors = {}
    for i in range(50):
        pubs = []
        for j in range(rng.randint(0, 15)):
            year = rng.randint(1975, 2015)
            cites = {
                y: rng.randint(0, 9)
                for y in range(year, min(year + rng.randint(1, 10), 2020))
            }
            pubs.append(
                PublicationRecord(f"p{j}", year, rng.randint(1, 8), cites)
            )
        authors[f"a{i:02d}"] = make_author(f"a{i:02d}", pubs)
    return AuthorCorpus(authors=authors)


class TestCitationVector:
    def test_identity_normalization(self, five_paper_corpus):
        snap = snapshot_at(five_paper_corpus, 2010)
        v = citation_vector("a1", snap, normalizer="none")
        assert v.entries == (10, 8, 5, 4, 3)

    def test_author_count_normalization(self, five_paper_corpus):
        # Hand-computed c/A then sorted: 10/2=5, 8/1=8, 5/5=1, 4/4=1, 3/1=3.
        snap = snapshot_at(five_paper_corpus, 2010)
        v = citation_vector("a1", snap, normalizer="author_count")
        assert v.entries == (8, 5, 3, 1, 1)

    def test_single_author_fixed_point(self):
        pubs = [
            PublicationRecord(f"p{i}", 2000, 1, {2001: c})
            for i, c in enumerate([7, 3, 9])
        ]
        snap = snapshot_at(single_author_corpus(pubs), 2010)
        raw = citation_vector("a1", snap)
        frac = citation_vector("a1", snap, normalizer="author_count")
        assert raw.entries == frac.entries

    def test_unknown_author(self, five_paper_corpus):
        snap = snapshot_at(five_paper_corpus, 2010)
        with pytest.raises(KeyError):
            citation_vector("nobody", snap)

    def test_sorted_after_normalization(self, five_paper_corpus):
        snap = snapshot_at(five_paper_corpus, 2010)
        for norm in ("none", "author_count", "sqrt_author_count"):
            v = citation_vector("a1", snap, normalizer=norm)
            assert all(a >= b for a, b in zip(v.entries, v.entries[1:]))

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(1, 50)),
            min_size=0,
            max_size=20,
        ),
        st.randoms(),
    )
    def test_permutation_invariance(self, papers, rnd):
        def build(paper_list):
            pubs = [
                PublicationRecord(f"p{i}", 2000, a, {2001: c})
                for i, (c, a) in enumerate(paper_list)
            ]
            snap = snapshot_at(single_author_corpus(pubs), 2010)
            return citation_vector("a1", snap, normalizer="author_count")

        shuffled = list(papers)
        rnd.shuffle(shuffled)
        assert build(papers).entries == build(shuffled).entries

    @given(
        st.lists(
            st.tuples(st.integers(0, 10000), st.integers(1, 500)),
            min_size=1,
            max_size=30,
        )
    )
    def test_fractional_conservation(self, papers):
        # entry_i * A_i recovers the raw totals as a multiset.
        pubs = [
            PublicationRecord(f"p{i}", 2000, a, {2001: c})
            for i, (c, a) in enumerate(papers)
        ]
        snap = snapshot_at(single_author_corpus(pubs), 2010)
        v = citation_vector("a1", snap, normalizer="author_count")
        reconstructed = sorted(e * a for e, a in zip(v.entries, v.author_counts))
        raw = sorted(float(c) for c, _ in papers)
        for got, want in zip(reconstructed, raw):
            assert got == pytest.approx(want, rel=1e-12)


class TestAvgAuthors:
    def test_mean(self, five_paper_corpus):
        snap = snapshot_at(five_paper_corpus, 2010)
        assert avg_authors_per_publication("a1", snap) == pytest.approx(2.6)

    def test_empty(self):
        snap = snapshot_at(single_author_corpus([]), 2010)
        assert avg_authors_per_publication("a1", snap) == 0

    def test_all_single(self):
        pubs = [PublicationRecord(f"p{i}", 2000, 1, {}) for i in range(4)]
        snap = snapshot_at(single_author_corpus(pubs), 2010)
        assert avg_authors_per_publication("a1", snap) == 1


class TestInvariants:
    def test_author_count_at_least_one(self):
        with pytest.raises(ValueError):
            PublicationRecord("p1", 2000, 0, {})

    def test_citation_year_before_effective(self):
        with pytest.raises(ValueError):
            PublicationRecord("p1", 2000, 1, {1999: 1})

    def test_negative_citations(self):
        with pytest.raises(ValueError):
            PublicationRecord("p1", 2000, 1, {2001: -1})

    def test_duplicate_pub_ids(self):
        pubs = [PublicationRecord("p1", 2000, 1, {})] * 2
        with pytest.raises(ValueError):
            make_author("a1", pubs)

    def test_vector_alignment(self):
        with pytest.raises(ValueError):
            CitationVector((3, 2), (1,))

    def test_vector_ordering(self):
        with pytest.raises(ValueError):
            CitationVector((2, 3), (1, 1))
