import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_indices import (
    CitationVector,
    avg_authors_per_publication,
    citation_vector,
)
from scimetrics import corpus as corpus_module
from scimetrics.corpus import (
    AuthorCorpus,
    AuthorProfile,
    CorpusArrays,
    PublicationRecord,
    accrued,
    author_positions,
    citations_through,
    in_view,
    runs,
    snapshot_at,
)
from scimetrics.ingest import load_corpus


def snapshot_citations(snap):
    """int64 per publication of the snapshot's corpus: its citations through
    the observation year."""
    n = len(snap.corpus.arrays.pub_id)
    return citations_through(snap.corpus.arrays, 0, n, [snap.observation_year])[0]


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
        row, pub = in_view(corpus.arrays, author_positions(corpus.arrays, ["a1"]), 2010)
        assert row.tolist() == pub.tolist() == [0]
        assert snapshot_citations(snap).tolist() == [3]

    def test_boundary_exclusion(self):
        corpus = single_author_corpus(
            [PublicationRecord("p1", 2005, 1, {2006: 3, 2012: 7})]
        )
        row, pub = in_view(corpus.arrays, author_positions(corpus.arrays, ["a1"]), 2004)
        assert row.tolist() == pub.tolist() == []

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
        arrays = random_corpus.arrays
        positions = author_positions(arrays, list(random_corpus.authors))
        for year in range(1980, 2020, 4):
            snap = snapshot_at(random_corpus, year)
            _, pub = in_view(arrays, positions, year)
            snap_total = sum(snapshot_citations(snap)[pub].tolist())
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
            assert snapshot_citations(snapshot_at(corpus, year)).tolist() == expected


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


def accrued_by_hand(since, owner, n_years, n, weights):
    """`accrued` in Python ints, item by item and year by year."""
    totals = [[0] * n for _ in range(n_years)]
    for s, o, w in zip(since, owner, weights):
        for year in range(s, n_years):
            totals[year][o] += w
    return totals


class TestAccrued:
    @pytest.mark.parametrize("n_years", [1, 2, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_python_ints(self, n_years, seed):
        rng = np.random.default_rng(seed)
        n, m = 6, 40
        since = rng.integers(0, n_years + 1, m)  # n_years counts in no year
        owner = rng.integers(0, n - 2, m)  # the last two owners have no items
        weights = rng.integers(0, 2**31, m)
        args = since.tolist(), owner.tolist(), n_years, n
        weighted = accrued(since, owner, n_years, n, weights)
        assert weighted.dtype == np.int64
        assert weighted.tolist() == accrued_by_hand(*args, weights.tolist())
        counted = accrued(since, owner, n_years, n)
        assert counted.tolist() == accrued_by_hand(*args, [1] * m)

    @pytest.mark.parametrize("n_years", [1, 3])
    def test_no_items(self, n_years):
        none = np.zeros(0, dtype=np.int64)
        assert accrued(none, none, n_years, 4).tolist() == [[0] * 4] * n_years
        assert accrued(none, none, n_years, 0).shape == (n_years, 0)

    def test_totals_past_2_53_are_exact(self):
        # 2^22 + 5 counted weights of 2^31 - 1: an odd total past 2^53,
        # which float64 cannot hold.
        m, weight = 2**22 + 6, 2**31 - 1
        since = np.zeros(m, dtype=np.int32)
        since[-1] = 2  # counts in neither year
        owner = np.zeros(m, dtype=np.int32)
        total = (m - 1) * weight
        assert total > 2**53 and int(float(total)) != total
        out = accrued(since, owner, 2, 2, np.full(m, weight, dtype=np.int32))
        assert out.tolist() == [[total, 0], [total, 0]]


class TestCitationsThrough:
    @given(
        pubs=st.lists(
            st.lists(
                st.tuples(st.integers(2000, 2005), st.integers(0, 2**31 - 1)),
                max_size=5,
            ),
            max_size=8,
        ),
        years=st.lists(
            st.integers(1999, 2006), min_size=1, max_size=4, unique=True
        ).map(sorted),
        chunk=st.integers(1, 3),
        data=st.data(),
    )
    def test_equal_to_python_sum(self, pubs, years, chunk, data):
        # Each paper's events, with its years repeated and uncited papers
        # drawn, in runs split every 1-3 events.
        first = data.draw(st.integers(0, len(pubs)))
        last = data.draw(st.integers(first, len(pubs)))
        events = [event for pub in pubs for event in pub]
        n = len(pubs)
        arrays = CorpusArrays(
            index={"a": 0}, names=["a"], fields=["other"],
            starts=np.array([0, n]), pub_id=[f"p{i}" for i in range(n)],
            effective_year=np.full(n, 2000, dtype=np.int32),
            author_count=np.ones(n, dtype=np.int32),
            event_start=np.cumsum([0] + [len(pub) for pub in pubs], dtype=np.int64),
            event_year=np.array([y for y, _ in events], dtype=np.int32),
            event_count=np.array([c for _, c in events], dtype=np.int32),
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(corpus_module, "_EVENT_CHUNK", chunk)
            got = citations_through(arrays, first, last, np.array(years))
        assert got.dtype == np.int64
        assert got.tolist() == [
            [sum(c for y, c in pub if y <= year) for pub in pubs[first:last]]
            for year in years
        ]


def greedy_runs(lengths, size):
    """Runs of items laid end to end with these lengths: each run takes the
    next item while its span stays within size, and always one item."""
    out, i = [], 0
    while i < len(lengths):
        j, span = i + 1, lengths[i]
        while j < len(lengths) and span + lengths[j] <= size:
            span += lengths[j]
            j += 1
        out.append((i, j))
        i = j
    return out


class TestRuns:
    @given(st.lists(st.integers(0, 12), max_size=30), st.integers(1, 30))
    def test_greedy_partition(self, lengths, size):
        end = np.cumsum(np.array(lengths, dtype=np.int64))
        got = list(runs(end - lengths, end, size))
        assert got == greedy_runs(lengths, size)
        # the runs tile [0, n) in order
        edges = [i for i, _ in got] + [len(lengths)]
        assert [j for _, j in got] == edges[1:] and edges[0] == 0
        for i, j in got:
            span = sum(lengths[i:j])
            assert span <= size or j - i == 1
            # maximal: the next item would take the run past size
            assert j == len(lengths) or span + lengths[j] > size
