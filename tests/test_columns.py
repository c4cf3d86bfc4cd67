"""The columnar path (snapshot arrays, measure_columns, apply_filter) against
the per-author reference: equal values of equal type, never approximately."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scimetrics.corpus import (
    AuthorCorpus,
    AuthorProfile,
    CitationVector,
    PublicationRecord,
    Snapshot,
    avg_authors_per_publication,
    snapshot_at,
)
from scimetrics.errors import DegenerateInputError
from scimetrics.evaluation import AuthorFilter, apply_filter
from scimetrics.indices import Measure, c_index, compute_all, measure_columns, mu_index
from scimetrics.synth import SynthConfig, generate


@st.composite
def tied_corpora(draw):
    """Small corpora with heavy citation ties among papers of differing
    author counts, authors without papers, and citations dated after the
    snapshot years drawn alongside."""
    authors = {}
    for i in range(draw(st.integers(0, 6))):
        pubs = []
        for j in range(draw(st.integers(0, 9))):
            year = draw(st.integers(2000, 2006))
            cite_years = draw(st.lists(st.integers(year, 2012), max_size=4, unique=True))
            pubs.append(
                PublicationRecord(
                    f"p{j}",
                    year,
                    draw(st.sampled_from([1, 2, 3, 5, 40])),
                    {y: draw(st.integers(0, 4)) for y in cite_years},
                )
            )
        authors[f"a{i}"] = AuthorProfile(f"a{i}", f"a{i}", "other", tuple(pubs))
    return AuthorCorpus(authors=authors)


def assert_columns_match_reference(corpus, year, ids):
    snap = snapshot_at(corpus, year)
    columns = measure_columns(snap, ids, list(Measure))
    assert list(columns) == list(Measure)
    for i, author_id in enumerate(ids):
        reference = compute_all(author_id, snap)
        for measure in Measure:
            got, want = columns[measure][i], reference[measure]
            assert type(got) is type(want), (year, author_id, measure)
            assert got == want, (year, author_id, measure, got, want)


def assert_same_bits(got, want):
    assert [type(x) for x in got] == [type(x) for x in want]
    assert np.array(got).tobytes() == np.array(want).tobytes()


def reference_filter(corpus, snap, author_filter):
    ids = sorted(corpus.authors)
    if author_filter.mode == "all":
        return ids
    if author_filter.mode == "no_hyperauthors":
        return [
            a
            for a in ids
            if avg_authors_per_publication(a, snap) <= author_filter.max_avg_authors
        ]
    if author_filter.mode == "bottom_half_citations":
        totals = {a: sum(p.citations for p in snap.publications[a]) for a in ids}
        return sorted(sorted(ids, key=lambda a: (totals[a], a))[: len(ids) // 2])
    start, end = author_filter.window
    kept = []
    for a in ids:
        years = [p.effective_year for p in corpus.authors[a].publications]
        if years:
            peak = max(years.count(y) for y in years)
            if start <= min(y for y in years if years.count(y) == peak) < end:
                kept.append(a)
    return kept


class TestMeasureColumns:
    @settings(max_examples=150, deadline=None)
    @given(corpus=tied_corpora(), year=st.integers(1998, 2013), data=st.data())
    def test_equal_to_compute_all(self, corpus, year, data):
        ids = data.draw(st.permutations(sorted(corpus.authors)))
        assert_columns_match_reference(corpus, year, ids)

    def test_seeded_hyper_corpus_every_year(self):
        config = SynthConfig(rng_seed=7, n_authors=30, team_size_regime="hyper")
        corpus = generate(config)
        ids = sorted(corpus.authors)
        for year in range(config.start_year - 1, config.end_year + 2):
            assert_columns_match_reference(corpus, year, ids)

    @pytest.mark.parametrize("measure", list(Measure))
    def test_one_measure_equals_the_full_call(self, measure):
        corpus = generate(
            SynthConfig(rng_seed=5, n_authors=40, team_size_regime="hyper")
        )
        ids = sorted(corpus.authors)
        for year in (1985, 2005, 2019):
            snap = snapshot_at(corpus, year)
            got = measure_columns(snap, ids, [measure])
            assert list(got) == [measure]
            full = measure_columns(snap, ids, list(Measure))
            assert_same_bits(got[measure], full[measure])

    @settings(max_examples=150, deadline=None)
    @given(
        corpus=tied_corpora(),
        year=st.integers(1998, 2013),
        measures=st.lists(st.sampled_from(list(Measure)), unique=True),
    )
    def test_subset_equals_the_full_call(self, corpus, year, measures):
        snap = snapshot_at(corpus, year)
        ids = sorted(corpus.authors)
        got = measure_columns(snap, ids, measures)
        assert list(got) == measures
        full = measure_columns(snap, ids, list(Measure))
        for measure in measures:
            assert_same_bits(got[measure], full[measure])

    def test_subset_order_and_unknown_author(self):
        corpus = AuthorCorpus(
            authors={
                a: AuthorProfile(
                    a, a, "other", (PublicationRecord(f"{a}-p", 2000, 2, {2001: n}),)
                )
                for a, n in (("a1", 3), ("a2", 9))
            }
        )
        snap = snapshot_at(corpus, 2005)
        columns = measure_columns(snap, ["a2", "a1"], list(Measure))
        assert columns[Measure.C] == [9.0, 3.0]
        assert measure_columns(snap, [], list(Measure))[Measure.H] == []
        with pytest.raises(KeyError, match="zz"):
            measure_columns(snap, ["a1", "zz"], list(Measure))

    def test_sums_run_left_to_right(self):
        # 1e16 + 1 rounds back to 1e16, so only a compensated sum (the
        # built-in sum from Python 3.12 on) reaches 1e16 + 2.
        entries = (1e16, 1.0, 1.0)
        vector = CitationVector(entries, (1, 1, 1))
        assert c_index(vector) == 1e16
        assert mu_index(vector) == 1e16 / 3
        pubs = tuple(PublicationRecord(f"p{j}", 2000, 1, {}) for j in range(3))
        corpus = AuthorCorpus(authors={"a": AuthorProfile("a", "a", "other", pubs)})
        snap = Snapshot(2000, corpus, np.array(entries))
        columns = measure_columns(snap, ["a"], list(Measure))
        reference = compute_all("a", snap)
        for measure in (Measure.C, Measure.C_FRAC):
            assert columns[measure] == [reference[measure]] == [1e16]
        for measure in (Measure.MU, Measure.MU_FRAC):
            assert columns[measure] == [reference[measure]] == [1e16 / 3]

    def test_memory_is_not_authors_times_widest_author(self):
        # One 2,000-paper author among 2,000 ten-paper authors: a single
        # matrix as wide as the widest author would take about 250 MB.
        def papers(count):
            return tuple(
                PublicationRecord(f"p{j}", 2000 + j % 5, 1 + j % 4, {2004: j % 7})
                for j in range(count)
            )

        authors = {f"a{i}": papers(10) for i in range(2000)}
        authors["prolific"] = papers(2000)
        corpus = AuthorCorpus(
            authors={a: AuthorProfile(a, a, "other", p) for a, p in authors.items()}
        )
        snap = snapshot_at(corpus, 2005)
        ids = list(authors)
        tracemalloc.start()
        try:
            columns = measure_columns(snap, ids, list(Measure))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak
        reference = compute_all("prolific", snap)
        assert [columns[m][-1] for m in Measure] == [reference[m] for m in Measure]


class TestApplyFilterColumns:
    @settings(max_examples=150, deadline=None)
    @given(
        corpus=tied_corpora(),
        year=st.integers(1998, 2013),
        author_filter=st.one_of(
            st.just(AuthorFilter()),
            st.builds(
                AuthorFilter,
                mode=st.just("no_hyperauthors"),
                max_avg_authors=st.sampled_from([0.0, 1.0, 2.0, 2.5, 3.0, 13.5]),
            ),
            st.just(AuthorFilter(mode="bottom_half_citations")),
            st.builds(
                AuthorFilter,
                mode=st.just("peak_in_window"),
                window=st.sampled_from([(2000, 2003), (2002, 2007), (2005, 2006)]),
            ),
        ),
    )
    def test_equal_to_per_author_computation(self, corpus, year, author_filter):
        snap = snapshot_at(corpus, year)
        expected = reference_filter(corpus, snap, author_filter)
        if not expected:
            with pytest.raises(DegenerateInputError):
                apply_filter(corpus, snap, author_filter)
        else:
            assert apply_filter(corpus, snap, author_filter) == expected
