"""The columnar path (snapshot arrays, measure_columns, apply_filter) against
the per-author reference: equal values of equal type, never approximately."""

import pytest
from hypothesis import given, settings, strategies as st

from scimetrics.corpus import (
    AuthorCorpus,
    AuthorProfile,
    PublicationRecord,
    avg_authors_per_publication,
    snapshot_at,
)
from scimetrics.errors import DegenerateInputError
from scimetrics.evaluation import AuthorFilter, apply_filter
from scimetrics.indices import Measure, compute_all, measure_columns
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
    columns = measure_columns(snap, ids)
    assert list(columns) == list(Measure)
    for i, author_id in enumerate(ids):
        reference = compute_all(author_id, snap)
        for measure in Measure:
            got, want = columns[measure][i], reference[measure]
            assert type(got) is type(want), (year, author_id, measure)
            assert got == want, (year, author_id, measure, got, want)


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
        assert measure_columns(snap, ["a2", "a1"])[Measure.C] == [9.0, 3.0]
        assert measure_columns(snap, [])[Measure.H] == []
        with pytest.raises(KeyError, match="zz"):
            measure_columns(snap, ["a1", "zz"])


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
