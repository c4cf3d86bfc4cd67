"""measure_table, the per-year measure table, against its one-year view
measure_columns and the per-author reference in reference_indices.py: equal
bits, never approximately.  Citations through a year against the raw records."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_indices as reference
from scimetrics import corpus as corpus_module
from scimetrics import indices
from scimetrics.corpus import (
    AuthorCorpus,
    AuthorProfile,
    PublicationRecord,
    Snapshot,
    snapshot_at,
)
from scimetrics.evaluation import FILTER_MODES, AuthorFilter, series_grid
from scimetrics.indices import Measure, compute_measure, measure_columns, measure_table
from scimetrics.ingest import load_corpus
from scimetrics.synth import REGIMES, SynthConfig, generate
from test_columns import tied_corpora
from test_corpus import snapshot_citations

ALL = list(Measure)


def assert_table_matches(corpus, years, ids, measures=ALL):
    """Every layer of the table equals measure_columns at its year, bit for
    bit, and the reference author by author."""
    table = measure_table(corpus, years, ids, measures)
    assert table.shape == (len(years), len(measures), len(ids))
    assert table.dtype == np.float64
    for layer, year in zip(table, years):
        snap = snapshot_at(corpus, year)
        columns = measure_columns(snap, ids, measures)
        want = np.array([columns[m] for m in measures]).reshape(layer.shape)
        assert layer.view(np.uint64).tobytes() == want.view(np.uint64).tobytes(), year
        for i, author_id in enumerate(ids):
            values = reference.compute_all(author_id, snap)
            got = [layer[j, i] for j in range(len(measures))]
            assert got == [values[m] for m in measures], (year, author_id)


@pytest.fixture
def tiny_bounds(monkeypatch):
    """Chunks of one author, pieces of one row and runs of one publication's
    citation events, so that every edge between them is crossed."""
    monkeypatch.setattr(indices, "_TABLE", 1)
    monkeypatch.setattr(indices, "_PIECE", 1)
    monkeypatch.setattr(corpus_module, "_EVENT_CHUNK", 1)


# Cites keys out of year order, a citation before the listed year (the
# paper is backdated to it), a paper and citations from before the first
# year a snapshot can observe, uncited papers and an author without papers.
LINES = [
    {"author_id": "a1", "publications": [
        {"pub_id": "p1", "year": 2003, "authors": 2,
         "cites": {"2006": 3, "2001": 2, "2004": 1}},
        {"pub_id": "p2", "year": 2000, "authors": 1},
        {"pub_id": "p3", "year": 2002, "authors": 3,
         "cites": {"2012": 4, "2002": 5, "2007": 5}},
        {"pub_id": "p4", "year": 1940, "authors": 2,
         "cites": {"1949": 1, "1940": 3, "2003": 2}},
    ]},
    {"author_id": "a2", "publications": []},
    {"author_id": "a3", "publications": [
        {"pub_id": "q1", "year": 1999, "authors": 1,
         "cites": {"2004": 7, "1999": 1, "2002": 2}},
        {"pub_id": "q2", "year": 2005, "authors": 40, "cites": {"2003": 6}},
        {"pub_id": "q3", "year": 2004, "authors": 2, "cites": {"2004": 1}},
    ]},
]


@pytest.fixture
def loaded(tmp_path):
    path = tmp_path / "authors.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in LINES))
    corpus, report = load_corpus(path)
    assert report.rejected == 0
    return corpus


class TestMeasureTable:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_every_regime_every_year(self, regime):
        config = SynthConfig(rng_seed=3, n_authors=24, team_size_regime=regime)
        corpus = generate(config)
        ids = sorted(corpus.arrays.index)
        # From before the first publication to after the last citation.
        assert_table_matches(corpus, list(range(1978, 2023)), ids)

    @pytest.mark.parametrize("years", [[2010, 2015], [1950, 2030], [2019]])
    def test_years_with_gaps(self, years):
        config = SynthConfig(rng_seed=4, n_authors=20, team_size_regime="hyper")
        corpus = generate(config)
        assert_table_matches(corpus, years, sorted(corpus.arrays.index))

    def test_loaded_corpus_out_of_order_keys_and_backdating(self, loaded):
        assert loaded.authors["a3"].publications[1].effective_year == 2003
        ids = ["a3", "a2", "a1"]
        assert_table_matches(loaded, list(range(1998, 2014)), ids)
        # compute_measure, one author and measure at a time, reads the same
        for year, layer in zip([2002, 2012], measure_table(loaded, [2002, 2012], ids, ALL)):
            snap = snapshot_at(loaded, year)
            one = [[compute_measure(a, snap, m) for a in ids] for m in ALL]
            assert one == layer.tolist(), year
        assert_table_matches(loaded, [2001, 2004, 2012], ["a1", "a1", "a2"])
        assert_table_matches(loaded, [1950, 2003, 2030], ids)

    def test_every_edge_crossed(self, loaded, tiny_bounds):
        assert_table_matches(loaded, list(range(1998, 2014)), ["a3", "a2", "a1"])
        config = SynthConfig(rng_seed=5, n_authors=8, team_size_regime="hyper")
        corpus = generate(config)
        years = [1990, 2000, 2005, 2006, 2019]
        assert_table_matches(corpus, years, sorted(corpus.authors))

    @settings(max_examples=100, deadline=None)
    @given(
        corpus=tied_corpora(),
        years=st.lists(st.integers(1998, 2013), unique=True, max_size=5).map(sorted),
        measures=st.lists(st.sampled_from(ALL), unique=True, min_size=1),
        data=st.data(),
    )
    def test_tied_corpora(self, corpus, years, measures, data):
        ids = data.draw(st.permutations(sorted(corpus.authors)))
        assert_table_matches(corpus, years, ids, measures)

    def test_no_authors_no_years(self, loaded):
        assert measure_table(loaded, [2005, 2006], [], ALL).shape == (2, 16, 0)
        assert measure_table(loaded, [], ["a1"], ALL).shape == (0, 16, 1)
        assert (measure_table(loaded, [2005], ["a2"], ALL) == 0).all()
        with pytest.raises(KeyError, match="zz"):
            measure_table(loaded, [2005], ["a1", "zz"], ALL)

    @pytest.mark.parametrize("year", [1949, 2031])
    def test_year_out_of_range(self, loaded, year):
        with pytest.raises(ValueError) as raised:
            snapshot_at(loaded, year)
        years = sorted([2005, year])
        with pytest.raises(ValueError) as table_raised:
            measure_table(loaded, years, ["a1"], ALL)
        assert table_raised.value.args == raised.value.args

    @pytest.mark.parametrize("years", [[2006, 2005], [2005, 2005]])
    def test_years_must_ascend(self, loaded, years):
        with pytest.raises(ValueError, match="ascend"):
            measure_table(loaded, years, ["a1"], ALL)

    def test_peak_below_a_whole_corpus_snapshot_copy(self):
        # A snapshot used to build an int64 copy of every citation event;
        # the 30-year conferral table must stay below one such copy.
        config = SynthConfig(
            rng_seed=0, n_authors=500, team_size_regime="hyper", awards_per_year=0
        )
        corpus = generate(config)
        ids = sorted(corpus.arrays.index)
        events = len(corpus.arrays.event_count)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = measure_table(corpus, range(1990, 2020), ids, [Measure.C_FRAC])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert table.shape == (30, 1, 500)
        assert peak <= 8 * events, (peak, 8 * events)


class TestSnapshotCitations:
    @pytest.mark.parametrize("regime", REGIMES)
    def test_equal_to_raw_records_every_year(self, regime):
        config = SynthConfig(rng_seed=6, n_authors=15, team_size_regime=regime)
        corpus = generate(config)
        pubs = [p for author in corpus.authors.values() for p in author.publications]
        for year in range(1978, 2022):
            got = snapshot_citations(snapshot_at(corpus, year))
            assert got.dtype == np.int64
            assert got.tolist() == [
                sum(c for y, c in p.citations_by_year.items() if y <= year)
                for p in pubs
            ]

    def test_edges_crossed(self, loaded, tiny_bounds):
        pubs = [p for line in LINES for p in line["publications"]]
        for year in (1950, 1999, 2002, 2004, 2012):
            assert snapshot_citations(snapshot_at(loaded, year)).tolist() == [
                sum(c for y, c in (p.get("cites") or {}).items() if int(y) <= year)
                for p in pubs
            ]

    def test_sums_past_float_exactness_are_exact_int64(self):
        # A publication cited 2^31 - 1 times in each of 2^22 + 1 years holds
        # more citations than a float64 sum keeps exact: one year and
        # several years alike sum them exactly in int64.
        events = 2**22 + 1
        arrays = corpus_module.CorpusArrays(
            index={"a": 0}, names=["a"], fields=["other"],
            starts=np.array([0, 1]), pub_id=["p"],
            effective_year=np.array([-events], dtype=np.int32),
            author_count=np.array([1], dtype=np.int32),
            event_start=np.array([0, events]),
            event_year=np.arange(-events, 0, dtype=np.int32),
            event_count=np.full(events, 2**31 - 1, dtype=np.int32),
        )
        one = corpus_module.citations_through(arrays, 0, 1, np.array([2000]))
        assert one.tolist() == [[events * (2**31 - 1)]]
        two = corpus_module.citations_through(arrays, 0, 1, np.array([2000, 2001]))
        assert two.dtype == np.int64
        assert two.tolist() == [[events * (2**31 - 1)]] * 2

    @pytest.mark.parametrize("mode", FILTER_MODES)
    def test_series_grid_never_reads_them(self, mode, monkeypatch):
        corpus = generate(SynthConfig(rng_seed=2, n_authors=30))
        # The table sums the citations itself: no snapshot is built to read.
        monkeypatch.setattr(
            Snapshot, "__init__", lambda *_: pytest.fail("snapshot built")
        )
        grid = series_grid(
            corpus, [Measure.H], ["tau_b"], (2000, 2010), horizon=2,
            author_filter=AuthorFilter(mode=mode),
        )
        assert len(grid[Measure.H, "tau_b"].values) == 11
