import math
import random
import re

import numpy as np
import pytest

import oracles
from scimetrics.corpus import (
    AuthorCorpus,
    AuthorProfile,
    AwardCatalogEntry,
    AwardGrant,
    PublicationRecord,
    snapshot_at,
)
from scimetrics.errors import DegenerateInputError
from scimetrics.evaluation import (
    AWARD_MODES,
    CRITERIA,
    FILTER_MODES,
    AuthorFilter,
    AwardScheme,
    apply_filter,
    award_scores,
    effectiveness,
    measure_correlation_matrix,
    predictive_power,
    series,
    series_grid,
)
from scimetrics.indices import Measure, compute_measure


def build_corpus(papers_by_author, grants_by_author=None, catalog=None):
    grants_by_author = grants_by_author or {}
    authors = {}
    for aid, papers in papers_by_author.items():
        pubs = tuple(
            PublicationRecord(f"{aid}-p{i}", year, a, dict(cites))
            for i, (year, a, cites) in enumerate(papers)
        )
        authors[aid] = AuthorProfile(
            author_id=aid,
            display_name=aid,
            field_tag="other",
            publications=pubs,
            awards=tuple(grants_by_author.get(aid, ())),
        )
    return AuthorCorpus(authors=authors, catalog=catalog or {})


def seeded_corpus(seed=2024, n_authors=50):
    """Random corpus with awards loosely tracking productivity."""
    rng = random.Random(seed)
    catalog = {
        f"aw{k}": AwardCatalogEntry(f"aw{k}", f"Prize {k}", rng.choice([5, 50, 500]))
        for k in range(6)
    }
    papers_by_author = {}
    grants_by_author = {}
    for i in range(n_authors):
        aid = f"a{i:02d}"
        papers = []
        for j in range(rng.randint(0, 12)):
            year = rng.randint(1980, 2010)
            cites = {
                y: rng.randint(0, 6)
                for y in range(year, min(year + 8, 2020))
            }
            papers.append((year, rng.randint(1, 10), cites))
        papers_by_author[aid] = papers
        grants = []
        for _ in range(rng.randint(0, min(3, len(papers)))):
            grants.append(
                AwardGrant(f"aw{rng.randint(0, 5)}", rng.randint(1990, 2015))
            )
        grants_by_author[aid] = grants
    return build_corpus(papers_by_author, grants_by_author, catalog)


class TestAwardScores:
    def test_cumulative_counting(self):
        catalog = {"x": AwardCatalogEntry("x", "X", 10)}
        corpus = build_corpus(
            {"a1": []},
            {"a1": [AwardGrant("x", 1998), AwardGrant("x", 2005)]},
            catalog,
        )
        assert award_scores(corpus, 2000)["a1"] == 1
        assert award_scores(corpus, 2010)["a1"] == 2

    def test_selective_weighting(self):
        # One award with 42 laureates, one with 13,837: 10 + 1 = 11.
        catalog = {
            "clark": AwardCatalogEntry("clark", "Clark Medal", 42),
            "aaas": AwardCatalogEntry("aaas", "Arts & Sciences", 13837),
        }
        corpus = build_corpus(
            {"a1": []},
            {"a1": [AwardGrant("clark", 2000), AwardGrant("aaas", 2001)]},
            catalog,
        )
        scheme = AwardScheme(mode="selective_weight")
        assert award_scores(corpus, 2010, scheme)["a1"] == 11

    def test_binary_mode(self):
        catalog = {"x": AwardCatalogEntry("x", "X", 10)}
        corpus = build_corpus(
            {"a1": [], "a2": []},
            {"a1": [AwardGrant("x", 1998), AwardGrant("x", 2005)]},
            catalog,
        )
        scores = award_scores(corpus, 2010, AwardScheme(mode="binary"))
        assert set(scores.values()) <= {0.0, 1.0}
        assert scores["a1"] == 1 and scores["a2"] == 0

    def test_subset_determinism(self):
        corpus = seeded_corpus()
        scheme = AwardScheme(subset_fraction=0.5, rng_seed=7)
        assert award_scores(corpus, 2015, scheme) == award_scores(
            corpus, 2015, scheme
        )
        other = AwardScheme(subset_fraction=0.5, rng_seed=8)
        assert award_scores(corpus, 2015, scheme) != award_scores(
            corpus, 2015, other
        )


class TestApplyFilter:
    def test_all_is_identity(self):
        corpus = seeded_corpus()
        snap = snapshot_at(corpus, 2015)
        assert apply_filter(corpus, snap, AuthorFilter()) == sorted(corpus.authors)

    def test_hyperauthor_excluded(self):
        corpus = build_corpus(
            {
                "big": [(2000, 2441, {2001: 5})],
                "small": [(2000, 3, {2001: 5})],
            }
        )
        snap = snapshot_at(corpus, 2010)
        kept = apply_filter(
            corpus, snap, AuthorFilter(mode="no_hyperauthors", max_avg_authors=100)
        )
        assert kept == ["small"]

    def test_hyperauthor_inf_threshold_equals_all(self):
        corpus = seeded_corpus()
        snap = snapshot_at(corpus, 2015)
        kept = apply_filter(
            corpus,
            snap,
            AuthorFilter(mode="no_hyperauthors", max_avg_authors=math.inf),
        )
        assert kept == apply_filter(corpus, snap, AuthorFilter())

    def test_bottom_half(self):
        corpus = build_corpus(
            {
                "rich": [(2000, 1, {2001: 20})],
                "poor": [(2000, 1, {2001: 10})],
            }
        )
        snap = snapshot_at(corpus, 2010)
        kept = apply_filter(
            corpus, snap, AuthorFilter(mode="bottom_half_citations")
        )
        assert kept == ["poor"]

    def test_bottom_half_floor(self):
        corpus = seeded_corpus()
        snap = snapshot_at(corpus, 2015)
        kept = apply_filter(
            corpus, snap, AuthorFilter(mode="bottom_half_citations")
        )
        assert len(kept) == len(corpus.authors) // 2

    def test_peak_in_window(self):
        corpus = build_corpus(
            {
                "early": [(1995, 1, {}), (1995, 1, {}), (2005, 1, {})],
                "late": [(2005, 1, {}), (2005, 1, {}), (1995, 1, {})],
            }
        )
        snap = snapshot_at(corpus, 2020)
        kept = apply_filter(
            corpus,
            snap,
            AuthorFilter(mode="peak_in_window", window=(2000, 2010)),
        )
        assert kept == ["late"]

    def test_empty_result_degenerate(self):
        corpus = build_corpus({"a1": [(2000, 500, {2001: 1})]})
        snap = snapshot_at(corpus, 2010)
        with pytest.raises(DegenerateInputError):
            apply_filter(
                corpus, snap, AuthorFilter(mode="no_hyperauthors", max_avg_authors=10)
            )


class TestEffectiveness:
    def test_perfect_concordance(self):
        # Award count strictly increasing in h.
        catalog = {"x": AwardCatalogEntry("x", "X", 10)}
        papers_by_author = {}
        grants_by_author = {}
        for i in range(1, 6):
            aid = f"a{i}"
            # Author i has i papers each cited i+1 times -> h = i.
            papers_by_author[aid] = [
                (2000, 1, {2001: i + 1}) for _ in range(i)
            ]
            grants_by_author[aid] = [AwardGrant("x", 2001) for _ in range(i)]
        corpus = build_corpus(papers_by_author, grants_by_author, catalog)
        assert effectiveness(corpus, Measure.H, "tau_b", 2010) == 1.0

    def test_end_to_end_oracle(self):
        corpus = seeded_corpus()
        year = 2012
        value = effectiveness(corpus, Measure.H, "tau_b", year)
        # Independent recomputation: brute-force snapshot filter, then the
        # naive all-pairs tau_b oracle.
        ids = sorted(corpus.authors)
        h_values = []
        for aid in ids:
            cites = sorted(
                (
                    sum(c for y, c in p.citations_by_year.items() if y <= year)
                    for p in corpus.authors[aid].publications
                    if p.effective_year <= year
                ),
                reverse=True,
            )
            h_values.append(oracles.h_oracle(cites))
        awards = [
            sum(1 for g in corpus.authors[aid].awards if g.year_conferred <= year)
            for aid in ids
        ]
        assert value == pytest.approx(oracles.tau_b_oracle(h_values, awards))

    def test_degenerate_tagged(self):
        corpus = build_corpus({"a1": [], "a2": []})
        with pytest.raises(DegenerateInputError) as err:
            effectiveness(corpus, Measure.H, "tau_b", 2010)
        assert "2010" in str(err.value)


class TestPredictivePower:
    def test_horizon_zero_is_effectiveness(self):
        corpus = seeded_corpus()
        for criterion in ("tau_b", "somers_d", "gamma", "rho", "auc"):
            for year in (2000, 2010):
                assert predictive_power(
                    corpus, Measure.H_FRAC, criterion, year, 0
                ) == effectiveness(corpus, Measure.H_FRAC, criterion, year)

    def test_all_awards_past_makes_horizon_irrelevant(self):
        corpus = seeded_corpus()
        # All grants in seeded_corpus are conferred by 2015.
        values = {
            x: predictive_power(corpus, Measure.H, "tau_b", 2016, x)
            for x in (0, 3, 5, 10)
        }
        assert len(set(values.values())) == 1

    def test_matches_end_to_end_oracle(self):
        corpus = seeded_corpus()
        year, horizon = 2005, 5
        value = predictive_power(corpus, Measure.C, "tau_b", year, horizon)
        ids = sorted(corpus.authors)
        c_values = [
            sum(
                sum(c for y, c in p.citations_by_year.items() if y <= year)
                for p in corpus.authors[aid].publications
                if p.effective_year <= year
            )
            for aid in ids
        ]
        awards = [
            sum(
                1
                for g in corpus.authors[aid].awards
                if g.year_conferred <= year + horizon
            )
            for aid in ids
        ]
        assert value == pytest.approx(oracles.tau_b_oracle(c_values, awards))


class TestSchemeInvariance:
    def test_uniform_reweighting_changes_nothing(self):
        corpus = seeded_corpus()
        base = AwardScheme(mode="equal_weight")
        # selective threshold 0 laureates matches nothing -> factor never
        # applies; scaling all weights is emulated via selective factor with
        # an all-matching threshold.
        scaled = AwardScheme(
            mode="selective_weight", selective_threshold=10**9, selective_factor=7.0
        )
        for criterion in ("tau_b", "somers_d", "gamma", "rho", "auc"):
            assert effectiveness(
                corpus, Measure.H, criterion, 2012, scheme=scaled
            ) == pytest.approx(
                effectiveness(corpus, Measure.H, criterion, 2012, scheme=base),
                abs=1e-12,
            )


class TestSeries:
    def test_single_year_equals_effectiveness(self):
        corpus = seeded_corpus()
        s = series(corpus, Measure.H, "tau_b", (2012, 2012))
        assert s.years == (2012,)
        assert s.values[0] == effectiveness(corpus, Measure.H, "tau_b", 2012)

    def test_constant_after_last_event(self):
        corpus = seeded_corpus()
        s = series(corpus, Measure.G, "tau_b", (2020, 2024))
        assert len(set(s.values)) == 1

    def test_degenerate_years_are_gaps(self):
        # No awards before 1990 -> tau_b undefined there, not 0.
        corpus = seeded_corpus()
        s = series(corpus, Measure.H, "tau_b", (1985, 1995))
        assert s.values[0] is None
        assert s.values[-1] is not None

    def test_matches_per_year_calls(self):
        corpus = seeded_corpus()
        s = series(corpus, Measure.H_FRAC, "tau_b", (2000, 2010), horizon=5)
        for year, value in zip(s.years, s.values):
            expected = predictive_power(corpus, Measure.H_FRAC, "tau_b", year, 5)
            assert value == pytest.approx(expected)


class TestSeriesGrid:
    @pytest.mark.parametrize("award_mode", AWARD_MODES)
    @pytest.mark.parametrize("filter_mode", FILTER_MODES)
    def test_cells_match_series_and_predictive_power(self, filter_mode, award_mode):
        corpus = seeded_corpus(n_authors=30)
        scheme = AwardScheme(mode=award_mode, selective_threshold=50)
        author_filter = AuthorFilter(
            mode=filter_mode, max_avg_authors=5.0, window=(1995, 2005)
        )
        measures = [Measure.H_FRAC, Measure.H_AP]
        args = ((1986, 1997), 2, scheme, author_filter)
        grid = series_grid(corpus, measures, list(CRITERIA), *args)
        assert list(grid) == [(m, c) for m in measures for c in CRITERIA]
        for (measure, criterion), cell in grid.items():
            assert cell == series(corpus, measure, criterion, *args)
            for year, value, reason in zip(cell.years, cell.values, cell.gap_reasons):
                call = (corpus, measure, criterion, year, 2, scheme, author_filter)
                if value is None:
                    with pytest.raises(DegenerateInputError, match=re.escape(reason)):
                        predictive_power(*call)
                else:
                    assert reason is None
                    assert value == predictive_power(*call)
        values = [v for cell in grid.values() for v in cell.values]
        assert None in values and any(v is not None for v in values)

    def test_n_authors_counts_kept_authors_and_gaps_stay_none(self):
        # Authors without papers yet average 0 authors per paper, so the
        # filter keeps both before 1990, only "late" before 1995, then nobody.
        corpus = build_corpus(
            {"early": [(1990, 500, {1991: 5})], "late": [(1995, 500, {})]}
        )
        no_hyper = AuthorFilter(mode="no_hyperauthors", max_avg_authors=10)
        grid = series_grid(
            corpus, [Measure.H, Measure.C], ["tau_b", "auc"], (1988, 1996),
            author_filter=no_hyper,
        )
        for cell in grid.values():
            assert cell.n_authors == (2, 2, 1, 1, 1, 1, 1, 0, 0)
            assert cell.values == (None,) * 9

    def test_gap_reasons_say_why_each_year_is_a_gap(self):
        # Same corpus: no awards at all, one author from 1990, none from 1995.
        corpus = build_corpus(
            {"early": [(1990, 500, {1991: 5})], "late": [(1995, 500, {})]}
        )
        no_hyper = AuthorFilter(mode="no_hyperauthors", max_avg_authors=10)
        grid = series_grid(
            corpus, [Measure.H], ["tau_b", "auc"], (1988, 1996),
            author_filter=no_hyper,
        )
        tau_b, auc = grid[Measure.H, "tau_b"], grid[Measure.H, "auc"]
        assert tau_b.gap_reasons[0] == (
            "tau_b degenerate at year 1988 for measure h: "
            "tau_b undefined: a sequence is fully tied"
        )
        assert auc.gap_reasons[1] == (
            "auc degenerate at year 1989 for measure h: "
            "roc undefined: no awards in population"
        )
        for cell in (tau_b, auc):
            assert len(cell.gap_reasons) == len(cell.years)
            assert cell.gap_reasons[2] == (
                "fewer than 2 authors at year 1990 after filtering"
            )
            assert cell.gap_reasons[7:] == (
                "filter 'no_hyperauthors' leaves no authors at 1995",
                "filter 'no_hyperauthors' leaves no authors at 1996",
            )

    def test_unknown_criterion_rejected_before_any_year(self, monkeypatch):
        monkeypatch.setattr(
            "scimetrics.evaluation.snapshot_at",
            lambda *_: pytest.fail("snapshot built for a bad criterion"),
        )
        with pytest.raises(ValueError, match="pearson"):
            series_grid(
                seeded_corpus(), [Measure.H], ["tau_b", "pearson"], (2000, 2001)
            )


class TestCorrelationMatrix:
    def test_symmetric_unit_diagonal(self):
        corpus = seeded_corpus()
        measures = [Measure.H, Measure.C, Measure.H_FRAC, Measure.MU]
        matrix = measure_correlation_matrix(corpus, 2010, measures)
        assert np.allclose(matrix, matrix.T, equal_nan=True)
        assert np.allclose(np.diag(matrix), 1.0)
        finite = matrix[np.isfinite(matrix)]
        assert np.all(finite >= -1 - 1e-12) and np.all(finite <= 1 + 1e-12)

    def test_single_author_papers_h_equals_h_frac(self):
        corpus = build_corpus(
            {
                f"a{i}": [(2000, 1, {2001: c}) for c in range(i + 1)]
                for i in range(5)
            }
        )
        matrix = measure_correlation_matrix(
            corpus, 2010, [Measure.H, Measure.H_FRAC]
        )
        assert matrix[0, 1] == 1.0

    def test_constant_column_is_nan(self):
        corpus = build_corpus({"a1": [], "a2": []})
        matrix = measure_correlation_matrix(corpus, 2010, [Measure.H, Measure.C])
        assert np.isnan(matrix).all()

    def test_matches_naive_recomputation(self):
        corpus = seeded_corpus()
        measures = [Measure.H, Measure.C_FRAC, Measure.O]
        matrix = measure_correlation_matrix(corpus, 2010, measures)
        snap = snapshot_at(corpus, 2010)
        ids = sorted(corpus.authors)
        for i, mi in enumerate(measures):
            for j, mj in enumerate(measures):
                a = [compute_measure(x, snap, mi) for x in ids]
                b = [compute_measure(x, snap, mj) for x in ids]
                assert matrix[i, j] == pytest.approx(oracles.tau_b_oracle(a, b))
