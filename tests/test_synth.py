import hashlib
import statistics

import pytest

from scimetrics.corpus import snapshot_at
from scimetrics.indices import Measure, compute_all
from scimetrics.ingest import load_corpus, save_corpus
from scimetrics.synth import SynthConfig, generate, team_size_mean


def mean_team_size(corpus):
    sizes = [
        p.author_count for a in corpus.authors.values() for p in a.publications
    ]
    return statistics.mean(sizes) if sizes else 0.0


def yearly_mean_team_size(corpus, year):
    sizes = [
        p.author_count
        for a in corpus.authors.values()
        for p in a.publications
        if p.effective_year == year
    ]
    return statistics.mean(sizes) if sizes else 0.0


class TestGenerate:
    def test_empty(self):
        corpus = generate(SynthConfig(n_authors=0))
        assert corpus.authors == {}
        assert corpus.catalog == {}

    def test_classic_regime_band(self):
        corpus = generate(SynthConfig(rng_seed=42, n_authors=200))
        assert 2.4 <= mean_team_size(corpus) <= 3.6

    def test_yearly_means_track_targets(self):
        config = SynthConfig(
            rng_seed=11, n_authors=200, team_size_regime="growing"
        )
        corpus = generate(config)
        for year in range(config.start_year, config.end_year + 1, 10):
            target = team_size_mean(config, year)
            assert yearly_mean_team_size(corpus, year) == pytest.approx(
                target, rel=0.2
            )

    def test_seed_determinism_bytes(self, tmp_path):
        config = SynthConfig(rng_seed=123, n_authors=20)
        paths_a = save_corpus(generate(config), tmp_path / "a")
        paths_b = save_corpus(generate(config), tmp_path / "b")
        for key in paths_a:
            assert paths_a[key].read_bytes() == paths_b[key].read_bytes()

    def test_different_seeds_differ(self):
        a = generate(SynthConfig(rng_seed=1, n_authors=10))
        b = generate(SynthConfig(rng_seed=2, n_authors=10))
        assert a != b

    def test_regime_monotonicity(self):
        # Mean team size per year: hyper >= growing >= classic, in
        # expectation over 10 seeds.
        years = range(1980, 2020, 5)
        sums = {regime: {y: 0.0 for y in years} for regime in
                ("classic", "growing", "hyper")}
        for seed in range(10):
            for regime in sums:
                corpus = generate(
                    SynthConfig(rng_seed=seed, n_authors=40,
                                team_size_regime=regime)
                )
                for year in years:
                    sums[regime][year] += yearly_mean_team_size(corpus, year)
        for year in years:
            assert sums["hyper"][year] >= sums["growing"][year]
            assert sums["growing"][year] >= sums["classic"][year]

    def test_corpus_invariants_hold(self):
        corpus = generate(SynthConfig(rng_seed=9, n_authors=30,
                                      team_size_regime="hyper"))
        snap = snapshot_at(corpus, 2019)
        assert set(snap.publications) == set(corpus.authors)
        for author in corpus.authors.values():
            for grant in author.awards:
                assert grant.award_id in corpus.catalog

    def test_awards_track_latent_reputation(self):
        corpus = generate(SynthConfig(rng_seed=3, n_authors=60))
        total_awards = sum(len(a.awards) for a in corpus.authors.values())
        config = SynthConfig(rng_seed=3, n_authors=60)
        n_years = config.end_year - config.award_start_year + 1
        assert total_awards == n_years * config.awards_per_year

    @pytest.mark.parametrize("latent", ["c-frac", "h"])
    @pytest.mark.parametrize("regime", ["classic", "hyper"])
    def test_laureates_are_top_authors_by_latent_measure(self, latent, regime):
        config = SynthConfig(
            rng_seed=4, n_authors=24, awards_per_year=5, start_year=1995,
            award_start_year=1997, hyper_onset_year=2003,
            team_size_regime=regime, latent_reputation=latent,
        )
        corpus = generate(config)
        for year in range(config.award_start_year, config.end_year + 1):
            snap = snapshot_at(corpus, year)
            score = {a: compute_all(a, snap)[Measure(latent)] for a in corpus.authors}
            expected = sorted(score, key=lambda a: (-score[a], a))[:5]
            laureates = sorted(
                a.author_id for a in corpus.authors.values()
                if any(g.award_id == f"synth-{year}" for g in a.awards)
            )
            assert laureates == sorted(expected), year

    def test_roundtrip_through_ingest(self, tmp_path):
        corpus = generate(SynthConfig(rng_seed=7, n_authors=15))
        paths = save_corpus(corpus, tmp_path)
        loaded, report = load_corpus(
            paths["authors"], paths["awards"], paths["catalog"]
        )
        assert report.rejected == 0
        assert set(loaded.authors) == set(corpus.authors)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            SynthConfig(n_authors=-1)
        with pytest.raises(ValueError):
            SynthConfig(team_size_regime="exotic")
        with pytest.raises(ValueError):
            SynthConfig(pubs_per_year=-0.5)
        with pytest.raises(ValueError):
            SynthConfig(hyper_author_fraction=1.5)

    @pytest.mark.parametrize(
        "years, field",
        [
            ({"start_year": 2000}, "award_start_year"),  # awards from 1990
            ({"start_year": 2015, "end_year": 2019}, "award_start_year"),
            ({"start_year": 1940, "award_start_year": 1945}, "start_year"),
            ({"end_year": 2031}, "end_year"),
        ],
    )
    def test_rejects_years_it_cannot_serve(self, years, field):
        with pytest.raises(ValueError, match=f"^{field} "):
            SynthConfig(rng_seed=0, n_authors=30, **years)


# SHA-256 of authors.jsonl, awards.csv and catalog.csv, concatenated, as
# save_corpus writes them: any change to the order or number of the
# generator's draws, or to the writer's bytes, changes these.
PINNED_DIGESTS = {
    "classic-c-frac": "148624e38282563a64d773eb815f0f5d3f8b47dbf143f1152b2a79fce272b118",
    "classic-h": "b9909fbd14d49f07e8aeed42735ab44ebfd9eb54e953ae3784eb9af3e560e22c",
    "growing-c-frac": "5b472b7a80048797f22ba90ba8cf6bc5d408d8fb11c6beea5773aa2a08cbc643",
    "growing-h": "78042fc59fba487ad1e31e44f92d206f79192ad3aad613f09a636daf43e238ca",
    "hyper-c-frac": "2d20be82c56b99f0a18f77c783e4ec669adcb6fcb8a2432e1e6ae5b92b708c35",
    "hyper-h": "323d1e78e971888aff81bd339ed4cd2d34951928c5d18dc571d1211d36c6109c",
    "no-awards": "0f00a9618acee4d6196880cff582ba12887c2f3a429bbed2a7684c674bac0e3d",
    "empty": "1ff69bd38eff76f534d47f8f281a069c11f425e880905d71f6e9631c071f6242",
}
PINNED_CONFIGS = {
    **{
        f"{regime}-{latent}": dict(
            rng_seed=0, n_authors=60, team_size_regime=regime,
            latent_reputation=latent,
        )
        for regime in ("classic", "growing", "hyper")
        for latent in ("c-frac", "h")
    },
    "no-awards": dict(
        rng_seed=5, n_authors=60, team_size_regime="hyper", awards_per_year=0
    ),
    "empty": dict(rng_seed=0, n_authors=0),
}


@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_saved_corpus_bytes_are_pinned(name, tmp_path):
    paths = save_corpus(generate(SynthConfig(**PINNED_CONFIGS[name])), tmp_path)
    digest = hashlib.sha256()
    for key in ("authors", "awards", "catalog"):
        digest.update(paths[key].read_bytes())
    assert digest.hexdigest() == PINNED_DIGESTS[name]


@pytest.mark.parametrize(
    "config, message",
    [
        (
            dict(citations_per_paper_year=5e9),
            "citation count 4999984603 is outside the 32-bit integer range",
        ),
        (
            dict(classic_team_mean=5e9),
            "authors 4999906539 is outside the 32-bit integer range",
        ),
        (  # a regular paper's count comes before a consortium paper's team
            dict(
                team_size_regime="hyper", hyper_author_fraction=1.0,
                hyper_onset_year=1980, citations_per_paper_year=5e9,
                hyper_team_mean=5e9,
            ),
            "citation count 5000072700 is outside the 32-bit integer range",
        ),
    ],
)
def test_values_outside_int32_fail_named(config, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        generate(SynthConfig(rng_seed=0, n_authors=1, **config))
