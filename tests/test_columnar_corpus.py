"""The corpus is its columns: every producer writes the same ones, and no
pipeline path rebuilds the per-paper profiles from them."""

import dataclasses

import numpy as np
import pytest

from scimetrics.cli import main
from scimetrics.corpus import AuthorCorpus, AuthorProfile, PublicationRecord
from scimetrics.evaluation import (
    AWARD_MODES,
    FILTER_MODES,
    AuthorFilter,
    AwardScheme,
    measure_correlation_matrix,
    series_grid,
)
from scimetrics.indices import Measure
from scimetrics.ingest import load_corpus, save_corpus
from scimetrics.synth import SynthConfig, generate

CONFIGS = [
    SynthConfig(rng_seed=1, n_authors=12),
    SynthConfig(rng_seed=2, n_authors=15, team_size_regime="growing"),
    SynthConfig(
        rng_seed=3, n_authors=10, team_size_regime="hyper", hyper_team_mean=50.0,
        latent_reputation="h",
    ),
]


def assert_same_columns(a, b):
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, field.name
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.team_size_regime)
def test_three_producers_agree(tmp_path, config):
    generated = generate(config)
    paths = save_corpus(generated, tmp_path)
    loaded, report = load_corpus(paths["authors"], paths["awards"], paths["catalog"])
    flattened = AuthorCorpus(authors=generated.authors, catalog=generated.catalog)
    assert report.rejected == 0
    for other in (loaded, flattened):
        assert_same_columns(generated.arrays, other.arrays)
        assert other.grants == generated.grants
        assert other.catalog == generated.catalog
        assert other.authors == generated.authors


@pytest.fixture
def no_profiles(monkeypatch):
    """Fail the test if anything builds the profile view or constructs a
    profile or publication record."""

    def fail(*args):
        raise AssertionError("a pipeline path built the per-paper objects")

    monkeypatch.setattr(AuthorCorpus, "authors", property(fail))
    monkeypatch.setattr(AuthorProfile, "__post_init__", fail)
    monkeypatch.setattr(PublicationRecord, "__post_init__", fail)


def test_no_pipeline_path_builds_the_view(tmp_path, no_profiles):
    config = CONFIGS[2]
    paths = save_corpus(generate(config), tmp_path / "lib")
    corpus, _ = load_corpus(paths["authors"], paths["awards"], paths["catalog"])
    for mode in FILTER_MODES:
        for award_mode in AWARD_MODES:
            series_grid(
                corpus, [Measure.H, Measure.H_FRAC], ["tau_b", "auc"], (1995, 2010),
                horizon=2, scheme=AwardScheme(mode=award_mode, selective_threshold=5),
                author_filter=AuthorFilter(mode=mode, max_avg_authors=20.0),
            )
    measure_correlation_matrix(corpus, 2015, list(Measure))

    config_path = tmp_path / "synth.json"
    config_path.write_text('{"n_authors": 10, "team_size_regime": "hyper"}')
    cli = tmp_path / "cli"
    for argv in (
        ["synth", "--config", str(config_path), "--out", str(cli / "corpus")],
        ["validate", "--corpus", str(cli / "corpus")],
        ["indices", "--corpus", str(cli / "corpus"), "--year", "2010",
         "--out", str(cli / "indices.csv")],
        ["evaluate", "--corpus", str(cli / "corpus"), "--measures", "h,h-frac",
         "--criteria", "tau_b,auc", "--years", "2000:2005",
         "--filter", "peak_in_window", "--out", str(cli / "eval")],
        ["roc", "--corpus", str(cli / "corpus"), "--year", "2015",
         "--out", str(cli / "roc")],
        ["corr-matrix", "--corpus", str(cli / "corpus"), "--years", "2015",
         "--out", str(cli / "corr")],
    ):
        assert main(argv) == 0, argv
