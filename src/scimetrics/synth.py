"""Seeded synthetic corpus generator.

Produces controllable authorship regimes at desk scale: `classic` (small
constant team sizes), `growing` (mean team size rising linearly over the
years), and `hyper` (a fraction of authors additionally joins consortium
papers with thousands of authors from an onset year on).  Awards are
conferred each year to the top authors by a latent measure (c-frac or h),
taken from the same `measure_table` the evaluation uses, so
index-vs-award correlations are meaningful by construction.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, fields

import numpy as np

from .corpus import (
    VALID_YEAR_RANGE,
    AuthorCorpus,
    AwardCatalogEntry,
    AwardGrant,
    ColumnBuilder,
    outside_int32,
)
from .indices import Measure, measure_table

REGIMES = ("classic", "growing", "hyper")
LATENT_SCORES = ("c-frac", "h")

# The values each SynthConfig field takes, by its annotation: an integer is a
# number too, but a bool is neither.
_FIELD_KINDS = {
    "int": (numbers.Integral, "an integer"),
    "float": (numbers.Real, "a finite number"),
    "str": (str, "a string"),
}


@dataclass(frozen=True)
class SynthConfig:
    rng_seed: int = 0
    n_authors: int = 200
    start_year: int = 1980
    end_year: int = 2019
    pubs_per_year: float = 1.5
    citations_per_paper_year: float = 1.5
    team_size_regime: str = "classic"
    classic_team_mean: float = 3.0
    growing_final_team_mean: float = 30.0
    hyper_onset_year: int = 2000
    hyper_author_fraction: float = 0.5
    hyper_team_mean: float = 2000.0
    hyper_paper_rate: float = 2.0
    hyper_citation_boost: float = 5.0
    awards_per_year: int = 10
    award_start_year: int = 1990
    latent_reputation: str = "c-frac"

    def __post_init__(self):
        for f in fields(self):
            kind, noun = _FIELD_KINDS[f.type]
            value = getattr(self, f.name)
            if (
                isinstance(value, bool)
                or not isinstance(value, kind)
                # NaN, infinities and integers beyond float64 alike
                or (kind is numbers.Real and not abs(value) <= sys.float_info.max)
            ):
                raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.n_authors < 0:
            raise ValueError("n_authors must be >= 0")
        lo, hi = VALID_YEAR_RANGE
        if self.start_year < lo:
            raise ValueError(f"start_year must be >= {lo}")
        if self.end_year > hi:
            raise ValueError(f"end_year must be <= {hi}")
        if self.start_year > self.end_year:
            raise ValueError("start_year must not exceed end_year")
        if self.award_start_year < self.start_year:
            raise ValueError("award_start_year must not precede start_year")
        if self.team_size_regime not in REGIMES:
            raise ValueError(f"unknown regime {self.team_size_regime!r}")
        if self.latent_reputation not in LATENT_SCORES:
            raise ValueError(f"unknown latent score {self.latent_reputation!r}")
        for rate in (
            self.pubs_per_year,
            self.citations_per_paper_year,
            self.hyper_paper_rate,
            self.hyper_citation_boost,
        ):
            if rate < 0:
                raise ValueError("rates must be >= 0")
        if not 0 <= self.hyper_author_fraction <= 1:
            raise ValueError("hyper_author_fraction must be in [0, 1]")
        if self.classic_team_mean < 1 or self.growing_final_team_mean < 1:
            raise ValueError("team means must be >= 1")
        if self.awards_per_year < 0:
            raise ValueError("awards_per_year must be >= 0")


def team_size_mean(config: SynthConfig, year: int) -> float:
    """Target mean team size of regular (non-consortium) papers in a year."""
    if config.team_size_regime == "classic":
        return config.classic_team_mean
    span = max(config.end_year - config.start_year, 1)
    progress = (year - config.start_year) / span
    base = config.classic_team_mean + 1.0
    growing = base + progress * (config.growing_final_team_mean - base)
    if config.team_size_regime == "growing":
        return growing
    # hyper: regular papers track the growing schedule with a constant bump;
    # consortium papers come on top of this.
    return growing + 2.0


def _is_hyper_author(config: SynthConfig, index: int) -> bool:
    return (
        config.team_size_regime == "hyper"
        and index < round(config.hyper_author_fraction * config.n_authors)
    )


# Papers whose citation draws are held back before they are appended, at the
# next author boundary, as columns: enough to amortise the numpy calls, few
# enough that the batch stays a small transient.
_FLUSH_PAPERS = 1024


def generate(config: SynthConfig) -> AuthorCorpus:
    """Generate a corpus; identical config (incl. seed) gives an identical
    corpus."""
    streams = np.random.SeedSequence(config.rng_seed).spawn(max(config.n_authors, 1))
    columns = ColumnBuilder()
    width = max(len(str(max(config.n_authors - 1, 0))), 3)
    years = list(range(config.start_year, config.end_year + 1))
    # A batch of papers: (papers per year, smallest team, Poisson mean of the
    # authors beyond it, citations per paper-year).
    regular = [
        (
            config.pubs_per_year, 1, max(team_size_mean(config, year) - 1.0, 0.0),
            config.citations_per_paper_year,
        )
        for year in years
    ]
    consortium = (
        config.hyper_paper_rate, 2, config.hyper_team_mean,
        config.citations_per_paper_year * config.hyper_citation_boost,
    )
    draws: list[np.ndarray] = []  # held-back papers' citation counts
    for idx in range(config.n_authors):
        rng = np.random.default_rng(streams[idx])
        author_id = f"a{idx:0{width}d}"
        first = len(columns.pub_id)
        hyper = _is_hyper_author(config, idx)
        for offset, year in enumerate(years):
            batches = [regular[offset]]
            if hyper and year >= config.hyper_onset_year:
                batches.append(consortium)
            for paper_rate, smallest, extra, citation_rate in batches:
                for _ in range(int(rng.poisson(paper_rate))):
                    team = smallest + int(rng.poisson(extra))
                    cites = rng.poisson(citation_rate, size=len(years) - offset)
                    columns.pub_id.append(
                        f"{author_id}-p{len(columns.pub_id) - first:04d}"
                    )
                    columns.effective_year.append(year)
                    try:
                        columns.author_count.append(team)
                    except OverflowError:
                        # an earlier paper's count is the first bad value
                        _add_citations(columns, draws, config.end_year)
                        raise ValueError(outside_int32("authors", team)) from None
                    draws.append(cites)
        columns.add_author(author_id, f"Synthetic Author {idx}", "other")
        if len(draws) >= _FLUSH_PAPERS:
            _add_citations(columns, draws, config.end_year)
            draws = []
    _add_citations(columns, draws, config.end_year)
    arrays = columns.finish()
    catalog, grants = _confer_awards(config, AuthorCorpus.from_columns(arrays, {}, {}))
    return AuthorCorpus.from_columns(arrays, grants, catalog)


def _add_citations(
    columns: ColumnBuilder, draws: list[np.ndarray], end_year: int
) -> None:
    """Append the citation events of papers whose Poisson counts, one per
    year up to end_year, are draws[i]: the nonzero counts, in year order."""
    if not draws:
        return
    counts = np.concatenate(draws)
    lengths = np.fromiter(map(len, draws), np.int64, len(draws))
    begin = np.cumsum(lengths) - lengths
    year = np.arange(len(counts)) + np.repeat(end_year + 1 - lengths - begin, lengths)
    cited = counts > 0
    counts = counts[cited]
    too_big = np.flatnonzero(counts >= 2**31)
    if len(too_big):
        raise ValueError(outside_int32("citation count", int(counts[too_big[0]])))
    columns.per_pub.frombytes(np.add.reduceat(cited, begin, dtype=np.int32).tobytes())
    columns.event_year.frombytes(year[cited].astype(np.int32).tobytes())
    columns.event_count.frombytes(counts.astype(np.int32).tobytes())


def _confer_awards(
    config: SynthConfig, corpus: AuthorCorpus
) -> tuple[dict[str, AwardCatalogEntry], dict[str, list[AwardGrant]]]:
    catalog: dict[str, AwardCatalogEntry] = {}
    grants: dict[str, list[AwardGrant]] = {}
    if config.awards_per_year == 0 or not corpus.arrays.index:
        return catalog, grants
    ids = sorted(corpus.arrays.index)
    years = range(config.award_start_year, config.end_year + 1)
    latent = measure_table(corpus, years, ids, [Measure(config.latent_reputation)])
    for year, (column,) in zip(years, latent):
        # highest score first, ties by id: ids are sorted, so by position
        ranked = np.lexsort((np.arange(len(ids)), -column))
        award_id = f"synth-{year}"
        n_laureates = min(config.awards_per_year, len(ids))
        catalog[award_id] = AwardCatalogEntry(
            award_id=award_id,
            name=f"Synthetic distinction {year}",
            total_laureates=n_laureates,
        )
        for position in ranked[:n_laureates].tolist():
            grants.setdefault(ids[position], []).append(
                AwardGrant(award_id=award_id, year_conferred=year)
            )
    return catalog, grants
