"""Seeded synthetic corpus generator.

Produces controllable authorship regimes at desk scale: `classic` (small
constant team sizes), `growing` (mean team size rising linearly over the
years), and `hyper` (a fraction of authors additionally joins consortium
papers with thousands of authors from an onset year on).  Awards are
conferred each year to the top authors by a latent reputation score, so
index-vs-award correlations are meaningful by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (
    AuthorCorpus,
    AuthorProfile,
    AwardCatalogEntry,
    AwardGrant,
    PublicationRecord,
    snapshot_at,
)
from .indices import Measure, compute_measure

REGIMES = ("classic", "growing", "hyper")
LATENT_SCORES = ("c-frac", "h")


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
        if self.n_authors < 0:
            raise ValueError("n_authors must be >= 0")
        if self.start_year > self.end_year:
            raise ValueError("start_year must not exceed end_year")
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


def _draw_citations(
    rng: np.random.Generator, first_year: int, last_year: int, rate: float
) -> dict[int, int]:
    draws = rng.poisson(rate, size=last_year - first_year + 1)
    return {
        first_year + i: int(c) for i, c in enumerate(draws) if c > 0
    }


def generate(config: SynthConfig) -> AuthorCorpus:
    """Generate a corpus; identical config (incl. seed) gives an identical
    corpus."""
    streams = np.random.SeedSequence(config.rng_seed).spawn(max(config.n_authors, 1))
    authors: dict[str, AuthorProfile] = {}
    width = max(len(str(max(config.n_authors - 1, 0))), 3)
    for idx in range(config.n_authors):
        rng = np.random.default_rng(streams[idx])
        author_id = f"a{idx:0{width}d}"
        pubs: list[PublicationRecord] = []
        hyper = _is_hyper_author(config, idx)
        for year in range(config.start_year, config.end_year + 1):
            mean_team = team_size_mean(config, year)
            for _ in range(int(rng.poisson(config.pubs_per_year))):
                team = 1 + int(rng.poisson(max(mean_team - 1.0, 0.0)))
                pubs.append(
                    PublicationRecord(
                        pub_id=f"{author_id}-p{len(pubs):04d}",
                        effective_year=year,
                        author_count=team,
                        citations_by_year=_draw_citations(
                            rng, year, config.end_year,
                            config.citations_per_paper_year,
                        ),
                    )
                )
            if hyper and year >= config.hyper_onset_year:
                for _ in range(int(rng.poisson(config.hyper_paper_rate))):
                    team = 2 + int(rng.poisson(config.hyper_team_mean))
                    pubs.append(
                        PublicationRecord(
                            pub_id=f"{author_id}-p{len(pubs):04d}",
                            effective_year=year,
                            author_count=team,
                            citations_by_year=_draw_citations(
                                rng, year, config.end_year,
                                config.citations_per_paper_year
                                * config.hyper_citation_boost,
                            ),
                        )
                    )
        authors[author_id] = AuthorProfile(
            author_id=author_id,
            display_name=f"Synthetic Author {idx}",
            field_tag="other",
            publications=tuple(pubs),
        )
    catalog, grants = _confer_awards(config, authors)
    authors = {
        aid: AuthorProfile(
            author_id=profile.author_id,
            display_name=profile.display_name,
            field_tag=profile.field_tag,
            publications=profile.publications,
            awards=tuple(grants.get(aid, ())),
        )
        for aid, profile in authors.items()
    }
    return AuthorCorpus(authors=authors, catalog=catalog)


def _cfrac_by_year(
    config: SynthConfig, authors: dict[str, AuthorProfile]
) -> dict[str, np.ndarray]:
    """Fractional citation totals per author for every year, in one pass."""
    n_years = config.end_year - config.start_year + 1
    totals = {aid: np.zeros(n_years) for aid in authors}
    for aid, profile in authors.items():
        acc = totals[aid]
        for pub in profile.publications:
            offset = pub.effective_year - config.start_year
            per_year = np.zeros(n_years - offset)
            for year, count in pub.citations_by_year.items():
                per_year[year - pub.effective_year] = count
            acc[offset:] += np.cumsum(per_year) / pub.author_count
    return totals


def _confer_awards(
    config: SynthConfig, authors: dict[str, AuthorProfile]
) -> tuple[dict[str, AwardCatalogEntry], dict[str, list[AwardGrant]]]:
    catalog: dict[str, AwardCatalogEntry] = {}
    grants: dict[str, list[AwardGrant]] = {}
    if config.awards_per_year == 0 or not authors:
        return catalog, grants
    ids = sorted(authors)
    if config.latent_reputation == "c-frac":
        cfrac = _cfrac_by_year(config, authors)
    for year in range(config.award_start_year, config.end_year + 1):
        if config.latent_reputation == "c-frac":
            offset = year - config.start_year
            scores = {aid: float(cfrac[aid][offset]) for aid in ids}
        else:
            snapshot = snapshot_at(AuthorCorpus(authors=authors, catalog={}), year)
            scores = {
                aid: compute_measure(aid, snapshot, Measure.H) for aid in ids
            }
        ranked = sorted(ids, key=lambda a: (-scores[a], a))
        award_id = f"synth-{year}"
        n_laureates = min(config.awards_per_year, len(ids))
        catalog[award_id] = AwardCatalogEntry(
            award_id=award_id,
            name=f"Synthetic distinction {year}",
            total_laureates=n_laureates,
        )
        for aid in ranked[:n_laureates]:
            grants.setdefault(aid, []).append(
                AwardGrant(award_id=award_id, year_conferred=year)
            )
    return catalog, grants
