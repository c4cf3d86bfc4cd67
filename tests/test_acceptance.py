"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line on
success (run with ``pytest -s tests/test_acceptance.py`` to see them).
Tolerances are stated inline; everything not marked approximate is exact.
"""

import math
import time

import numpy as np
import pytest

import oracles
import reference_indices
from reference_indices import (
    _BASE_FUNCS,
    CitationVector,
    fractional_index,
    h_ap_index,
    h_i_index,
    h_m_index,
    h_p_index,
)
from scimetrics import (
    AwardScheme,
    DegenerateInputError,
    award_scores,
    effectiveness,
    predictive_power,
    snapshot_at,
)
from scimetrics.evaluation import apply_criterion
from scimetrics.cli import main
from scimetrics.indices import (
    COAUTHOR_NORMALIZED,
    FRAC_OF,
    FRACTIONAL,
    TRADITIONAL,
    Measure,
    measure_columns,
)
from scimetrics.rankcorr import (
    goodman_gamma,
    kendall_tau_a,
    kendall_tau_b,
    roc_curve,
    somers_d,
    spearman_rho,
)
from scimetrics.synth import SynthConfig, generate

INTEGRAL = {Measure.H, Measure.C, Measure.G}


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_01_index_oracle_suite():
    """1,000 random citation vectors: every measure matches its brute-force
    oracle, exactly for integer-valued measures and within 1e-9 relative
    otherwise.  Runtime budget: 10 s."""
    rng = np.random.default_rng(20260826)
    start = time.monotonic()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(0, 60))
        cites = [int(x) for x in rng.integers(0, 500, size=n)]
        authors = [int(x) for x in rng.integers(1, 40, size=n)]
        values = _values_from_pairs(cites, authors)
        expected = _oracle_from_pairs(cites, authors)
        for measure, got in values.items():
            want = expected[measure]
            if measure in INTEGRAL:
                assert got == want, measure
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-12), measure
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"{checked} measure/oracle comparisons in {elapsed:.1f}s")


def _values_from_pairs(cites, authors):
    ordered = sorted(zip(cites, authors), key=lambda t: -t[0])
    raw = CitationVector(
        tuple(float(c) for c, _ in ordered), tuple(a for _, a in ordered)
    )
    frac_sorted = sorted(
        ((c / a, a) for c, a in zip(cites, authors)), key=lambda t: -t[0]
    )
    frac = CitationVector(
        tuple(c for c, _ in frac_sorted), tuple(a for _, a in frac_sorted)
    )
    values = {m: float(_BASE_FUNCS[m](raw)) for m in TRADITIONAL}
    for m in FRACTIONAL:
        values[m] = fractional_index(FRAC_OF[m], frac)
    values[Measure.H_I] = h_i_index(raw)
    values[Measure.H_M] = h_m_index(raw)
    values[Measure.H_P] = h_p_index(raw)
    values[Measure.H_AP] = h_ap_index(raw)
    return values


def _oracle_from_pairs(cites, authors):
    pairs = list(zip(cites, authors))
    plain = sorted(cites, reverse=True)
    frac = sorted((c / a for c, a in pairs), reverse=True)
    return {
        Measure.H: oracles.h_oracle(plain),
        Measure.C: sum(plain),
        Measure.MU: oracles.mu_oracle(plain),
        Measure.G: oracles.g_oracle(plain),
        Measure.O: oracles.o_oracle(plain),
        Measure.M: oracles.m_oracle(plain),
        Measure.H_FRAC: oracles.h_oracle(frac),
        Measure.C_FRAC: sum(frac),
        Measure.MU_FRAC: oracles.mu_oracle(frac),
        Measure.G_FRAC: oracles.g_oracle(frac),
        Measure.O_FRAC: oracles.o_oracle(frac),
        Measure.M_FRAC: oracles.m_oracle(frac),
        Measure.H_I: oracles.h_i_oracle(pairs),
        Measure.H_M: oracles.h_m_oracle(pairs),
        Measure.H_P: oracles.h_p_oracle(pairs),
        Measure.H_AP: oracles.h_ap_oracle(pairs),
    }


def test_02_all_single_author_equivalence():
    """With A = 1 everywhere, fractional and coauthor-normalized measures
    must be bit-for-bit identical to their traditional counterparts across
    every snapshot year."""
    config = SynthConfig(rng_seed=11, n_authors=200, classic_team_mean=1.0)
    corpus = generate(config)
    assert all(
        pub.author_count == 1
        for profile in corpus.authors.values()
        for pub in profile.publications
    )
    ids = list(corpus.authors)
    compared = 0
    for year in range(config.start_year, config.end_year + 1, 5):
        columns = measure_columns(snapshot_at(corpus, year), ids, list(Measure))
        for frac, base in FRAC_OF.items():
            assert columns[frac] == columns[base]
            compared += len(ids)
        for measure in COAUTHOR_NORMALIZED:
            assert columns[measure] == columns[Measure.H]
            compared += len(ids)
    report(2, f"{compared} bit-for-bit equalities across snapshots")


def test_03_correlation_oracles():
    """τ_b, τ_a, Somers' D, γ, ρ vs naive oracles on 500 heavy-tie random
    sequences within 1e-12; plus the exact worked example."""
    a, b = [1, 2, 2, 3], [1, 2, 3, 3]
    assert kendall_tau_b(a, b) == 0.8
    assert kendall_tau_a(a, b) == pytest.approx(2 / 3, abs=0)
    assert somers_d(a, b) == 0.8
    assert goodman_gamma(a, b) == 1.0

    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        x = [float(v) for v in rng.integers(0, 6, size=n)]
        y = [float(v) for v in rng.integers(0, 6, size=n)]
        stats = {
            "tau_b": (kendall_tau_b, oracles.tau_b_oracle),
            "tau_a": (kendall_tau_a, oracles.tau_a_oracle),
            "somers_d": (somers_d, oracles.somers_d_oracle),
            "gamma": (goodman_gamma, oracles.gamma_oracle),
            "rho": (spearman_rho, oracles.spearman_oracle),
        }
        for name, (fn, oracle) in stats.items():
            try:
                want = oracle(x, y)
            except ZeroDivisionError:
                with pytest.raises(DegenerateInputError):
                    fn(x, y)
                continue
            assert fn(x, y) == pytest.approx(want, abs=1e-12), name
            checked += 1
    report(3, f"worked example exact; {checked} oracle matches ≤ 1e-12")


def test_04_roc():
    """3-author fixture gives the exact stated ROC points and AUC = 2/3;
    a random measure scores AUC 0.5 ± 0.05 over 1,000 seeded trials."""
    curve = roc_curve([2.0, 1.0, 0.0], [2, 0, 1])
    assert curve.points == ((0.0, 0.0), (0.0, 2 / 3), (1.0, 2 / 3),
                            (1.0, 1.0))
    assert curve.auc == 2 / 3

    rng = np.random.default_rng(99)
    awards = [1] * 30 + [0] * 70
    aucs = [
        roc_curve(list(rng.random(100)), awards).auc for _ in range(1000)
    ]
    mean_auc = float(np.mean(aucs))
    assert abs(mean_auc - 0.5) <= 0.05
    report(4, f"fixture exact; Monte-Carlo mean AUC {mean_auc:.4f}")


@pytest.fixture(scope="module")
def fixture_corpus():
    return generate(SynthConfig(rng_seed=2024, n_authors=60))


def test_05_horizon_identity(fixture_corpus):
    """predictive_power with X = 0 equals effectiveness exactly for every
    measure/criterion over several years."""
    checked = 0
    for year in (1998, 2005, 2012):
        for measure in Measure:
            for criterion in ("tau_b", "auc", "somers_d", "gamma", "rho"):
                eff = effectiveness(fixture_corpus, measure, criterion, year)
                pred = predictive_power(
                    fixture_corpus, measure, criterion, year, horizon=0
                )
                assert pred == eff
                checked += 1
    report(5, f"{checked} exact (measure, criterion, year) identities")


def test_06_monotone_invariance(fixture_corpus):
    """Applying the strictly increasing map x ↦ x³ + x to measure values
    changes no criterion value (tolerance 1e-12)."""
    year = 2010
    snapshot = snapshot_at(fixture_corpus, year)
    awards = award_scores(fixture_corpus, [year], AwardScheme())[0]  # in id order
    checked = 0
    for measure in Measure:
        raw = {
            a: reference_indices.compute_measure(a, snapshot, measure)
            for a in fixture_corpus.authors
        }
        if any(math.isnan(v) for v in raw.values()):
            continue
        ids = sorted(raw)
        values = [raw[a] for a in ids]
        warped = [v**3 + v for v in values]
        for criterion in ("tau_b", "auc", "somers_d", "gamma", "rho"):
            before = apply_criterion(criterion, values, awards)
            after = apply_criterion(criterion, warped, awards)
            assert after == pytest.approx(before, abs=1e-12)
            checked += 1
    report(6, f"{checked} criterion values invariant under x³ + x")


def test_07_hyperauthorship_direction():
    """In the hyper regime with awards tied to latent fractional reputation,
    τ_b(h, awards) declines ≥ 0.15 from the pre-hyper era to the final year
    while τ_b(h-frac, awards) changes ≤ 0.05 and ends above h.  Averaged
    over 10 seeds; budget 2 min."""
    start = time.monotonic()
    h_early, h_late, hf_early, hf_late = [], [], [], []
    for seed in range(10):
        config = SynthConfig(
            rng_seed=seed, n_authors=250, awards_per_year=20,
            team_size_regime="hyper",
        )
        corpus = generate(config)
        pre = config.hyper_onset_year - 1
        final = config.end_year
        h_early.append(effectiveness(corpus, Measure.H, "tau_b", pre))
        h_late.append(effectiveness(corpus, Measure.H, "tau_b", final))
        hf_early.append(
            effectiveness(corpus, Measure.H_FRAC, "tau_b", pre)
        )
        hf_late.append(
            effectiveness(corpus, Measure.H_FRAC, "tau_b", final)
        )
    elapsed = time.monotonic() - start
    decline = float(np.mean(h_early) - np.mean(h_late))
    drift = abs(float(np.mean(hf_early) - np.mean(hf_late)))
    assert decline >= 0.15
    assert drift <= 0.05
    assert float(np.mean(hf_late)) > float(np.mean(h_late))
    assert elapsed < 120.0
    report(
        7,
        f"h τ_b decline {decline:.3f} ≥ 0.15, h-frac drift {drift:.3f} "
        f"≤ 0.05, final h-frac beats h ({elapsed:.1f}s)",
    )


def test_08_cleaning_rules(tmp_path):
    """Citation-before-publication records get effective_year = first
    citation year; patents, author-less, year-less and duplicate records are
    rejected with the right reason counts."""
    import json

    from scimetrics.ingest import load_corpus

    records = [
        {"author_id": "a1", "publications": [
            {"pub_id": "early", "year": 2010, "authors": 2,
             "cites": {"2008": 1, "2011": 4}},
            {"pub_id": "pat", "year": 2005, "authors": 1, "cites": {},
             "is_patent": True},
            {"pub_id": "noauth", "year": 2005, "authors": 0, "cites": {}},
            {"pub_id": "noyear", "authors": 3, "cites": {}},
            {"pub_id": "fine", "year": 2012, "authors": 4,
             "cites": {"2013": 2}},
            {"pub_id": "dup", "year": 2012, "authors": 4,
             "cites": {"2013": 2}, "is_duplicate": True},
        ]},
    ]
    path = tmp_path / "authors.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    corpus, rep = load_corpus(path)
    pubs = {p.pub_id: p for p in corpus.authors["a1"].publications}
    assert set(pubs) == {"early", "fine"}
    assert pubs["early"].effective_year == 2008
    assert rep.accepted == 2
    assert dict(rep.rejected_by_reason) == {
        "patent": 1, "missing_authors": 1, "missing_year": 1, "duplicate": 1,
    }
    report(8, "effective-year rule and all four rejection reasons verified")


def test_09_matching_thresholds():
    """≥3 shared normalized titles pair a profile; 2 do not; candidates need
    more than 50 papers."""
    from scimetrics.ingest import MatchResult, ProfileExport, match_profiles

    def profile(pid, n_papers, titles):
        pad = [f"{pid} filler {i}" for i in range(n_papers - len(titles))]
        papers = tuple((t, 10) for t in list(titles) + pad)
        return ProfileExport(
            profile_id=pid, name=pid, papers=papers, paper_count=n_papers
        )

    shared3 = ["Alpha Study", "Beta: Results!", "gamma effects"]
    left = [profile("L1", 60, shared3), profile("L2", 60, ["Only", "Two"])]
    right = [
        profile("R1", 80, [t.upper() for t in shared3]),
        profile("R2", 80, ["only", "two", "unrelated paper"]),
        profile("R3", 50, shared3),  # exactly 50 papers: below the floor
    ]
    result = match_profiles(left, right, min_papers_b=50,
                            min_title_matches=3)
    assert isinstance(result, MatchResult)
    assert result.pairs == (("L1", "R1"),)
    assert result.ambiguous == ()
    report(9, "3-title match pairs, 2-title and ≤50-paper candidates do not")


def test_10_manifest_determinism(tmp_path):
    """`evaluate` rerun from its own manifest writes byte-identical CSVs."""
    from scimetrics.ingest import save_corpus

    corpus = generate(SynthConfig(rng_seed=31, n_authors=40))
    corpus_dir = tmp_path / "corpus"
    save_corpus(corpus, corpus_dir)
    first = tmp_path / "run1"
    assert main([
        "evaluate", "--corpus", str(corpus_dir), "--measures", "h,h-frac",
        "--criteria", "tau_b,auc", "--years", "2000:2015",
        "--award-subset-frac", "0.8", "--seed", "12", "--out", str(first),
    ]) == 0
    second = tmp_path / "run2"
    assert main([
        "evaluate", "--manifest", str(first / "manifest.json"),
        "--out", str(second),
    ]) == 0
    names = sorted(p.name for p in first.iterdir() if p.suffix == ".csv")
    assert names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()
    report(10, f"{len(names)} CSVs byte-identical on manifest rerun")
