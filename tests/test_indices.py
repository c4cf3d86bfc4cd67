import math
import random

import pytest
from hypothesis import given, strategies as st

import oracles
from reference_indices import (
    CitationVector,
    c_index,
    fractional_index,
    g_index,
    h_ap_index,
    h_i_index,
    h_index,
    h_m_index,
    h_p_index,
    m_index,
    mu_index,
    o_index,
)
from scimetrics.corpus import (
    AuthorCorpus,
    AuthorProfile,
    PublicationRecord,
    snapshot_at,
)
from scimetrics.indices import FRAC_OF, Measure, compute_all


def vec(entries, author_counts=None):
    entries = tuple(float(e) for e in entries)
    if author_counts is None:
        author_counts = (1,) * len(entries)
    return CitationVector(entries, tuple(author_counts))


papers_strategy = st.lists(
    st.tuples(st.integers(0, 10000), st.integers(1, 5000)),
    min_size=0,
    max_size=50,
)


def raw_vector(pairs):
    ordered = sorted(pairs, key=lambda t: -t[0])
    return vec([c for c, _ in ordered], [a for _, a in ordered])


def frac_vector(pairs):
    ordered = sorted(pairs, key=lambda t: (-(t[0] / t[1]), t[1]))
    return vec([c / a for c, a in ordered], [a for _, a in ordered])


def alone(*citations):
    """Single-author papers with these citation counts."""
    return [(c, 1) for c in citations]


def library(pairs):
    """compute_all of a one-author corpus of (citations, authors) papers."""
    papers = tuple(
        PublicationRecord(f"p{i}", 2000, a, {2001: c}) for i, (c, a) in enumerate(pairs)
    )
    corpus = AuthorCorpus(authors={"a1": AuthorProfile("a1", "a1", "other", papers)})
    return compute_all("a1", snapshot_at(corpus, 2010))


FIVE_PAPERS = [(10, 2), (8, 1), (5, 5), (4, 4), (3, 1)]  # c/A: 5, 8, 1, 1, 3


class TestExamples:
    """Hand-computed values, through the reference's per-vector function and
    through compute_all on a one-author corpus of the same papers."""

    def test_h(self):
        cases = ((alone(), 0), (alone(10, 8, 5, 4, 3), 4), (alone(1, 1, 1), 1))
        for pairs, want in cases:
            assert h_index(raw_vector(pairs)) == want
            assert library(pairs)[Measure.H] == want

    def test_c(self):
        cases = ((alone(), 0), (alone(10, 8, 5, 4, 3), 30), (alone(8, 5, 3, 1, 1), 18))
        for pairs, want in cases:
            assert c_index(raw_vector(pairs)) == want
            assert library(pairs)[Measure.C] == want

    def test_mu(self):
        for pairs, want in ((alone(10, 8, 5, 4, 3), 6), (alone(), 0), (alone(7), 7)):
            assert mu_index(raw_vector(pairs)) == want
            assert library(pairs)[Measure.MU] == want

    def test_g(self):
        cases = (
            (alone(10, 8, 5, 4, 3), 5),
            (alone(0, 0), 0),
            (alone(8, 5, 3, 1, 1), 4),
            (alone(4, 0), 2),  # 4 citations cover 2^2 exactly
        )
        for pairs, want in cases:
            assert g_index(raw_vector(pairs)) == want
            assert library(pairs)[Measure.G] == want

    def test_o(self):
        cases = [(alone(10, 8, 5, 4, 3), math.sqrt(40)), (alone(), 0)]
        cases += [(alone(k), math.sqrt(k)) for k in (1, 4, 100)]
        for pairs, want in cases:
            assert o_index(raw_vector(pairs)) == pytest.approx(want)
            assert library(pairs)[Measure.O] == pytest.approx(want)

    def test_m(self):
        # h = 3 in the last case: median(8, 5, 3).
        cases = ((alone(10, 8, 5, 4, 3), 6.5), (alone(), 0), (alone(8, 5, 3, 1, 1), 5))
        for pairs, want in cases:
            assert m_index(raw_vector(pairs)) == want
            assert library(pairs)[Measure.M] == want

    def test_h_frac(self):
        assert fractional_index(Measure.H, frac_vector(FIVE_PAPERS)) == 3
        assert library(FIVE_PAPERS)[Measure.H_FRAC] == 3

    def test_o_frac(self):
        want = pytest.approx(math.sqrt(24))
        assert fractional_index(Measure.O, frac_vector(FIVE_PAPERS)) == want
        assert library(FIVE_PAPERS)[Measure.O_FRAC] == want

    def test_h_i(self):
        core = [(10, 2), (8, 1), (5, 5), (4, 4)]
        for pairs, want in ((core, pytest.approx(4 / 3)), ([], 0)):
            assert h_i_index(raw_vector(pairs)) == want
            assert library(pairs)[Measure.H_I] == want

    def test_h_p(self):
        core = [(10, 2), (8, 1), (5, 5), (4, 4)]
        for pairs, want in ((core, pytest.approx(4 / math.sqrt(3))), ([], 0)):
            assert h_p_index(raw_vector(pairs)) == want
            assert library(pairs)[Measure.H_P] == want

    def test_h_ap(self):
        # Normalized: 9/sqrt(4) = 4.5 and 4/sqrt(1) = 4, so the index is 2.
        for pairs, want in (([(9, 4), (4, 1)], 2), ([], 0)):
            assert h_ap_index(raw_vector(pairs)) == want
            assert library(pairs)[Measure.H_AP] == want

    def test_h_m(self):
        # r_eff = 0.5, 1.5, 1.7; a lone paper cited once covers rank 1 exactly.
        cases = (
            ([(10, 2), (8, 1), (5, 5)], pytest.approx(1.7)),
            (alone(1), 1),
            ([], 0),
        )
        for pairs, want in cases:
            assert h_m_index(raw_vector(pairs)) == want
            assert library(pairs)[Measure.H_M] == want


class TestProperties:
    @given(papers_strategy)
    def test_h_le_g_le_n(self, pairs):
        v = raw_vector(pairs)
        assert h_index(v) <= g_index(v) <= len(v)

    @given(papers_strategy)
    def test_h_frac_le_h(self, pairs):
        assert h_index(frac_vector(pairs)) <= h_index(raw_vector(pairs))

    @given(papers_strategy, st.data())
    def test_adding_citation_never_decreases(self, pairs, data):
        if not pairs:
            return
        idx = data.draw(st.integers(0, len(pairs) - 1))
        bumped = list(pairs)
        bumped[idx] = (bumped[idx][0] + 1, bumped[idx][1])
        for build, funcs in (
            (raw_vector, (h_index, c_index, g_index, o_index)),
            (frac_vector, (c_index,)),
        ):
            before, after = build(pairs), build(bumped)
            for func in funcs:
                assert func(after) >= func(before)

    def test_o_scale_sqrt2_in_top_citation(self):
        # Doubling c_1 only (h unchanged) multiplies o by sqrt(2).
        v1 = vec([10, 4, 3, 2])
        v2 = vec([20, 4, 3, 2])
        assert h_index(v1) == h_index(v2)
        assert o_index(v2) == pytest.approx(math.sqrt(2) * o_index(v1))

    @given(st.lists(st.integers(0, 1000), min_size=0, max_size=30))
    def test_all_single_author_equivalence(self, citations):
        pairs = [(c, 1) for c in citations]
        raw = raw_vector(pairs)
        frac = frac_vector(pairs)
        for frac_measure, base in FRAC_OF.items():
            assert fractional_index(base, frac) == fractional_index(base, raw)
        h = float(h_index(raw))
        assert h_i_index(raw) == h
        assert h_p_index(raw) == h
        assert h_ap_index(raw) == h
        assert h_m_index(raw) == h


class TestOracleEquivalence:
    def test_random_vectors_match_brute_force(self):
        # Each vector goes through the reference's per-vector functions and,
        # as a one-author corpus, through compute_all.
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(0, 50)
            pairs = [
                (rng.randint(0, 10000), rng.randint(1, 5000)) for _ in range(n)
            ]
            raw = raw_vector(pairs)
            frac = frac_vector(pairs)
            reference = {
                Measure.H: h_index(raw),
                Measure.G: g_index(raw),
                Measure.C: c_index(raw),
                Measure.MU: mu_index(raw),
                Measure.O: o_index(raw),
                Measure.M: m_index(raw),
                Measure.H_FRAC: fractional_index(Measure.H, frac),
                Measure.G_FRAC: fractional_index(Measure.G, frac),
                Measure.H_I: h_i_index(raw),
                Measure.H_P: h_p_index(raw),
                Measure.H_AP: h_ap_index(raw),
                Measure.H_M: h_m_index(raw),
            }
            entries = [c for c, _ in pairs]
            fe = oracles.frac_entries(pairs)
            for values in (reference, library(pairs)):
                assert values[Measure.H] == oracles.h_oracle(entries)
                assert values[Measure.G] == oracles.g_oracle(entries)
                for measure, oracle in (
                    (Measure.C, oracles.c_oracle),
                    (Measure.MU, oracles.mu_oracle),
                    (Measure.O, oracles.o_oracle),
                    (Measure.M, oracles.m_oracle),
                ):
                    assert values[measure] == pytest.approx(oracle(entries), rel=1e-12)
                assert values[Measure.H_FRAC] == oracles.h_oracle(fe)
                assert values[Measure.G_FRAC] == oracles.g_oracle(fe)
                for measure, oracle in (
                    (Measure.H_I, oracles.h_i_oracle),
                    (Measure.H_P, oracles.h_p_oracle),
                ):
                    assert values[measure] == pytest.approx(oracle(pairs), rel=1e-9)
                assert values[Measure.H_AP] == oracles.h_ap_oracle(pairs)
                assert values[Measure.H_M] == pytest.approx(
                    oracles.h_m_oracle(pairs), rel=1e-9, abs=1e-12
                )


class TestComputeAll:
    def _corpus(self, papers_by_author):
        authors = {
            aid: AuthorProfile(
                author_id=aid,
                display_name=aid,
                field_tag="other",
                publications=tuple(
                    PublicationRecord(f"{aid}-p{i}", 2000, a, {2001: c})
                    for i, (c, a) in enumerate(papers)
                ),
            )
            for aid, papers in papers_by_author.items()
        }
        return AuthorCorpus(authors=authors)

    def test_zero_publication_author_all_zero(self):
        corpus = self._corpus({"a1": []})
        snap = snapshot_at(corpus, 2010)
        values = compute_all("a1", snap)
        assert set(values) == set(Measure)
        assert all(v == 0 for v in values.values())

    def test_single_author_corpus_frac_equals_traditional(self):
        corpus = self._corpus({"a1": [(12, 1), (7, 1), (3, 1)]})
        snap = snapshot_at(corpus, 2010)
        values = compute_all("a1", snap)
        for frac_measure, base in FRAC_OF.items():
            assert values[frac_measure] == values[base]

    def test_random_profile_matches_per_measure_oracles(self):
        rng = random.Random(5)
        pairs = [(rng.randint(0, 500), rng.randint(1, 30)) for _ in range(20)]
        corpus = self._corpus({"a1": pairs})
        snap = snapshot_at(corpus, 2010)
        values = compute_all("a1", snap)
        entries = [c for c, _ in pairs]
        fe = oracles.frac_entries(pairs)
        assert values[Measure.H] == oracles.h_oracle(entries)
        assert values[Measure.C] == pytest.approx(oracles.c_oracle(entries))
        assert values[Measure.MU] == pytest.approx(oracles.mu_oracle(entries))
        assert values[Measure.G] == oracles.g_oracle(entries)
        assert values[Measure.O] == pytest.approx(oracles.o_oracle(entries))
        assert values[Measure.M] == pytest.approx(oracles.m_oracle(entries))
        assert values[Measure.H_FRAC] == oracles.h_oracle(fe)
        assert values[Measure.C_FRAC] == pytest.approx(oracles.c_oracle(fe))
        assert values[Measure.MU_FRAC] == pytest.approx(oracles.mu_oracle(fe))
        assert values[Measure.G_FRAC] == oracles.g_oracle(fe)
        assert values[Measure.O_FRAC] == pytest.approx(oracles.o_oracle(fe))
        assert values[Measure.M_FRAC] == pytest.approx(oracles.m_oracle(fe))
        assert values[Measure.H_I] == pytest.approx(oracles.h_i_oracle(pairs))
        assert values[Measure.H_M] == pytest.approx(oracles.h_m_oracle(pairs))
        assert values[Measure.H_P] == pytest.approx(oracles.h_p_oracle(pairs))
        assert values[Measure.H_AP] == oracles.h_ap_oracle(pairs)

    def test_unknown_author_propagates(self):
        corpus = self._corpus({"a1": []})
        snap = snapshot_at(corpus, 2010)
        with pytest.raises(KeyError):
            compute_all("a2", snap)
