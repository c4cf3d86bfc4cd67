import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.stats import kendalltau, rankdata

import oracles
import scimetrics
from scimetrics.errors import DegenerateInputError
from scimetrics.rankcorr import (
    average_ranks,
    goodman_gamma,
    kendall_tau_a,
    kendall_tau_b,
    pair_counts,
    roc_curve,
    somers_d,
    spearman_rho,
)

A = [1, 2, 2, 3]
B = [1, 2, 3, 3]

sequences = st.lists(st.integers(0, 3), min_size=2, max_size=40)


@st.composite
def tied_pairs(draw):
    """Two aligned sequences over alphabets of 1-4 symbols: heavy ties."""
    n = draw(st.integers(2, 80))
    columns = []
    for _ in range(2):
        alphabet = draw(
            st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4, unique=True)
        )
        symbols = st.sampled_from(alphabet)
        columns.append(draw(st.lists(symbols, min_size=n, max_size=n)))
    return columns


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "stat", [pair_counts, kendall_tau_b, spearman_rho, roc_curve]
)
def test_non_finite_input_rejected(stat, bad):
    # A NaN compares false with everything, so it would be silently misranked;
    # a plain ValueError (not a degenerate gap) must surface instead.
    for a, b in (([bad, 1, 2, 3], [0, 1, 0, 2]), ([0, 1, 2, 3], [bad, 1, 0, 2])):
        with pytest.raises(ValueError, match="finite") as err:
            stat(a, b)
        assert not isinstance(err.value, DegenerateInputError)


class TestPairCounts:
    def test_worked_example(self):
        pc = pair_counts(A, B)
        assert (pc.concordant, pc.discordant) == (4, 0)
        assert (pc.ties_a_only, pc.ties_b_only, pc.ties_both) == (1, 1, 0)

    def test_identical_distinct(self):
        pc = pair_counts([1, 2, 3, 4], [10, 20, 30, 40])
        assert pc.concordant == 6
        assert pc.discordant == pc.ties_a_only == pc.ties_b_only == 0

    def test_reversed_distinct(self):
        pc = pair_counts([1, 2, 3, 4], [4, 3, 2, 1])
        assert pc.discordant == 6

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pair_counts([1, 2], [1])

    def test_too_short(self):
        with pytest.raises(ValueError):
            pair_counts([1], [1])

    @given(sequences, sequences)
    def test_partition_of_all_pairs(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        pc = pair_counts(a, b)
        total = (
            pc.concordant
            + pc.discordant
            + pc.ties_a_only
            + pc.ties_b_only
            + pc.ties_both
        )
        assert total == n * (n - 1) // 2

    def test_against_naive_oracle(self):
        rng = random.Random(17)
        for _ in range(100):
            n = rng.randint(2, 200)
            a = [rng.randint(0, 3) for _ in range(n)]
            b = [rng.randint(0, 3) for _ in range(n)]
            pc = pair_counts(a, b)
            assert (
                pc.concordant,
                pc.discordant,
                pc.ties_a_only,
                pc.ties_b_only,
                pc.ties_both,
            ) == oracles.pair_counts_oracle(a, b)

    @given(tied_pairs())
    def test_heavy_ties_equal_oracle(self, pair):
        a, b = pair
        pc = pair_counts(a, b)
        assert (
            pc.concordant,
            pc.discordant,
            pc.ties_a_only,
            pc.ties_b_only,
            pc.ties_both,
        ) == oracles.pair_counts_oracle(a, b)

    def test_large_n_in_linear_memory(self):
        # The pairwise n x n construction would need about 80 GB here.
        n = 100_000
        rng = np.random.default_rng(3)
        a = rng.integers(0, 40, n).astype(float)
        b = rng.integers(0, 6, n).astype(float)
        tracemalloc.start()
        try:
            pc = pair_counts(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        counts = (
            pc.concordant, pc.discordant, pc.ties_a_only, pc.ties_b_only,
            pc.ties_both,
        )
        assert sum(counts) == pc.total_pairs
        assert all(c > 0 for c in counts)


class TestStatistics:
    def test_tau_b_worked_example(self):
        assert kendall_tau_b(A, B) == 0.8

    def test_tau_a_worked_example(self):
        assert kendall_tau_a(A, B) == pytest.approx(2 / 3)

    def test_somers_worked_example(self):
        assert somers_d(A, B) == 0.8

    def test_gamma_worked_example(self):
        assert goodman_gamma(A, B) == 1.0

    def test_identical_and_reversed(self):
        asc = [1, 2, 3, 4, 5]
        for stat in (kendall_tau_b, kendall_tau_a, somers_d, goodman_gamma,
                     spearman_rho):
            assert stat(asc, asc) == pytest.approx(1.0)
            assert stat(asc, asc[::-1]) == pytest.approx(-1.0)

    def test_constant_a_tau_a_zero(self):
        assert kendall_tau_a([1, 1, 1], [1, 2, 3]) == 0

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateInputError):
            kendall_tau_b([1, 1, 1], [1, 2, 3])
        with pytest.raises(DegenerateInputError):
            somers_d([1, 2, 3], [5, 5, 5])
        with pytest.raises(DegenerateInputError):
            goodman_gamma([1, 2], [3, 3])  # every pair tied somewhere
        with pytest.raises(DegenerateInputError):
            spearman_rho([1, 1, 1], [1, 2, 3])

    def test_somers_asymmetry_witness(self):
        a, b = [1, 1, 2], [1, 2, 3]
        assert somers_d(a, b) != somers_d(b, a)

    @given(sequences, sequences)
    def test_antisymmetry(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        neg_b = [-x for x in b]
        for stat in (kendall_tau_b, kendall_tau_a, goodman_gamma, spearman_rho):
            try:
                forward = stat(a, b)
            except DegenerateInputError:
                continue
            assert stat(a, neg_b) == pytest.approx(-forward, abs=1e-12)

    @given(sequences, sequences)
    def test_symmetry_tau_b_and_gamma(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        for stat in (kendall_tau_b, goodman_gamma):
            try:
                forward = stat(a, b)
            except DegenerateInputError:
                continue
            assert stat(b, a) == pytest.approx(forward, abs=1e-12)

    @given(sequences, sequences)
    def test_monotone_invariance(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        transformed = [x**3 + x for x in a]
        for stat in (kendall_tau_b, kendall_tau_a, somers_d, goodman_gamma,
                     spearman_rho):
            try:
                forward = stat(a, b)
            except DegenerateInputError:
                continue
            assert stat(transformed, b) == pytest.approx(forward, abs=1e-12)

    @given(sequences, sequences)
    def test_range(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        for stat in (kendall_tau_b, kendall_tau_a, somers_d, goodman_gamma,
                     spearman_rho):
            try:
                value = stat(a, b)
            except DegenerateInputError:
                continue
            assert -1 - 1e-12 <= value <= 1 + 1e-12

    def test_tau_b_agrees_with_scipy(self):
        rng = random.Random(31)
        for _ in range(100):
            n = rng.randint(2, 300)
            a = [rng.randint(0, 4) for _ in range(n)]
            b = [rng.choice([0.0, 0.5, 2.0]) for _ in range(n)]
            expected = kendalltau(a, b).statistic
            if math.isnan(expected):
                with pytest.raises(DegenerateInputError):
                    kendall_tau_b(a, b)
            else:
                assert kendall_tau_b(a, b) == pytest.approx(expected, abs=1e-12)

    @given(tied_pairs())
    def test_average_ranks_equal_scipy_bitwise(self, pair):
        for values in pair:
            ranks = average_ranks(values)
            assert ranks.dtype == np.float64
            assert np.array_equal(ranks, rankdata(values))

    def test_spearman_against_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(2, 100)
            a = [rng.randint(0, 3) for _ in range(n)]
            b = [rng.randint(0, 3) for _ in range(n)]
            if len(set(a)) < 2 or len(set(b)) < 2:
                continue
            assert spearman_rho(a, b) == pytest.approx(
                oracles.spearman_oracle(a, b), abs=1e-12
            )


class TestRoc:
    def test_three_author_fixture(self):
        curve = roc_curve([3, 2, 1], [2, 0, 1])
        assert curve.points == (
            (0.0, 0.0),
            (0.0, 2 / 3),
            (1.0, 2 / 3),
            (1.0, 1.0),
        )
        assert curve.auc == pytest.approx(2 / 3)

    def test_perfect_alignment(self):
        # Top-2 authors hold all awards; the rest have none.
        curve = roc_curve([5, 4, 3, 2, 1], [3, 1, 0, 0, 0])
        assert curve.auc == pytest.approx(1.0)

    def test_endpoints_and_monotonicity(self):
        curve = roc_curve([5, 1, 4, 2, 3], [1, 0, 2, 0, 1])
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_degenerate_axes(self):
        with pytest.raises(DegenerateInputError):
            roc_curve([3, 2, 1], [0, 0, 0])  # no awards
        with pytest.raises(DegenerateInputError):
            roc_curve([3, 2, 1], [1, 1, 2])  # no zero-award authors

    def test_tie_break_is_input_order(self):
        # Constant measure: ranking equals input order.
        curve_a = roc_curve([1, 1, 1], [2, 0, 1])
        curve_b = roc_curve([1, 1, 1], [0, 2, 1])
        assert curve_a.points != curve_b.points

    def test_random_measure_auc_half(self):
        # Constant measure with shuffled author order behaves as a random
        # ranking; mean AUC over seeded shuffles approaches 1/2.
        rng = random.Random(4242)
        n = 50
        awards = [rng.choice([0, 0, 0, 1, 2]) for _ in range(n)]
        total = 0.0
        trials = 1000
        for _ in range(trials):
            shuffled = list(awards)
            rng.shuffle(shuffled)
            total += roc_curve([1.0] * n, shuffled).auc
        assert total / trials == pytest.approx(0.5, abs=0.05)


def test_cli_import_pulls_in_no_scipy():
    code = (
        "import scimetrics.cli, sys; "
        "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    src = os.path.dirname(os.path.dirname(scimetrics.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"
