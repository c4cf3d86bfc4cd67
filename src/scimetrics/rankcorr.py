"""Tie-aware rank-correlation statistics and ROC/AUC construction.

All statistics are defined through the classification of every index pair:
concordant (C), discordant (D), tied in the first sequence only (T_A),
tied in the second only (T_B), tied in both.  The counts come from sorting,
group sizes and a merge-sort inversion count (Knight 1966) whose ceil(log2 n)
passes each search and sort n values: O(n log^2 n) time and O(n) memory.  Each
statistic has one core over `dense_ranks` arrays, so a caller that pairs one
column with many ranks it once; the functions over value sequences rank
their inputs and call that core.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateInputError


@dataclass(frozen=True)
class PairCounts:
    concordant: int
    discordant: int
    ties_a_only: int
    ties_b_only: int
    ties_both: int
    n: int

    @property
    def total_pairs(self) -> int:
        return self.n * (self.n - 1) // 2

    def tau_b(self) -> float:
        """(C - D) / sqrt((C + D + T_A) * (C + D + T_B))."""
        untied = self.concordant + self.discordant
        denom_a = untied + self.ties_a_only
        denom_b = untied + self.ties_b_only
        if denom_a == 0 or denom_b == 0:
            raise DegenerateInputError("tau_b undefined: a sequence is fully tied")
        return (self.concordant - self.discordant) / math.sqrt(denom_a * denom_b)

    def tau_a(self) -> float:
        """(C - D) / (n(n-1)/2); no tie correction."""
        return (self.concordant - self.discordant) / self.total_pairs

    def somers_d(self) -> float:
        """(C - D) over the pairs untied in the second (award) sequence."""
        untied_in_awards = self.concordant + self.discordant + self.ties_a_only
        if untied_in_awards == 0:
            raise DegenerateInputError("somers_d undefined: award ranking fully tied")
        return (self.concordant - self.discordant) / untied_in_awards

    def gamma(self) -> float:
        """(C - D) / (C + D)."""
        cd_sum = self.concordant + self.discordant
        if cd_sum == 0:
            raise DegenerateInputError("gamma undefined: no untied pairs")
        return (self.concordant - self.discordant) / cd_sum


@dataclass(frozen=True, eq=False)
class RocCurve:
    fpr: np.ndarray  # starts at 0.0, one entry per author visited
    tpr: np.ndarray
    auc: float

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return tuple(zip(self.fpr.tolist(), self.tpr.tolist()))


def _finite(values: Sequence[float]) -> np.ndarray:
    """The values as a float array; NaN or infinite input is an error, not a
    gap, since it would be silently misranked."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("values must be finite (no NaN or infinity)")
    return x


def dense_ranks(values: Sequence[float]) -> np.ndarray:
    """0-based dense ranks: the i-th smallest distinct value ranks i, so tied
    values share a rank.  Every statistic below reads ranks, not values, so
    a column ranked once serves every pair it is in."""
    return np.unique(_finite(values), return_inverse=True)[1]


def _aligned(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least 2 elements")


def _tied_pairs(group_sizes: np.ndarray) -> int:
    """Pairs within groups: the sum of t(t - 1) / 2 over group sizes t."""
    return int((group_sizes * (group_sizes - 1) // 2).sum())


def _inversions(r: np.ndarray) -> int:
    """Pairs i < j with r[i] > r[j], for integers 0 <= r < len(r).

    Bottom-up merge sort: before the pass of width w every block of w is
    sorted.  Each element of a right block counts the elements of its left
    neighbour above it (a search among the left blocks, shifted apart by a
    per-pair offset), then each pair of blocks is merged by one sort of the
    shifted values.
    """
    n = len(r)
    idx = np.arange(n)
    total = 0
    width = 1
    while width < n:
        pair = idx // (2 * width)
        in_right = idx % (2 * width) >= width
        offset = pair * n
        keys = r + offset
        left_at_most = np.searchsorted(
            keys[~in_right], keys[in_right], side="right"
        ) - pair[in_right] * width
        total += int((width - left_at_most).sum())
        r = np.sort(keys, kind="stable") - offset
        width *= 2
    return total


def pair_counts_of_ranks(rx: np.ndarray, ry: np.ndarray) -> PairCounts:
    """Classify all n(n-1)/2 index pairs of two aligned `dense_ranks` arrays.

    A pair tied in both sequences counts toward ties_both only.  Discordant
    pairs are the inversions of ry in (rx, ry)-sorted order; pairs tied in
    rx are sorted by ry there, so they add none.
    """
    _aligned(rx, ry)
    n = len(rx)
    order = np.lexsort((ry, rx))
    joint = rx[order] * n + ry[order]
    tied_a = _tied_pairs(np.bincount(rx))  # ties in both included
    tied_b = _tied_pairs(np.bincount(ry))
    ties_both = _tied_pairs(np.unique(joint, return_counts=True)[1])
    discordant = _inversions(ry[order])
    concordant = n * (n - 1) // 2 - discordant - tied_a - tied_b + ties_both
    return PairCounts(
        concordant, discordant, tied_a - ties_both, tied_b - ties_both, ties_both, n
    )


def pair_counts(a: Sequence[float], b: Sequence[float]) -> PairCounts:
    """`pair_counts_of_ranks` of two aligned value sequences."""
    return pair_counts_of_ranks(dense_ranks(a), dense_ranks(b))


def kendall_tau_b(a: Sequence[float], b: Sequence[float]) -> float:
    """`PairCounts.tau_b` of two aligned value sequences."""
    return pair_counts(a, b).tau_b()


def kendall_tau_a(a: Sequence[float], b: Sequence[float]) -> float:
    """`PairCounts.tau_a` of two aligned value sequences."""
    return pair_counts(a, b).tau_a()


def somers_d(measure: Sequence[float], awards: Sequence[float]) -> float:
    """Asymmetric association: tau_a(measure, awards) / tau_a(awards, awards).

    The first argument is the measure ranking, the second the award ranking.
    The ratio reduces to (C - D) over the pairs untied in the award ranking,
    which is computed directly to keep the result exact.
    """
    return pair_counts(measure, awards).somers_d()


def goodman_gamma(a: Sequence[float], b: Sequence[float]) -> float:
    """`PairCounts.gamma` of two aligned value sequences."""
    return pair_counts(a, b).gamma()


def _average_of_dense(ranks: np.ndarray) -> np.ndarray:
    """`average_ranks` of the values whose `dense_ranks` are `ranks`."""
    sizes = np.bincount(ranks)
    ends = np.cumsum(sizes)
    return (0.5 * (ends + (ends - sizes) + 1))[ranks]


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their positions."""
    return _average_of_dense(dense_ranks(values))


def spearman_rho_of_ranks(rx: np.ndarray, ry: np.ndarray) -> float:
    """Pearson correlation of the tie-averaged (fractional) ranks of two
    aligned `dense_ranks` arrays."""
    _aligned(rx, ry)
    if not rx.any() or not ry.any():
        raise DegenerateInputError("rho undefined: constant sequence")
    ra = _average_of_dense(rx)
    rb = _average_of_dense(ry)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float(np.dot(ra, rb) / math.sqrt(np.dot(ra, ra) * np.dot(rb, rb)))


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> float:
    """`spearman_rho_of_ranks` of two aligned value sequences."""
    return spearman_rho_of_ranks(dense_ranks(a), dense_ranks(b))


def roc_curve(
    measure_values: Sequence[float], award_counts: Sequence[float]
) -> RocCurve:
    """Award-capture ROC curve of a measure-induced ranking.

    Authors are visited in descending measure order (ties kept in input
    order, which callers fix to author-id order for determinism).  At rank r
    the false-positive rate is the fraction of zero-award authors seen so
    far, the true-positive rate the fraction of all awards captured.  AUC is
    the trapezoidal area over the emitted points, starting from (0, 0).
    Sums run left to right (cumulative sums, not pairwise), so results do
    not depend on how numpy blocks a reduction.
    """
    if len(measure_values) != len(award_counts):
        raise ValueError("length mismatch")
    x = _finite(measure_values)
    w = _finite(award_counts)
    total_awards = float(np.cumsum(w)[-1]) if len(w) else 0.0
    total_negatives = int(np.count_nonzero(w == 0))
    if total_awards <= 0:
        raise DegenerateInputError("roc undefined: no awards in population")
    if total_negatives == 0:
        raise DegenerateInputError("roc undefined: no zero-award authors")
    visited = w[np.argsort(-x, kind="stable")]
    fpr = np.concatenate(([0.0], np.cumsum(visited == 0) / total_negatives))
    tpr = np.concatenate(([0.0], np.cumsum(visited) / total_awards))
    areas = (fpr[1:] - fpr[:-1]) * (tpr[:-1] + tpr[1:]) / 2.0
    return RocCurve(fpr, tpr, float(np.cumsum(areas)[-1]))
