"""Tie-aware rank-correlation statistics and ROC/AUC construction.

All statistics are defined through the classification of every index pair:
concordant (C), discordant (D), tied in the first sequence only (T_A),
tied in the second only (T_B), tied in both.  The counts come from sorting
and group sizes (Knight 1966), in O(n log n) time and O(n) memory.
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


@dataclass(frozen=True)
class RocCurve:
    points: tuple[tuple[float, float], ...]
    auc: float


def _finite(values: Sequence[float]) -> np.ndarray:
    """The values as a float array; NaN or infinite input is an error, not a
    gap, since it would be silently misranked."""
    x = np.asarray(values, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("values must be finite (no NaN or infinity)")
    return x


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


def pair_counts(a: Sequence[float], b: Sequence[float]) -> PairCounts:
    """Classify all n(n-1)/2 index pairs of two aligned value sequences.

    A pair tied in both sequences counts toward ties_both only.  Discordant
    pairs are the inversions of b's ranks in (a, b)-sorted order; pairs tied
    in a are sorted by b there, so they add none.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 elements")
    rx = np.unique(_finite(a), return_inverse=True)[1]
    ry = np.unique(_finite(b), return_inverse=True)[1]
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


def kendall_tau_b(a: Sequence[float], b: Sequence[float]) -> float:
    """(C - D) / sqrt((C + D + T_A) * (C + D + T_B))."""
    pc = pair_counts(a, b)
    cd = pc.concordant - pc.discordant
    denom_a = pc.concordant + pc.discordant + pc.ties_a_only
    denom_b = pc.concordant + pc.discordant + pc.ties_b_only
    if denom_a == 0 or denom_b == 0:
        raise DegenerateInputError("tau_b undefined: a sequence is fully tied")
    return cd / math.sqrt(denom_a * denom_b)


def kendall_tau_a(a: Sequence[float], b: Sequence[float]) -> float:
    """(C - D) / (n(n-1)/2); no tie correction."""
    pc = pair_counts(a, b)
    return (pc.concordant - pc.discordant) / pc.total_pairs


def somers_d(measure: Sequence[float], awards: Sequence[float]) -> float:
    """Asymmetric association: tau_a(measure, awards) / tau_a(awards, awards).

    The first argument is the measure ranking, the second the award ranking.
    The ratio reduces to (C - D) over the pairs untied in the award ranking,
    which is computed directly to keep the result exact.
    """
    pc = pair_counts(measure, awards)
    untied_in_awards = pc.concordant + pc.discordant + pc.ties_a_only
    if untied_in_awards == 0:
        raise DegenerateInputError("somers_d undefined: award ranking fully tied")
    return (pc.concordant - pc.discordant) / untied_in_awards


def goodman_gamma(a: Sequence[float], b: Sequence[float]) -> float:
    """(C - D) / (C + D)."""
    pc = pair_counts(a, b)
    cd_sum = pc.concordant + pc.discordant
    if cd_sum == 0:
        raise DegenerateInputError("gamma undefined: no untied pairs")
    return (pc.concordant - pc.discordant) / cd_sum


def average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their positions."""
    _, inverse, sizes = np.unique(
        _finite(values), return_inverse=True, return_counts=True
    )
    ends = np.cumsum(sizes)
    return (0.5 * (ends + (ends - sizes) + 1))[inverse]


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation of tie-averaged (fractional) ranks."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least 2 elements")
    ra = average_ranks(a)
    rb = average_ranks(b)
    if np.all(ra == ra[0]) or np.all(rb == rb[0]):
        raise DegenerateInputError("rho undefined: constant sequence")
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    return float(np.dot(ra, rb) / math.sqrt(np.dot(ra, ra) * np.dot(rb, rb)))


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
    return RocCurve(
        points=tuple(zip(fpr.tolist(), tpr.tolist())),
        auc=float(np.cumsum(areas)[-1]),
    )
