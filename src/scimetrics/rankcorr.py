"""Tie-aware rank-correlation statistics and ROC/AUC construction.

All statistics are defined through exhaustive pair classification:
concordant (C), discordant (D), tied in the first sequence only (T_A),
tied in the second only (T_B), tied in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.stats import rankdata

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


def pair_counts(a: Sequence[float], b: Sequence[float]) -> PairCounts:
    """Classify all n(n-1)/2 index pairs of two aligned value sequences.

    A pair tied in both sequences counts toward ties_both only.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 elements")
    x = _finite(a)
    y = _finite(b)
    iu = np.triu_indices(n, k=1)
    dx = np.sign(x[:, None] - x[None, :])[iu]
    dy = np.sign(y[:, None] - y[None, :])[iu]
    prod = dx * dy
    concordant = int(np.count_nonzero(prod > 0))
    discordant = int(np.count_nonzero(prod < 0))
    ties_a = int(np.count_nonzero((dx == 0) & (dy != 0)))
    ties_b = int(np.count_nonzero((dx != 0) & (dy == 0)))
    ties_both = int(np.count_nonzero((dx == 0) & (dy == 0)))
    return PairCounts(concordant, discordant, ties_a, ties_b, ties_both, n)


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


def spearman_rho(a: Sequence[float], b: Sequence[float]) -> float:
    """Pearson correlation of tie-averaged (fractional) ranks."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) < 2:
        raise ValueError("need at least 2 elements")
    ra = rankdata(_finite(a))
    rb = rankdata(_finite(b))
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
    """
    if len(measure_values) != len(award_counts):
        raise ValueError("length mismatch")
    n = len(measure_values)
    _finite(measure_values)
    _finite(award_counts)
    total_awards = float(sum(award_counts))
    total_negatives = sum(1 for w in award_counts if w == 0)
    if total_awards <= 0:
        raise DegenerateInputError("roc undefined: no awards in population")
    if total_negatives == 0:
        raise DegenerateInputError("roc undefined: no zero-award authors")
    order = sorted(range(n), key=lambda i: -measure_values[i])
    points = [(0.0, 0.0)]
    seen_negatives = 0
    seen_awards = 0.0
    for i in order:
        if award_counts[i] == 0:
            seen_negatives += 1
        seen_awards += award_counts[i]
        points.append((seen_negatives / total_negatives, seen_awards / total_awards))
    auc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        auc += (x1 - x0) * (y0 + y1) / 2.0
    return RocCurve(points=tuple(points), auc=auc)
