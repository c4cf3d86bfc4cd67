"""Scientometric indices computed from a citation vector.

Traditional measures (h, c, mu, g, o, m) run on raw counts; their -frac
counterparts run on counts divided by author count; h-i/h-m/h-p/h-ap apply
coauthor normalization to the h-index in other ways.
"""

from __future__ import annotations

import math
import statistics
from enum import Enum

from .corpus import NORMALIZERS, CitationVector, Snapshot, citation_vector


class Measure(str, Enum):
    H = "h"
    C = "c"
    MU = "mu"
    G = "g"
    O = "o"
    M = "m"
    H_FRAC = "h-frac"
    C_FRAC = "c-frac"
    MU_FRAC = "mu-frac"
    G_FRAC = "g-frac"
    O_FRAC = "o-frac"
    M_FRAC = "m-frac"
    H_I = "h-i"
    H_M = "h-m"
    H_P = "h-p"
    H_AP = "h-ap"


TRADITIONAL = (Measure.H, Measure.C, Measure.MU, Measure.G, Measure.O, Measure.M)
FRACTIONAL = (
    Measure.H_FRAC,
    Measure.C_FRAC,
    Measure.MU_FRAC,
    Measure.G_FRAC,
    Measure.O_FRAC,
    Measure.M_FRAC,
)
COAUTHOR_NORMALIZED = (Measure.H_I, Measure.H_M, Measure.H_P, Measure.H_AP)

FRAC_OF = dict(zip(FRACTIONAL, TRADITIONAL))


def h_index(v: CitationVector) -> int:
    """Largest h such that the h-th entry (descending) is >= h."""
    h = 0
    for i, c in enumerate(v.entries, start=1):
        if c >= i:
            h = i
        else:
            break
    return h


def c_index(v: CitationVector) -> float:
    """Total citations over all papers."""
    return float(sum(v.entries))


def mu_index(v: CitationVector) -> float:
    """Mean citations per paper; 0 for an empty record."""
    if not v.entries:
        return 0.0
    return sum(v.entries) / len(v.entries)


def g_index(v: CitationVector) -> int:
    """Largest g <= N whose top-g papers collectively have >= g^2 citations."""
    g = 0
    total = 0.0
    for i, c in enumerate(v.entries, start=1):
        total += c
        if total >= i * i:
            g = i
    return g


def o_index(v: CitationVector) -> float:
    """Geometric mean of h and the top citation count."""
    if not v.entries:
        return 0.0
    return math.sqrt(h_index(v) * v.entries[0])


def m_index(v: CitationVector) -> float:
    """Median citations among the top-h papers; 0 when h = 0."""
    h = h_index(v)
    if h == 0:
        return 0.0
    return float(statistics.median(v.entries[:h]))


_BASE_FUNCS = {
    Measure.H: h_index,
    Measure.C: c_index,
    Measure.MU: mu_index,
    Measure.G: g_index,
    Measure.O: o_index,
    Measure.M: m_index,
}


def fractional_index(base: Measure, v_frac: CitationVector) -> float:
    """A traditional measure applied to an author-count-normalized vector."""
    if base not in _BASE_FUNCS:
        raise ValueError(f"{base} is not a base measure")
    return float(_BASE_FUNCS[base](v_frac))


def h_i_index(v: CitationVector) -> float:
    """h divided by the mean author count of the h-core (Batista-style)."""
    h = h_index(v)
    if h == 0:
        return 0.0
    mean_authors = sum(v.author_counts[:h]) / h
    return h / mean_authors


def h_p_index(v: CitationVector) -> float:
    """h divided by the square root of the h-core's mean author count."""
    h = h_index(v)
    if h == 0:
        return 0.0
    mean_authors = sum(v.author_counts[:h]) / h
    return h / math.sqrt(mean_authors)


def h_ap_index(v: CitationVector) -> float:
    """h-style index on citations normalized by sqrt(author count)."""
    pairs = sorted(
        ((c / math.sqrt(a), a) for c, a in zip(v.entries, v.author_counts)),
        key=lambda t: -t[0],
    )
    normalized = CitationVector(
        entries=tuple(c for c, _ in pairs),
        author_counts=tuple(a for _, a in pairs),
    )
    return float(h_index(normalized))


def h_m_index(v: CitationVector) -> float:
    """Effective-rank h (Schreiber-style): ranks grow by 1/A per paper and the
    index is the largest effective rank still covered by its citation count.

    Input must be sorted by raw citations descending (the default vector).
    """
    best = 0.0
    r_eff = 0.0
    for c, a in zip(v.entries, v.author_counts):
        r_eff += 1.0 / a
        if c >= r_eff:
            best = r_eff
    return best


# Measure -> (citation_vector normalizer, index function on that vector).
_DISPATCH = {
    **{m: ("none", _BASE_FUNCS[m]) for m in TRADITIONAL},
    **{m: ("author_count", _BASE_FUNCS[FRAC_OF[m]]) for m in FRACTIONAL},
    Measure.H_I: ("none", h_i_index),
    Measure.H_M: ("none", h_m_index),
    Measure.H_P: ("none", h_p_index),
    Measure.H_AP: ("sqrt_author_count", h_index),
}


def compute_all(author_id: str, snapshot: Snapshot) -> dict[Measure, float]:
    """Every measure for one author at a snapshot."""
    vectors = {
        n: citation_vector(author_id, snapshot, normalizer=n) for n in NORMALIZERS
    }
    return {m: float(func(vectors[n])) for m, (n, func) in _DISPATCH.items()}


def compute_measure(author_id: str, snapshot: Snapshot, measure: Measure) -> float:
    """One measure for one author at a snapshot."""
    normalizer, func = _DISPATCH[measure]
    return float(func(citation_vector(author_id, snapshot, normalizer=normalizer)))


def measure_columns(snapshot: Snapshot, ids: list[str]) -> dict[Measure, list[float]]:
    """Every measure's values over `ids`, aligned with them: one compute_all
    per author."""
    per_author = [compute_all(a, snapshot) for a in ids]
    return {m: [values[m] for values in per_author] for m in Measure}
