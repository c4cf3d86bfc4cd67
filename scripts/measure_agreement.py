#!/usr/bin/env python3
"""How strongly the sixteen measures agree with each other on one corpus.

Generates a synthetic corpus, computes the pairwise tau_b correlation matrix
at a late snapshot year, and prints it along with the pairs that disagree
the most — typically a traditional measure against its fractional
counterpart once team sizes grow.

Usage:
    python3 scripts/measure_agreement.py --regime hyper --year 2015
"""

import argparse
import math

from scimetrics import (
    Measure, SynthConfig, generate, measure_correlation_matrix, measure_table,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--regime", default="hyper",
                        choices=("classic", "growing", "hyper"))
    parser.add_argument("--year", type=int, default=2015)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--authors", type=int, default=200)
    args = parser.parse_args()

    corpus = generate(SynthConfig(
        rng_seed=args.seed, n_authors=args.authors,
        team_size_regime=args.regime,
    ))
    measures = list(Measure)
    ids = sorted(corpus.arrays.index)
    matrix = measure_correlation_matrix(
        measure_table(corpus, [args.year], ids, measures)[0]
    )

    width = max(len(m.value) for m in measures)
    header = " " * (width + 1) + " ".join(f"{m.value:>7}" for m in measures)
    print(header)
    for i, m in enumerate(measures):
        cells = " ".join(
            f"{matrix[i][j]:7.3f}" if not math.isnan(matrix[i][j]) else "      -"
            for j in range(len(measures))
        )
        print(f"{m.value:<{width}} {cells}")

    ranked = sorted(
        ((matrix[i][j], measures[i], measures[j])
         for i in range(len(measures)) for j in range(i + 1, len(measures))
         if not math.isnan(matrix[i][j])),
    )
    print("\nleast-agreeing pairs:")
    for tau, a, b in ranked[:5]:
        print(f"  tau_b({a.value}, {b.value}) = {tau:.3f}")


if __name__ == "__main__":
    main()
