#!/usr/bin/env python3
"""Effectiveness of h vs h-frac over time under three team-size regimes.

Generates one synthetic corpus per (regime, seed), evaluates yearly tau_b
between each measure and the award ranking, and writes one CSV per regime
with seed-averaged series.  This is the desk-scale version of the headline
comparison: under hyperauthorship, h's alignment with awards collapses while
h-frac's holds steady.

Usage:
    python3 scripts/hyperauthorship_experiment.py --out results/ --seeds 5
"""

import argparse
import csv
from pathlib import Path

import numpy as np

from scimetrics import Measure, SynthConfig, generate, series_grid

REGIMES = ("classic", "growing", "hyper")
MEASURES = (Measure.H, Measure.H_FRAC, Measure.H_M, Measure.C, Measure.C_FRAC)


def run(out_dir: Path, n_seeds: int, n_authors: int) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for regime in REGIMES:
        collected: dict[Measure, list[list[float]]] = {m: [] for m in MEASURES}
        years = None
        for seed in range(n_seeds):
            config = SynthConfig(
                rng_seed=seed,
                n_authors=n_authors,
                awards_per_year=20,
                team_size_regime=regime,
            )
            grid = series_grid(
                generate(config), MEASURES, ["tau_b"],
                (config.award_start_year, config.end_year), horizon=0,
            )
            for (measure, _), result in grid.items():
                years = result.years
                collected[measure].append(
                    [v if v is not None else np.nan for v in result.values]
                )
        path = out_dir / f"tau_b_{regime}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["year"] + [m.value for m in MEASURES])
            means = {
                m: np.nanmean(np.array(rows), axis=0)
                for m, rows in collected.items()
            }
            for i, year in enumerate(years):
                writer.writerow(
                    [year] + [f"{means[m][i]:.6g}" for m in MEASURES]
                )
        print(f"{regime}: wrote {path}")
        final = {m: means[m][-1] for m in MEASURES}
        print(
            "  final-year tau_b  "
            + "  ".join(f"{m.value}={final[m]:.3f}" for m in MEASURES)
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results"))
    parser.add_argument("--seeds", type=int, default=5)
    parser.add_argument("--authors", type=int, default=250)
    args = parser.parse_args()
    run(args.out, args.seeds, args.authors)


if __name__ == "__main__":
    main()
