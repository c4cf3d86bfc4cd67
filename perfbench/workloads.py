"""The benchmark's workloads: a seeded synthetic corpus plus a sequence of
CLI commands run on it, each with an independent check of its outputs.

Paths in a step are relative to the workload directory, which holds the
set-up corpus in ``corpus/`` and one directory per repetition.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import verify


@dataclass(frozen=True)
class Step:
    argv: list[str]
    outputs: list[str]  # files or directories the command writes
    check: Callable[[Path], list[str]]  # workload dir -> problems


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict  # SynthConfig fields other than rng_seed
    steps: Callable[[str], list[Step]]  # repetition directory -> steps


EVAL_MEASURES = ["h", "h-frac"]
EVAL_CRITERIA = ["tau_b", "auc"]
EVAL_YEARS = range(2005, 2015)
CORR_MEASURES = ["h", "h-frac", "c", "c-frac", "g", "g-frac"]


def _evaluate_hyper(rep: str) -> list[Step]:
    out = f"{rep}/eval"
    argv = [
        "evaluate", "--corpus", "corpus",
        "--measures", ",".join(EVAL_MEASURES),
        "--criteria", ",".join(EVAL_CRITERIA),
        "--years", f"{EVAL_YEARS[0]}:{EVAL_YEARS[-1]}", "--horizon", "5",
        "--out", out,
    ]
    return [Step(argv, [out], lambda work: verify.check_evaluate(
        work / "corpus", work / out, EVAL_MEASURES, EVAL_CRITERIA, EVAL_YEARS, 5))]


def _corr_matrix_wide(rep: str) -> list[Step]:
    corr, roc = f"{rep}/corr", f"{rep}/roc"
    return [
        Step(
            ["corr-matrix", "--corpus", "corpus", "--years", "2015",
             "--measures", ",".join(CORR_MEASURES), "--out", corr],
            [corr],
            lambda work: verify.check_corr_matrix(
                work / "corpus", work / corr, CORR_MEASURES, 2015),
        ),
        Step(
            ["roc", "--corpus", "corpus", "--year", "2015", "--measures", "all",
             "--out", roc],
            [roc],
            lambda work: verify.check_roc(work / "corpus", work / roc, 2015),
        ),
    ]


# Each run, set-up and checks included, takes about a minute on 2 cores, so
# that 22 runs of every workload fit within an hour.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "evaluate-hyper",
            "the paper's evaluate grid (2 measures x 2 criteria x 10 years, horizon 5) on a "
            "hyper corpus: 80 snapshots dominate; many small rank-statistic calls",
            {"team_size_regime": "hyper", "n_authors": 500},
            _evaluate_hyper,
        ),
        Workload(
            "corr-matrix-wide",
            "corr-matrix over 6 measures then roc over all 16 at 4,000 authors: 21 "
            "pair_counts calls at n = 4000 dominate time and peak memory",
            {
                "team_size_regime": "growing", "n_authors": 4000,
                "start_year": 2005, "end_year": 2019, "pubs_per_year": 1.0,
                "awards_per_year": 20, "award_start_year": 2008,
            },
            _corr_matrix_wide,
        ),
    )
}
