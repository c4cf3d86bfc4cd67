"""Command-line front door.

Subcommands: validate, indices, evaluate, roc, corr-matrix, synth.  Every
command is a pure function of its input files and flags; outputs are written
atomically (write-then-rename) so failures never leave partial files.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from pathlib import Path

from . import evaluation, ingest, rankcorr, synth
from .corpus import AuthorCorpus, snapshot_at
from .errors import DegenerateInputError, ParseError
from .evaluation import AuthorFilter, AwardScheme
from .indices import Measure, measure_columns

ALL_MEASURES = [m.value for m in Measure]


def _fmt(value: float) -> str:
    """Statistics are serialized with 6 significant digits, period decimal."""
    return f"{value:.6g}"


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_corpus(corpus_path: str) -> tuple[AuthorCorpus, ingest.CleaningReport]:
    path = Path(corpus_path)
    if path.is_dir():
        awards = path / "awards.csv"
        catalog = path / "catalog.csv"
        return ingest.load_corpus(
            path / "authors.jsonl",
            awards_path=awards if awards.exists() else None,
            catalog_path=catalog if catalog.exists() else None,
        )
    return ingest.load_corpus(path)


def _parse_measures(spec: str) -> list[Measure]:
    if spec == "all":
        return list(Measure)
    measures = []
    for name in spec.split(","):
        name = name.strip()
        try:
            measures.append(Measure(name))
        except ValueError:
            raise ValueError(
                f"unknown measure {name!r}; choose from {', '.join(ALL_MEASURES)}"
            ) from None
    return measures


def _parse_year_range(spec: str) -> tuple[int, int]:
    try:
        start, end = spec.split(":")
        return int(start), int(end)
    except ValueError:
        raise ValueError(f"bad year range {spec!r}; expected START:END") from None


def _csv_text(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def cmd_validate(args: argparse.Namespace) -> int:
    corpus, report = _load_corpus(args.corpus)
    print(f"authors: {len(corpus.arrays.index)}")
    print(f"publications accepted: {report.accepted}")
    print(f"publications rejected: {report.rejected}")
    for reason in sorted(report.rejected_by_reason):
        print(f"  {reason}: {report.rejected_by_reason[reason]}")
    if args.report:
        _atomic_write(Path(args.report), report.csv_text())
    if args.reject_log:
        rows = [["author_id", "pub_id", "reason"], *report.reject_log]
        _atomic_write(Path(args.reject_log), _csv_text(rows))
    return 0


def cmd_indices(args: argparse.Namespace) -> int:
    corpus, _ = _load_corpus(args.corpus)
    measures = _parse_measures(args.measures)
    ids = sorted(corpus.arrays.index)
    columns = measure_columns(snapshot_at(corpus, args.year), ids, measures)
    rows = [["author_id"] + [m.value for m in measures]]
    for i, author_id in enumerate(ids):
        rows.append([author_id] + [_fmt(columns[m][i]) for m in measures])
    _atomic_write(Path(args.out), _csv_text(rows))
    return 0


def _scheme_from_args(args: argparse.Namespace) -> AwardScheme:
    return AwardScheme(
        mode=args.award_scheme,
        selective_threshold=args.award_threshold,
        selective_factor=args.award_factor,
        subset_fraction=args.award_subset_frac,
        rng_seed=args.seed,
    )


def _filter_from_args(args: argparse.Namespace) -> AuthorFilter:
    return AuthorFilter(
        mode=args.filter,
        max_avg_authors=args.max_avg_authors,
        window=_parse_year_range(args.window),
    )


def _evaluate_config(args: argparse.Namespace) -> dict:
    return {
        "command": "evaluate",
        "corpus": str(args.corpus),
        "measures": args.measures,
        "criteria": args.criteria,
        "years": args.years,
        "horizon": args.horizon,
        "award_scheme": args.award_scheme,
        "award_threshold": args.award_threshold,
        "award_factor": args.award_factor,
        "award_subset_frac": args.award_subset_frac,
        "filter": args.filter,
        "max_avg_authors": args.max_avg_authors,
        "window": args.window,
        "seed": args.seed,
    }


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.manifest:
        with open(args.manifest) as fh:
            config = json.load(fh)
        unknown = set(config) - set(_evaluate_config(args))
        if unknown:
            raise ValueError(
                f"{args.manifest}: unknown manifest keys {sorted(unknown)}"
            )
        for key, value in config.items():
            if key != "command":
                setattr(args, key, value)
    config = _evaluate_config(args)
    corpus, _ = _load_corpus(args.corpus)
    measures = _parse_measures(args.measures)
    criteria = [c.strip() for c in args.criteria.split(",")]
    grid = evaluation.series_grid(
        corpus, measures, criteria, _parse_year_range(args.years),
        horizon=args.horizon, scheme=_scheme_from_args(args),
        author_filter=_filter_from_args(args),
    )
    out_dir = Path(args.out)
    outputs: dict[Path, str] = {}
    for (measure, criterion), result in grid.items():
        rows = [["year", "value", "n_authors"]]
        for year, value, n in zip(result.years, result.values, result.n_authors):
            rows.append([str(year), "" if value is None else _fmt(value), str(n)])
        outputs[out_dir / f"{measure.value}_{criterion}.csv"] = _csv_text(rows)
    outputs[out_dir / "manifest.json"] = (
        json.dumps(config, indent=2, sort_keys=True) + "\n"
    )
    for path, text in outputs.items():
        _atomic_write(path, text)
    return 0


def cmd_roc(args: argparse.Namespace) -> int:
    corpus, _ = _load_corpus(args.corpus)
    measures = _parse_measures(args.measures)
    ids = sorted(corpus.arrays.index)
    scheme = _scheme_from_args(args)
    scores = evaluation.award_scores(corpus, args.year, scheme)
    awards = [scores[a] for a in ids]
    out_dir = Path(args.out)
    summary = [["measure", "auc", "status"]]
    outputs: dict[Path, str] = {}
    columns = measure_columns(snapshot_at(corpus, args.year), ids, measures)
    for measure in measures:
        try:
            curve = rankcorr.roc_curve(columns[measure], awards)
        except DegenerateInputError:
            summary.append([measure.value, "", "degenerate"])
            continue
        rows = [["fpr", "tpr"]]
        rows += [[_fmt(x), _fmt(y)] for x, y in curve.points]
        outputs[out_dir / f"roc_{measure.value}.csv"] = _csv_text(rows)
        summary.append([measure.value, _fmt(curve.auc), "ok"])
    outputs[out_dir / "auc_summary.csv"] = _csv_text(summary)
    for path, text in outputs.items():
        _atomic_write(path, text)
    return 0


def cmd_corr_matrix(args: argparse.Namespace) -> int:
    corpus, _ = _load_corpus(args.corpus)
    measures = _parse_measures(args.measures)
    years = [int(y) for y in args.years.split(",")]
    out_dir = Path(args.out)
    outputs: dict[Path, str] = {}
    for year in years:
        matrix = evaluation.measure_correlation_matrix(corpus, year, measures)
        rows = [["measure"] + [m.value for m in measures]]
        for i, mi in enumerate(measures):
            row = [mi.value]
            for j in range(len(measures)):
                cell = matrix[i, j]
                row.append("" if cell != cell else _fmt(cell))  # NaN -> empty
            rows.append(row)
        outputs[out_dir / f"corr_{year}.csv"] = _csv_text(rows)
    for path, text in outputs.items():
        _atomic_write(path, text)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    overrides = {}
    if args.config:
        with open(args.config) as fh:
            overrides = json.load(fh)
    if args.seed is not None:
        overrides["rng_seed"] = args.seed
    config = synth.SynthConfig(**overrides)
    corpus = synth.generate(config)
    ingest.save_corpus(corpus, args.out)
    arrays = corpus.arrays
    n_pubs = len(arrays.pub_id)
    mean_team = sum(arrays.author_count.tolist()) / n_pubs if n_pubs else 0.0
    print(f"regime: {config.team_size_regime}")
    print(f"authors: {len(arrays.index)}")
    print(f"publications: {n_pubs}")
    print(f"mean authors/paper: {_fmt(mean_team)}")
    print(f"award grants: {sum(map(len, corpus.grants.values()))}")
    return 0


def _add_scheme_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--award-scheme", default="equal_weight", choices=evaluation.AWARD_MODES
    )
    parser.add_argument("--award-threshold", type=int, default=100)
    parser.add_argument("--award-factor", type=float, default=10.0)
    parser.add_argument("--award-subset-frac", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scimetrics",
        description="Scientometric indices and award-correlation evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="load a corpus and report cleaning stats")
    p.add_argument("--corpus", required=True)
    p.add_argument("--report", help="optional cleaning-report CSV path")
    p.add_argument("--reject-log", help="optional CSV of each rejected record")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("indices", help="per-author index table at a year")
    p.add_argument("--corpus", required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--measures", default="all")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_indices)

    p = sub.add_parser("evaluate", help="effectiveness/predictive-power series")
    p.add_argument("--corpus")
    p.add_argument("--measures", default="all")
    p.add_argument("--criteria", default="tau_b")
    p.add_argument("--years", help="START:END")
    p.add_argument("--horizon", type=int, default=5)
    p.add_argument(
        "--filter", default="all", choices=evaluation.FILTER_MODES
    )
    p.add_argument("--max-avg-authors", type=float, default=100.0)
    p.add_argument("--window", default="2000:2010")
    _add_scheme_flags(p)
    p.add_argument("--manifest", help="re-run from a recorded manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("roc", help="ROC curves and AUC table at a year")
    p.add_argument("--corpus", required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--measures", default="all")
    _add_scheme_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("corr-matrix", help="measure-vs-measure tau_b matrices")
    p.add_argument("--corpus", required=True)
    p.add_argument("--years", required=True, help="comma-separated years")
    p.add_argument("--measures", default="all")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_corr_matrix)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="JSON file of SynthConfig overrides")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "evaluate" and not args.manifest:
        if not args.corpus or not args.years:
            parser.error("evaluate requires --corpus and --years (or --manifest)")
    try:
        return args.func(args)
    except (ParseError, DegenerateInputError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
