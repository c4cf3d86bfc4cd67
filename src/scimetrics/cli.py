"""Command-line front door.

Subcommands: validate, indices, evaluate, roc, corr-matrix, synth.  Every
command is a pure function of its input files and flags.  Evaluate's
settings, and the award settings roc shares, are declared once, in
`_SETTINGS`: each one's flag, type, default and choices, and the keys a
manifest records.  CSV text comes from `ingest.csv_text`, save the ROC
curves, whose numbers need no quoting and are joined by hand.  `_write`, and
`ingest.save_corpus` for synth, write all of a command's outputs or none:
every text is encoded first, and `ingest.write_files` renames the files into
place only once all are written.  The one file a command may write besides
its outputs is the column cache `.authors.jsonl.columns.npz` beside the
corpus's authors.jsonl, which `ingest.load_authors` keeps so that the next
command need not parse the file again; it changes no result.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from operator import methodcaller
from pathlib import Path

import numpy as np

from . import evaluation, ingest, rankcorr, synth
from .corpus import AuthorCorpus
from .errors import DegenerateInputError, ParseError
from .evaluation import AuthorFilter, AwardScheme
from .indices import Measure, measure_table

ALL_MEASURES = [m.value for m in Measure]


def _fmt_all(values) -> np.ndarray:
    """Each value with 6 significant digits and a period decimal, as an
    object array of the values' shape; NaN or None (an undefined statistic)
    is an empty cell.  Each distinct float64 bit pattern is formatted once,
    so -0.0 and 0.0 keep their own strings."""
    values = np.asarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.ravel().view(np.uint64), return_inverse=True)
    floats = bits.view(np.float64)
    text = np.array([f"{v:.6g}" for v in floats.tolist()], dtype=object)
    text[np.isnan(floats)] = ""
    return text[inverse].reshape(values.shape)


def _write(outputs: dict[Path, str]) -> None:
    """Write each text to its path as UTF-8, all or none: every text is
    encoded first (`ingest.encoded`), before any directory or file is made,
    and the files are then written by one `ingest.write_files`."""
    writers = {
        path: methodcaller("write", ingest.encoded(path, text))
        for path, text in outputs.items()
    }
    for path in writers:
        path.parent.mkdir(parents=True, exist_ok=True)
    ingest.write_files(writers)


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


def _parse_names(flag: str, spec: str) -> list[str]:
    """The comma-separated names of `spec`; a repeat is an error naming `flag`."""
    names = [name.strip() for name in spec.split(",")]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{flag}: {name} is listed twice")
    return names


def _parse_measures(spec: str) -> list[Measure]:
    if spec == "all":
        return list(Measure)
    measures = []
    for name in _parse_names("--measures", spec):
        try:
            measures.append(Measure(name))
        except ValueError:
            raise ValueError(
                f"unknown measure {name!r}; choose from {', '.join(ALL_MEASURES)}"
            ) from None
    return measures


def _parse_year_range(key: str, spec: str) -> tuple[int, int]:
    """The START:END of `spec`; anything else is an error naming `key`, the
    setting's manifest key."""
    try:
        start, end = spec.split(":")
        return int(start), int(end)
    except ValueError:
        raise ValueError(f"{key} must be START:END, got {spec!r}") from None


def _read_json(path: str):
    """The JSON value of a file read as UTF-8.  Malformed JSON, or a byte
    that is not UTF-8, is a ParseError at the file's path:line."""
    data = Path(path).read_bytes()
    try:
        return json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(str(path), line, str(exc)) from None
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), exc.lineno, exc.msg) from None


def _parse_years(spec: str) -> list[int]:
    """The distinct years of a comma-separated list, in its order."""
    years = []
    for item in spec.split(","):
        try:
            year = int(item)
        except ValueError:
            raise ValueError(f"--years: {item!r} is not a year") from None
        if year in years:
            raise ValueError(f"--years: {year} is listed twice")
        years.append(year)
    return years


def cmd_validate(args: argparse.Namespace) -> int:
    corpus, report = _load_corpus(args.corpus)
    print(f"authors: {len(corpus.arrays.index)}")
    print(f"publications accepted: {report.accepted}")
    print(f"publications rejected: {report.rejected}")
    for reason, count in sorted(report.rejected_by_reason.items()):
        print(f"  {reason}: {count}")
    outputs = {}
    if args.report:
        outputs[Path(args.report)] = report.csv_text()
    if args.reject_log:
        rows = [["author_id", "pub_id", "reason"], *report.reject_log]
        outputs[Path(args.reject_log)] = ingest.csv_text(rows, "\n")
    _write(outputs)
    return 0


def cmd_indices(args: argparse.Namespace) -> int:
    corpus, _ = _load_corpus(args.corpus)
    measures = _parse_measures(args.measures)
    ids = sorted(corpus.arrays.index)
    columns = measure_table(corpus, [args.year], ids, measures)[0]
    cells = _fmt_all(columns).T.tolist()
    rows = [["author_id"] + [m.value for m in measures]]
    rows += [[author_id, *row] for author_id, row in zip(ids, cells)]
    _write({Path(args.out): ingest.csv_text(rows, "\n")})
    return 0


# The award flags' keys, by the AwardScheme field each sets.
_SCHEME_FLAGS = {
    "selective_threshold": "award_threshold",
    "selective_factor": "award_factor",
    "subset_fraction": "award_subset_frac",
    "rng_seed": "seed",
}


def _scheme_from_args(args: argparse.Namespace) -> AwardScheme:
    """The award scheme of the flags; a value out of its field's range is an
    error naming the flag's key, which is also its manifest key."""
    values = {field: getattr(args, key) for field, key in _SCHEME_FLAGS.items()}
    for field, key in _SCHEME_FLAGS.items():
        evaluation.check_range(key, field, values[field])
    return AwardScheme(mode=args.award_scheme, **values)


def _filter_from_args(args: argparse.Namespace) -> AuthorFilter:
    return AuthorFilter(
        mode=args.filter,
        max_avg_authors=args.max_avg_authors,
        window=_parse_year_range("window", args.window),
    )


# Each evaluate setting by its manifest key, as the add_argument keywords of
# its flag --key-with-hyphens: the type it parses to, its default and its
# choices.  A manifest records exactly these keys.
_SETTINGS = {
    "corpus": dict(type=str, default=None),
    "measures": dict(type=str, default="all"),
    "criteria": dict(type=str, default="tau_b"),
    "years": dict(type=str, default=None, help="START:END"),
    "horizon": dict(type=int, default=5),
    "filter": dict(type=str, default="all", choices=evaluation.FILTER_MODES),
    "max_avg_authors": dict(type=float, default=100.0),
    "window": dict(type=str, default="2000:2010"),
    "award_scheme": dict(
        type=str, default="equal_weight", choices=evaluation.AWARD_MODES
    ),
    "award_threshold": dict(type=int, default=100),
    "award_factor": dict(type=float, default=10.0),
    "award_subset_frac": dict(type=float, default=1.0),
    "seed": dict(type=int, default=0),
}
_TYPE_NOUNS = {str: "a string", int: "an integer", float: "a number"}


def _apply_manifest(args: argparse.Namespace) -> None:
    """Set the settings a manifest records, each checked against the JSON
    type its flag parses to in `_SETTINGS`: a number for a float flag, an
    integer for an int flag (a bool is neither) and a string otherwise."""
    path = args.manifest
    config = _read_json(path)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: a manifest must be a JSON object")
    if config.get("command", "evaluate") != "evaluate":
        raise ValueError(
            f"{path}: not an evaluate manifest: command {json.dumps(config['command'])}"
        )
    unknown = set(config) - {"command", *_SETTINGS}
    if unknown:
        raise ValueError(f"{path}: unknown manifest keys {sorted(unknown)}")
    for key, value in config.items():
        if key != "command":
            setattr(args, key, value)
    for key, setting in _SETTINGS.items():
        kind, value = setting["type"], getattr(args, key)
        accepted = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(
                f"{path}: {key} must be {_TYPE_NOUNS[kind]}, got {json.dumps(value)}"
            )


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.manifest:
        _apply_manifest(args)
    scheme, author_filter = _scheme_from_args(args), _filter_from_args(args)
    corpus, _ = _load_corpus(args.corpus)
    measures = _parse_measures(args.measures)
    criteria = _parse_names("--criteria", args.criteria)
    grid = evaluation.series_grid(
        corpus, measures, criteria, _parse_year_range("years", args.years),
        horizon=args.horizon, scheme=scheme, author_filter=author_filter,
    )
    out_dir = Path(args.out)
    outputs = {}
    cells = _fmt_all([result.values for result in grid.values()]).tolist()
    for ((measure, criterion), result), values in zip(grid.items(), cells):
        rows = [["year", "value", "n_authors"]]
        rows += zip(result.years, values, result.n_authors)
        name = f"{measure.value}_{criterion}.csv"
        outputs[out_dir / name] = ingest.csv_text(rows, "\n")
    config = {"command": "evaluate", **{k: getattr(args, k) for k in _SETTINGS}}
    outputs[out_dir / "manifest.json"] = (
        json.dumps(config, indent=2, sort_keys=True) + "\n"
    )
    _write(outputs)
    return 0


def cmd_roc(args: argparse.Namespace) -> int:
    scheme = _scheme_from_args(args)
    corpus, _ = _load_corpus(args.corpus)
    measures = _parse_measures(args.measures)
    ids = sorted(corpus.arrays.index)
    awards = evaluation.award_scores(corpus, [args.year], scheme)[0]
    out_dir = Path(args.out)
    outputs = {}
    columns = measure_table(corpus, [args.year], ids, measures)[0]
    curves = {}
    for measure, column in zip(measures, columns):
        with contextlib.suppress(DegenerateInputError):
            curves[measure] = rankcorr.roc_curve(column, awards)
    # Every curve visits the same authors, so all have one length.  The
    # numbers need no CSV quoting, so the lines are joined here.
    points = _fmt_all([(curve.fpr, curve.tpr) for curve in curves.values()])
    for measure, (fpr, tpr) in zip(curves, points):
        lines = map(",".join, zip(fpr.tolist(), tpr.tolist()))
        outputs[out_dir / f"roc_{measure.value}.csv"] = (
            "fpr,tpr\n" + "\n".join(lines) + "\n"
        )
    aucs = _fmt_all([curves[m].auc if m in curves else None for m in measures])
    summary = [["measure", "auc", "status"]] + [
        [m.value, auc, "ok" if m in curves else "degenerate"]
        for m, auc in zip(measures, aucs.tolist())
    ]
    outputs[out_dir / "auc_summary.csv"] = ingest.csv_text(summary, "\n")
    _write(outputs)
    return 0


def cmd_corr_matrix(args: argparse.Namespace) -> int:
    corpus, _ = _load_corpus(args.corpus)
    measures = _parse_measures(args.measures)
    years = _parse_years(args.years)
    table = measure_table(corpus, sorted(years), sorted(corpus.arrays.index), measures)
    by_year = dict(zip(sorted(years), table))
    out_dir = Path(args.out)
    outputs = {}
    for year in years:
        cells = _fmt_all(evaluation.measure_correlation_matrix(by_year[year])).tolist()
        rows = [["measure"] + [m.value for m in measures]]
        rows += [[m.value, *row] for m, row in zip(measures, cells)]
        outputs[out_dir / f"corr_{year}.csv"] = ingest.csv_text(rows, "\n")
    _write(outputs)
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    overrides = {}
    if args.config:
        overrides = _read_json(args.config)
        if not isinstance(overrides, dict):
            raise ValueError(f"{args.config}: a synth config must be a JSON object")
        known = {f.name for f in dataclasses.fields(synth.SynthConfig)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"{args.config}: unknown config keys {sorted(unknown)}")
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
    print(f"mean authors/paper: {_fmt_all([mean_team])[0]}")
    print(f"award grants: {sum(map(len, corpus.grants.values()))}")
    return 0


def _add_settings(parser: argparse.ArgumentParser, keys) -> None:
    """Add the flag of each of `keys`, as `_SETTINGS` declares it."""
    for key in keys:
        parser.add_argument("--" + key.replace("_", "-"), **_SETTINGS[key])


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
    _add_settings(p, _SETTINGS)
    p.add_argument("--manifest", help="re-run from a recorded manifest")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("roc", help="ROC curves and AUC table at a year")
    p.add_argument("--corpus", required=True)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--measures", default="all")
    _add_settings(p, ["award_scheme", *_SCHEME_FLAGS.values()])
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
