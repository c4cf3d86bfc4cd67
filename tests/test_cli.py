import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest

import reference_indices
from scimetrics import cli, effectiveness, evaluation, rankcorr, snapshot_at
from scimetrics.cli import build_parser, main
from scimetrics.corpus import Snapshot
from scimetrics.indices import Measure, measure_table
from scimetrics.ingest import load_corpus, save_corpus
from scimetrics.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus = generate(SynthConfig(rng_seed=77, n_authors=25))
    save_corpus(corpus, out)
    return out


# Each award flag and its key, a value out of its range, and the error that
# names the key.
AWARD_FLAG_ERRORS = [
    ("--award-factor", "award_factor", float("nan"),
     "award_factor must be finite and > 0, got nan"),
    ("--award-factor", "award_factor", float("inf"),
     "award_factor must be finite and > 0, got inf"),
    ("--award-threshold", "award_threshold", 0,
     "award_threshold must be >= 1, got 0"),
    ("--award-subset-frac", "award_subset_frac", 0.0,
     "award_subset_frac must be in (0, 1], got 0.0"),
]


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestValidate:
    def test_ok(self, corpus_dir, capsys):
        assert main(["validate", "--corpus", str(corpus_dir)]) == 0
        assert "authors: 25" in capsys.readouterr().out

    def test_reject_log_lists_rejects_in_ingest_order(self, tmp_path):
        authors = [
            {"author_id": "b", "publications": [
                {"pub_id": "b1", "year": 2000, "authors": 2, "is_patent": True},
                {"pub_id": "b2", "year": 2001, "authors": 1},
            ]},
            {"author_id": "a", "publications": [
                {"pub_id": "a1", "year": 2000, "authors": 3,
                 "is_duplicate": True},
                {"pub_id": "a2", "year": 2002},
            ]},
        ]
        (tmp_path / "authors.jsonl").write_text(
            "".join(json.dumps(a) + "\n" for a in authors)
        )
        log = tmp_path / "out" / "rejects.csv"
        assert main(["validate", "--corpus", str(tmp_path),
                     "--reject-log", str(log)]) == 0
        assert read_csv(log) == [
            ["author_id", "pub_id", "reason"],
            ["b", "b1", "patent"],
            ["a", "a1", "duplicate"],
            ["a", "a2", "missing_authors"],
        ]

    def test_report_written_into_new_directory(self, corpus_dir, tmp_path):
        report = tmp_path / "new" / "report.csv"
        assert main(["validate", "--corpus", str(corpus_dir),
                     "--report", str(report)]) == 0
        _, cleaning = load_corpus(corpus_dir / "authors.jsonl")
        assert report.read_bytes() == (
            f"reason,count\r\naccepted,{cleaning.accepted}\r\n".encode()
        )
        assert [p.name for p in report.parent.iterdir()] == ["report.csv"]

    @pytest.mark.parametrize("command", ["validate", "indices", "validate-report"])
    def test_unwritable_id_names_the_output(self, command, tmp_path, capsys):
        # The loader accepts an author id holding a lone surrogate, which
        # UTF-8 cannot encode: writing it fails at the output's path:line,
        # and neither the file nor a temporary one is left behind.  Every
        # output is encoded before any is written, so a report UTF-8 can
        # hold is not written either.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "authors.jsonl").write_text(
            '{"author_id": "a\\ud800", "publications": ['
            '{"pub_id": "p1", "year": 2000, "authors": 1, "is_patent": true}, '
            '{"pub_id": "p2", "year": 2000, "authors": 1, "cites": {"2001": 3}}]}\n'
        )
        out = tmp_path / "out" / "table.csv"
        argv = {
            "validate": ["validate", "--corpus", str(corpus), "--reject-log", str(out)],
            "indices": ["indices", "--corpus", str(corpus), "--year", "2005",
                        "--out", str(out)],
            "validate-report": ["validate", "--corpus", str(corpus),
                                "--report", str(out.parent / "report.csv"),
                                "--reject-log", str(out)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: {out}:2: cannot write '\\ud800' as UTF-8 "
            "(surrogates not allowed)\n"
        )
        assert not out.parent.exists()

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main(["validate", "--corpus", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err


class TestIndices:
    def test_empty_corpus_header_only(self, tmp_path):
        (tmp_path / "authors.jsonl").write_text("")
        out = tmp_path / "indices.csv"
        assert main([
            "indices", "--corpus", str(tmp_path / "authors.jsonl"),
            "--year", "2010", "--measures", "h,c", "--out", str(out),
        ]) == 0
        assert read_csv(out) == [["author_id", "h", "c"]]

    def test_single_author_papers_h_equals_h_frac(self, tmp_path):
        corpus = generate(SynthConfig(rng_seed=5, n_authors=10,
                                      classic_team_mean=1.0))
        save_corpus(corpus, tmp_path)
        out = tmp_path / "indices.csv"
        main(["indices", "--corpus", str(tmp_path), "--year", "2015",
              "--measures", "h,h-frac", "--out", str(out)])
        rows = read_csv(out)
        for row in rows[1:]:
            assert row[1] == row[2]

    def test_matches_compute_all(self, corpus_dir, tmp_path):
        out = tmp_path / "indices.csv"
        main(["indices", "--corpus", str(corpus_dir), "--year", "2010",
              "--out", str(out)])
        rows = read_csv(out)
        corpus, _ = load_corpus(
            corpus_dir / "authors.jsonl",
            corpus_dir / "awards.csv",
            corpus_dir / "catalog.csv",
        )
        snapshot = snapshot_at(corpus, 2010)
        header = rows[0]
        for row in rows[1:]:
            values = reference_indices.compute_all(row[0], snapshot)
            for name, cell in zip(header[1:], row[1:]):
                assert float(cell) == pytest.approx(
                    values[Measure(name)], rel=1e-5
                )

    def test_unknown_measure_rejected(self, corpus_dir, tmp_path, capsys):
        code = main(["indices", "--corpus", str(corpus_dir), "--year", "2010",
                     "--measures", "zeta", "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "unknown measure" in capsys.readouterr().err


class TestEvaluate:
    def test_series_and_manifest(self, corpus_dir, tmp_path):
        out = tmp_path / "eval"
        assert main([
            "evaluate", "--corpus", str(corpus_dir), "--measures", "h,h-frac",
            "--criteria", "tau_b,gamma", "--years", "2000:2010",
            "--out", str(out),
        ]) == 0
        files = {p.name for p in out.iterdir()}
        assert files == {
            "h_tau_b.csv", "h_gamma.csv", "h-frac_tau_b.csv",
            "h-frac_gamma.csv", "manifest.json",
        }
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["horizon"] == 5  # default
        rows = read_csv(out / "h_tau_b.csv")
        assert rows[0] == ["year", "value", "n_authors"]
        assert len(rows) == 12

    @pytest.mark.parametrize(
        "settings",
        [[], ["--corpus", "{corpus}"], ["--years", "2005:2006"]],
        ids=["neither", "corpus-only", "years-only"],
    )
    def test_needs_corpus_and_years_or_a_manifest(
        self, corpus_dir, tmp_path, capsys, settings
    ):
        out = tmp_path / "eval"
        argv = [arg.format(corpus=corpus_dir) for arg in settings]
        with pytest.raises(SystemExit) as exited:
            main(["evaluate", *argv, "--out", str(out)])
        assert exited.value.code == 2
        message = "evaluate requires --corpus and --years (or --manifest)"
        assert capsys.readouterr().err.endswith(f"error: {message}\n")
        assert not out.exists()

    def test_values_match_library(self, corpus_dir, tmp_path):
        out = tmp_path / "eval"
        main(["evaluate", "--corpus", str(corpus_dir), "--measures", "h",
              "--criteria", "tau_b", "--years", "2010:2010", "--horizon", "0",
              "--out", str(out)])
        rows = read_csv(out / "h_tau_b.csv")
        corpus, _ = load_corpus(
            corpus_dir / "authors.jsonl",
            corpus_dir / "awards.csv",
            corpus_dir / "catalog.csv",
        )
        expected = effectiveness(corpus, Measure.H, "tau_b", 2010)
        assert rows[1][1] == f"{expected:.6g}"

    def test_manifest_rerun_byte_identical(self, corpus_dir, tmp_path):
        first = tmp_path / "run1"
        main(["evaluate", "--corpus", str(corpus_dir), "--measures", "h",
              "--criteria", "tau_b,rho", "--years", "2005:2012",
              "--award-subset-frac", "0.75", "--seed", "3",
              "--out", str(first)])
        second = tmp_path / "run2"
        main(["evaluate", "--manifest", str(first / "manifest.json"),
              "--out", str(second)])
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_manifest_unknown_keys_rejected(self, corpus_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "evaluate", "corpus": str(corpus_dir),
            "years": "2005:2006", "horizn": 3, "bogus_key": 1,
        }))
        out = tmp_path / "rerun"
        assert main(["evaluate", "--manifest", str(manifest),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "bogus_key" in err and "horizn" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("horizon", "5", 'horizon must be an integer, got "5"'),
            ("award_factor", "10", 'award_factor must be a number, got "10"'),
            ("measures", 5, "measures must be a string, got 5"),
            ("years", None, "years must be a string, got null"),
            ("seed", 1.5, "seed must be an integer, got 1.5"),
            ("seed", True, "seed must be an integer, got true"),
        ],
    )
    def test_manifest_value_of_wrong_type_rejected(
        self, corpus_dir, tmp_path, capsys, key, value, message
    ):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "evaluate", "corpus": str(corpus_dir),
            "years": "2005:2006", key: value,
        }))
        out = tmp_path / "rerun"
        assert main(["evaluate", "--manifest", str(manifest),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {manifest}: {message}\n"
        assert not out.exists()

    def test_manifest_not_an_object_rejected(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text("[]")
        assert main(["evaluate", "--manifest", str(manifest),
                     "--out", str(tmp_path / "rerun")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {manifest}: a manifest must be a JSON object\n"

    def test_manifest_of_another_command_rejected(self, corpus_dir, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "command": "roc", "corpus": str(corpus_dir), "years": "2005:2006",
        }))
        out = tmp_path / "rerun"
        assert main(["evaluate", "--manifest", str(manifest),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f'error: {manifest}: not an evaluate manifest: command "roc"\n'
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, key, value, message",
        [
            ("--horizon", "horizon", -3, "horizon must be >= 0, got -3"),
            ("--max-avg-authors", "max_avg_authors", float("nan"),
             "max_avg_authors must be a number, got nan"),
            *AWARD_FLAG_ERRORS,
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "manifest"])
    def test_out_of_range_setting_rejected(
        self, corpus_dir, tmp_path, capsys, source, flag, key, value, message
    ):
        out = tmp_path / "eval"
        if source == "flag":
            argv = ["evaluate", "--corpus", str(corpus_dir), "--years", "2005:2006",
                    flag, str(value)]
        else:
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({
                "command": "evaluate", "corpus": str(corpus_dir),
                "years": "2005:2006", key: value,
            }))
            argv = ["evaluate", "--manifest", str(manifest)]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("years", "abc", "years must be START:END, got 'abc'"),
            ("window", "abc", "window must be START:END, got 'abc'"),
            ("years", "2006:2005",
             "years must not end before they start, got 2006:2005"),
        ],
    )
    @pytest.mark.parametrize("source", ["flag", "manifest"])
    def test_bad_year_range_names_its_key(
        self, corpus_dir, tmp_path, capsys, source, key, value, message
    ):
        settings = {"years": "2005:2006", key: value}
        out = tmp_path / "eval"
        if source == "flag":
            argv = ["evaluate", "--corpus", str(corpus_dir)]
            argv += [arg for k, v in settings.items() for arg in (f"--{k}", v)]
        else:
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"corpus": str(corpus_dir), **settings}))
            argv = ["evaluate", "--manifest", str(manifest)]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_manifest_records_every_flag(self):
        # A flag missing from _SETTINGS would be left out of manifests, and a
        # rerun would silently take its default.
        args = vars(build_parser().parse_args(["evaluate", "--out", "o"]))
        recorded = set(args) - {"command", "func", "manifest", "out"}
        assert recorded == set(cli._SETTINGS)

    def test_manifest_of_the_default_settings(self, corpus_dir, tmp_path):
        # The JSON text pins each value's type: 100.0, not 100.
        out = tmp_path / "eval"
        assert main(["evaluate", "--corpus", str(corpus_dir), "--years", "2010:2010",
                     "--out", str(out)]) == 0
        expected = {
            "command": "evaluate",
            "corpus": str(corpus_dir),
            "measures": "all",
            "criteria": "tau_b",
            "years": "2010:2010",
            "horizon": 5,
            "filter": "all",
            "max_avg_authors": 100.0,
            "window": "2000:2010",
            "award_scheme": "equal_weight",
            "award_threshold": 100,
            "award_factor": 10.0,
            "award_subset_frac": 1.0,
            "seed": 0,
        }
        assert (out / "manifest.json").read_text() == (
            json.dumps(expected, indent=2, sort_keys=True) + "\n"
        )

    def test_one_measure_table_over_the_years(
        self, corpus_dir, tmp_path, monkeypatch
    ):
        calls = []

        def counting_measure_table(corpus, years, ids, measures):
            calls.append((list(years), list(measures)))
            return measure_table(corpus, years, ids, measures)

        monkeypatch.setattr(evaluation, "measure_table", counting_measure_table)
        monkeypatch.setattr(
            Snapshot, "__init__", lambda *_: pytest.fail("snapshot built")
        )
        # 3 measures x 2 criteria x 6 years: one table for all years and
        # cells, and no snapshot.
        assert main(["evaluate", "--corpus", str(corpus_dir),
                     "--measures", "h,h-frac,c", "--criteria", "tau_b,auc",
                     "--years", "2003:2008", "--out", str(tmp_path / "eval")]) == 0
        assert calls == [
            (list(range(2003, 2009)), [Measure.H, Measure.H_FRAC, Measure.C])
        ]

    def test_gap_years_serialized_empty(self, corpus_dir, tmp_path):
        out = tmp_path / "eval"
        main(["evaluate", "--corpus", str(corpus_dir), "--measures", "h",
              "--criteria", "tau_b", "--years", "1985:1995", "--horizon", "0",
              "--out", str(out)])
        rows = read_csv(out / "h_tau_b.csv")
        assert rows[1][1] == ""  # before any award: gap, not zero

    def test_bad_criterion_rejected(self, corpus_dir, tmp_path, capsys):
        code = main(["evaluate", "--corpus", str(corpus_dir),
                     "--criteria", "pearson", "--years", "2000:2001",
                     "--out", str(tmp_path / "x")])
        assert code == 1


class TestRoc:
    def test_default_settings(self):
        argv = ["roc", "--corpus", "c", "--year", "2010", "--out", "o"]
        args = vars(build_parser().parse_args(argv))
        del args["func"]
        expected = {
            "command": "roc", "corpus": "c", "year": 2010, "measures": "all",
            "out": "o", "award_scheme": "equal_weight", "award_threshold": 100,
            "award_factor": 10.0, "award_subset_frac": 1.0, "seed": 0,
        }
        # == holds for 100 and 100.0 alike, so compare the types too
        assert [(k, v, type(v)) for k, v in sorted(args.items())] == [
            (k, v, type(v)) for k, v in sorted(expected.items())
        ]

    def test_fixture_auc(self, tmp_path):
        # 3 authors: ranking s1 > s2 > s3 by h, awards (2, 0, 1) -> AUC 2/3.
        authors = [
            {"author_id": "s1", "publications": [
                {"pub_id": "p1", "year": 2000, "authors": 1,
                 "cites": {"2001": 5}},
                {"pub_id": "p2", "year": 2000, "authors": 1,
                 "cites": {"2001": 5}},
            ]},
            {"author_id": "s2", "publications": [
                {"pub_id": "p3", "year": 2000, "authors": 1,
                 "cites": {"2001": 1}},
            ]},
            {"author_id": "s3", "publications": []},
        ]
        (tmp_path / "authors.jsonl").write_text(
            "".join(json.dumps(a) + "\n" for a in authors)
        )
        (tmp_path / "catalog.csv").write_text(
            "award_id,name,total_laureates\nx,X,5\n"
        )
        (tmp_path / "awards.csv").write_text(
            "author_id,award_id,year\ns1,x,2001\ns1,x,2002\ns3,x,2001\n"
        )
        out = tmp_path / "roc"
        assert main(["roc", "--corpus", str(tmp_path), "--year", "2005",
                     "--measures", "h", "--out", str(out)]) == 0
        rows = read_csv(out / "roc_h.csv")
        assert rows == [
            ["fpr", "tpr"], ["0", "0"], ["0", "0.666667"],
            ["1", "0.666667"], ["1", "1"],
        ]
        summary = read_csv(out / "auc_summary.csv")
        assert summary[1] == ["h", "0.666667", "ok"]

    def test_curve_text_equals_csv_writer(self, corpus_dir, tmp_path, monkeypatch):
        # Each distinct value is formatted once for all curves; the lines
        # must still be those csv.writer writes from one format per value.
        special = [0.0, -0.0, 1e-7, 123456789.0, 2 / 3, 0.1 + 0.2, 1.0]
        rng = random.Random(11)
        curves = [
            rankcorr.RocCurve(
                np.array(rng.choices(special, k=40)),
                np.array(rng.choices(special, k=40)),
                0.5,
            )
            for _ in range(3)
        ]
        given = iter(curves)
        monkeypatch.setattr(rankcorr, "roc_curve", lambda *_: next(given))
        out = tmp_path / "roc"
        assert main(["roc", "--corpus", str(corpus_dir), "--year", "2010",
                     "--measures", "h,h-frac,c", "--out", str(out)]) == 0
        for measure, curve in zip(["h", "h-frac", "c"], curves):
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerows(
                [["fpr", "tpr"]]
                + [[f"{x:.6g}", f"{y:.6g}"] for x, y in curve.points]
            )
            text = (out / f"roc_{measure}.csv").read_text()
            assert text == buf.getvalue()
            cells = set(text.replace("\n", ",").split(","))
            assert {"0", "-0", "1e-07", "1.23457e+08"} <= cells

    @pytest.mark.parametrize("flag, key, value, message", AWARD_FLAG_ERRORS)
    def test_award_flag_out_of_range_rejected(
        self, corpus_dir, tmp_path, capsys, flag, key, value, message
    ):
        out = tmp_path / "roc"
        assert main(["roc", "--corpus", str(corpus_dir), "--year", "2010",
                     flag, str(value), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_degenerate_measures_flagged_but_present(self, corpus_dir, tmp_path):
        out = tmp_path / "roc"
        # Year before any publication/award: all measures constant zero.
        main(["roc", "--corpus", str(corpus_dir), "--year", "1975",
              "--measures", "all", "--out", str(out)])
        summary = read_csv(out / "auc_summary.csv")
        assert len(summary) == 1 + len(Measure)
        assert all(row[2] == "degenerate" for row in summary[1:])


class TestCorrMatrix:
    def test_symmetric_output(self, corpus_dir, tmp_path):
        out = tmp_path / "corr"
        assert main(["corr-matrix", "--corpus", str(corpus_dir),
                     "--years", "2005,2015", "--measures", "h,c,h-frac",
                     "--out", str(out)]) == 0
        for year in (2005, 2015):
            rows = read_csv(out / f"corr_{year}.csv")
            assert rows[0] == ["measure", "h", "c", "h-frac"]
            for i in range(1, 4):
                assert rows[i][i] == "1"
                for j in range(1, 4):
                    assert rows[i][j] == rows[j][i]

    def test_undefined_cells_empty(self, tmp_path):
        (tmp_path / "authors.jsonl").write_text(
            '{"author_id": "a1", "publications": []}\n'
            '{"author_id": "a2", "publications": []}\n'
        )
        out = tmp_path / "corr"
        main(["corr-matrix", "--corpus", str(tmp_path / "authors.jsonl"),
              "--years", "2010", "--measures", "h,c", "--out", str(out)])
        rows = read_csv(out / "corr_2010.csv")
        assert rows[1][1:] == ["", ""]

    @pytest.mark.parametrize(
        "years, message",
        [("2015,x", "--years: 'x' is not a year"),
         ("2015,2015", "--years: 2015 is listed twice"),
         ("2015,1900", "snapshot year 1900 outside valid range [1950, 2030]"),
         # All years are checked at once, so the first bad one in
         # ascending order is named.
         ("2040,1900", "snapshot year 1900 outside valid range [1950, 2030]")],
    )
    def test_bad_years_rejected(self, corpus_dir, tmp_path, capsys, years, message):
        out = tmp_path / "corr"
        assert main(["corr-matrix", "--corpus", str(corpus_dir), "--years", years,
                     "--measures", "h,c", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "years, message",
        [("2015,1900", "snapshot year 1900 outside valid range [1950, 2030]"),
         ("2015,2010", "need at least 2 authors")],
    )
    def test_one_author_rejected(self, tmp_path, capsys, years, message):
        # A bad year is named before the author count is judged.
        (tmp_path / "authors.jsonl").write_text(
            '{"author_id": "a1", "publications": []}\n'
        )
        out = tmp_path / "corr"
        assert main(["corr-matrix", "--corpus", str(tmp_path / "authors.jsonl"),
                     "--years", years, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


# A year beyond 64 bits, checked before it becomes an int64.
HUGE_YEAR = "99999999999999999999"


@pytest.mark.parametrize(
    "argv",
    [
        ["roc", "--year", HUGE_YEAR],
        ["indices", "--year", HUGE_YEAR],
        ["corr-matrix", "--years", f"2015,{HUGE_YEAR}"],
        ["evaluate", "--years", f"2005:{HUGE_YEAR}"],
    ],
    ids=["roc", "indices", "corr-matrix", "evaluate"],
)
def test_year_beyond_64_bits_rejected(argv, corpus_dir, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--corpus", str(corpus_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: snapshot year {HUGE_YEAR} outside valid range [1950, 2030]\n"
    )
    assert not out.exists()


def test_negative_seed_rejected(corpus_dir, tmp_path, capsys):
    # The seed is checked by name whether or not a subset fraction uses it.
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "command": "evaluate", "corpus": str(corpus_dir),
        "years": "2005:2006", "seed": -1,
    }))
    roc = ["roc", "--corpus", str(corpus_dir), "--year", "2015", "--seed", "-1"]
    out = tmp_path / "out"
    for argv in (
        roc,
        [*roc, "--award-subset-frac", "0.5"],
        ["evaluate", "--manifest", str(manifest)],
    ):
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()
    with pytest.raises(ValueError, match=r"^rng_seed must be >= 0, got -1$"):
        evaluation.AwardScheme(rng_seed=-1)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["indices", "--year", "2010", "--measures", "h, c,h"],
         "--measures: h is listed twice"),
        (["roc", "--year", "2010", "--measures", "h-frac,h-frac"],
         "--measures: h-frac is listed twice"),
        (["corr-matrix", "--years", "2010", "--measures", "c,h,c"],
         "--measures: c is listed twice"),
        (["evaluate", "--years", "2005:2006", "--measures", "h,h"],
         "--measures: h is listed twice"),
        (["evaluate", "--years", "2005:2006", "--criteria", "auc,tau_b, auc"],
         "--criteria: auc is listed twice"),
    ],
    ids=["indices", "roc", "corr-matrix", "evaluate-measures", "evaluate-criteria"],
)
def test_repeated_names_rejected(argv, message, corpus_dir, tmp_path, capsys):
    # A repeat would write two columns or rows of one name, or silently
    # collapse into one CSV.
    out = tmp_path / "out"
    assert main([*argv, "--corpus", str(corpus_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# A JSON file each command reads, and the error that names it.
_MALFORMED_JSON = [
    (b'{"corpus": ', "bad.json:1: Expecting value"),
    (b'{\n"corpus": "\xff"}', "bad.json:2: 'utf-8' codec can't decode byte "
     "0xff in position 13: invalid start byte"),
]


@pytest.mark.parametrize("data, message", _MALFORMED_JSON, ids=["cut", "not-utf8"])
@pytest.mark.parametrize("argv", [["evaluate", "--manifest"], ["synth", "--config"]])
def test_malformed_json_file_named(argv, data, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(data)
    assert main([*argv, "bad.json", "--out", "o"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert os.listdir(tmp_path) == ["bad.json"]


class TestSynthCommand:
    def test_determinism(self, tmp_path):
        assert main(["synth", "--seed", "6", "--config", "/dev/null",
                     "--out", str(tmp_path / "bad")]) == 1  # not valid JSON
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_authors": 15}))
        for name in ("a", "b"):
            assert main(["synth", "--seed", "6", "--config", str(config),
                         "--out", str(tmp_path / name)]) == 0
        for fname in ("authors.jsonl", "awards.csv", "catalog.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"n_author": 5}', "{config}: unknown config keys ['n_author']"),
            ("[1, 2]", "{config}: a synth config must be a JSON object"),
            ('{"n_authors": "5"}', "n_authors must be an integer, got '5'"),
            ('{"n_authors": 2.5}', "n_authors must be an integer, got 2.5"),
            ('{"n_authors": true}', "n_authors must be an integer, got True"),
            ('{"pubs_per_year": NaN}',
             "pubs_per_year must be a finite number, got nan"),
            ('{"hyper_team_mean": Infinity}',
             "hyper_team_mean must be a finite number, got inf"),
            ('{"team_size_regime": 3}', "team_size_regime must be a string, got 3"),
            ('{"pubs_per_year": 1%s}' % ("0" * 400),
             "pubs_per_year must be a finite number, got 1%s" % ("0" * 400)),
            ('{"rng_seed": -1}', "rng_seed must be >= 0"),
            ('{"start_year": 2010, "end_year": 2005}',
             "start_year must not exceed end_year"),
            ('{"latent_reputation": "g"}', "unknown latent score 'g'"),
            ('{"classic_team_mean": 0.5}', "team means must be >= 1"),
            ('{"growing_final_team_mean": 0}', "team means must be >= 1"),
            ('{"awards_per_year": -1}', "awards_per_year must be >= 0"),
        ],
    )
    def test_config_it_cannot_use_names_the_key(self, tmp_path, capsys, text, message):
        config, out = tmp_path / "config.json", tmp_path / "c"
        config.write_text(text)
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message.format(config=config)}\n"
        assert not out.exists()

    def test_integer_for_a_rate(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text('{"n_authors": 5, "pubs_per_year": 2}')
        out = tmp_path / "c"
        assert main(["synth", "--config", str(config), "--out", str(out)]) == 0

    def test_generated_files_reingest_cleanly(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_authors": 30, "rng_seed": 42}))
        main(["synth", "--config", str(config), "--out", str(tmp_path / "c")])
        capsys.readouterr()
        assert main(["validate", "--corpus", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "rejected: 0" in out

    def test_classic_summary_in_band(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"n_authors": 200, "rng_seed": 42}))
        main(["synth", "--config", str(config), "--out", str(tmp_path / "c")])
        out = capsys.readouterr().out
        mean = float(out.split("mean authors/paper: ")[1].splitlines()[0])
        assert 2.4 <= mean <= 3.6


@pytest.mark.parametrize(
    "argv",
    [
        ["synth", "--config", "{config}", "--out", "{out}"],
        ["evaluate", "--corpus", "{corpus}", "--measures", "h,h-frac",
         "--criteria", "tau_b,auc", "--years", "2005:2007", "--out", "{out}"],
        ["corr-matrix", "--corpus", "{corpus}", "--years", "2010",
         "--measures", "h,c-frac,h-ap", "--out", "{out}"],
        ["roc", "--corpus", "{corpus}", "--year", "2010", "--out", "{out}"],
    ],
    ids=lambda argv: argv[0],
)
def test_commands_leave_numpy_ma_unimported(argv, corpus_dir, tmp_path):
    # numpy.ma costs an import of its own; np.unique, among others, pulls it in.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_authors": 12, "team_size_regime": "hyper"}))
    fields = {"config": config, "corpus": corpus_dir, "out": tmp_path / "out"}
    script = (
        "import sys\n"
        "from scimetrics.cli import main\n"
        "assert main(sys.argv[1:]) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-c", script, *(a.format(**fields) for a in argv)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr


# SHA-256 of each command's output CSVs, path and bytes in path order, on a
# seeded hyper corpus of 40 authors.  At --max-avg-authors 15,
# no_hyperauthors keeps all 40 authors through 1999, fewer from 2000 on, 3
# at 2010 and none from 2011, so the evaluate runs hold kept sets that change
# by year and years with no author left.  Any change to a value, a gap or
# its formatting changes these.
PINNED_OUTPUT_DIGESTS = {
    "evaluate-all":
        "9171165da463ddf36c489ce4a28b12a970cb12f3559f3710099400240a921a89",
    "evaluate-no_hyperauthors":
        "aefcae02aedaf0e6ba454c39d47cf09d1c87279312a9323c97021014c9a04e7a",
    "evaluate-bottom_half_citations":
        "49f4a8a7286fbbfa0b0069c8eb42c09befae4567f2c1a9e587a7168cc2a2d1de",
    "evaluate-peak_in_window":
        "7dbc348fbfaac6cd3a092e63953a34ab3e287c0b0a3340c59b6f2ac32bc6e2d4",
    "indices":
        "1332616e9287db40b2799005badbd4138309ee22126a133b2689612c65719ea0",
    "roc":
        "e55b836e7f59dd47a3e2d82d0569dbb293057d77d1d1aca6c45d639cc7991d37",
    "corr-matrix":
        "bb6887b5da0790cd77aef8662ee0487d080253b457ce58d21725fc9fabf66497",
    "corr-matrix-unordered":
        "5b0da2b963e68988f8354428108896ff8f71754737b80eca655da75d5b33fd5e",
    "evaluate-binary":
        "e431e124d8838f7c7cfd5dc13af0a9880ba168f08fd85bc9b36ce44c05135a2d",
    "evaluate-selective":
        "de4b44677d4798826295aba45a9a386ef5f9351d176b46416bc2bcff066ebbd7",
    "roc-selective":
        "c547d5250a509bea706105ea3af89996a4c4bc4be5f4511e9652e6d4095dc297",
}
_EVALUATE = ["evaluate", "--measures", "all", "--criteria",
             "tau_b,auc,somers_d,gamma,rho", "--years", "1995:2014",
             "--horizon", "5", "--max-avg-authors", "15"]
_SELECTIVE = ["--award-scheme", "selective_weight", "--award-factor", "0.3",
              "--award-subset-frac", "0.7"]
PINNED_COMMANDS = {
    **{f"evaluate-{mode}": [*_EVALUATE, "--filter", mode]
       for mode in evaluation.FILTER_MODES},
    "evaluate-selective": [*_EVALUATE, "--filter", "all", *_SELECTIVE],
    "evaluate-binary": [*_EVALUATE, "--award-scheme", "binary"],
    "indices": ["indices", "--year", "2010"],
    "roc": ["roc", "--year", "2015"],
    "roc-selective": ["roc", "--year", "2015", *_SELECTIVE],
    "corr-matrix": ["corr-matrix", "--years", "2005,2015"],
    # Years out of order: each file must still hold its own year.
    "corr-matrix-unordered": ["corr-matrix", "--years", "2015,2005,2010",
                              "--measures", "all"],
}


@pytest.fixture(scope="module")
def hyper_corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("hyper")
    save_corpus(
        generate(SynthConfig(rng_seed=0, n_authors=40, team_size_regime="hyper")), out
    )
    return out


def run_outputs(argv, corpus, out):
    """The CSV bytes a command writes under `out`, by file name, in name
    order, and their SHA-256 (each name and bytes, in that order)."""
    target = out / "indices.csv" if argv[0] == "indices" else out
    assert main([*argv, "--corpus", str(corpus), "--out", str(target)]) == 0
    files = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    digest = hashlib.sha256()
    for name, data in files.items():
        digest.update(name.encode() + b"\0" + data)
    return files, digest.hexdigest()


@pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
def test_output_bytes_are_pinned(name, hyper_corpus_dir, tmp_path):
    _, digest = run_outputs(PINNED_COMMANDS[name], hyper_corpus_dir, tmp_path / name)
    assert digest == PINNED_OUTPUT_DIGESTS[name]


@pytest.fixture(scope="module")
def reweighted_corpus_dir(hyper_corpus_dir, tmp_path_factory):
    """The pinned hyper corpus with every even-year award listing 20
    laureates.  Its synthetic awards list 10 each, so at --award-threshold
    15 every grant would be selective; here only the odd-year ones are, and
    selective_weight weighs grants unequally."""
    out = tmp_path_factory.mktemp("reweighted")
    for name in ("authors.jsonl", "awards.csv"):
        (out / name).write_bytes((hyper_corpus_dir / name).read_bytes())
    rows = read_csv(hyper_corpus_dir / "catalog.csv")
    for row in rows[1:]:
        if int(row[0].removeprefix("synth-")) % 2 == 0:
            row[2] = "20"
    with open(out / "catalog.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return out


# SHA-256 of the outputs, as in PINNED_OUTPUT_DIGESTS, of selective_weight
# runs on the reweighted corpus.
REWEIGHTED_DIGESTS = {
    "evaluate":
        "f76fec1e64a73ef638ac9956d09acc86cf2fb6a6716c6a1aae3e93c0ee880503",
    "roc":
        "5532a64859a68b0919b28ab7a9cf7a705385884dc7cd694df179a8228d972686",
}
REWEIGHTED_COMMANDS = {
    "evaluate": [*_EVALUATE, "--filter", "all"],
    "roc": ["roc", "--year", "2015"],
}


@pytest.mark.parametrize("name", sorted(REWEIGHTED_COMMANDS))
def test_selective_weight_output_bytes_are_pinned(
    name, reweighted_corpus_dir, tmp_path
):
    argv = [*REWEIGHTED_COMMANDS[name], "--award-threshold", "15",
            "--award-factor", "0.3"]
    selective, digest = run_outputs(
        [*argv, "--award-scheme", "selective_weight"],
        reweighted_corpus_dir, tmp_path / "selective",
    )
    equal, _ = run_outputs(
        [*argv, "--award-scheme", "equal_weight"],
        reweighted_corpus_dir, tmp_path / "equal",
    )
    assert digest == REWEIGHTED_DIGESTS[name]
    # The weighting shows in every file: no output equals its equal-weight one.
    assert selective.keys() == equal.keys()
    assert all(selective[f] != equal[f] for f in selective)
