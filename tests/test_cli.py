import csv
import json
import os
import subprocess
import sys

import pytest

from scimetrics import effectiveness, evaluation, snapshot_at
from scimetrics.cli import main
from scimetrics.indices import Measure, compute_all
from scimetrics.ingest import load_corpus, save_corpus
from scimetrics.synth import SynthConfig, generate


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    corpus = generate(SynthConfig(rng_seed=77, n_authors=25))
    save_corpus(corpus, out)
    return out


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
            values = compute_all(row[0], snapshot)
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

    def test_each_year_snapshotted_once(self, corpus_dir, tmp_path, monkeypatch):
        years = []

        def counting_snapshot_at(corpus, year):
            years.append(year)
            return snapshot_at(corpus, year)

        monkeypatch.setattr(evaluation, "snapshot_at", counting_snapshot_at)
        # 3 measures x 2 criteria x 6 years: one snapshot per year, not per cell.
        assert main(["evaluate", "--corpus", str(corpus_dir),
                     "--measures", "h,h-frac,c", "--criteria", "tau_b,auc",
                     "--years", "2003:2008", "--out", str(tmp_path / "eval")]) == 0
        assert years == list(range(2003, 2009))

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
