"""`ingest.write_files`, the one writer of every file the program writes:
a corpus from save_corpus or synth, and a command's outputs, are written all
or none.  A failure, whether a write that raises or a text UTF-8 cannot
hold, replaces no file and leaves none partial or staged."""

import json

import pytest

from scimetrics import ingest
from scimetrics.cli import main
from scimetrics.corpus import AuthorCorpus, AwardCatalogEntry, AwardGrant
from scimetrics.ingest import load_corpus, save_corpus
from scimetrics.synth import SynthConfig, generate
from test_columnar_corpus import papers_corpus

ENOSPC = OSError(28, "No space left on device")


def files(directory):
    """Every file in `directory`, staged temporaries included, by name."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def fill_disk_on_second_block(monkeypatch):
    """From now on, make authors.jsonl in blocks of 16 citation events, the
    second of which fails as a full disk would; returns the blocks made."""
    blocks = []

    def author_lines(*args):
        blocks.append(args)
        if len(blocks) == 2:
            raise ENOSPC
        return lines(*args)

    lines = ingest._author_lines
    monkeypatch.setattr(ingest, "_WRITE_EVENTS", 16)
    monkeypatch.setattr(ingest, "_author_lines", author_lines)
    return blocks


def test_failed_save_keeps_the_corpus_it_replaces(tmp_path, monkeypatch):
    out = tmp_path / "corpus"
    save_corpus(generate(SynthConfig(rng_seed=1, n_authors=30)), out)
    before = files(out)
    blocks = fill_disk_on_second_block(monkeypatch)
    with pytest.raises(OSError) as err:
        save_corpus(generate(SynthConfig(rng_seed=2, n_authors=30)), out)
    assert err.value is ENOSPC
    assert len(blocks) == 2
    assert files(out) == before


def test_failed_synth_keeps_the_corpus_it_replaces(tmp_path, monkeypatch, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n_authors": 30}))
    out = tmp_path / "corpus"
    synth = ["synth", "--config", str(config), "--out", str(out), "--seed"]
    assert main([*synth, "1"]) == 0
    before = files(out)
    capsys.readouterr()
    fill_disk_on_second_block(monkeypatch)
    assert main([*synth, "2"]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert files(out) == before


def test_unencodable_id_names_the_file_and_writes_nothing(tmp_path):
    # The loader accepts an author id holding a lone surrogate; awards.csv,
    # which UTF-8 must hold, names the grant holder on its line 2.
    source = tmp_path / "authors.jsonl"
    source.write_text(
        '{"author_id": "a\\ud800", "publications": '
        '[{"pub_id": "p1", "year": 2000, "authors": 1, "cites": {"2001": 3}}]}\n'
    )
    loaded, _ = load_corpus(source)
    corpus = AuthorCorpus.from_columns(
        loaded.arrays,
        {"a\ud800": [AwardGrant("prize", 2005)]},
        {"prize": AwardCatalogEntry("prize", "Prize", 1)},
    )
    out = tmp_path / "out"
    with pytest.raises(ValueError) as err:
        save_corpus(corpus, out)
    assert str(err.value) == (
        f"{out / 'awards.csv'}:2: cannot write '\\ud800' as UTF-8 "
        "(surrogates not allowed)"
    )
    assert not out.exists()


def test_save_refuses_a_year_that_repeats_within_a_paper(tmp_path):
    # A "cites" object holds each year once, so these columns have no
    # faithful authors.jsonl: nothing is written, and a corpus there stays.
    repeated = papers_corpus(
        [(2001, 2)], [], [(2003, 1), (2001, 5), (2002, 2), (2001, 3)]
    )
    message = "^p3: repeated citation year 2001$"
    fresh = tmp_path / "fresh"
    with pytest.raises(ValueError, match=message):
        save_corpus(repeated, fresh)
    assert files(fresh) == {}
    out = tmp_path / "corpus"
    save_corpus(generate(SynthConfig(rng_seed=1, n_authors=5)), out)
    before = files(out)
    with pytest.raises(ValueError, match=message):
        save_corpus(repeated, out)
    assert files(out) == before


def test_command_that_cannot_write_one_output_leaves_none(
    tmp_path, monkeypatch, capsys
):
    corpus = tmp_path / "corpus"
    save_corpus(generate(SynthConfig(rng_seed=1, n_authors=5)), corpus)
    mkstemp = ingest.tempfile.mkstemp

    def full_for_rejects(*args, prefix, **kwargs):
        if prefix == ".rejects.csv.":
            raise ENOSPC
        return mkstemp(*args, prefix=prefix, **kwargs)

    monkeypatch.setattr(ingest.tempfile, "mkstemp", full_for_rejects)
    out = tmp_path / "out"
    assert main([
        "validate", "--corpus", str(corpus),
        "--report", str(out / "report.csv"), "--reject-log", str(out / "rejects.csv"),
    ]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert files(out) == {}
