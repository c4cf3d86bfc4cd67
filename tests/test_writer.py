"""save_corpus's authors.jsonl against the json.dumps reference writer:
the same bytes, whatever the strings, citation years, empty parts and block
edges, from a write whose peak memory is one block's."""

import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import reference_writer
from scimetrics import ingest
from scimetrics.corpus import AuthorCorpus, AuthorProfile, PublicationRecord
from scimetrics.ingest import load_corpus, save_corpus
from scimetrics.synth import SynthConfig, generate

AWKWARD = 'é 漢字 "quoted" back\\slash \x00\x1f\t\n\x7f \ud800 \U0001f600'


def assert_same_bytes(corpus):
    with tempfile.TemporaryDirectory() as tmp:
        paths = save_corpus(corpus, Path(tmp) / "corpus")
        reference = Path(tmp) / "reference.jsonl"
        reference_writer.write_authors(corpus, reference)
        assert paths["authors"].read_bytes() == reference.read_bytes()


def corpus_of(*authors):
    return AuthorCorpus(
        authors={
            a: AuthorProfile(a, name, field, tuple(pubs))
            for a, name, field, pubs in authors
        }
    )


def test_awkward_strings():
    pubs = [
        PublicationRecord(f"p{AWKWARD}", 2000, 3, {2001: 2}),
        PublicationRecord('"', 2001, 1, {}),
    ]
    assert_same_bytes(
        corpus_of(
            (f"a{AWKWARD}", AWKWARD, f"f{AWKWARD}", pubs),
            ("\\", "", "", []),
        )
    )


def test_citation_years_whose_string_order_differs():
    cites = {2001: 5, 1000: 4, 5: 1, 999: 3, 40: 2, 10: 7}
    pubs = [
        PublicationRecord("p1", 5, 2, cites),
        PublicationRecord("p2", -300, 1, {7: 1, -4: 2, -30: 9, -300: 0, -3: 1}),
    ]
    assert_same_bytes(corpus_of(("a1", "n", "f", pubs)))


def test_extreme_citation_years_and_counts():
    cites = {-(2**31): 0, -5: 2**31 - 1, 999: 0, 1000: 2**31 - 1, 2**31 - 1: 0}
    pubs = [PublicationRecord("p1", -(2**31), 2**31 - 1, cites)]
    assert_same_bytes(corpus_of(("a1", "n", "f", pubs)))


def test_empty_parts():
    uncited = [PublicationRecord("p1", 2000, 1, {}), PublicationRecord("p2", 2001, 2, {})]
    assert_same_bytes(
        corpus_of(("a1", "n", "f", uncited), ("a0", "n", "f", []), ("a2", "n", "f", []))
    )
    assert_same_bytes(AuthorCorpus())


def test_synthetic_and_loaded_corpora(tmp_path):
    corpus = generate(SynthConfig(rng_seed=3, n_authors=25, team_size_regime="hyper"))
    assert_same_bytes(corpus)
    # loaded events keep their record's order, which here is not year order
    path = tmp_path / "authors.jsonl"
    path.write_text(
        '{"author_id": "b", "publications": [{"pub_id": "q", "year": 1999, '
        '"authors": 2, "cites": {"2003": 1, "2000": 4, "2001": 0}}]}\n'
        '{"author_id": "a", "publications": []}\n'
    )
    loaded, _ = load_corpus(path)
    assert_same_bytes(loaded)


def test_blocks_in_id_order_from_shuffled_columns():
    generated = generate(SynthConfig(rng_seed=3, n_authors=40, team_size_regime="hyper"))
    ids = sorted(generated.authors)
    random.Random(0).shuffle(ids)
    corpus = AuthorCorpus({a: generated.authors[a] for a in ids}, generated.catalog)
    arrays = corpus.arrays
    assert list(arrays.index) != sorted(arrays.index)
    # some author's events run across a block edge, and there are several edges
    events = [
        arrays.event_start[arrays.starts[k + 1]] - arrays.event_start[arrays.starts[k]]
        for k in map(arrays.index.__getitem__, sorted(arrays.index))
    ]
    ends = np.cumsum(events)
    begins = ends - events
    assert ends[-1] > 2 * ingest._WRITE_EVENTS
    assert np.any(begins // ingest._WRITE_EVENTS < (ends - 1) // ingest._WRITE_EVENTS)
    assert_same_bytes(corpus)


def uniform_corpus(n_blocks):
    """Authors of 64 papers with 16 citation events each, n_blocks blocks' worth."""
    cites = {2000 + y: y + 1 for y in range(16)}
    pubs = [PublicationRecord(f"p{j}", 2000, 2, cites) for j in range(64)]
    n_authors = n_blocks * ingest._WRITE_EVENTS // (64 * 16)
    return corpus_of(*[(f"a{i:05d}", "n", "f", pubs) for i in range(n_authors)])


def test_write_peak_does_not_grow_with_the_corpus(tmp_path):
    peaks = []
    for n_blocks in (1, 8):
        corpus = uniform_corpus(n_blocks)
        tracemalloc.start()
        try:
            save_corpus(corpus, tmp_path / str(n_blocks))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]


@st.composite
def corpora(draw):
    authors = []
    for i in range(draw(st.integers(0, 4))):
        pubs = []
        for j in range(draw(st.integers(0, 4))):
            year = draw(st.integers(-2000, 2030))
            cite_years = st.integers(year, 3000)
            cites = draw(st.dictionaries(cite_years, st.integers(0, 2**31 - 1), max_size=6))
            pubs.append(
                PublicationRecord(
                    f"{j}{draw(st.text())}", year, draw(st.integers(1, 2**31 - 1)), cites
                )
            )
        authors.append((f"{i}{draw(st.text())}", draw(st.text()), draw(st.text()), pubs))
    return corpus_of(*authors)


@settings(max_examples=100, deadline=None)
@given(corpus=corpora())
def test_drawn_corpora(corpus):
    assert_same_bytes(corpus)
