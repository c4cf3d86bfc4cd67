"""save_corpus's authors.jsonl against the json.dumps reference writer:
the same bytes, whatever the strings, citation years and empty parts."""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import reference_writer
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
