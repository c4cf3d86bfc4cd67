"""A reference authors.jsonl writer: one dict per publication and author,
encoded by `json.dumps(..., sort_keys=True)`.

This is the writer `save_corpus` used before it formatted each line itself.
It shares only the corpus columns with `scimetrics.ingest`, so the
differential tests in test_writer.py can hold `save_corpus` to its bytes.
"""

from __future__ import annotations

import json

from scimetrics.ingest import SCHEMA_VERSION


def write_authors(corpus, path) -> None:
    arrays = corpus.arrays
    starts = arrays.starts.tolist()
    years = arrays.effective_year.tolist()
    counts = arrays.author_count.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"schema_version": SCHEMA_VERSION}) + "\n")
        for author_id in sorted(arrays.index):
            k = arrays.index[author_id]
            first, last = starts[k], starts[k + 1]
            obj = {
                "author_id": author_id,
                "name": arrays.names[k],
                "field": arrays.fields[k],
                "publications": [
                    {
                        "pub_id": arrays.pub_id[i],
                        "year": years[i],
                        "authors": counts[i],
                        "cites": dict(zip(map(str, cite_years), cite_counts)),
                    }
                    for i, (cite_years, cite_counts) in zip(
                        range(first, last), arrays.citations(first, last)
                    )
                ],
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")
