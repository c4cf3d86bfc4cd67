"""Run one scimetrics CLI command in this process, optionally traced.

    python3 child.py [--spans SPANS.json] -- <scimetrics CLI arguments>

With ``--spans`` the public functions listed in ``spans.TRACED`` are wrapped
before ``scimetrics.cli.main`` runs, and the spans are written to SPANS.json
when it returns.  The exit code is the CLI's.
"""

import json
import sys
import time
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = time.perf_counter()
    from scimetrics import cli

    if spans_path is None:
        return cli.main(argv)
    end = time.perf_counter()
    import spans

    recorder = spans.Recorder()
    recorder.spans.append(["cli.import", start, end, None, None])
    recorder.install("scimetrics")
    try:
        return cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(recorder.spans))


if __name__ == "__main__":
    sys.exit(main())
