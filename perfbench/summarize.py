"""Summarize benchmark result records into one baseline document.

    python3 perfbench/summarize.py .perfbench_work/results > perfbench/baseline.json

For each workload: the environment, the corpus SHA-256 per seed, the
median, quartiles and relative spread ((q3 - q1) / median) of each
end-to-end metric over the untraced runs, and, per traced run, the
per-layer metrics and each module's share of the traced wall time (the
self time of its spans over the summed wall time of the traced repetitions).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def module_shares(result: dict) -> dict[str, float]:
    traced = [r for r in result["repetitions"] if r["traced"]]
    wall = sum(r["wall_s"] for r in traced)
    shares: dict[str, float] = {}
    for rep in traced:
        for name, entry in rep["layer"].items():
            module = name.split(".")[0]
            shares[module] = shares.get(module, 0.0) + entry["self_s"] / wall
    shares["untraced"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def summarize(results: list[dict]) -> dict:
    out: dict = {"environment": results[0]["environment"], "workloads": {}}
    for result in sorted(results, key=lambda r: (r["workload"], r["trace"], r["seed"])):
        w = out["workloads"].setdefault(result["workload"], {
            "why": result["why"], "corpus_sha256": {}, "end_to_end": {}, "traced": {},
        })
        w["corpus_sha256"][str(result["seed"])] = result["corpus_sha256"]
        if result["trace"]:
            w["traced"][str(result["seed"])] = {
                "correct": result["failed"] == 0 and not result["problems"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                "module_shares": module_shares(result),
            }
            continue
        for name, metric in result["metrics"].items():
            entry = w["end_to_end"].setdefault(
                name, {"unit": metric["unit"], "seeds": [], "values": []}
            )
            entry["seeds"].append(result["seed"])
            entry["values"].append(metric["value"])
        w.setdefault("runs", 0)
        w["runs"] += 1
        w["failed"] = w.get("failed", 0) + result["failed"]
        w["attempted"] = w.get("attempted", 0) + result["attempted"]
    for w in out["workloads"].values():
        for entry in w["end_to_end"].values():
            values = entry["values"]
            median = statistics.median(values)
            entry["median"] = median
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median)
    return out


def main() -> int:
    directory = Path(sys.argv[1])
    results = [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]
    print(json.dumps(summarize(results), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
