"""The benchmark's own checks, on tiny corpora (about fifteen seconds).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import json

import pytest

import run
import spans
from scimetrics import synth
from workloads import WORKLOADS

TINY = {
    "evaluate-hyper": {"team_size_regime": "hyper", "n_authors": 12, "hyper_team_mean": 50.0},
    "corr-matrix-wide": {
        "team_size_regime": "growing", "n_authors": 30, "start_year": 2005,
        "end_year": 2019, "awards_per_year": 3, "award_start_year": 2008,
    },
}


def test_self_time_subtracts_direct_children():
    recorded = [
        ["root", 0.0, 10.0, None, None],
        ["child", 1.0, 4.0, 0, {"max_n": 5, "bytes_computed": 800}],
        ["grandchild", 2.0, 3.0, 1, None],
        ["child", 5.0, 6.0, 0, {"max_n": 3, "bytes_computed": 288}],
    ]
    stats = spans.summarize(recorded)
    assert stats["root"]["self_s"] == pytest.approx(6.0)
    assert stats["child"] == {
        "calls": 2, "s": pytest.approx(4.0), "self_s": pytest.approx(3.0),
        "max_n": 5, "bytes_computed": 1088,
    }
    merged = spans.merge(spans.merge({}, stats), stats)
    assert merged["child"]["calls"] == 4 and merged["child"]["max_n"] == 5


@pytest.mark.parametrize("name", list(TINY))
def test_counts_repeat_exactly_and_outputs_check(tmp_path, name):
    workload = dataclasses.replace(WORKLOADS[name], config=TINY[name])
    _, setup_layer = run.set_up_traced(workload, seed=3, work=tmp_path)
    assert synth.generate.__module__ == "scimetrics.synth"  # wrappers removed
    reps = [run.repetition(workload, tmp_path, i, traced=True) for i in range(2)]
    first, second = (run.layer_metrics(r, setup_layer) for r in reps)
    assert {m: first[m] for m in run.EXACT} == {m: second[m] for m in run.EXACT}
    attempted, failed, problems = run.check_outputs(workload, tmp_path, reps, None)
    assert (failed, problems) == (0, [])
    assert attempted == 2 * len(workload.steps("rep0"))
    assert first["synth.generate.s"] > 0 and first["ingest.save_corpus.s"] > 0
    assert first["ingest.load_corpus.calls"] == len(workload.steps("rep0"))
    if name == "evaluate-hyper":
        assert first["corpus.snapshot_at.calls"] == 80
        assert first["rankcorr.pair_counts.calls"] == 20
        assert first["indices.compute_measure.calls"] == 40 * 12
        assert first["evaluation.cells_attempted"] == 40
    if name == "corr-matrix-wide":
        assert first["rankcorr.pair_counts.calls"] == 21
        assert first["rankcorr.pair_counts.max_n"] == 30
        assert first["rankcorr.roc_curve.calls"] == 16
        assert first["indices.compute_measure.calls"] == 0


def test_a_wrong_output_is_a_failed_invocation(tmp_path):
    workload = dataclasses.replace(WORKLOADS["evaluate-hyper"], config=TINY["evaluate-hyper"])
    run.set_up(workload, seed=3, work=tmp_path, times=1)
    reps = [run.repetition(workload, tmp_path, 0, traced=False)]
    table = tmp_path / "rep0" / "eval" / "h_tau_b.csv"
    lines = table.read_text().splitlines()
    year, _, n = lines[1].split(",")
    lines[1] = f"{year},0.123,{n}"
    table.write_text("\n".join(lines) + "\n")
    attempted, failed, problems = run.check_outputs(workload, tmp_path, reps, None)
    assert (attempted, failed) == (1, 1)
    assert any("h_tau_b.csv" in p for p in problems)


def test_benchmark_json_matches_the_code():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.LAYER_UNITS
