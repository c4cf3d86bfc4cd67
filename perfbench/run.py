"""scimetrics benchmark: run CLI workloads on seeded synthetic corpora.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload builds its corpus from the seed
(``synth.generate`` + ``ingest.save_corpus``, timed as ``setup_s``), then runs
its CLI sequence repeatedly, each command in a fresh ``python3`` process,
while another repetition is expected to end within S seconds (at least
twice).  Every output is checked afterwards, outside the timed region.  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` untraced
and traced repetitions alternate and the per-layer metrics come from the
traced ones.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.  A full record, environment included, is written
to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import os

# Pin numpy/BLAS to one thread, here and in every child process.
for _var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
CHILD = HERE / "child.py"
SETUPS = 3  # set-ups per --trace 0 run; setup_s is their median
MIN_REPS = 2

E2E = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

# metric -> (span name, summary key, unit); the rest are derived below.
LAYER_SPANS = {
    "ingest.load_corpus.s": ("ingest.load_corpus", "s", "s"),
    "ingest.load_corpus.calls": ("ingest.load_corpus", "calls", "count"),
    "ingest.save_corpus.s": ("ingest.save_corpus", "s", "s"),
    "ingest.bytes_read": ("ingest.load_corpus", "bytes_read", "B"),
    "synth.generate.s": ("synth.generate", "s", "s"),
    "corpus.snapshot_at.s": ("corpus.snapshot_at", "s", "s"),
    "corpus.snapshot_at.calls": ("corpus.snapshot_at", "calls", "count"),
    "indices.compute_measure.s": ("indices.compute_measure", "s", "s"),
    "indices.compute_measure.calls": ("indices.compute_measure", "calls", "count"),
    "indices.compute_all.s": ("indices.compute_all", "s", "s"),
    "indices.compute_all.calls": ("indices.compute_all", "calls", "count"),
    "rankcorr.pair_counts.s": ("rankcorr.pair_counts", "s", "s"),
    "rankcorr.pair_counts.calls": ("rankcorr.pair_counts", "calls", "count"),
    "rankcorr.pair_counts.max_n": ("rankcorr.pair_counts", "max_n", "count"),
    "rankcorr.pair_counts.bytes_computed": ("rankcorr.pair_counts", "bytes_computed", "B"),
    "rankcorr.roc_curve.s": ("rankcorr.roc_curve", "s", "s"),
    "rankcorr.roc_curve.calls": ("rankcorr.roc_curve", "calls", "count"),
    "evaluation.award_scores.s": ("evaluation.award_scores", "s", "s"),
    "evaluation.award_scores.calls": ("evaluation.award_scores", "calls", "count"),
    "evaluation.apply_filter.s": ("evaluation.apply_filter", "s", "s"),
    "evaluation.series.self_s": ("evaluation.series", "self_s", "s"),
    "cli.import_s": ("cli.import", "s", "s"),
    **{
        f"cli.{c}.s": (f"cli.{c}", "s", "s")
        for c in ("evaluate", "corr-matrix", "roc")
    },
}
LAYER_DERIVED = {
    "evaluation.cells_attempted": "count",
    "evaluation.cells_defined_frac": "ratio",
    "cli.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
}
LAYER_UNITS = {m: u for m, (_, _, u) in LAYER_SPANS.items()} | LAYER_DERIVED
# Metrics that must repeat exactly between repetitions.
EXACT = {m for m, u in LAYER_UNITS.items() if u in ("count", "B", "ratio")}


def _fail_early() -> None:
    missing = [
        p for p in (ROOT / "src" / "scimetrics" / "cli.py", ROOT / "tests" / "oracles.py")
        if not p.is_file()
    ]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run it from a "
              "scimetrics checkout", file=sys.stderr)
        sys.exit(2)


_fail_early()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy  # noqa: E402
import scipy  # noqa: E402

import scimetrics  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
from scimetrics import ingest, synth  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "scimetrics": scimetrics.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": os.environ["OMP_NUM_THREADS"],
    }


def set_up(workload: Workload, seed: int, work: Path, times: int) -> list[float]:
    """Build the workload's corpus `times` times; returns each build's seconds."""
    config = synth.SynthConfig(rng_seed=seed, **workload.config)
    seconds = []
    for _ in range(times):
        shutil.rmtree(work / "corpus", ignore_errors=True)
        start = time.perf_counter()
        ingest.save_corpus(synth.generate(config), work / "corpus")
        seconds.append(time.perf_counter() - start)
    return seconds


def set_up_traced(workload: Workload, seed: int, work: Path) -> tuple[list[float], dict]:
    """One set-up with spans recorded: it is where synth.generate and
    ingest.save_corpus run."""
    recorder = spans.Recorder()
    with recorder.installed("scimetrics"):
        seconds = set_up(workload, seed, work, 1)
    return seconds, spans.summarize(recorder.spans)


def invoke(argv: list[str], work: Path, stdout: Path, spans_path: Path | None) -> dict:
    """One CLI command in a fresh process: wall seconds, its own peak RSS
    (ru_maxrss via wait4), exit code."""
    cmd = [sys.executable, str(CHILD)]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    cmd += ["--", *argv]
    with open(stdout, "wb") as out, open(stdout.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=work, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024,
        "rc": proc.returncode,
    }


def repetition(workload: Workload, work: Path, index: int, traced: bool) -> dict:
    """Run the workload's CLI sequence once; digest its outputs afterwards."""
    rep = f"rep{index}"
    (work / rep).mkdir()
    steps = workload.steps(rep)
    runs = []
    for k, step in enumerate(steps):
        stdout = work / rep / f"{k}.stdout"
        spans_path = work / rep / f"{k}.spans.json" if traced else None
        runs.append(invoke(step.argv, work, stdout, spans_path))
    layer: dict = {}
    written = 0
    for k, (step, run) in enumerate(zip(steps, runs)):
        files = [work / rep / f"{k}.stdout", *(work / o for o in step.outputs)]
        run["digest"] = verify.tree_digest(files, work / rep)
        written += sum(
            f.stat().st_size for f in verify.files_under([work / o for o in step.outputs])
        )
        if traced and (work / rep / f"{k}.spans.json").is_file():
            recorded = json.loads((work / rep / f"{k}.spans.json").read_text())
            spans.merge(layer, spans.summarize(recorded))
    if index > 0:  # the first repetition's outputs are kept for the checks
        shutil.rmtree(work / rep)
    return {
        "traced": traced,
        "wall_s": sum(r["wall_s"] for r in runs),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "bytes_written": written,
        "steps": runs,
        "layer": layer if traced else None,
    }


def check_outputs(
    workload: Workload, work: Path, reps: list[dict], reference: dict | None
) -> tuple[int, int, list[str]]:
    """Count failed command invocations: a non-zero exit, outputs that differ
    from the first repetition's, or a first repetition that fails its
    independent check or (seed 0) the recorded reference digest."""
    steps = workload.steps("rep0")
    first = reps[0]["steps"]
    problems = []
    good = []
    for k, step in enumerate(steps):
        found = []
        if first[k]["rc"] != 0:
            found.append(f"step {k} exited {first[k]['rc']}")
        else:
            try:
                found += step.check(work)
            except Exception as exc:  # a malformed output is a failed check
                found.append(f"step {k} check raised {exc!r}")
        if reference is not None and reference["steps"][k] != first[k]["digest"]:
            found.append(f"step {k} outputs differ from the recorded reference")
        problems += found[:10]
        good.append(not found)
    attempted = failed = 0
    for rep in reps:
        for k, run in enumerate(rep["steps"]):
            attempted += 1
            if not (good[k] and run["rc"] == 0 and run["digest"] == first[k]["digest"]):
                failed += 1
    return attempted, failed, problems


def layer_metrics(rep: dict, setup_layer: dict) -> dict:
    """Per-layer metrics of one traced repetition plus the traced set-up."""
    stats = spans.merge(spans.merge({}, rep["layer"]), setup_layer)
    metrics = {
        m: stats.get(span, {}).get(key, 0) for m, (span, key, _) in LAYER_SPANS.items()
    }
    cells = [
        stats.get(s, {})
        for s in ("evaluation.series", "evaluation.measure_correlation_matrix")
    ]
    attempted = sum(c.get("cells_attempted", 0) for c in cells)
    defined = sum(c.get("cells_defined", 0) for c in cells)
    metrics["evaluation.cells_attempted"] = attempted
    metrics["evaluation.cells_defined_frac"] = defined / attempted if attempted else 0.0
    metrics["cli.self_s"] = sum(
        entry["self_s"] for name, entry in stats.items()
        if name.startswith("cli.") and name != "cli.import"
    )
    metrics["cli.bytes_written"] = rep["bytes_written"]
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if trace:
        setup, setup_layer = set_up_traced(workload, seed, work)
    else:
        setup, setup_layer = set_up(workload, seed, work, SETUPS), {}
    corpus_digest = verify.tree_digest([work / "corpus"], work / "corpus")
    # Start another repetition only while it is expected to end in time, so
    # a run takes about `seconds` (or MIN_REPS repetitions) on any machine.
    reps: list[dict] = []
    deadline = time.perf_counter() + seconds
    while len(reps) < MIN_REPS or (
        time.perf_counter() + statistics.median(r["wall_s"] for r in reps) <= deadline
    ):
        reps.append(repetition(workload, work, len(reps), trace and len(reps) % 2 == 1))

    reference = None
    if seed == 0 and (HERE / "reference.json").is_file():
        reference = json.loads((HERE / "reference.json").read_text()).get(workload.name)
    attempted, failed, problems = check_outputs(workload, work, reps, reference)
    if reference is not None and reference["corpus"] != corpus_digest:
        problems.append("set-up corpus differs from the recorded reference")
    untraced = [r for r in reps if not r["traced"]]
    if trace:
        traced = [r for r in reps if r["traced"]]
        per_rep = [layer_metrics(r, setup_layer) for r in traced]
        metrics = {}
        for name in LAYER_UNITS:
            if name == "trace.overhead_s":
                continue
            values = [m[name] for m in per_rep]
            if name in EXACT and len(set(values)) > 1:
                problems.append(f"{name} differs between repetitions: {values}")
            metrics[name] = statistics.median(values)
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced)
        )
        units = LAYER_UNITS
    else:
        metrics = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
            "setup_s": statistics.median(setup),
        }
        units = E2E
    shutil.rmtree(work)
    return {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "corpus_sha256": corpus_digest,
        "setup_s": setup,
        "repetitions": reps,
        "samples": len(reps) if not trace else len(reps) - len(untraced),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def report(result: dict) -> None:
    """Human-readable lines: every metric with its unit and sample count."""
    n = result["samples"]
    kind = "traced repetitions" if result["trace"] else "repetitions"
    print(f"== {result['workload']}  seed {result['seed']}  {n} {kind}  "
          f"corpus sha256 {result['corpus_sha256'][:16]}")
    for name, metric in result["metrics"].items():
        count = len(result["setup_s"]) if name == "setup_s" else n
        print(f"  {name:38s} {metric['value']:>16.6g} {metric['unit']:6s} (n={count})")
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':38s} {frac:>16.6g} {'ratio':6s} "
          f"({result['failed']} of {result['attempted']} invocations)")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-reference", action="store_true",
        help="store this seed-0 run's digests in reference.json",
    )
    args = parser.parse_args(argv)
    if args.record_reference and args.seed != 0:
        parser.error("--record-reference needs --seed 0")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        report(result)
        out = WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1) + "\n")
        if args.record_reference:
            record_reference(result)
        results.append(result)
    metrics = (
        results[0]["metrics"] if len(results) == 1 else {
            f"{r['workload']}.{name}": metric
            for r in results for name, metric in r["metrics"].items()
        }
    )
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and not any(r["problems"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def record_reference(result: dict) -> None:
    path = HERE / "reference.json"
    reference = json.loads(path.read_text()) if path.is_file() else {}
    reference[result["workload"]] = {
        "corpus": result["corpus_sha256"],
        "steps": [run["digest"] for run in result["repetitions"][0]["steps"]],
    }
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
