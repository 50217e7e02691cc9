"""The repository's benchmark: both headline paths, end to end and per layer.

Usage::

    python bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]

Without ``--workload`` every workload runs in turn.  A run repeats
passes of its workload's fixed work while another fits in ``--seconds``
(default: ``run_seconds`` in ``BENCHMARK.json``), at least one, and
reports medians over them: the window sets how many passes a run takes,
never the work in one.  ``--trace 0`` (the default) measures the
end-to-end metrics with no spans installed; ``--trace`` / ``--trace 1``
is the separate traced run that reports the per-layer metrics.  Metric
names, units and bounds come from the root ``BENCHMARK.json``.  Each
run prints every metric with its unit, writes
its full result to ``.bench_run/results/`` and prints as its last line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

import common

WORKLOADS = ("reproduce", "sweep-long", "serve-steady", "serve-churn")


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 declared: dict) -> common.Result:
    work = common.WORK / name
    shutil.rmtree(work, ignore_errors=True)
    if name in ("reproduce", "sweep-long"):
        import offline as module
    else:
        import serving as module
    try:
        result = module.run(name, seed, seconds, trace, work)
        if trace:
            # A layer this workload never crosses did no work on it.
            for entry in declared["per_layer"]:
                layer = entry["name"].split(".")[0]
                if layer not in module.LAYERS:
                    result.metrics.setdefault(entry["name"], 0)
        return result
    finally:
        _keep_spans(work, name)
        shutil.rmtree(work, ignore_errors=True)


def _keep_spans(work, name: str) -> None:
    """Copy the traced run's span files out of the work directory."""
    target = common.WORK / "spans"
    for path in sorted(work.rglob("spans*.jsonl")) if work.exists() else []:
        target.mkdir(parents=True, exist_ok=True)
        shutil.copy(path, target / f"{name}-{path.parent.name}-{path.name}")


def report(result: common.Result, declared: dict) -> None:
    kind = "per_layer" if result.trace else "end_to_end"
    print(f"== {result.workload} (seed {result.seed}, "
          f"{'traced' if result.trace else 'untraced'}): "
          f"{'correct' if result.correct else 'INCORRECT'}, "
          f"{result.failed}/{result.attempted} failed")
    for entry in declared[kind]:
        value = result.metrics.get(entry["name"], float("nan"))
        print(f"  {entry['name']:<34} {value:>14.6g} {entry['unit']}")
    if "tail" in result.details:
        tail = result.details["tail"]
        print(f"  (tail_ms is p{tail['percentile']} of {tail['samples']} "
              f"samples; {result.details['passes']} pass(es))")
    if "achieved_eps" in result.details:
        print(f"  (closed loop: {result.details['achieved_eps']:,.0f} "
              f"events/s)")
    for problem in result.problems:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the serving workloads' tenant streams")
    declared = common.declared_metrics()
    parser.add_argument("--seconds", type=float,
                        default=declared["run_seconds"],
                        help="how long a run repeats passes, at least one; "
                             "it never changes the work in a pass, and "
                             "compare.py refuses runs of different windows "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run with per-layer metrics")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so every server and child started
    # so far is still killed and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    common.require_source()
    sys.path.insert(0, str(common.SRC))
    os.environ.pop("REPRO_TRACE_SCALE", None)

    results = []
    for name in [args.workload] if args.workload else WORKLOADS:
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), declared)
        report(result, declared)
        record = result.record(declared)
        out = (common.WORK / "results"
               / f"{name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        results.append(result)
    if len(results) == 1:
        line = results[0].line(declared)
    else:
        line = {
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {f"{r.workload}/{name}": value
                        for r in results
                        for name, value in r.line(declared)["metrics"].items()},
        }
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
