"""Track benchmark trends across commits and fail on regressions.

Every benchmark harness in ``tools/`` leaves a ``BENCH_*.json`` artifact
in the repo root.  Those files answer "how fast is this commit?" but not
"is this commit slower than the last one?" — each CI run overwrites them,
so a slow creep (or a sharp cliff) is invisible unless someone diffs the
checked-in numbers by hand.  This tool closes that loop:

* ``--record`` extracts one headline number per tracked metric from the
  ``BENCH_*.json`` files it is given and appends them as a run record to
  a ``repro-bench-trend/1`` history file (JSONL: header line, then one
  record per recorded run);
* check mode (the default) extracts the same metrics and compares them
  against the most recent record in the history, printing a delta table
  and exiting non-zero when any metric regressed beyond the budget
  (``--budget-pct``, default 10%).  Direction matters: throughput and
  speedup must not fall, latency and overhead must not rise.

The tracked-metric table below is the policy: a ``BENCH_*.json`` file
not listed there is ignored with a note, never a failure, so new
benchmark artifacts can land before this tool learns about them.

Usage::

    python tools/bench_trend.py --history bench-trend.jsonl --record
    python tools/bench_trend.py --history bench-trend.jsonl
    python tools/bench_trend.py --history bench-trend.jsonl --budget-pct 5 \
        BENCH_serve.json BENCH_kernel.json
"""

import argparse
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.runtime.records import (  # noqa: E402
    RecordError, RecordFile, RecordLog, read_records,
)
from repro.sim.reporting import format_table  # noqa: E402

TREND_SCHEMA = "repro-bench-trend/1"

#: Benchmark file basename -> [(dotted path, direction)].  Direction is
#: the *good* direction: "higher" metrics regress by falling, "lower"
#: metrics regress by rising.
TRACKED = {
    "BENCH_serve.json": [
        ("clean.events_per_sec", "higher"),
        ("chaos.events_per_sec", "higher"),
        ("clean.latency_p99_ms", "lower"),
    ],
    "BENCH_kernel.json": [
        ("figures.fig16.speedup", "higher"),
        ("figures.fig18_table6.speedup", "higher"),
    ],
    "BENCH_parallel_sweep.json": [
        ("serial.wall_time_s", "lower"),
        ("parallel.wall_time_s", "lower"),
    ],
    "BENCH_attribution_overhead.json": [
        ("instrumented_overhead.ratio", "lower"),
    ],
    "BENCH_recovery.json": [
        ("headline.speedup_vs_full_replay", "higher"),
        ("headline.snapshot_recovery_s", "lower"),
    ],
}


def dig(doc: dict, dotted: str):
    """``dig({'a': {'b': 3}}, 'a.b')`` -> ``3``; ``None`` when absent."""
    node = doc
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def extract_metrics(paths) -> dict:
    """``{"file:dotted.path": value}`` for every tracked metric present."""
    metrics = {}
    for path in paths:
        name = os.path.basename(path)
        tracked = TRACKED.get(name)
        if tracked is None:
            print(f"note: {name} has no tracked metrics, skipping")
            continue
        doc = json.load(open(path))
        for dotted, _direction in tracked:
            value = dig(doc, dotted)
            if value is None:
                raise SystemExit(f"error: {name} has no {dotted!r}")
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SystemExit(
                    f"error: {name}:{dotted} is {value!r}, not a number")
            metrics[f"{name}:{dotted}"] = value
    return metrics


def direction_of(metric: str) -> str:
    name, _, dotted = metric.partition(":")
    for tracked_dotted, direction in TRACKED.get(name, []):
        if tracked_dotted == dotted:
            return direction
    return "higher"


def load_history(path: Path) -> RecordFile:
    """Parse a trend history (a record log); a torn final line is dropped."""
    if not path.exists():
        return RecordFile(None, [], 0, False)
    try:
        history = read_records(path)
    except RecordError as exc:
        raise SystemExit(f"error: {exc}") from None
    header = history.header
    if header is not None and header.get("schema") != TREND_SCHEMA:
        raise SystemExit(f"error: {path} is not a {TREND_SCHEMA} history "
                         f"(header {header!r})")
    return history


def read_history(path: Path) -> list:
    """Run records from a trend history."""
    return load_history(path).records


def delta_rows(baseline: dict, current: dict, budget_pct: float):
    """Comparison rows plus the metrics that regressed beyond budget."""
    rows, regressions = [], []
    for metric in sorted(set(baseline) | set(current)):
        before = baseline.get(metric)
        now = current.get(metric)
        direction = direction_of(metric)
        if before is None:
            rows.append([metric, "-", now, "new", direction, "ok"])
            continue
        if now is None:
            rows.append([metric, before, "-", "missing", direction, "ok"])
            continue
        if before == 0:
            delta_pct = 0.0 if now == 0 else float("inf")
        else:
            delta_pct = 100.0 * (now - before) / before
        regressed = (delta_pct < -budget_pct if direction == "higher"
                     else delta_pct > budget_pct)
        verdict = "REGRESSED" if regressed else "ok"
        rows.append([metric, before, now, f"{delta_pct:+.1f}%", direction,
                     verdict])
        if regressed:
            regressions.append(metric)
    return rows, regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Record and check BENCH_*.json trends.")
    parser.add_argument("bench", nargs="*",
                        help="benchmark artifacts (default: the tracked "
                             "BENCH_*.json files present in the repo root)")
    parser.add_argument("--history", default="bench-trend.jsonl",
                        help="trend history file (JSONL, %s)" % TREND_SCHEMA)
    parser.add_argument("--record", action="store_true",
                        help="append the current metrics as a new run "
                             "instead of checking against the last one")
    parser.add_argument("--label", default=None,
                        help="free-form label stored with --record "
                             "(e.g. a commit id)")
    parser.add_argument("--budget-pct", type=float, default=10.0,
                        help="regression budget in percent (default 10)")
    args = parser.parse_args(argv)

    bench_paths = args.bench
    if not bench_paths:
        root = Path(__file__).resolve().parent.parent
        bench_paths = [str(root / name) for name in sorted(TRACKED)
                       if (root / name).exists()]
    for path in bench_paths:
        if not os.path.exists(path):
            raise SystemExit(f"error: no such benchmark artifact: {path}")
    current = extract_metrics(bench_paths)
    if not current:
        raise SystemExit("error: no tracked metrics in the given artifacts")

    history_path = Path(args.history)
    history = load_history(history_path)
    records = history.records

    if args.record:
        record = {"kind": "run",
                  "run": (records[-1]["run"] + 1 if records else 1),
                  "metrics": current}
        if args.label:
            record["label"] = args.label
        # Appends after the committed prefix: a torn tail is cut first.
        with RecordLog(history_path, {"schema": TREND_SCHEMA},
                       history.committed) as log:
            log.write(record)
        print(f"{history_path}: recorded run {record['run']} "
              f"({len(current)} metrics)")
        return 0

    if not records:
        print(f"{history_path}: no baseline yet ({len(current)} metrics "
              f"extracted); record one with --record")
        return 0
    baseline = records[-1]
    rows, regressions = delta_rows(baseline["metrics"], current,
                                   args.budget_pct)
    title = (f"bench trend vs run {baseline['run']}"
             + (f" [{baseline['label']}]" if baseline.get("label") else "")
             + f", budget {args.budget_pct:g}%")
    print(format_table(
        ["metric", "baseline", "current", "delta", "good", "verdict"],
        rows, title=title))
    if regressions:
        print(f"\nFAIL: {len(regressions)} metric(s) regressed beyond "
              f"{args.budget_pct:g}%: {', '.join(regressions)}")
        return 1
    print(f"\nok: {sum(1 for r in rows if r[5] == 'ok')} metric(s) within "
          f"budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
