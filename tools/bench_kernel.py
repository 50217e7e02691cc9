"""Benchmark the vectorized batch kernel against the per-event oracle.

Times the fig16 and fig18/table6 quick config grids — the two
simulation-heaviest experiments — and the fig11 quick grid of
fully-associative tables over one shared trace, once through
the per-event oracle (``predictor.run_trace`` on plain lists, the
engine's fast path) and once through the batch kernel
(``repro.sim.kernel.batch_run_trace`` on int64 columns), and writes a
``BENCH_kernel.json`` record with per-figure aggregate speedups and a
per-table-class breakdown.

Every timed pair is also an equivalence assertion: the kernel must
return *exactly* the oracle's misprediction count for every config in
both grids, and for the attribution suite's 13 family specs, or the
tool exits nonzero — a benchmark run that produced wrong numbers fast
is a failure, not a result.

The speedup is class-dependent by construction: tagless tables reduce
to pure ``O(sites + transitions)`` column work and clear 10x, while
set-associative tables keep a per-fresh-run Python LRU loop and land
lower; fully-associative tables walk that loop over one set of up to
32,768 ways (O(1) per touch) and land lowest; path length 0 degenerates
to one run per site and is bounded by fixed per-chunk costs.  Budgets
(enforced with ``--enforce``; the committed artifact is produced that
way, and a record that misses one is printed but not written):

* tagless (p>0) class speedup >= 10x on fig16 and fig18/table6;
* aggregate speedup >= 4x on fig16 and fig18/table6;
* aggregate speedup >= 1x on fig11: the kernel, the offline default,
  must never lose to the oracle on a fully-associative table.

Usage::

    python tools/bench_kernel.py --out BENCH_kernel.json --enforce
    python tools/bench_kernel.py --scale 0.5        # CI smoke, no budgets
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

MIN_TAGLESS_SPEEDUP = 10.0
MIN_AGGREGATE_SPEEDUP = 4.0
MIN_FULLASSOC_SPEEDUP = 1.0
BENCHMARK = "gcc"
DEFAULT_SCALE = 4.0


def fig16_grid():
    from repro.experiments.fig16 import (
        ASSOCIATIVITIES, QUICK_PATHS, QUICK_SIZES, practical_config)

    for associativity in ASSOCIATIVITIES:
        for size in QUICK_SIZES:
            for path in QUICK_PATHS:
                yield practical_config(path, size, associativity)


def fig11_grid():
    from repro.experiments.fig11 import QUICK_PATHS, QUICK_SIZES, _config

    for size in QUICK_SIZES:
        for path in QUICK_PATHS:
            yield _config(path, size)


def fig18_grid():
    from repro.experiments.fig16 import practical_config
    from repro.experiments.fig18_table6 import (
        HYBRID_PAIRS, QUICK_ASSOCS, QUICK_SIZES, SINGLE_PATHS, _hybrid)

    for associativity in QUICK_ASSOCS:
        for size in QUICK_SIZES:
            for path in SINGLE_PATHS:
                yield practical_config(path, size, associativity)
            for pair in HYBRID_PAIRS:
                yield _hybrid(pair, size // 2, associativity)


def config_class(config) -> str:
    """Breakdown bucket: hybrid / p0 / tagless / fullassoc / k-way."""
    from repro.core.config import HybridConfig

    if isinstance(config, HybridConfig):
        return "hybrid"
    if getattr(config, "path_length", None) == 0:
        return "p0"
    associativity = config.associativity
    if associativity == "tagless":
        return "tagless"
    if associativity == "full":
        return "fullassoc"
    return f"{associativity}-way"


def check_family_specs(trace, columns) -> None:
    """The 13 attribution family specs must be bit-exact, kernel vs oracle."""
    from repro.core.factory import build_predictor, config_from_spec
    from repro.sim.kernel import batch_run_trace

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from tests.test_attribution import FAMILY_SPECS

    pcs, targets = columns
    for spec in FAMILY_SPECS:
        config = config_from_spec(spec)
        oracle = build_predictor(config).run_trace(trace.pcs, trace.targets)
        batch = batch_run_trace(config, pcs, targets)
        if batch != oracle:
            raise SystemExit(
                f"error: kernel diverges from oracle on {spec!r}: "
                f"oracle={oracle} batch={batch}")
    print(f"equivalence: {len(FAMILY_SPECS)} family specs bit-exact "
          f"({len(trace)} events)")


def time_grid(name, configs, trace, columns):
    from repro.core.factory import build_predictor
    from repro.sim.kernel import batch_run_trace

    pcs, targets = columns
    events = len(trace)
    oracle_total = batch_total = 0.0
    classes = {}
    for config in configs:
        start = time.perf_counter()
        batch_misses = batch_run_trace(config, pcs, targets)
        batch_elapsed = time.perf_counter() - start
        predictor = build_predictor(config)
        start = time.perf_counter()
        oracle_misses = predictor.run_trace(trace.pcs, trace.targets)
        oracle_elapsed = time.perf_counter() - start
        if batch_misses != oracle_misses:
            raise SystemExit(
                f"error: kernel diverges from oracle on {config.label}: "
                f"oracle={oracle_misses} batch={batch_misses}")
        oracle_total += oracle_elapsed
        batch_total += batch_elapsed
        bucket = classes.setdefault(
            config_class(config), {"configs": 0, "oracle_s": 0.0,
                                   "batch_s": 0.0})
        bucket["configs"] += 1
        bucket["oracle_s"] += oracle_elapsed
        bucket["batch_s"] += batch_elapsed
    for bucket in classes.values():
        bucket["speedup"] = round(bucket["oracle_s"] / bucket["batch_s"], 2)
        bucket["oracle_s"] = round(bucket["oracle_s"], 3)
        bucket["batch_s"] = round(bucket["batch_s"], 3)
    record = {
        "configs": sum(b["configs"] for b in classes.values()),
        "events_per_config": events,
        "oracle_s": round(oracle_total, 3),
        "batch_s": round(batch_total, 3),
        "speedup": round(oracle_total / batch_total, 2),
        "classes": classes,
    }
    print(f"{name}: {record['configs']} configs, "
          f"oracle {record['oracle_s']}s, batch {record['batch_s']}s, "
          f"speedup {record['speedup']}x")
    return record


def check_record(record: dict) -> None:
    """Exit nonzero unless the record is internally consistent and, when
    enforced, within its budgets.

    Speedups are derivable from the recorded times, and each figure's
    per-class breakdown adds up to its totals (rounding slack: each class
    contributes at most 0.001 s of rounding error).
    """
    budgets = record["budgets"]
    if record["events"] <= 0 or set(record["figures"]) != {
            "fig16", "fig18_table6", "fig11"} or set(budgets) != {
            "tagless_speedup_min", "aggregate_speedup_min",
            "fullassoc_speedup_min", "enforced"}:
        raise SystemExit("error: empty trace, or figures/budgets missing")
    for name, figure in record["figures"].items():
        classes = figure["classes"]
        if not (figure["configs"] > 0 and figure["oracle_s"] > 0
                and figure["batch_s"] > 0 and classes):
            raise SystemExit(f"error: {name}: no configs, times or classes")
        derived = figure["oracle_s"] / figure["batch_s"]
        if abs(figure["speedup"] - derived) > 0.05 * derived:
            raise SystemExit(f"error: {name}: speedup {figure['speedup']} "
                             f"vs derived {derived:.2f}")
        if sum(bucket["configs"] for bucket in classes.values()) \
                != figure["configs"] or any(
                    bucket["oracle_s"] < 0 or bucket["batch_s"] <= 0
                    or bucket["speedup"] <= 0 for bucket in classes.values()):
            raise SystemExit(f"error: {name}: inconsistent class breakdown")
        slack = 0.002 * len(classes) + 0.01
        for column in ("oracle_s", "batch_s"):
            total = sum(bucket[column] for bucket in classes.values())
            if abs(total - figure[column]) > slack + 0.01 * figure[column]:
                raise SystemExit(f"error: {name}: class {column} sum "
                                 f"{total:.3f} vs {figure[column]}")
        if not budgets["enforced"]:
            continue
        floor = budgets["fullassoc_speedup_min" if name == "fig11"
                        else "aggregate_speedup_min"]
        if figure["speedup"] < floor:
            raise SystemExit(f"error: {name} aggregate speedup "
                             f"{figure['speedup']}x < {floor}x")
        tagless = classes.get("tagless")
        if tagless and tagless["speedup"] < budgets["tagless_speedup_min"]:
            raise SystemExit(f"error: {name} tagless speedup "
                             f"{tagless['speedup']}x < "
                             f"{budgets['tagless_speedup_min']}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the batch kernel vs the per-event oracle.")
    parser.add_argument("--out", default="BENCH_kernel.json",
                        help="output JSON path")
    parser.add_argument("--scale", type=float, default=DEFAULT_SCALE,
                        help="trace scale factor (default %(default)s)")
    parser.add_argument("--enforce", action="store_true",
                        help="fail on budget violations (meaningful only "
                             "at full scale; fixed costs dominate tiny "
                             "traces)")
    args = parser.parse_args(argv)

    from repro.workloads import generate_trace, trace_columns, workload_config

    trace = generate_trace(workload_config(BENCHMARK, scale=args.scale))
    columns = trace_columns(trace)
    print(f"trace: {BENCHMARK} scale={args.scale} ({len(trace)} events)")

    check_family_specs(trace, columns)
    figures = {
        "fig16": time_grid("fig16", fig16_grid(), trace, columns),
        "fig18_table6": time_grid("fig18_table6", fig18_grid(), trace,
                                  columns),
        "fig11": time_grid("fig11", fig11_grid(), trace, columns),
    }

    record = {
        "schema": "repro-bench-kernel/1",
        "benchmark": f"{BENCHMARK}, scale={args.scale}, "
                     f"quick grids, library API",
        "events": len(trace),
        "figures": figures,
        "budgets": {
            "tagless_speedup_min": MIN_TAGLESS_SPEEDUP,
            "aggregate_speedup_min": MIN_AGGREGATE_SPEEDUP,
            "fullassoc_speedup_min": MIN_FULLASSOC_SPEEDUP,
            "enforced": bool(args.enforce),
        },
        "cpus": os.cpu_count(),
    }
    print(json.dumps(record, indent=2, sort_keys=True))
    check_record(record)
    Path(args.out).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    if args.enforce:
        print("kernel speedup budgets: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
