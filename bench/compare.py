"""Compare two sets of benchmark runs, metric by metric, against the bounds.

Usage::

    python bench/compare.py A B

``A`` (the parent) and ``B`` (the change) are directories of result
files written by ``bench/run.py`` (``.bench_run/results/*.json``), or
single files.  For every (workload, end-to-end metric) row it
prints each side's median, quartiles and spread (quartile distance over
median), the change of the medians on the scaled clock and as measured
(raw), the bound from ``BENCHMARK.json`` and a verdict:

``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    Not worse by more than the bound, but either A's own spread is
    wider than the bound, so "unchanged" cannot be told apart from
    noise (unless every run of B reads better than every run of A), or
    B's raw median is worse than A's by more than the bound and by more
    than A's raw spread.  The raw check catches what scaling to the
    machine's speed can divide away: a change that takes CPU from the
    speed probe's process (a busy thread, an extra worker) slows the
    probe along with the program.  Raw times of the same code spread by
    10-40% on a shared host, so only a move beyond that counts.  A raw
    move alone can also be the machine running slower for all of B's
    runs; measure again to tell.
``ok``
    Neither.

Traced runs add per-layer rows (medians only; per-layer metrics have
no bound).  Exits 1 when any row regressed or is unresolved, or when a
run of B failed a correctness check, and 2 when the runs were made
with different ``--seconds``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import declared_metrics, quartiles, spread

Series = Dict[Tuple[str, str], List[float]]


def load_runs(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(file.read_text()) for file in files]


def series(runs: Sequence[dict], trace: bool) -> Tuple[Series, Series]:
    """(workload, metric) -> values, and -> raw values, over one kind of run."""
    values: Series = {}
    raw: Series = {}
    for run in runs:
        if run["trace"] != trace:
            continue
        for name, metric in run["metrics"].items():
            key = (run["workload"], name)
            values.setdefault(key, []).append(metric["value"])
            if name in run["raw"]:
                raw.setdefault(key, []).append(run["raw"][name])
    return values, raw


def worsening(parent: Sequence[float], change: Sequence[float],
              better: str) -> float:
    """How much worse the change's median is, as a share of the parent's."""
    pm, cm = statistics.median(parent), statistics.median(change)
    return (cm - pm) / pm * (1.0 if better == "lower" else -1.0)


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str, raw_parent: Optional[Sequence[float]] = None,
            raw_change: Optional[Sequence[float]] = None) -> str:
    """The pair rule, plus the raw check when raw values are given."""
    if worsening(parent, change, better) > bound:
        return "regressed"
    if raw_parent and raw_change and (worsening(raw_parent, raw_change, better)
                                      > max(bound, spread(raw_parent))):
        return "unresolved"
    if spread(parent) > bound:
        if better == "lower" and max(change) < min(parent):
            return "ok"
        if better == "higher" and min(change) > max(parent):
            return "ok"
        return "unresolved"
    return "ok"


def _cell(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] {spread(values):.1%}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two sets of bench/run.py results.")
    parser.add_argument("parent", type=Path, help="results of the parent")
    parser.add_argument("change", type=Path, help="results of the change")
    args = parser.parse_args(argv)
    declared = declared_metrics()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    windows = {run["seconds"] for run in parent_runs + change_runs}
    if len(windows) > 1:
        print(f"error: the runs were made with different --seconds "
              f"({', '.join(map(str, sorted(windows)))}); the window sets "
              f"how many passes a run medians over, so compare runs of one "
              f"window", file=sys.stderr)
        return 2

    failing = 0
    for run in change_runs:
        if not run["correct"]:
            failing += 1
            print(f"INCORRECT: {run['workload']} seed {run['seed']}: "
                  f"{'; '.join(run['problems'][:3])}")

    (parent, parent_raw), (change, change_raw) = (
        series(parent_runs, False), series(change_runs, False))
    print(f"{'workload':<13} {'metric':<12} {'A median [q1, q3] spread':<36} "
          f"{'B median [q1, q3] spread':<36} {'change':>7} {'raw':>7} "
          f"{'bound':>6}  verdict")
    bad = 0
    for workload in sorted({w for w, _ in parent} & {w for w, _ in change}):
        for entry in declared["end_to_end"]:
            key = (workload, entry["name"])
            if key not in parent or key not in change:
                continue
            better = entry["better"]
            raw_parent, raw_change = parent_raw.get(key), change_raw.get(key)
            outcome = verdict(parent[key], change[key], entry["bound"],
                              better, raw_parent, raw_change)
            bad += outcome != "ok"
            raw_cell = (f"{worsening(raw_parent, raw_change, better):+.1%}"
                        if raw_parent and raw_change else "")
            print(f"{workload:<13} {entry['name']:<12} "
                  f"{_cell(parent[key]):<36} {_cell(change[key]):<36} "
                  f"{worsening(parent[key], change[key], better):>+7.1%} "
                  f"{raw_cell:>7} {entry['bound']:>6.0%}  {outcome}")

    (parent, _), (change, _) = series(parent_runs, True), series(change_runs, True)
    shared = sorted(set(parent) & set(change))
    if shared:
        print("\nper-layer medians (no bound):")
    for workload, name in shared:
        pm, cm = statistics.median(parent[(workload, name)]), \
            statistics.median(change[(workload, name)])
        if pm or cm:
            print(f"{workload:<13} {name:<34} {pm:>14.6g} {cm:>14.6g}")
    return 1 if bad or failing else 0


if __name__ == "__main__":
    sys.exit(main())
