"""The paper-reproduction workloads: ``reproduce`` and ``sweep-long``.

Both drive the real command line in child processes (through
``bench/launch.py``, which adds the speed probe) and check every
rendering against the sha256 digests in ``bench/reference/``.

``reproduce``
    ``repro experiments`` with default flags: all experiments on the
    quick grids, serial, one process, at ``REPRO_TRACE_SCALE`` =
    :data:`REPRODUCE_SCALE`.  Thousands of short simulations, so
    per-config set-up (predictor construction) and the per-event engine
    dominate; fig11 and appendix cover the fully-associative tables.
``sweep-long``
    Six ``repro simulate`` calls, one per table class, at ``--scale``
    :data:`SWEEP_SCALE` on the 2-worker pool, sharing one fresh
    checkpoint directory.  Few configs and long traces: the worker pool,
    the on-disk trace cache and the result journal are on the path.

Neither depends on ``--seed``: their inputs are the suite's fixed
models.  A run repeats whole passes while another pass fits in the
measuring window, at least one; ``wall_s`` is the median pass.  Times
are scaled to the reference machine's undisturbed speed (:mod:`pace`).
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (Result, child_env, latency_metrics, launch_cmd,
                    run_measured)
from pace import Speed, read_logs
from spans import on_clock, read_jsonl, self_time_by_name

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REPRODUCE_SCALE = "0.01"
SWEEP_SCALE = "4"
SWEEP_WORKERS = "2"

#: One spec per table class (the paper's section 4 resource classes).
SWEEP_SPECS = {
    "btb": "btb:update=2bc",
    "unconstrained": "twolevel:p=6",
    "fullassoc": "twolevel:p=3,entries=1024,assoc=full",
    "setassoc": "twolevel:p=3,entries=1024,assoc=4",
    "tagless": "twolevel:p=3,entries=1024,assoc=tagless",
    "hybrid": "hybrid:p1=3,p2=1,entries=1024,assoc=4",
}

TABLE_CLASSES = tuple(SWEEP_SPECS)

#: Per-layer metric prefixes these workloads measure.
LAYERS = ("sim", "core", "experiments", "cli", "workloads", "runtime",
          "sweep", "trace")

#: Cold starts of the CLI timed for ``setup_s``.
SETUP_REPEATS = 5

#: Metrics-record phases reported as ``runtime.<phase>_s``.
RUNTIME_PHASES = ("trace_gen", "trace_load", "cache_store", "journal",
                  "simulate")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference(workload: str) -> Dict[str, str]:
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def check_renderings(renderings: Dict[str, bytes],
                     reference: Dict[str, str]) -> List[str]:
    """Names whose rendering is missing, unexpected, or differs."""
    bad = [name for name, expected in sorted(reference["digests"].items())
           if name not in renderings or digest(renderings[name]) != expected]
    bad += sorted(set(renderings) - set(reference["digests"]))
    return bad


class Pass:
    """One complete execution of an offline workload's job.

    Each child process (a *call*) writes its probe samples to its own
    directory; its wall time and its simulation units are scaled with
    the speed those samples give.
    """

    def __init__(self) -> None:
        self.raw_wall = 0.0
        self.wall = 0.0
        self.maxrss_mb = 0.0
        self.renderings: Dict[str, bytes] = {}
        self.records: Dict[str, dict] = {}
        #: scaled wall of each call
        self.call_walls: Dict[str, float] = {}
        #: scaled seconds of each simulation unit, per call
        self.units: Dict[str, List[float]] = {}
        #: the same, as measured
        self.raw_units: Dict[str, List[float]] = {}
        self.speeds: Dict[str, Speed] = {}
        self.span_files: Dict[str, Path] = {}
        self.errors: List[str] = []

    def add(self, name: str, finished, probes: Path) -> None:
        self.raw_wall += finished.wall
        self.maxrss_mb = max(self.maxrss_mb, finished.maxrss_mb)
        if finished.returncode != 0:
            self.errors.append(f"{name}: exit {finished.returncode}: "
                               f"{finished.stderr.strip()[-400:]}")
            self.call_walls[name] = finished.wall
        else:
            samples, units = read_logs(probes)
            speed = self.speeds[name] = Speed(samples)
            self.call_walls[name] = speed.scaled(finished.started,
                                                 finished.ended)
            self.units[name] = speed.scaled_all(units)
            self.raw_units[name] = [end - start for start, end in units]
        self.wall += self.call_walls[name]

    def unit_seconds(self, raw: bool = False) -> List[float]:
        units = self.raw_units if raw else self.units
        return [seconds for calls in units.values() for seconds in calls]


def _call(result: Pass, work: Path, name: str, args: Sequence[str],
          env: Dict[str, str], traced: bool):
    """Run one child of a pass and add it to ``result``."""
    probes = work / f"probes-{name}"
    spans = work / f"spans-{name}.jsonl" if traced else None
    finished = run_measured(launch_cmd(args, probes, hooks=True, spans=spans),
                            env, work, name)
    result.add(name, finished, probes)
    if traced:
        result.span_files[name] = spans
    return finished


def reproduce_pass(work: Path, traced: bool, extra: Sequence[str] = ()) -> Pass:
    shutil.rmtree(work, ignore_errors=True)
    out, metrics = work / "renderings", work / "metrics.json"
    result = Pass()
    args = ["experiments", "--out", str(out), "--metrics-out", str(metrics),
            *extra]
    finished = _call(result, work, "experiments", args,
                     child_env(REPRO_TRACE_SCALE=REPRODUCE_SCALE), traced)
    if finished.returncode == 0:
        result.renderings = {path.stem: path.read_bytes()
                             for path in sorted(out.glob("*.txt"))}
        result.records["experiments"] = json.loads(metrics.read_text())
    return result


def sweep_pass(work: Path, traced: bool, extra: Sequence[str] = ()) -> Pass:
    shutil.rmtree(work, ignore_errors=True)
    result = Pass()
    env = child_env()
    for table_class, spec in SWEEP_SPECS.items():
        metrics = work / f"metrics-{table_class}.json"
        args = ["simulate", spec, "--scale", SWEEP_SCALE,
                "--workers", SWEEP_WORKERS,
                "--checkpoint-dir", str(work / "run"),
                "--metrics-out", str(metrics), *extra]
        finished = _call(result, work, table_class, args, env, traced)
        if finished.returncode == 0:
            result.renderings[spec] = finished.stdout.encode()
            result.records[table_class] = json.loads(metrics.read_text())
    return result


PASSES = {"reproduce": reproduce_pass, "sweep-long": sweep_pass}


def cli_setup_seconds(work: Path, workload: str) -> List[Tuple[float, float]]:
    """Cold starts of the CLI (interpreter, package import, parser),
    scaled and as measured."""
    subcommand = "experiments" if workload == "reproduce" else "simulate"
    times = []
    for repeat in range(SETUP_REPEATS):
        probes = work / f"probes-setup-{repeat}"
        finished = run_measured(launch_cmd([subcommand, "--help"], probes),
                                child_env(), work, f"setup-{repeat}")
        if finished.returncode != 0:
            raise SystemExit(f"error: CLI start failed: {finished.stderr}")
        times.append((Speed.load(probes).scaled(finished.started,
                                                finished.ended),
                      finished.wall))
    return times


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Result:
    result = Result(workload, seed, trace, seconds)
    setup = cli_setup_seconds(work, workload)
    reference = load_reference(workload)
    run_pass = PASSES[workload]
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(work / f"pass-{len(passes)}", traced=False))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    traced: Optional[Pass] = None
    if trace:
        traced = run_pass(work / "traced", traced=True)
    for done in passes + ([traced] if traced else []):
        result.attempted += len(reference["digests"])
        bad = check_renderings(done.renderings, reference)
        result.failed += len(bad)
        for error in done.errors:
            result.fail(error)
        for name in bad:
            result.fail(f"{name}: rendering does not match "
                        f"bench/reference/{workload}.json")
    if not result.correct:
        return result
    chosen = sorted(passes, key=lambda p: p.wall)[(len(passes) - 1) // 2]
    latency = latency_metrics(chosen.unit_seconds())
    raw_latency = latency_metrics(chosen.unit_seconds(raw=True))
    result.metrics.update(
        setup_s=statistics.median(s for s, _ in setup),
        wall_s=statistics.median(p.wall for p in passes),
        p50_ms=latency["p50_ms"],
        tail_ms=latency["tail_ms"],
        peak_rss_mb=max(p.maxrss_mb for p in passes),
    )
    result.raw.update(
        setup_s=statistics.median(raw for _, raw in setup),
        wall_s=statistics.median(p.raw_wall for p in passes),
        p50_ms=raw_latency["p50_ms"],
        tail_ms=raw_latency["tail_ms"],
    )
    result.details.update(
        passes=len(passes), pass_walls=[p.wall for p in passes],
        raw_pass_walls=[p.raw_wall for p in passes],
        setup_walls=setup, latency=latency,
        tail={"percentile": latency["tail_percentile"],
              "samples": latency["samples"]},
        call_walls=chosen.call_walls,
    )
    if traced is not None:
        result.metrics.update(layer_metrics(workload, chosen, traced))
    return result


# -- per-layer --------------------------------------------------------------


def _layer(name: str) -> str:
    """Group span names into the reported layers."""
    if name.startswith("experiments."):
        return "experiments.self"
    return name


def layer_metrics(workload: str, untraced: Pass, traced: Pass) -> Dict[str, float]:
    """Self times from the traced pass; phases from the untraced records."""
    selves: Dict[str, float] = {}
    walls: Dict[str, float] = {}
    event_seconds, events, calls, batch_events, generated = 0.0, 0, 0, 0, 0
    for name, path in traced.span_files.items():
        spans = on_clock(read_jsonl(path), traced.speeds[name].clock)
        for layer, seconds in self_time_by_name(spans, _layer).items():
            selves[layer] = selves.get(layer, 0.0) + seconds
        for span in spans:
            label, duration = span["name"], span["end"] - span["start"]
            walls[label] = walls.get(label, 0.0) + duration
            if label.startswith("sim."):
                calls += 1
                events += span["events"]
                if span["kernel"] == "batch":
                    batch_events += span["events"]
                else:
                    event_seconds += duration
            elif label == "workloads.generate":
                generated += span["events"]
    coverage = sum(selves.values()) / traced.wall
    if workload == "sweep-long":
        # The pool simulates in worker processes, out of the spans'
        # sight: take each call's units from its probe log instead.
        for table_class, record in untraced.records.items():
            seconds = sum(untraced.units[table_class])
            selves[f"sim.{table_class}"] = seconds
            event_seconds += seconds
            events += sweep_unit_events(record)
            calls += len(record["per_unit"])
    event_events = events - batch_events
    metrics = {
        "sim.event_s": event_seconds,
        "sim.event_ns_per_event": (event_seconds / event_events * 1e9
                                   if event_events else 0.0),
        "sim.calls": calls,
        "sim.events": events,
        "sim.batch_event_share": batch_events / events if events else 0.0,
        "core.build_s": selves.get("core.build", 0.0),
        "core.run_trace_s": selves.get("core.run_trace", 0.0),
        "workloads.generate_s": walls.get("workloads.generate", 0.0),
        "workloads.generate_events": generated,
        "experiments.self_s": selves.get("experiments.self", 0.0),
        "cli.self_s": selves.get("cli", 0.0),
        "runtime.pool_s": selves.get("runtime.pool", 0.0),
        "trace.overhead_frac": (traced.wall - untraced.wall) / untraced.wall,
        "trace.coverage_frac": coverage,
    }
    for table_class in TABLE_CLASSES:
        metrics[f"sim.{table_class}_s"] = selves.get(f"sim.{table_class}", 0.0)
        metrics[f"sweep.{table_class}_s"] = untraced.call_walls.get(
            table_class, 0.0) if workload == "sweep-long" else 0.0
    from repro.experiments import experiment_ids

    for experiment_id in experiment_ids():
        metrics[f"experiments.{experiment_id}_s"] = walls.get(
            f"experiments.{experiment_id}", 0.0)
    phases: Dict[str, float] = {}
    units: List[float] = []
    busy: List[float] = []
    for record in untraced.records.values():
        for phase, stats in record["phases"].items():
            phases[phase] = phases.get(phase, 0.0) + stats["seconds"]
        units.append(record["unit_wall_time_s"]["max"])
        busy.extend(record["worker_utilization"].values())
    for phase in RUNTIME_PHASES:
        metrics[f"runtime.{phase}_s"] = phases.get(phase, 0.0)
    metrics["runtime.unit_max_s"] = max(units, default=0.0)
    metrics["runtime.worker_utilization"] = (statistics.mean(busy)
                                             if busy else 0.0)
    return metrics


def sweep_unit_events(record: dict) -> int:
    from repro.workloads.suite import workload_config

    return sum(workload_config(unit["benchmark"], float(SWEEP_SCALE)).events
               for unit in record["per_unit"])
