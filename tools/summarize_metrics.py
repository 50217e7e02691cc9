"""Render a run-metrics or trace-log file as human-readable tables.

Accepts either telemetry artefact the CLI can produce:

* a ``--metrics-out`` JSON document (schema ``repro-run-metrics/2``) —
  prints the phase breakdown, unit counters, worker utilisation, and any
  degradation events the run survived;
* a ``--trace-log`` JSONL file (schema ``repro-trace-log/1``) — aggregates
  its spans into the same phase table plus per-event counts, with
  degradation events broken out into their own table;
* an ingested external trace (schema ``repro-ext-trace/1``) — prints the
  ingestion provenance: producer, event/site/target counts, and the
  hottest call sites with their polymorphism degree.

Usage::

    python tools/summarize_metrics.py runs/metrics.json
    python tools/summarize_metrics.py runs/trace.jsonl
    python tools/summarize_metrics.py traces/pyrun.ndjson
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ingest import EXT_TRACE_SCHEMA, read_ext_trace  # noqa: E402
from repro.runtime.chaos import DEGRADATION_EVENTS  # noqa: E402
from repro.runtime.telemetry import TRACE_LOG_SCHEMA, read_trace_log  # noqa: E402
from repro.runtime.verify import embedded_schema  # noqa: E402
from repro.sim.reporting import format_table  # noqa: E402


def phase_table(phases: "dict", title: str) -> str:
    """``{phase: {seconds, count}}`` as a table with a share column."""
    total = sum(stats["seconds"] for stats in phases.values()) or 1.0
    rows = [
        [name, round(stats["seconds"], 4), stats["count"],
         f"{100.0 * stats['seconds'] / total:.1f}%"]
        for name, stats in sorted(
            phases.items(), key=lambda kv: -kv[1]["seconds"])
    ]
    return format_table(["phase", "seconds", "count", "share"], rows,
                        title=title)


def summarize_metrics(data: dict) -> str:
    schema = data.get("schema", "<missing>")
    blocks = [phase_table(data.get("phases", {}),
                          f"phase breakdown ({schema})")]
    units = data.get("units", {})
    rows = [[key, units.get(key, 0)]
            for key in ("total", "completed", "from_checkpoint",
                        "requeued", "poisoned")]
    rows.append(["worker_crashes", data.get("worker_crashes", 0)])
    rows.append(["wall_time_s", data.get("wall_time_s", 0.0)])
    rows.append(["workers", data.get("workers", 0)])
    blocks.append(format_table(["units", "count"], rows, title="run"))
    utilization = data.get("worker_utilization", {})
    if utilization:
        blocks.append(format_table(
            ["worker", "busy fraction"],
            [[worker, busy] for worker, busy in sorted(utilization.items())],
            title="worker utilisation"))
    loads = data.get("trace_loads", {})
    if loads:
        blocks.append(format_table(
            ["trace source", "loads"],
            [[source, count] for source, count in sorted(loads.items())],
            title="trace loads"))
    counters = data.get("counters", {})
    if counters:
        degraded = {name: count for name, count in counters.items()
                    if name in DEGRADATION_EVENTS}
        ordinary = {name: count for name, count in counters.items()
                    if name not in DEGRADATION_EVENTS}
        if ordinary:
            blocks.append(format_table(
                ["counter", "count"],
                [[name, count] for name, count in sorted(ordinary.items())],
                title="tracer counters (spans + events)"))
        if degraded:
            blocks.append(format_table(
                ["degradation counter", "count"],
                [[name, count] for name, count in sorted(degraded.items())],
                title="degradation counters"))
    degradations = data.get("degradations", {})
    if degradations:
        blocks.append(format_table(
            ["degradation", "count"],
            [[name, count] for name, count in sorted(degradations.items())],
            title="degradations survived (results still exact)"))
    return "\n\n".join(blocks)


def summarize_ext_trace(path: Path) -> str:
    """Ingestion provenance of a ``repro-ext-trace/1`` file."""
    parsed = read_ext_trace(path)
    rows = [
        ["name", parsed.name],
        ["producer", f"{parsed.producer}/{parsed.producer_version}"],
        ["events", len(parsed.events)],
        ["sites", len(parsed.sites)],
        ["targets", len(parsed.targets)],
    ]
    for key, value in sorted(parsed.meta.items()):
        rows.append([f"meta.{key}", value])
    blocks = [format_table(["field", "value"], rows,
                           title=f"ingestion provenance ({EXT_TRACE_SCHEMA})")]
    executions: "dict" = {}
    fanout: "dict" = {}
    for site, target in parsed.events:
        executions[site] = executions.get(site, 0) + 1
        fanout.setdefault(site, set()).add(target)
    hottest = sorted(executions, key=lambda s: (-executions[s], s))[:10]
    blocks.append(format_table(
        ["site", "executions", "targets", "share"],
        [[parsed.site_label(site), executions[site], len(fanout[site]),
          f"{100.0 * executions[site] / len(parsed.events):.1f}%"]
         for site in hottest],
        title=f"hottest call sites (top {len(hottest)})"))
    return "\n\n".join(blocks)


def summarize_trace_log(records: "list") -> str:
    phases: "dict" = {}
    events: "dict" = {}
    for record in records:
        if record.get("kind") == "span":
            stats = phases.setdefault(record["name"],
                                      {"seconds": 0.0, "count": 0})
            stats["seconds"] += record.get("dur_s", 0.0)
            stats["count"] += 1
        elif record.get("kind") == "event":
            events[record["name"]] = events.get(record["name"], 0) + 1
    degradations = {name: count for name, count in events.items()
                    if name in DEGRADATION_EVENTS}
    ordinary = {name: count for name, count in events.items()
                if name not in DEGRADATION_EVENTS}
    blocks = [phase_table(phases, f"span breakdown ({TRACE_LOG_SCHEMA})")]
    if ordinary:
        blocks.append(format_table(
            ["event", "count"],
            [[name, count] for name, count in sorted(ordinary.items())],
            title="events"))
    if degradations:
        blocks.append(format_table(
            ["degradation", "count"],
            [[name, count] for name, count in sorted(degradations.items())],
            title="degradation events"))
    return "\n\n".join(blocks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Summarize a --metrics-out or --trace-log file.")
    parser.add_argument("file", help="metrics JSON or trace-log JSONL path")
    args = parser.parse_args(argv)

    path = Path(args.file)
    schema = embedded_schema(path)
    if schema == TRACE_LOG_SCHEMA:
        print(summarize_trace_log(read_trace_log(path)))
        return 0
    if schema == EXT_TRACE_SCHEMA:
        print(summarize_ext_trace(path))
        return 0
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError:
        print(f"error: {path} is neither a metrics JSON document nor a "
              f"trace log", file=sys.stderr)
        return 1
    print(summarize_metrics(data))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. `summarize_metrics.py run.json | head`
        sys.exit(0)
