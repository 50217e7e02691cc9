"""Operator consoles for a live server: ``repro stats`` and ``repro top``.

Both surfaces speak the ordinary ``stats`` admin frame — no privileged
side channel — so anything they display is also available to any client
and is the same merged ``repro-metrics-snapshot/1`` the server streams
into ``metrics-stream.jsonl``.

* :func:`run_stats` — one-shot: fetch, render as aligned tables (or dump
  the raw merged snapshot as JSON, which ``repro verify FILE``
  validates).
* :func:`run_top` — a small ANSI dashboard redrawn every ``interval``
  seconds: per-shard event rates (derived from counter deltas between
  polls), queue depths, batch p50/p99, sheds, tenant residency, and
  degradations.  ``iterations`` bounds the loop (CI runs ``--iterations
  3 --plain``); ``plain`` suppresses the ANSI clear for dumb terminals
  and transcripts.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, TextIO

from ..runtime.metrics import LogHistogram, validate_snapshot
from ..sim.reporting import format_table
from .client import ServiceClient

#: ANSI clear-screen + cursor-home, the whole ``repro top`` redraw.
_CLEAR = "\x1b[2J\x1b[H"


def resolve_endpoint(endpoint: Optional[str], host: str,
                     port: Optional[int]) -> tuple:
    """Resolve ``(host, port)`` from ``endpoint.json`` or explicit flags."""
    if endpoint:
        info = json.loads(Path(endpoint).read_text(encoding="utf-8"))
        return info["host"], info["port"]
    if port is None:
        raise ValueError("need --port or --endpoint")
    return host, port


def fetch_stats(host: str, port: int, deadline: float = 10.0) -> dict:
    """One ``stats`` round-trip; validates the merged snapshot en route."""
    with ServiceClient(host, port, deadline=deadline, max_attempts=2) as client:
        stats = client.stats()
    snapshot = stats.get("snapshot")
    if snapshot is not None:
        validate_snapshot(snapshot)
    return stats


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f}"


def _hist_quantiles(snapshot: dict, name: str) -> tuple:
    """(p50_ms, p99_ms, count) of one histogram in a snapshot, or dashes."""
    data = snapshot.get("histograms", {}).get(name)
    if not data or not data.get("count"):
        return "-", "-", 0
    hist = LogHistogram.from_dict(data)
    return (_ms(hist.quantile(0.5)), _ms(hist.quantile(0.99)), hist.count)


def shard_rows(stats: dict, rates: Optional[Dict[int, float]] = None,
               respawned: Optional[set] = None) -> list:
    """Per-shard table rows from a stats response (rates are optional).

    ``respawned`` names shards whose counters went backwards since the
    last poll (a respawn reset them); they render state ``respawned``
    for that one interval instead of a garbage negative rate.
    """
    rows = []
    for payload in stats.get("shards", []):
        shard_id = payload.get("shard")
        if not payload.get("available"):
            rows.append([shard_id, "down"] + ["-"] * 8)
            continue
        snapshot = payload.get("metrics", {})
        p50, p99, _ = _hist_quantiles(snapshot, "shard.batch_seconds")
        rate = "-"
        if rates is not None and shard_id in rates:
            rate = f"{rates[shard_id]:,.0f}"
        state = "up"
        if respawned is not None and shard_id in respawned:
            state = "respawned"
        rows.append([
            shard_id, state, payload.get("queue_depth", 0),
            payload.get("batches", 0), rate,
            f"{payload.get('resident', 0)}/{payload.get('tenants', 0)}",
            payload.get("evictions", 0), payload.get("reload_replays", 0),
            p50, p99,
        ])
    return rows


_SHARD_HEADERS = ["shard", "state", "queue", "batches", "ev/s",
                  "res/ten", "evict", "replays", "p50 ms", "p99 ms"]


def render_stats(stats: dict) -> str:
    """The full ``repro stats`` table view of one stats response."""
    lines: List[str] = []
    counters = stats.get("counters", {})
    latency = stats.get("latency", {})
    depth = stats.get("queue_depth", {})
    overview = [
        ["accepted", counters.get("accepted", 0)],
        ["answered", counters.get("answered", 0)],
        ["events applied", counters.get("events_applied", 0)],
        ["duplicates", counters.get("duplicates", 0)],
        ["shed", counters.get("shed", 0)],
        ["respawns", stats.get("respawns", 0)],
        ["latency p50 ms", _ms(latency.get("p50_s", 0.0))],
        ["latency p99 ms", _ms(latency.get("p99_s", 0.0))],
        ["queue depth max", depth.get("max", 0)],
    ]
    lines.append(format_table(["metric", "value"], overview,
                              title="server"))
    lines.append("")
    lines.append(format_table(_SHARD_HEADERS, shard_rows(stats),
                              title="shards"))
    sheds = stats.get("sheds_by_reason", {})
    if sheds:
        lines.append("")
        lines.append(format_table(
            ["reason", "count"], sorted(sheds.items()), title="sheds"))
    degradations = stats.get("degradations", {})
    if degradations:
        lines.append("")
        lines.append(format_table(
            ["degradation", "count"], sorted(degradations.items()),
            title="degradations survived"))
    return "\n".join(lines)


def run_stats(host: str, port: int, as_json: bool = False,
              out: Optional[str] = None,
              stream: Optional[TextIO] = None) -> int:
    """``repro stats``: one shot, table or raw-snapshot JSON."""
    # Resolve at call time, not def time, so pytest's capsys (and any
    # other stdout swap) sees the output.
    stream = sys.stdout if stream is None else stream
    stats = fetch_stats(host, port)
    snapshot = stats.get("snapshot")
    if snapshot is None:
        print("error: server returned no metrics snapshot",
              file=sys.stderr)
        return 4
    if out:
        with open(out, "w", encoding="utf-8") as sink:
            json.dump(snapshot, sink, indent=2, sort_keys=True)
            sink.write("\n")
    if as_json:
        json.dump(snapshot, stream, indent=2, sort_keys=True)
        stream.write("\n")
    else:
        print(render_stats(stats), file=stream)
    return 0


def _shard_event_counts(stats: dict) -> Dict[int, int]:
    counts = {}
    for payload in stats.get("shards", []):
        if payload.get("available"):
            snapshot = payload.get("metrics", {})
            counts[payload["shard"]] = snapshot.get(
                "counters", {}).get("shard.events", 0)
    return counts


def run_top(host: str, port: int, interval: float = 1.0,
            iterations: Optional[int] = None, plain: bool = False,
            stream: Optional[TextIO] = None,
            clock=time.monotonic, sleep=time.sleep) -> int:
    """``repro top``: redraw a live dashboard until ^C (or ``iterations``).

    Event rates come from ``shard.events`` counter deltas between
    successive polls; the first frame shows dashes.  A shard respawn
    resets its ``shard.*`` counters, making the raw delta negative —
    those rates are clamped to 0 and the shard shows state
    ``respawned`` for that one interval rather than a garbage rate.  A
    poll that fails (server shutting down, transport fault) ends the
    loop with exit 1 — a dashboard has nothing to show on a dead
    server.
    """
    stream = sys.stdout if stream is None else stream
    previous_counts: Dict[int, int] = {}
    previous_t: Optional[float] = None
    frame = 0
    while iterations is None or frame < iterations:
        frame += 1
        try:
            stats = fetch_stats(host, port)
        except Exception as exc:
            print(f"repro top: server unreachable: {exc}", file=sys.stderr)
            return 1
        now = clock()
        counts = _shard_event_counts(stats)
        rates: Dict[int, float] = {}
        respawned: set = set()
        if previous_t is not None:
            dt = max(now - previous_t, 1e-9)
            for shard_id, count in counts.items():
                before = previous_counts.get(shard_id)
                if before is None:
                    continue
                if count < before:
                    # Respawn reset the counters: the delta is
                    # meaningless, not negative throughput.
                    rates[shard_id] = 0.0
                    respawned.add(shard_id)
                else:
                    rates[shard_id] = (count - before) / dt
        previous_counts, previous_t = counts, now
        if not plain:
            stream.write(_CLEAR)
        counters = stats.get("counters", {})
        latency = stats.get("latency", {})
        stream.write(
            f"repro top — {host}:{port} — frame {frame} — "
            f"accepted {counters.get('accepted', 0):,} / answered "
            f"{counters.get('answered', 0):,} / shed "
            f"{counters.get('shed', 0):,} — p50 "
            f"{_ms(latency.get('p50_s', 0.0))} ms, p99 "
            f"{_ms(latency.get('p99_s', 0.0))} ms\n")
        stream.write(format_table(_SHARD_HEADERS,
                                  shard_rows(stats, rates, respawned))
                     + "\n")
        sheds = stats.get("sheds_by_reason", {})
        if sheds:
            rendered = ", ".join(f"{reason} x{count}"
                                 for reason, count in sorted(sheds.items()))
            stream.write(f"sheds: {rendered}\n")
        degradations = stats.get("degradations", {})
        if degradations:
            rendered = ", ".join(f"{name} x{count}" for name, count
                                 in sorted(degradations.items()))
            stream.write(f"degraded: {rendered}\n")
        stream.flush()
        if iterations is not None and frame >= iterations:
            break
        try:
            sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            break
    return 0
