"""Deterministic load generator for the prediction service.

``repro loadgen`` drives a running server with the repo's own synthetic
workload model: each tenant is a :class:`~repro.workloads.program.
WorkloadConfig` stream (seeded per tenant, so every run offers the
server the same event streams), cut into fixed-size batches with
strictly increasing batch ids.  Tenants are spread across worker
threads so several shards see concurrent load — which is what makes the
back-pressure and shedding ladders actually fire.

Outcome accounting is exhaustive: every batch ends ``ok`` (applied or
deduplicated), ``shed`` (with the server's reason), or ``failed`` (the
client's retry budget died trying — transport-level, counted but never
silently dropped; the first such batch stops every worker, and the
batches not yet sent count as failed too).  The client-side cumulative
counters are cross-checked against the server's replies, so a lost or
double-applied batch shows up as an inconsistency in the summary.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import suppress
from pathlib import Path
from typing import Dict, List, Optional

from ..runtime.metrics import LogHistogram
from ..workloads.program import WorkloadConfig, generate_trace
from ..workloads.trace import Trace, TraceMetadata
from .client import ServiceClient

#: JSON schema identifier of the loadgen summary.
LOADGEN_SCHEMA = "repro-service-loadgen/1"


def tenant_name(index: int) -> str:
    return f"t{index:02d}"


def tenant_stream(index: int, events: int, seed: int = 1,
                  ingest: Optional[str] = None):
    """The deterministic event stream of one tenant.

    Synthetic by default (seeded per tenant).  With ``ingest`` — a
    ``repro-ext-trace/1`` file — every tenant replays a slice of the
    *real* normalized event stream instead: tenant ``i`` starts at a
    deterministic stagger offset and wraps around, so tenants exercise
    different phases of the same program run while the whole setup stays
    bit-reproducible (the replay oracle and ``repro verify --against``
    need no changes).
    """
    if ingest is None:
        config = WorkloadConfig(name=tenant_name(index), events=events,
                                seed=1000 * seed + index)
        return generate_trace(config)
    trace = ingest if isinstance(ingest, Trace) else load_ingest_stream(ingest)
    start = (index * 9973 + seed * 131) % len(trace)
    pcs, targets = [], []
    for position in range(events):
        cursor = (start + position) % len(trace)
        pcs.append(trace.pcs[cursor])
        targets.append(trace.targets[cursor])
    return Trace(pcs, targets, TraceMetadata(name=tenant_name(index)))


def load_ingest_stream(path: str) -> Trace:
    """Normalize a ``repro-ext-trace/1`` file into a replayable stream."""
    from ..ingest import ExternalTraceSource, load_external_trace

    trace, _ = load_external_trace(ExternalTraceSource.open(path))
    if len(trace) == 0:
        raise ValueError(f"{path}: ingested trace has no events")
    return trace


class _Totals:
    """Thread-shared outcome accounting."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.sent = 0
        self.ok = 0
        self.applied = 0
        self.duplicates = 0
        self.shed = 0
        self.failed = 0
        self.events_applied = 0
        self.events_shed = 0
        self.backpressure_hints = 0
        self.inconsistencies: List[str] = []
        self.sheds_by_reason: Dict[str, int] = {}
        # Bounded sketch, not a per-batch float list: a long soak stays
        # O(buckets) and the summary keys are unchanged (5% error bound).
        self.latency_hist = LogHistogram()
        #: set once a batch exhausted its retries: every worker stops.
        self.abort = threading.Event()


def _drive_tenant(
    client: ServiceClient,
    totals: _Totals,
    index: int,
    batches: int,
    batch_events: int,
    seed: int,
    throttle: float,
    ingest: Optional[Trace] = None,
) -> None:
    tenant = tenant_name(index)
    trace = tenant_stream(index, batches * batch_events, seed=seed,
                          ingest=ingest)
    priority = index % 3
    expected_events = 0
    last_counters: Optional[dict] = None
    for batch_index in range(batches):
        if totals.abort.is_set():
            return
        start = batch_index * batch_events
        pcs = list(trace.pcs[start:start + batch_events])
        targets = list(trace.targets[start:start + batch_events])
        began = time.perf_counter()
        try:
            reply = client.send_events(tenant, bid=batch_index + 1,
                                       pcs=pcs, targets=targets,
                                       priority=priority)
        except Exception as exc:
            totals.abort.set()
            with totals.lock:
                totals.sent += 1
                totals.failed += 1
                totals.inconsistencies.append(
                    f"{tenant}#{batch_index + 1}: {type(exc).__name__}: "
                    f"{exc}")
            return
        elapsed = time.perf_counter() - began
        with totals.lock:
            totals.sent += 1
            totals.latency_hist.observe(elapsed)
            if reply.get("status") == "ok":
                totals.ok += 1
                if reply.get("applied"):
                    totals.applied += 1
                    totals.events_applied += len(pcs)
                    expected_events += len(pcs)
                else:
                    totals.duplicates += 1
                    expected_events += len(pcs)  # applied before the retry
                last_counters = reply
                if reply.get("events") != expected_events:
                    totals.inconsistencies.append(
                        f"{tenant}#{batch_index + 1}: server counts "
                        f"{reply.get('events')} events, client expects "
                        f"{expected_events}")
                if reply.get("backpressure"):
                    totals.backpressure_hints += 1
            else:
                reason = reply.get("reason", "unknown")
                totals.shed += 1
                totals.events_shed += len(pcs)
                totals.sheds_by_reason[reason] = (
                    totals.sheds_by_reason.get(reason, 0) + 1)
        if reply.get("backpressure") or reply.get("status") == "shed":
            # Well-behaved tenant: ease off when the server asks.
            time.sleep(throttle)
    if last_counters is not None and last_counters.get("digest") is None:
        with totals.lock:  # pragma: no cover - contract violation
            totals.inconsistencies.append(f"{tenant}: reply carries no digest")


def run_loadgen(
    host: str,
    port: int,
    tenants: int = 6,
    batches: int = 12,
    batch_events: int = 64,
    seed: int = 1,
    concurrency: int = 3,
    deadline: float = 5.0,
    max_attempts: int = 5,
    backoff: float = 0.05,
    breaker_threshold: int = 4,
    breaker_cooldown: float = 1.0,
    throttle: float = 0.02,
    shutdown: bool = False,
    out: Optional[str] = None,
    ingest: Optional[str] = None,
) -> dict:
    """Drive a server with deterministic tenant streams; return the summary.

    With ``shutdown=True`` the server is asked to drain and finalise its
    artifacts after the run (what the soak and CI harnesses use).  With
    ``ingest`` — a ``repro-ext-trace/1`` path — tenants replay staggered
    slices of the ingested real event stream instead of the synthetic
    models; the exactly-once/replay-oracle contract is unchanged.
    """
    ingest_stream = load_ingest_stream(ingest) if ingest else None
    totals = _Totals()
    concurrency = max(1, min(concurrency, tenants))
    started = time.perf_counter()

    def make_client() -> ServiceClient:
        return ServiceClient(
            host, port, deadline=deadline, max_attempts=max_attempts,
            backoff=backoff, breaker_threshold=breaker_threshold,
            breaker_cooldown=breaker_cooldown)

    clients: List[ServiceClient] = []

    def worker(worker_index: int) -> None:
        client = make_client()
        clients.append(client)
        with client:
            for index in range(worker_index, tenants, concurrency):
                _drive_tenant(client, totals, index, batches, batch_events,
                              seed, throttle, ingest=ingest_stream)

    threads = [threading.Thread(target=worker, args=(i,),
                                name=f"loadgen-{i}")
               for i in range(concurrency)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    server_stats: Optional[dict] = None
    if totals.abort.is_set():  # the server is gone: ask it nothing more
        unsent = tenants * batches - totals.sent
        totals.failed += unsent
        totals.inconsistencies.append(
            f"server unreachable: {unsent} batch(es) not sent")
    else:
        with make_client() as final_client:
            with suppress(Exception):
                server_stats = final_client.stats()
            if shutdown:
                with suppress(Exception):  # the server may have died first
                    final_client.shutdown()

    summary = {
        "schema": LOADGEN_SCHEMA,
        "tenants": tenants,
        "batches_per_tenant": batches,
        "batch_events": batch_events,
        "concurrency": concurrency,
        "sent": totals.sent,
        "ok": totals.ok,
        "applied": totals.applied,
        "duplicates": totals.duplicates,
        "shed": totals.shed,
        "failed": totals.failed,
        "sheds_by_reason": dict(sorted(totals.sheds_by_reason.items())),
        "backpressure_hints": totals.backpressure_hints,
        "events_applied": totals.events_applied,
        "events_shed": totals.events_shed,
        "retries": sum(c.retries for c in clients),
        "breaker_opens": sum(c.breaker.opens for c in clients),
        "breaker_waits": sum(c.breaker_waits for c in clients),
        "latency": totals.latency_hist.summary(),
        "wall_s": round(wall, 3),
        "events_per_sec": round(totals.events_applied / wall, 1)
        if wall > 0 else 0.0,
        "inconsistencies": totals.inconsistencies,
        "server_stats": server_stats,
    }
    if ingest_stream is not None:
        from ..ingest import trace_ingest_info

        summary["ingest"] = {
            "file": str(ingest),
            "stream_events": len(ingest_stream),
            "provenance": trace_ingest_info(ingest_stream),
        }
    if out:
        target = Path(out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(summary, indent=2, sort_keys=True)
                          + "\n")
    return summary
