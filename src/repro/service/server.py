"""The asyncio prediction server: admission, sharding, and recovery.

:class:`PredictionServer` accepts length-prefixed JSON frames
(:mod:`repro.service.protocol`), routes each ``events`` batch to the
shard owning its tenant (CRC-32 routing), and pushes it through that
shard's :class:`~repro.runtime.scheduler.Scheduler` — the same
pending/in-flight/poisoned bookkeeping the batch pool uses, fed here by
streaming arrivals.

**Back-pressure and shedding.**  Each shard has a bounded logical queue
(pending + in flight).  Below ``queue_soft`` everything is admitted; from
``queue_soft`` priority-0 batches are shed (``backpressure``) and
admitted batches carry ``"backpressure": true`` so well-behaved clients
slow down; at ``queue_hard`` everything is shed (``overload``).  A shard
whose respawn budget is spent sheds as ``shard_unavailable``; a batch
that exhausts its attempts is shed as ``poisoned``.  Every shed — there
is no silent drop path — is journalled to ``sheds.jsonl`` (schema
``repro-service-sheds/1``) and answered explicitly, which is one half of
the serving contract; the other half (accepted ⇒ answered with state
provable by replay) is carried by the shard journals.  A shed before
acceptance also counts as ``refused``, so ``service-metrics.json``'s
books balance: ``accepted + refused == answered + shed``, which
``repro verify`` checks.

**Recovery.**  Batches are pipelined into each shard's socketpair, read
on the event loop (no threads), and run FIFO.  A shard whose channel
closes has died (a monitor task kills a hung one): it is respawned on a
fresh socketpair, replays its journal, and reruns its in-flight batches
(duplicates are deduplicated by batch id).  Respawns count as
degradations: the run completes, exit code 3 reports that it limped.

**Artifacts.**  Shutdown drains in-flight work, snapshots every shard's
tenants (``tenants-<k>.json`` merged into ``tenants.json``), writes
``service-metrics.json`` (latency percentiles, queue depths, shed and
respawn counters) and a ``repro-manifest/1`` covering all of it, so
``repro verify`` treats a serving run exactly like a batch run.

**Live metrics.**  Latency and queue depth are tracked in bounded
:class:`~repro.runtime.metrics.LogHistogram` sketches — O(buckets)
memory however long the server runs, percentiles within the documented
5% relative-error bound.  Shards push ``repro-metrics-snapshot/1``
snapshots every ``stats_interval`` seconds; the server merges them with
its own ``server.*`` snapshot and (a) appends one fsync'd line per tick
to ``metrics-stream.jsonl`` (schema ``repro-service-metrics-stream/1``,
a :mod:`~repro.runtime.records` log) and (b) serves the merged
snapshot in every ``stats`` response — the surface behind ``repro
stats`` and ``repro top``.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import pickle
import socket
import struct
import time
from collections import Counter
from multiprocessing import util
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional

from ..runtime import chaos
from ..runtime.metrics import LogHistogram, MetricsRegistry, merge_snapshots
from ..runtime.scheduler import POISONED, Scheduler, WorkUnit
from ..runtime.records import RecordLog
from ..runtime.telemetry import Tracer
from ..runtime.verify import write_manifest
from .protocol import read_frame, shard_for, write_frame
from .checkpoint import checkpoint_path
from .shard import find_sealed, journal_path, shard_main, snapshot_path
from .state import (
    METRICS_STREAM_SCHEMA, SERVICE_METRICS_SCHEMA, SHEDS_SCHEMA,
    TENANTS_SCHEMA, valid_tenant,
)

#: Monitor cadence (hang checks).
_MONITOR_SECONDS = 0.05

#: :class:`multiprocessing.connection.Connection`'s frame header, then a
#: pickle (trusted, as in :mod:`multiprocessing`: the peer is our child).
#: Its ``-1`` header, for messages of 2 GiB or more, is a bad frame here.
_LENGTH = struct.Struct("!i")


def _send(channel: asyncio.StreamWriter, message) -> None:
    """Write one message as ``Connection.send`` would."""
    payload = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    channel.write(_LENGTH.pack(len(payload)) + payload)


async def _read_message(reader: asyncio.StreamReader):
    """Read one message written by ``Connection.send``."""
    (size,) = _LENGTH.unpack(await reader.readexactly(_LENGTH.size))
    return pickle.loads(await reader.readexactly(size))


def latency_summary(samples: List[float]) -> dict:
    """p50/p99/max over a list of seconds (zeros when empty)."""
    if not samples:
        return {"count": 0, "p50_s": 0.0, "p99_s": 0.0, "max_s": 0.0}
    ordered = sorted(samples)

    def pick(fraction: float) -> float:
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return round(ordered[index], 6)

    return {
        "count": len(ordered),
        "p50_s": pick(0.50),
        "p99_s": pick(0.99),
        "max_s": round(ordered[-1], 6),
    }


class _Batch(NamedTuple):
    """One admitted events batch awaiting its terminal answer."""

    req_id: int
    shard_id: int
    tenant: str
    bid: int
    priority: int
    pcs: list
    targets: list
    want_predictions: bool
    future: asyncio.Future
    accepted_at: float
    backpressure: bool


class _Shard:
    """Parent-side handle of one shard process."""

    def __init__(self, shard_id: int, max_attempts: int) -> None:
        self.id = shard_id
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        #: our end of the shard's socketpair (None: closed), its reader
        self.channel: Optional[asyncio.StreamWriter] = None
        self.reader: Optional[asyncio.Task] = None
        self.scheduler = Scheduler([], max_attempts=max_attempts)
        self.generation = 0
        self.respawns = 0
        self.failed = False
        self.stopping = False
        #: why the monitor killed the current process (None: it did not).
        self.kill_reason: Optional[str] = None
        #: req_id -> monotonic dispatch time, in dispatch order.
        self.inflight: Dict[int, float] = {}
        #: when the shard last sent a message: it sends none mid-batch.
        self.heard_at = 0.0


class PredictionServer:
    """Prediction-as-a-service over one predictor spec.

    Args:
        spec: predictor spec every tenant instance is built from.
        run_dir: artifact directory (journals, snapshots, manifest).
        shards: worker process count (tenant space partitions).
        host/port: listen address (port 0 picks a free one).
        max_resident: per-shard live-tenant budget (LRU beyond it).
        queue_soft: per-shard depth where priority-0 load is shed and
            accepted batches start carrying the back-pressure flag.
        queue_hard: per-shard depth where everything is shed.
        max_attempts: attempts per batch before it is shed as poisoned.
        respawn_budget: total shard respawns before a dead shard is
            declared unavailable (default ``2 * shards``).
        batch_deadline: seconds a dispatched batch may run before the
            shard is declared hung and killed.
        trace_log: optional structured telemetry log path.
        mp_context: multiprocessing context (tests inject ``spawn``).
        stats_interval: cadence (seconds) of shard snapshot publishing
            and of the server's ``metrics-stream.jsonl`` appends.
        checkpoint_interval: applied batches between shard recovery
            checkpoints (``repro-shard-snapshot/2``), each sealing the
            live journal segment; 0 disables checkpointing.
    """

    def __init__(
        self,
        spec: str,
        run_dir,
        shards: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        max_resident: int = 8,
        queue_soft: int = 16,
        queue_hard: int = 32,
        max_attempts: int = 3,
        respawn_budget: Optional[int] = None,
        batch_deadline: float = 15.0,
        trace_log=None,
        mp_context=None,
        stats_interval: float = 1.0,
        checkpoint_interval: int = 0,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 0 < queue_soft <= queue_hard:
            raise ValueError(
                f"need 0 < queue_soft <= queue_hard, got "
                f"{queue_soft}/{queue_hard}")
        self.spec = spec
        self.run_dir = Path(run_dir)
        self.run_dir.mkdir(parents=True, exist_ok=True)
        self.host = host
        self.port = port
        self.max_resident = max_resident
        self.queue_soft = queue_soft
        self.queue_hard = queue_hard
        self.batch_deadline = batch_deadline
        self.respawn_budget = (respawn_budget if respawn_budget is not None
                               else 2 * shards)
        self._ctx = mp_context or multiprocessing.get_context()
        self.tracer = Tracer(sink=trace_log)
        self._shards = [_Shard(i, max_attempts) for i in range(shards)]
        self._batches: Dict[int, _Batch] = {}
        self._stats_waiters: Dict[int, asyncio.Future] = {}
        self._next_req = 0
        self._respawns_used = 0
        self._connections = 0
        self._draining = False
        self._stop_requested: Optional[asyncio.Event] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._monitor_task: Optional[asyncio.Task] = None
        self.stats_interval = stats_interval
        self.checkpoint_interval = checkpoint_interval
        # Bounded sketches instead of one-float-per-batch lists: memory
        # is O(buckets) no matter how long the server runs.
        self.metrics = MetricsRegistry()
        self.latency_hist: LogHistogram = self.metrics.histogram(
            "server.latency_seconds")
        self.depth_hist: LogHistogram = self.metrics.histogram(
            "server.queue_depth")
        #: shard id -> last published repro-metrics-snapshot/1.
        self._shard_metrics: Dict[int, dict] = {}
        self._metrics_stream: Optional[RecordLog] = None
        self._stream_task: Optional[asyncio.Task] = None
        self._stream_seq = 0
        self._started_at = time.monotonic()
        self.counters: Dict[str, int] = {
            "accepted": 0, "refused": 0, "answered": 0, "shed": 0,
            "events_applied": 0, "events_shed": 0, "duplicates": 0,
            "accept_faults": 0, "requeues": 0,
        }
        self.sheds_by_reason: Dict[str, int] = {}
        self.degradations: Dict[str, int] = Counter()
        self._sheds_log = RecordLog(
            self.run_dir / "sheds.jsonl", {"schema": SHEDS_SCHEMA})

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Spawn the shards, bind the listener, write ``endpoint.json``."""
        self._stop_requested = asyncio.Event()
        for shard in self._shards:
            await self._spawn(shard)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._monitor_task = asyncio.ensure_future(self._monitor())
        self._metrics_stream = RecordLog(
            self.run_dir / "metrics-stream.jsonl",
            {"schema": METRICS_STREAM_SCHEMA})
        self._stream_task = asyncio.ensure_future(self._stream_metrics())
        endpoint = {
            "schema": "repro-service-endpoint/1",
            "host": self.host,
            "port": self.port,
            "pid": os.getpid(),
            "shards": len(self._shards),
            "spec": self.spec,
        }
        (self.run_dir / "endpoint.json").write_text(
            json.dumps(endpoint, indent=2, sort_keys=True) + "\n")
        self.tracer.event("server_start", port=self.port,
                          shards=len(self._shards))

    async def serve_until_shutdown(self) -> int:
        """Serve until a ``shutdown`` op arrives; then drain and finalise.

        Returns the process exit code: 0 clean, 3 when the run survived
        degradations (respawns, a disabled journal, a dead telemetry
        sink).
        """
        await self._stop_requested.wait()
        return await self._shutdown()

    def request_shutdown(self) -> None:
        if self._stop_requested is not None:
            self._stop_requested.set()

    # -- connections ---------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        self._connections += 1
        label = f"conn{self._connections}"
        try:
            while True:
                try:
                    chaos.active().inject("service.accept", label=label)
                    message = await read_frame(reader)
                except OSError:
                    # Injected (or real) transport fault: drop the
                    # connection; the client's retry loop re-dials.
                    self.counters["accept_faults"] += 1
                    self.tracer.event("accept_fault", conn=label)
                    break
                except Exception as exc:
                    await self._try_write(writer, {
                        "status": "error", "retryable": False,
                        "reason": f"protocol: {exc}",
                    })
                    break
                if message is None:
                    break
                response = await self._dispatch(message)
                if not await self._try_write(writer, response):
                    break
                if message.get("op") == "shutdown":
                    break
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):  # pragma: no cover
                pass

    async def _try_write(self, writer, message: dict) -> bool:
        try:
            await write_frame(writer, message)
            return True
        except OSError:
            return False

    async def _dispatch(self, message: dict) -> dict:
        op = message.get("op")
        if op == "ping":
            return {"status": "ok", "shards": len(self._shards),
                    "spec": self.spec, "draining": self._draining}
        if op == "stats":
            return await self._stats()
        if op == "shutdown":
            self.request_shutdown()
            return {"status": "ok", "stopping": True}
        if op == "events":
            return await self._handle_events(message)
        return {"status": "error", "retryable": False,
                "reason": f"unknown op {op!r}"}

    # -- admission -----------------------------------------------------------

    async def _handle_events(self, message: dict) -> dict:
        tenant = message.get("tenant")
        bid = message.get("bid")
        priority = message.get("priority", 1)
        pcs = message.get("pcs")
        targets = message.get("targets")
        if (not valid_tenant(tenant) or not isinstance(bid, int) or bid < 1
                or not isinstance(pcs, list) or not isinstance(targets, list)
                or len(pcs) != len(targets) or not pcs
                or not isinstance(priority, int)):
            return {"status": "error", "retryable": False,
                    "reason": "malformed events request"}
        shard = self._shards[shard_for(tenant, len(self._shards))]
        depth = shard.scheduler.pending_depth + shard.scheduler.in_flight_count
        self.depth_hist.observe(depth)
        backpressure = depth >= self.queue_soft
        refusal = ("shutting_down" if self._draining
                   else "shard_unavailable" if shard.failed
                   else "overload" if depth >= self.queue_hard
                   else "backpressure" if backpressure and priority <= 0
                   else None)
        if refusal is not None:
            # Shed before acceptance: the books count it as refused.
            self.counters["refused"] += 1
            return self._shed(shard, tenant, bid, priority, refusal)
        self._next_req += 1
        req_id = self._next_req
        batch = _Batch(
            req_id, shard.id, tenant, bid, priority, pcs, targets,
            bool(message.get("want_predictions")),
            asyncio.get_running_loop().create_future(),
            time.monotonic(), backpressure,
        )
        self._batches[req_id] = batch
        self.counters["accepted"] += 1
        shard.scheduler.add(WorkUnit(req_id, config=f"p{priority}",
                                     benchmark=tenant))
        self._pump_dispatch(shard)
        return await batch.future

    def _shed(self, shard: _Shard, tenant: str, bid: int, priority: int,
              reason: str) -> dict:
        """Refuse a batch, journalled and answered — never silently."""
        self.counters["shed"] += 1
        self.sheds_by_reason[reason] = self.sheds_by_reason.get(reason, 0) + 1
        if not self._sheds_log.closed:  # stragglers after shutdown
            self._sheds_log.write({
                "kind": "shed", "tenant": tenant, "bid": bid,
                "priority": priority, "reason": reason, "shard": shard.id,
            })
        self.tracer.event("shed", tenant=tenant, bid=bid, reason=reason,
                          shard=shard.id)
        return {"status": "shed", "reason": reason, "tenant": tenant,
                "bid": bid, "shard": shard.id}

    def _resolve_shed(self, batch: _Batch, reason: str) -> None:
        """Terminal shed for an *already accepted* batch (late shed)."""
        shard = self._shards[batch.shard_id]
        response = self._shed(shard, batch.tenant, batch.bid, batch.priority,
                              reason)
        self._batches.pop(batch.req_id, None)
        shard.inflight.pop(batch.req_id, None)
        if not batch.future.done():
            batch.future.set_result(response)

    # -- dispatch + responses ------------------------------------------------

    def _pump_dispatch(self, shard: _Shard) -> None:
        """Write every pending batch to the shard; it runs them FIFO."""
        if shard.failed or shard.stopping or shard.channel is None:
            return
        while True:
            unit = shard.scheduler.acquire(shard.id)
            if unit is None:
                return
            batch = self._batches.get(unit.unit_id)
            if batch is None:  # resolved while queued (late shed)
                shard.scheduler.complete(unit.unit_id)
                continue
            shard.inflight[unit.unit_id] = time.monotonic()
            _send(shard.channel, (
                "batch", unit.unit_id, batch.tenant, batch.bid,
                batch.pcs, batch.targets, batch.want_predictions,
            ))

    def _handle_shard_message(self, shard: _Shard, message) -> None:
        kind = message[0]
        if kind == "ok":
            _, req_id, reply = message
            shard.inflight.pop(req_id, None)
            if not shard.scheduler.complete(req_id):
                return  # stale duplicate from a pre-respawn attempt
            batch = self._batches.pop(req_id, None)
            if batch is None:
                return
            latency = time.monotonic() - batch.accepted_at
            self.latency_hist.observe(latency)
            self.counters["answered"] += 1
            if reply.get("applied"):
                self.counters["events_applied"] += len(batch.pcs)
            else:
                self.counters["duplicates"] += 1
            if not batch.future.done():
                batch.future.set_result({
                    **reply, "shard": shard.id, "tenant": batch.tenant,
                    "bid": batch.bid, "backpressure": batch.backpressure,
                })
        elif kind == "shed":
            _, req_id, reason = message
            shard.inflight.pop(req_id, None)
            shard.scheduler.complete(req_id)
            batch = self._batches.get(req_id)
            if batch is not None:
                self._resolve_shed(batch, reason)
        elif kind == "err":
            _, req_id, error_type, error_message = message
            shard.inflight.pop(req_id, None)
            outcome = shard.scheduler.fail(
                req_id, f"{error_type}: {error_message}")
            self.tracer.event("batch_error", shard=shard.id, req=req_id,
                              error=error_type, outcome=outcome)
            if outcome == POISONED:
                batch = self._batches.get(req_id)
                if batch is not None:
                    self._resolve_shed(batch, "poisoned")
            else:
                self.counters["requeues"] += 1
            self._pump_dispatch(shard)
        elif kind == "stats":
            _, req_id, payload = message
            waiter = self._stats_waiters.pop(req_id, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(payload)
        elif kind == "metrics":
            _, shard_id, snapshot = message
            self._shard_metrics[shard_id] = snapshot
        elif kind == "span":
            _, name, seconds, attrs = message
            self.tracer.record_span(name, seconds, **attrs)
        elif kind == "event":
            _, name, attrs = message
            self.tracer.event(name, **attrs)
            if name == "journal_off":
                self.degradations["service_journal_off"] += 1
            elif name == "checkpoint_fallback":
                # A shard salvaged past a corrupt/stale checkpoint on
                # recovery; survivable, but the manifest must say so.
                self.degradations["checkpoint_fallback"] += attrs.get(
                    "count", 1)

    # -- monitoring + recovery -----------------------------------------------

    async def _monitor(self) -> None:
        while True:
            await asyncio.sleep(_MONITOR_SECONDS)
            now = time.monotonic()
            for shard in self._shards:
                if (shard.stopping or shard.channel is None
                        or shard.kill_reason or not shard.inflight):
                    continue
                # The running batch is the oldest in flight: it started
                # at its dispatch or at the shard's last message.
                started = max(next(iter(shard.inflight.values())),
                              shard.heard_at)
                if now - started > self.batch_deadline:
                    shard.kill_reason = f"hung > {self.batch_deadline}s"
                    shard.process.kill()

    async def _read_channel(self, shard: _Shard, generation: int,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
        """Handle each message a shard sends; recover it once it is gone."""
        try:
            while True:
                message = await _read_message(reader)
                shard.heard_at = time.monotonic()
                self._handle_shard_message(shard, message)
        except (asyncio.IncompleteReadError, OSError):
            pass
        except (ValueError, pickle.UnpicklingError) as exc:
            # A frame out of step: nothing after it can be trusted.
            shard.kill_reason = f"bad frame: {exc}"
            shard.process.kill()
        writer.close()
        if shard.generation == generation:
            shard.channel = None
            if not shard.stopping:
                await self._recover(shard)

    async def _recover(self, shard: _Shard) -> None:
        """The shard's channel closed under it: requeue, then respawn."""
        shard.process.join(timeout=5.0)
        if shard.process.is_alive():  # pragma: no cover - closed, yet runs
            shard.process.kill()
            shard.process.join(timeout=5.0)
        reason = (shard.kill_reason
                  or f"exited with code {shard.process.exitcode}")
        self.tracer.event("shard_exit", shard=shard.id, reason=reason,
                          inflight=len(shard.inflight))
        # In dispatch order; only the running batch (the oldest) is
        # charged an attempt, the ones queued behind it get theirs back.
        running = next(iter(shard.inflight), None)
        shard.inflight.clear()
        if running is not None:
            if shard.scheduler.fail(running, reason) == POISONED:
                batch = self._batches.get(running)
                if batch is not None:
                    self._resolve_shed(batch, "poisoned")
            else:
                self.counters["requeues"] += 1
        self.counters["requeues"] += len(
            shard.scheduler.release_worker(shard.id))
        if self._respawns_used >= self.respawn_budget:
            self._fail_shard(shard, reason)
            return
        self._respawns_used += 1
        shard.respawns += 1
        self.degradations["shard_respawn"] += 1
        await self._spawn(shard)
        self.tracer.event("shard_respawn", shard=shard.id,
                          generation=shard.generation)
        self._pump_dispatch(shard)

    def _fail_shard(self, shard: _Shard, reason: str) -> None:
        """Respawn budget spent: every batch routed here is shed, loudly."""
        shard.failed = True
        self.degradations["shard_failed"] += 1
        self.tracer.event("shard_failed", shard=shard.id, reason=reason)
        for batch in [b for b in self._batches.values()
                      if b.shard_id == shard.id]:
            self._resolve_shed(batch, "shard_unavailable")

    async def _spawn(self, shard: _Shard, snapshot_only: bool = False) -> None:
        """Start the shard's next process on a fresh socketpair."""
        shard.generation += 1
        shard.kill_reason = None
        plan = None if snapshot_only else chaos.active()
        plan_path = str(plan.path) if getattr(plan, "path", None) else None
        ours, theirs = socket.socketpair()
        # Children forked from now on drop their copy of our end, so a
        # shard reads EOF once the server's own copy is gone.
        util.register_after_fork(ours, socket.socket.close)
        shard.process = self._ctx.Process(
            target=shard_main,
            args=(shard.id, self.spec, str(self.run_dir), theirs, plan_path,
                  self.max_resident, os.getpid(), self.stats_interval,
                  0 if snapshot_only else self.checkpoint_interval),
            daemon=True,
            name=f"repro-shard-{shard.id}",
        )
        shard.process.start()
        theirs.close()
        reader, shard.channel = await asyncio.open_unix_connection(sock=ours)
        shard.reader = asyncio.ensure_future(self._read_channel(
            shard, shard.generation, reader, shard.channel))

    # -- live metrics --------------------------------------------------------

    def _server_snapshot(self) -> dict:
        """The server's own ``repro-metrics-snapshot/1`` (``server.*``)."""
        registry = MetricsRegistry()
        for name, value in self.counters.items():
            registry.counter(f"server.{name}").inc(value)
        for reason, count in self.sheds_by_reason.items():
            registry.counter(f"server.shed.{reason}").inc(count)
        registry.counter("server.respawns").inc(self._respawns_used)
        registry.counter("server.connections").inc(self._connections)
        registry.gauge("server.inflight_batches").set(len(self._batches))
        registry.gauge("server.shards_failed").set(
            sum(1 for shard in self._shards if shard.failed))
        # The histograms are live in self.metrics; union the two
        # snapshots (names are disjoint, so the merge is a pure union).
        return merge_snapshots([registry.snapshot(),
                                self.metrics.snapshot()])

    def merged_snapshot(self) -> dict:
        """Server snapshot merged with every shard's latest snapshot.

        Shard instruments are ``shard.``-prefixed and server instruments
        ``server.``-prefixed, so the merge sums same-named instruments
        *across shards* (fleet-wide totals) and never double-counts a
        server metric against a shard metric.
        """
        return merge_snapshots([self._server_snapshot()]
                               + [self._shard_metrics[k]
                                  for k in sorted(self._shard_metrics)])

    def _stream_record(self, kind: str) -> dict:
        return {
            "kind": kind,
            "seq": self._stream_seq,
            "t": round(time.monotonic() - self._started_at, 3),
            "merged": self.merged_snapshot(),
            "shards": {str(k): self._shard_metrics[k]
                       for k in sorted(self._shard_metrics)},
        }

    def _stream_write(self, kind: str) -> None:
        """Append one snapshot line; a failing stream is detached, loudly."""
        if self._metrics_stream is None:
            return
        self._stream_seq += 1
        try:
            chaos.active().inject("service.metrics_stream", label=kind)
            self._metrics_stream.write(self._stream_record(kind))
        except OSError:
            stream, self._metrics_stream = self._metrics_stream, None
            try:
                stream.close()
            except OSError:  # pragma: no cover - double-fault close
                pass
            self.degradations["metrics_stream_off"] += 1
            self.tracer.event("metrics_stream_off", path=str(stream.path))

    async def _stream_metrics(self) -> None:
        while True:
            await asyncio.sleep(self.stats_interval)
            self._stream_write("snapshot")

    # -- stats ---------------------------------------------------------------

    async def _stats(self) -> dict:
        shard_stats: List[dict] = []
        for shard in self._shards:
            if shard.failed or shard.stopping or shard.channel is None:
                shard_stats.append({"shard": shard.id, "available": False})
                continue
            self._next_req += 1
            req_id = self._next_req
            waiter = asyncio.get_running_loop().create_future()
            self._stats_waiters[req_id] = waiter
            _send(shard.channel, ("stats", req_id))
            try:
                payload = await asyncio.wait_for(waiter, timeout=5.0)
                payload["available"] = True
                payload["queue_depth"] = (shard.scheduler.pending_depth
                                          + shard.scheduler.in_flight_count)
                shard_stats.append(payload)
            except asyncio.TimeoutError:
                self._stats_waiters.pop(req_id, None)
                shard_stats.append({"shard": shard.id, "available": False})
        for payload in shard_stats:
            snapshot = payload.get("metrics")
            if isinstance(snapshot, dict):
                self._shard_metrics[payload["shard"]] = snapshot
        return {
            "status": "ok",
            "counters": dict(self.counters),
            "sheds_by_reason": dict(self.sheds_by_reason),
            "respawns": self._respawns_used,
            "latency": self.latency_hist.summary(),
            "queue_depth": self._depth_summary(),
            "degradations": dict(self.degradations),
            "shards": shard_stats,
            "snapshot": self.merged_snapshot(),
        }

    # -- shutdown + artifacts ------------------------------------------------

    async def _shutdown(self, drain_timeout: float = 30.0) -> int:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + drain_timeout
        # Admission, answers and respawns dispatch what is pending.
        while time.monotonic() < deadline and any(
                not shard.failed and (shard.scheduler.pending_depth
                                      or shard.scheduler.in_flight_count)
                for shard in self._shards):
            await asyncio.sleep(_MONITOR_SECONDS)
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        if self._stream_task is not None:
            self._stream_task.cancel()
        for shard in self._shards:
            shard.stopping = True  # a channel closing now respawns nothing
        # Past the deadline, what no shard holds is shed.  What a shard
        # holds it runs ahead of ``stop``, so those replies still come.
        for batch in list(self._batches.values()):
            if batch.req_id not in self._shards[batch.shard_id].inflight:
                self._resolve_shed(batch, "shutting_down")
        for shard in self._shards:
            await self._stop_shard(shard)
        for batch in list(self._batches.values()):  # lost with its shard
            self._resolve_shed(batch, "shutting_down")
        self._merge_snapshots()
        self._sheds_log.close()
        self._stream_write("final")
        if self._metrics_stream is not None:
            self._metrics_stream.close()
        self._write_metrics()
        # The trace log is final before the manifest hashes it.
        self.tracer.record_span("serve", time.monotonic() - self._started_at,
                                shards=len(self._shards))
        self.tracer.event("server_stop", **self.counters)
        self.tracer.close()
        if self.tracer.counters.get("telemetry_off"):
            self.degradations["telemetry_off"] = self.tracer.counters[
                "telemetry_off"]
        self._write_run_manifest()
        return 3 if self.degradations else 0

    async def _stop_shard(self, shard: _Shard) -> None:
        """Stop (or briefly resurrect) a shard for its final snapshot.

        A failed/dead shard is respawned once outside the budget purely
        to replay its journal and write ``tenants-<k>.json`` — its
        accepted state must reach the merged snapshot even though it
        stopped serving.  Its final metrics arrive ahead of its EOF.
        """
        if shard.channel is None and not shard.reader.done():
            await shard.reader  # its respawn is under way
        if shard.channel is None:
            await self._spawn(shard, snapshot_only=True)
        _send(shard.channel, ("stop",))
        try:
            await asyncio.wait_for(asyncio.shield(shard.reader), timeout=15.0)
        except asyncio.TimeoutError:  # pragma: no cover - wedged shard
            shard.process.kill()
            self.degradations["snapshot_missing"] += 1
        shard.process.join(timeout=5.0)

    def _merge_snapshots(self) -> Path:
        tenants: Dict[str, dict] = {}
        shards_meta: List[dict] = []
        for shard in self._shards:
            path = snapshot_path(self.run_dir, shard.id)
            if not path.exists():
                self.degradations["snapshot_missing"] += 1
                continue
            data = json.loads(path.read_text())
            shards_meta.append({
                "shard": shard.id,
                "respawns": shard.respawns,
                "failed": shard.failed,
                "journal_disabled": data.get("journal_disabled", False),
            })
            for tenant, record in data.get("tenants", {}).items():
                tenants[tenant] = {**record, "shard": shard.id}
        merged = {
            "schema": TENANTS_SCHEMA,
            "spec": self.spec,
            "shards": len(self._shards),
            "shard_meta": shards_meta,
            "tenants": dict(sorted(tenants.items())),
        }
        target = self.run_dir / "tenants.json"
        target.write_text(json.dumps(merged, indent=2, sort_keys=True)
                          + "\n")
        return target

    def _depth_summary(self) -> dict:
        """Queue-depth max/mean from the sketch (exact: depths are ints)."""
        if self.depth_hist.count == 0:
            return {"max": 0, "mean": 0.0}
        return {
            "max": int(round(self.depth_hist.max)),
            "mean": round(self.depth_hist.mean(), 3),
        }

    def _write_metrics(self) -> Path:
        # Percentiles come from the bounded histogram now (within the
        # documented 5% relative-error bound; max is exact); the full
        # merged snapshot rides along for verify's cross-checks.
        payload = {
            "schema": SERVICE_METRICS_SCHEMA,
            "shards": len(self._shards),
            "counters": dict(self.counters),
            "sheds_by_reason": dict(self.sheds_by_reason),
            "respawns": self._respawns_used,
            "latency": self.latency_hist.summary(),
            "queue_depth": self._depth_summary(),
            "snapshot": self.merged_snapshot(),
        }
        target = self.run_dir / "service-metrics.json"
        target.write_text(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n")
        return target

    def _write_run_manifest(self) -> Path:
        artifacts = {
            "service_sheds": self.run_dir / "sheds.jsonl",
            "service_tenants": self.run_dir / "tenants.json",
            "service_metrics": self.run_dir / "service-metrics.json",
        }
        stream_path = self.run_dir / "metrics-stream.jsonl"
        if stream_path.exists():
            artifacts["service_metrics_stream"] = stream_path
        sealed = find_sealed(self.run_dir)
        segments = [path for shard in self._shards
                    for path in sealed.get(shard.id, {}).values()]
        for index, path in enumerate(segments):
            artifacts[f"service_segment.{index}"] = path
        for shard in self._shards:
            artifacts[f"service_journal.{shard.id}"] = journal_path(
                self.run_dir, shard.id)
            snapshot = checkpoint_path(self.run_dir, shard.id)
            if snapshot.exists():
                artifacts[f"shard_snapshot.{shard.id}"] = snapshot
        if self.tracer.sink is not None:
            artifacts["trace_log"] = self.tracer.sink.path
        plan = chaos.active()
        if getattr(plan, "path", None):
            artifacts["chaos_plan"] = plan.path
        return write_manifest(self.run_dir, artifacts,
                              degradations=self.degradations,
                              workers=len(self._shards))


async def serve(server: PredictionServer) -> int:
    """Start ``server`` and run it to completion (the CLI entry)."""
    await server.start()
    return await server.serve_until_shutdown()
