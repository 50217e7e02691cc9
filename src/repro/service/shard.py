"""The shard worker process: owns one partition of the tenant space.

A shard is a single-threaded loop over its end of a socketpair, running
the batches the server pipelines into it in arrival order.  Per batch
it runs the exactly-once ladder:

1. **chaos crossings** — ``service.slow_shard`` (stall) and
   ``service.shard_exit`` (SIGKILL) fire here, *before* the journal
   append, modelling a shard dying mid-batch;
2. **duplicate check** — a batch id at or below the tenant's watermark
   was already applied (its response was lost); answer with the
   cumulative counters without re-applying;
3. **journal before apply** — the batch is fsync'd into the shard
   journal first, so a crash between journal and response makes the
   retry a duplicate rather than a double-apply.  A failing journal
   flips the shard into shed-everything mode (``journal_unavailable``):
   state the run could not re-prove is never created;
4. **apply** — predict/update through the tenant's predictor, fold the
   batch into the running digest;
5. **churn** — a fired ``tenant.churn`` fault force-evicts the tenant,
   parking its table state, exercising the evict/reload path under
   load.

On a stop sentinel the shard writes its final per-tenant snapshot
(``tenants-<k>.json``) atomically and exits.  On startup it loads its
checkpoint and replays the journal past it, which is also how a
respawned shard recovers everything its predecessor accepted.

**Observability.**  Every shard owns a
:class:`~repro.runtime.metrics.MetricsRegistry` whose instruments are
``shard.``-prefixed (so merging shard snapshots with the server's
``server.``-prefixed snapshot can never collide).  The loop publishes a
``("metrics", shard_id, snapshot)`` message every ``metrics_interval``
seconds — after batches and on idle polls alike — which the server
merges into its ``metrics-stream.jsonl`` and serves over the ``stats``
admin frame.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import sys
import time
import traceback
from collections import deque
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError, ServiceError
from ..runtime import chaos
from ..runtime.metrics import MetricsRegistry
from ..runtime.records import atomic_file, synced_file
from ..runtime.telemetry import Tracer
from .checkpoint import (
    build_checkpoint, checkpoint_path, load_checkpoint,
    prev_checkpoint_path, quarantine_checkpoint, restore_predictor,
)
from .state import (
    ShardJournal, TENANTS_SCHEMA, TenantState, TenantStore, canonical_json,
    join_segments, journal_base, read_service_journal, valid_tenant,
)

#: Completed steps of the compaction protocol, in order; the
#: ``service.compact`` chaos arg / ``crash_after_step`` index into this.
COMPACTION_STEPS = (
    "checkpoint_temp_written",    # 0: payload fsync'd to snapshot tmp
    "checkpoint_rotated",         # 1: old checkpoint renamed to .prev
    "checkpoint_published",       # 2: tmp renamed over the checkpoint
    "journal_sealed",             # 3: live segment renamed sealed-*
    "journal_opened",             # 4: fresh live segment at base W
)

#: Seconds a shard waits on its channel before orphan-checking.
_POLL_SECONDS = 0.2


def journal_path(run_dir: Path, shard_id: int) -> Path:
    """The shard's live journal segment."""
    return Path(run_dir) / f"journal-{shard_id}.jsonl"


def sealed_path(run_dir: Path, shard_id: int, base: int) -> Path:
    """Where the segment starting at absolute record ``base`` is sealed."""
    return Path(run_dir) / f"sealed-{shard_id}-{base}.jsonl"


def find_sealed(run_dir: Path) -> Dict[int, Dict[int, Path]]:
    """Every shard's sealed journal segments: ``{shard: {base: path}}``,
    both in ascending order."""
    found: Dict[int, Dict[int, Path]] = {}
    for path in Path(run_dir).glob("sealed-*-*.jsonl"):
        shard, _, base = path.stem[len("sealed-"):].partition("-")
        if shard.isdigit() and base.isdigit():
            found.setdefault(int(shard), {})[int(base)] = path
    return {shard: dict(sorted(paths.items()))
            for shard, paths in sorted(found.items())}


def snapshot_path(run_dir: Path, shard_id: int) -> Path:
    return Path(run_dir) / f"tenants-{shard_id}.json"


class ShardCore:
    """The testable heart of a shard: queues and processes stripped away.

    Startup runs the **salvage ladder** (newest checkpoint → previous
    checkpoint → full replay of the journal segments from genesis), then
    replays the journal tail past the checkpoint — so recovery cost is
    O(table size + events since the last checkpoint).  Every
    ``checkpoint_interval`` applied batches :meth:`compact` writes a
    fresh ``repro-shard-snapshot/2`` checkpoint and seals the live
    journal segment behind it (see :data:`COMPACTION_STEPS`);
    ``checkpoint_interval`` 0 disables checkpointing.

    ``kernel`` is resolved through the offline engine's
    :func:`~repro.sim.engine.resolve_kernel` when a *from-reset* full
    replay needs it (so a shard that never replays never imports
    numpy): where the vectorized batch kernel supports the spec, that
    replay runs through it (bit-identical by the kernel-equivalence
    contract); everywhere else — incremental applies, tail replays on
    warm state, unsupported specs — the event engine is used silently.
    """

    def __init__(
        self,
        shard_id: int,
        spec: str,
        run_dir: Path,
        max_resident: int = 8,
        tracer: Optional[Tracer] = None,
        checkpoint_interval: int = 0,
        kernel: str = "auto",
    ) -> None:
        self.shard_id = shard_id
        self.spec = spec
        self.run_dir = Path(run_dir)
        self.tracer = tracer or Tracer()
        self.checkpoint_interval = max(int(checkpoint_interval), 0)
        self.kernel = kernel
        self._clean_compaction_strays()
        self.journal = ShardJournal(journal_path(self.run_dir, shard_id),
                                    shard_id, spec,
                                    fresh_base=self._sealed_end)
        self.store = TenantStore(
            spec, self.run_dir / "parked", max_resident=max_resident,
            journal_stream=self.stream_for, tracer=self.tracer,
        )
        self.batches = 0
        self.duplicates = 0
        self.replayed = len(self.journal.replayed)
        self.metrics = MetricsRegistry()
        self.metrics.counter("shard.replayed").inc(self.replayed)
        self._batches_since_checkpoint = 0
        #: report of the last completed compaction, for the shard loop to
        #: forward as a span; it clears it.
        self.last_compaction: Optional[dict] = None
        self.recovery = self._recover()
        self._synced = {"evictions": 0, "reloads": 0, "reload_replays": 0}
        # Present from the start, so a run with no replayed reload says 0.
        self.metrics.counter("shard.reload_replays")
        self._sync_metrics()

    # -- recovery ------------------------------------------------------------

    def _clean_compaction_strays(self) -> None:
        """Unlink a half-written checkpoint temp from a crash mid-compaction.

        The temp is only ever the *source* of an ``os.replace``; one left
        on disk means the crash landed before its publish step, so the
        published files are the truth and the stray is garbage.
        """
        cur = checkpoint_path(self.run_dir, self.shard_id)
        stray = cur.with_name(cur.name + ".tmp")
        if stray.exists():
            stray.unlink()

    def _sealed_end(self) -> int:
        """Where the sealed segments end: the base of a fresh live segment.

        Asked for only when the live segment has no committed header — a
        crash between sealing it and opening the next one.
        """
        sealed = find_sealed(self.run_dir).get(self.shard_id)
        if not sealed:
            return 0
        header, records = read_service_journal(sealed[max(sealed)])
        return journal_base(header, str(sealed[max(sealed)])) + len(records)

    def _recover(self) -> dict:
        """Salvage ladder + tail replay; returns the recovery report."""
        started = time.perf_counter()
        info: dict = {"source": "fresh", "fallbacks": 0, "quarantined": [],
                      "tail_records": 0, "tail_events": 0}
        plan = chaos.active()
        cur = checkpoint_path(self.run_dir, self.shard_id)
        prev = prev_checkpoint_path(self.run_dir, self.shard_id)
        loaded = None
        for path, source in ((cur, "checkpoint"), (prev, "checkpoint_prev")):
            if not path.exists():
                continue
            try:
                plan.inject("service.checkpoint",
                            label=f"shard{self.shard_id}", path=path)
                result = load_checkpoint(path, shard_id=self.shard_id,
                                         spec=self.spec)
                covered = result["payload"]["journal_records"]
                if covered > self.journal.total_records:
                    raise ServiceError(
                        f"{path}: covers {covered} records but the journal "
                        f"only reaches {self.journal.total_records}")
            except ServiceError as exc:
                # CRC/digest/coverage failure: quarantine with a sidecar
                # and fall down the ladder — a checkpoint_fallback
                # degradation, not a crash.
                info["fallbacks"] += 1
                quarantined = quarantine_checkpoint(path, str(exc))
                info["quarantined"].append(quarantined.name)
                self.tracer.event("checkpoint_quarantined",
                                  shard=self.shard_id, path=str(quarantined),
                                  reason=str(exc))
                continue
            loaded = result
            info["source"] = source
            break
        try:
            if loaded is not None:
                tail = self._history_from(covered)
            else:
                tail = self._history_from(0)
                if tail:
                    info["source"] = "journal"
        except ServiceError as exc:
            # The records past every usable checkpoint are gone: nothing
            # can re-prove them.  Refuse loudly rather than serve
            # unauditable state.
            raise ServiceError(
                f"shard {self.shard_id}: cannot recover past a missing or "
                f"corrupt sealed journal segment (fallbacks: "
                f"{info['fallbacks']}): {exc}") from None
        info["tail_records"] = len(tail)
        info["tail_events"] = sum(len(r["pcs"]) for r in tail)
        if loaded is not None:
            self._adopt_checkpoint(loaded, tail)
        elif tail:
            self._replay_full_history(tail)
        info["seconds"] = round(time.perf_counter() - started, 6)
        if info["source"] != "fresh":
            self.metrics.counter("shard.recoveries").inc()
            self.metrics.histogram("shard.recovery_seconds").observe(
                max(time.perf_counter() - started, 1e-9))
        self.metrics.counter("shard.tail_replayed").inc(
            info["tail_events"])
        self.metrics.counter("shard.checkpoint_fallbacks").inc(
            info["fallbacks"])
        if info["source"] == "journal":
            self.metrics.counter("shard.full_replays").inc()
        self.tracer.event("shard_recovered", shard=self.shard_id, **info)
        return info

    def _history_from(self, start: int) -> List[dict]:
        """Accepted records from absolute index ``start`` on.

        The live segment alone when it reaches back that far (the normal
        recovery); otherwise also the sealed segments holding records at
        or after ``start`` — their names carry their bases, so no other
        is read.  Raises :class:`~repro.errors.ServiceError` when a
        needed sealed segment is missing or unreadable.
        """
        journal = self.journal
        if start >= journal.base:
            return journal.records[start - journal.base:]
        sealed = find_sealed(self.run_dir).get(self.shard_id, {})
        first = max((base for base in sealed if base <= start), default=0)
        segments = [read_service_journal(path)
                    for base, path in sealed.items() if base >= first]
        segments.append(({"shard": self.shard_id, "spec": self.spec,
                          "base": journal.base}, journal.records))
        return join_segments(segments, start,
                             origin=f"shard {self.shard_id} journal")

    def _adopt_checkpoint(self, loaded: dict, tail: List[dict]) -> None:
        """Install a checkpoint's tenants, then replay the tail past it.

        Tenants with table state restart warm; the rest keep counters
        and chain only.  A parked tenant whose park file already covers
        some of its tail batches takes that point without replaying them
        (:meth:`~repro.service.state.TenantStore.roll_forward`).
        """
        entries = loaded["payload"]["tenants"]
        for tenant, meta in loaded["metas"].items():
            predictor = restore_predictor(entries[tenant], self.spec)
            self.store.adopt(tenant, meta, None if predictor is None
                             else TenantState(self.spec, predictor))
        pending: Dict[str, List[dict]] = {}
        for record in tail:
            pending.setdefault(record["tenant"], []).append(record)
        skip = {tenant: self.store.roll_forward(tenant, records)
                for tenant, records in pending.items()}
        for record in tail:
            tenant = record["tenant"]
            if skip.get(tenant):
                skip[tenant] -= 1
                continue
            self.store.replay_batch(tenant, record["bid"], record["pcs"],
                                    record["targets"])

    def _replay_full_history(self, records: List[dict]) -> None:
        """From-reset replay of a shard's whole history (every segment).

        :func:`~repro.service.replay.replay_shard` runs it — through the
        batch kernel where ``kernel`` allows and the spec supports it;
        those tenants keep counters + digest chain only and rebuild on
        first touch.  Event-engine replays come back warm and are
        installed resident (the least recent parked beyond the budget).
        """
        from .replay import replay_shard

        for tenant, (meta, predictor) in replay_shard(
                self.spec, records, self.kernel).items():
            self.store.adopt(tenant, meta, None if predictor is None
                             else TenantState(self.spec, predictor))

    def stream_for(self, tenant: str) -> Tuple[List[int], List[int]]:
        """A tenant's full accepted stream, read from every journal segment.

        The reload fallback :class:`~repro.service.state.TenantStore`
        uses when a tenant has no parked state bound to its counters —
        O(history), so it is the exception: specs whose keys do not fit
        ``int64`` columns, a lost or stale park file.
        """
        pcs: List[int] = []
        targets: List[int] = []
        for record in self._history_from(0):
            if record["tenant"] == tenant:
                pcs.extend(record["pcs"])
                targets.extend(record["targets"])
        return pcs, targets

    # -- checkpoint + compaction ---------------------------------------------

    def compact(self, crash_after_step: Optional[int] = None) -> dict:
        """Checkpoint the shard's state and seal the journal segment behind it.

        The five steps of :data:`COMPACTION_STEPS` are each individually
        crash-safe: a crash after any step recovers bit-identically,
        because every step either writes to a temp name (cleaned as a
        stray) or is one atomic ``os.replace``, and every state between
        them keeps a valid checkpoint whose watermark the journal
        segments reach.  Nothing is rewritten or deleted: the sealed
        segment keeps its bytes, and the previous checkpoint stays at
        ``.prev`` (lag-one retention) as the salvage ladder's fallback.
        The cost is O(tenants x table size), however long the shard has
        run.

        ``crash_after_step=N`` (tests) stops after step N completes,
        leaving the run directory exactly as a SIGKILL there would; the
        core must then be discarded like the dead process it simulates.
        A fired ``service.compact`` chaos fault does the same with a
        real SIGKILL, its ``arg`` choosing the step.
        """
        if self.journal.disabled:
            return {"completed": False, "reason": "journal_disabled"}
        started = time.perf_counter()
        fault = chaos.active().fire("service.compact",
                                    label=f"shard{self.shard_id}")
        chaos_step: Optional[int] = None
        if fault is not None and fault.mode == "crash":
            chaos_step = int(fault.arg) if fault.arg is not None else 2

        def crashed(step: int) -> bool:
            if chaos_step == step:  # pragma: no cover - dies by SIGKILL
                os.kill(os.getpid(), signal.SIGKILL)
            return crash_after_step == step

        cur = checkpoint_path(self.run_dir, self.shard_id)
        prev = prev_checkpoint_path(self.run_dir, self.shard_id)
        covered = self.journal.total_records
        base = self.journal.base
        frozen = {}
        for tenant, meta in self.store.meta.items():
            state = self.store.resident_state(tenant)
            frozen[tenant] = (meta, state.predictor if state else None)
        payload = build_checkpoint(self.shard_id, self.spec, covered, frozen)
        report = {"completed": False, "journal_records": covered,
                  "base": base}
        scratch = cur.with_name(cur.name + ".tmp")
        with synced_file(scratch) as sink:                    # step 0
            sink.write(canonical_json(payload) + b"\n")
        if crashed(0):
            return report
        if cur.exists():
            os.replace(cur, prev)                             # step 1
        if crashed(1):
            return report
        os.replace(scratch, cur)                              # step 2
        if crashed(2):
            return report
        if covered > base:
            # An empty live segment stays live: sealing it would hold
            # no record and would collide with the next seal's name.
            self.journal.seal(sealed_path(self.run_dir, self.shard_id,
                                          base))              # step 3
            if crashed(3):
                return report
            self.journal.open_segment(covered)                # step 4
            if crashed(4):
                return report
        self._batches_since_checkpoint = 0
        elapsed = time.perf_counter() - started
        self.metrics.counter("shard.checkpoints").inc()
        self.metrics.counter("shard.compactions").inc()
        self.metrics.histogram("shard.checkpoint_seconds").observe(
            max(elapsed, 1e-9))
        report.update(completed=True, seconds=round(elapsed, 6))
        self.last_compaction = report
        self.tracer.event("shard_compacted", shard=self.shard_id,
                          journal_records=covered, base=base)
        return report

    def maybe_compact(self) -> Optional[dict]:
        """Compact when the applied-batch cadence says so (0 = never)."""
        if (self.checkpoint_interval
                and not self.journal.disabled
                and self._batches_since_checkpoint
                >= self.checkpoint_interval):
            return self.compact()
        return None

    def handle(self, tenant: str, bid: int, pcs, targets,
               want_predictions: bool = False) -> dict:
        """Run one batch through the exactly-once ladder; returns the reply.

        The reply is the body of the client-visible response (sans
        transport fields): ``{"status": "ok", ...}`` with cumulative
        counters, or ``{"status": "shed", "reason":
        "journal_unavailable"}`` once the journal has degraded.
        """
        plan = chaos.active()
        plan.inject("service.slow_shard", label=tenant)
        plan.inject("service.shard_exit", label=tenant)
        if not valid_tenant(tenant) or not isinstance(bid, int) or bid < 1:
            return {"status": "error", "retryable": False,
                    "reason": f"bad tenant/bid: {tenant!r}/{bid!r}"}
        if len(pcs) != len(targets):
            return {"status": "error", "retryable": False,
                    "reason": f"pcs/targets length mismatch "
                              f"({len(pcs)} vs {len(targets)})"}
        if bid <= self.store.last_bid(tenant):
            # Already applied; the earlier response was lost in a crash
            # or timeout.  Answer idempotently from the counters.
            self.duplicates += 1
            self.metrics.counter("shard.duplicates").inc()
            return {"status": "ok", "applied": False, "batch_misses": 0,
                    **self.store.cumulative(tenant)}
        if not self.journal.append(tenant, bid, pcs, targets):
            self.metrics.counter("shard.journal_sheds").inc()
            return {"status": "shed", "reason": "journal_unavailable"}
        misses, predictions = self.store.apply_batch(
            tenant, bid, pcs, targets, want_predictions)
        self.batches += 1
        self.metrics.counter("shard.batches").inc()
        self.metrics.counter("shard.events").inc(len(pcs))
        self.metrics.counter("shard.misses").inc(misses)
        self.metrics.histogram("shard.batch_events").observe(len(pcs))
        reply = {"status": "ok", "applied": True, "batch_misses": misses,
                 **self.store.cumulative(tenant)}
        if predictions is not None:
            reply["predictions"] = predictions
        if plan.inject("tenant.churn", label=tenant) is not None:
            self.store.evict(tenant)
        self._batches_since_checkpoint += 1
        self.maybe_compact()
        self._sync_metrics()
        return reply

    def _sync_metrics(self) -> None:
        """Mirror the store's cumulative totals into the registry.

        Eviction/reload totals live in the store; the registry counters
        advance by the delta since the last sync so they stay monotonic.
        Tenant/residency levels are gauges (merge = fleet-wide sum).
        """
        for name in self._synced:
            total = getattr(self.store, name)
            delta = total - self._synced[name]
            if delta > 0:
                self.metrics.counter(f"shard.{name}").inc(delta)
                self._synced[name] = total
        self.metrics.gauge("shard.tenants").set(len(self.store.meta))
        self.metrics.gauge("shard.resident").set(self.store.resident_count)
        self.metrics.gauge("shard.journal_disabled").set(
            1 if self.journal.disabled else 0)

    def stats(self) -> dict:
        self._sync_metrics()
        return {
            "shard": self.shard_id,
            "batches": self.batches,
            "duplicates": self.duplicates,
            "replayed": self.replayed,
            "tenants": len(self.store.meta),
            "resident": self.store.resident_count,
            "evictions": self.store.evictions,
            "reloads": self.store.reloads,
            "reload_replays": self.store.reload_replays,
            "journal_disabled": self.journal.disabled,
            "metrics": self.metrics.snapshot(),
        }

    def metrics_snapshot(self) -> dict:
        """Current ``repro-metrics-snapshot/1`` of this shard."""
        self._sync_metrics()
        return self.metrics.snapshot()

    def write_snapshot(self) -> Path:
        """Atomically write the final per-tenant state snapshot."""
        target = snapshot_path(self.run_dir, self.shard_id)
        payload = {
            "schema": TENANTS_SCHEMA,
            "shard": self.shard_id,
            "spec": self.spec,
            "journal_disabled": self.journal.disabled,
            "tenants": self.store.snapshot(),
        }
        with atomic_file(target, "w") as sink:
            sink.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return target

    def close(self) -> None:
        self.journal.close()


def shard_main(
    shard_id: int,
    spec: str,
    run_dir: str,
    channel: socket.socket,
    chaos_plan_path: Optional[str],
    max_resident: int,
    parent_pid: int,
    metrics_interval: float = 1.0,
    checkpoint_interval: int = 0,
) -> None:
    """Process entry point: recover shard state, then serve ``channel``.

    ``channel`` is the shard's end of its socketpair, used as a
    :class:`~multiprocessing.connection.Connection`.  Requests, run in
    arrival order: ``("batch", req_id, tenant, bid, pcs, targets,
    want_predictions)``, ``("stop",)``; ``("stats", req_id)`` is
    answered ahead of queued batches.  Messages back: ``("ok", req_id,
    reply)``, ``("shed", req_id, reason)``, ``("err", req_id, type,
    message)``, ``("event", name, attrs)``, ``("span", name, seconds,
    attrs)``, ``("stats", req_id, payload)``, ``("metrics", shard_id,
    snapshot)`` — on ``stop``, the last before the shard exits.  A closed
    channel or a changed parent pid means the server is gone: the shard
    exits quietly, an orphan.
    """
    conn = Connection(channel.detach())
    if chaos_plan_path:
        # Share the parent's fired-fault tickets, like pool workers do.
        chaos.install(chaos.ChaosPlan.load(chaos_plan_path))
    tracer = Tracer()
    core: Optional[ShardCore] = None
    try:
        core = ShardCore(shard_id, spec, Path(run_dir),
                         max_resident=max_resident, tracer=tracer,
                         checkpoint_interval=checkpoint_interval)
        if core.recovery.get("fallbacks"):
            # Salvaged past a corrupt/stale checkpoint: survivable, but
            # the server must record the degradation in its manifest.
            conn.send(("event", "checkpoint_fallback", {
                "shard": shard_id,
                "count": core.recovery["fallbacks"],
                "quarantined": core.recovery["quarantined"],
                "source": core.recovery["source"],
            }))
        conn.send(("event", "shard_ready", {
            "shard": shard_id, "replayed": core.replayed,
            "recovery": core.recovery,
        }))
        _shard_loop(core, conn, parent_pid, metrics_interval)
    except (EOFError, BrokenPipeError, ConnectionResetError):
        return  # orphaned: the server closed its end of the channel
    except Exception as exc:  # pragma: no cover - crash diagnostics
        conn.send(("event", "shard_error", {
            "shard": shard_id,
            "error": f"{type(exc).__name__}: {exc}",
            "trace": traceback.format_exc(limit=5),
        }))
        sys.exit(1)
    finally:
        if core is not None:
            core.close()


def _shard_loop(core: ShardCore, conn: Connection, parent_pid: int,
                metrics_interval: float = 1.0) -> None:
    journal_was_disabled = False
    last_publish = time.monotonic()

    def maybe_publish() -> None:
        # Periodic snapshot to the server — after batches and on idle
        # polls alike, so a quiet shard still reports its gauges.
        nonlocal last_publish
        now = time.monotonic()
        if now - last_publish >= metrics_interval:
            last_publish = now
            conn.send(("metrics", core.shard_id, core.metrics_snapshot()))

    ready = select.poll()
    ready.register(conn.fileno(), select.POLLIN)
    queued = deque()
    while True:
        # Take in every request already sent before the next batch runs:
        # ``stats`` is answered at once, not behind the pipelined batches.
        while ready.poll(0 if queued else _POLL_SECONDS * 1000):
            message = conn.recv()
            if message[0] == "stats":
                conn.send(("stats", message[1], core.stats()))
            else:
                queued.append(message)
        if not queued:
            if os.getppid() != parent_pid:
                return  # orphaned: the server died without stopping us
            maybe_publish()
            continue
        message = queued.popleft()
        if message[0] == "stop":
            conn.send(("metrics", core.shard_id, core.metrics_snapshot()))
            core.write_snapshot()
            return
        _, req_id, tenant, bid, pcs, targets, want_predictions = message
        started = time.perf_counter()
        try:
            reply = core.handle(tenant, bid, pcs, targets, want_predictions)
        except ReproError as exc:
            conn.send(("err", req_id, type(exc).__name__, str(exc)))
            continue
        elapsed = time.perf_counter() - started
        core.metrics.histogram("shard.batch_seconds").observe(elapsed)
        if core.last_compaction is not None:
            report, core.last_compaction = core.last_compaction, None
            conn.send(("span", "compact", report["seconds"], {
                "shard": core.shard_id,
                "journal_records": report["journal_records"],
            }))
        maybe_publish()
        reply["shard_seconds"] = round(elapsed, 6)
        if reply["status"] == "shed":
            conn.send(("shed", req_id, reply["reason"]))
        else:
            conn.send(("ok", req_id, reply))
        if core.journal.disabled and not journal_was_disabled:
            journal_was_disabled = True
            conn.send(("event", "journal_off", {"shard": core.shard_id}))
