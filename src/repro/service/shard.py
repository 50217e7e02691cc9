"""The shard worker process: owns one partition of the tenant space.

A shard is a single-threaded loop over a multiprocessing request queue.
Per batch it runs the exactly-once ladder:

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
5. **churn** — a fired ``tenant.churn`` fault force-evicts the tenant's
   state to the trace cache, exercising the evict/reload path under
   load.

On a stop sentinel the shard writes its final per-tenant snapshot
(``tenants-<k>.json``) atomically and exits.  On startup it replays its
journal, which is also how a respawned shard recovers everything its
predecessor accepted.

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
import queue
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..core.factory import predictor_from_spec
from ..errors import ReproError, ServiceError
from ..runtime import chaos
from ..runtime.cache import TraceCache
from ..runtime.metrics import MetricsRegistry
from ..runtime.records import atomic_file, synced_file
from ..runtime.telemetry import Tracer
from ..sim.engine import resolve_kernel
from .checkpoint import (
    build_checkpoint, checkpoint_path, load_checkpoint,
    prev_checkpoint_path, quarantine_checkpoint, read_tenant_stream,
    restore_predictor,
)
from .state import (
    ShardJournal, TENANTS_SCHEMA, TenantMeta, TenantState, TenantStore,
    valid_tenant,
)

#: Completed steps of the compaction protocol, in order; the
#: ``service.compact`` chaos arg / ``crash_after_step`` index into this.
COMPACTION_STEPS = (
    "checkpoint_temp_written",    # 0: payload fsync'd to snapshot tmp
    "checkpoint_rotated",         # 1: old checkpoint renamed to .prev
    "checkpoint_published",       # 2: tmp renamed over the checkpoint
    "journal_segment_written",    # 3: compacted journal fsync'd to .compact
    "journal_swapped",            # 4: .compact renamed over the journal
)

#: Seconds a shard blocks on its request queue before orphan-checking.
_POLL_SECONDS = 0.2


def journal_path(run_dir: Path, shard_id: int) -> Path:
    return Path(run_dir) / f"journal-{shard_id}.jsonl"


def snapshot_path(run_dir: Path, shard_id: int) -> Path:
    return Path(run_dir) / f"tenants-{shard_id}.json"


class ShardCore:
    """The testable heart of a shard: queues and processes stripped away.

    Startup runs the **salvage ladder** (newest checkpoint → previous
    checkpoint → full journal replay), then replays the journal tail —
    so recovery cost is O(events since the last checkpoint).  Every
    ``checkpoint_interval`` applied batches :meth:`compact` writes a
    fresh ``repro-shard-snapshot/1`` checkpoint and compacts the journal
    behind it (see :data:`COMPACTION_STEPS`); ``checkpoint_interval`` 0
    disables checkpointing (the pre-checkpoint behavior).

    ``kernel`` is resolved through the offline engine's
    :func:`~repro.sim.engine.resolve_kernel`: where the vectorized batch
    kernel supports the spec, *from-reset* full-journal replays run
    through it (bit-identical by the kernel-equivalence contract);
    everywhere else — incremental applies, tail replays on warm state,
    unsupported specs — the event engine is used silently.
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
        self.kernel_choice, self._kernel_config = "event", None
        if kernel != "event":
            probe = predictor_from_spec(spec)
            self.kernel_choice, _ = resolve_kernel(probe, kernel=kernel)
            self._kernel_config = getattr(probe, "config", None)
        self._clean_compaction_strays()
        self.journal = ShardJournal(journal_path(self.run_dir, shard_id),
                                    shard_id, spec)
        cache = TraceCache(self.run_dir / "tenant-cache")
        cache.tracer = self.tracer
        self.store = TenantStore(
            spec, cache, max_resident=max_resident,
            journal_stream=self.stream_for, tracer=self.tracer,
        )
        self.batches = 0
        self.duplicates = 0
        self.replayed = len(self.journal.replayed)
        self.metrics = MetricsRegistry()
        self.metrics.counter("shard.replayed").inc(self.replayed)
        # Base checkpoint the journal tail extends: path + covered
        # watermark (0 / None = no checkpoint, journal is the full
        # history).  ``_cur_covered`` tracks the validated coverage of
        # the *current* checkpoint file for the next compaction's lag-one
        # base; ``_base_is_prev`` marks recovery off the .prev fallback.
        self._base_path: Optional[Path] = None
        self._base_covered = 0
        self._cur_covered: Optional[int] = None
        self._base_is_prev = False
        self._batches_since_checkpoint = 0
        self.recovery = self._recover()
        self._synced = {"evictions": 0, "reloads": 0}
        self._sync_metrics()

    # -- recovery ------------------------------------------------------------

    def _clean_compaction_strays(self) -> None:
        """Unlink half-written temp files from a crash mid-compaction.

        Both temp artifacts (checkpoint ``.tmp``, journal ``.compact``)
        are only ever *sources* of an ``os.replace``; one left on disk
        means the crash landed before its publish step, so the published
        files are the truth and the stray is garbage.
        """
        cur = checkpoint_path(self.run_dir, self.shard_id)
        journal = journal_path(self.run_dir, self.shard_id)
        for stray in (cur.with_name(cur.name + ".tmp"),
                      journal.with_name(journal.name + ".compact")):
            if stray.exists():
                stray.unlink()

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
                if covered < self.journal.base:
                    raise ServiceError(
                        f"{path}: covers {covered} records but the journal "
                        f"already compacted {self.journal.base}")
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
            self._base_path = path
            self._base_covered = covered
            self._base_is_prev = source == "checkpoint_prev"
            self._cur_covered = covered if source == "checkpoint" else None
            break
        if loaded is not None:
            payload = loaded["payload"]
            for tenant, meta in loaded["metas"].items():
                predictor = restore_predictor(payload["tenants"][tenant])
                state = None
                if predictor is not None:
                    pcs, targets = loaded["streams"][tenant]
                    state = TenantState.restore(predictor, pcs, targets)
                self.store.adopt(tenant, meta, state)
            tail = self.journal.records[
                self._base_covered - self.journal.base:]
            for record in tail:
                self.store.replay_batch(record["tenant"], record["bid"],
                                        record["pcs"], record["targets"])
            info["tail_records"] = len(tail)
            info["tail_events"] = sum(len(r["pcs"]) for r in tail)
        elif self.journal.base:
            # Every checkpoint failed and the journal prefix is gone:
            # nothing can re-prove the compacted records.  Refuse loudly
            # rather than serve unauditable state.
            raise ServiceError(
                f"shard {self.shard_id}: journal compacted to base "
                f"{self.journal.base} but no valid checkpoint covers it "
                f"(fallbacks: {info['fallbacks']})"
            )
        elif self.journal.records:
            info["source"] = "journal"
            info["tail_records"] = len(self.journal.records)
            info["tail_events"] = sum(
                len(r["pcs"]) for r in self.journal.records)
            self._replay_full_journal()
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

    def _replay_full_journal(self) -> None:
        """From-reset replay of the whole journal (base 0).

        The one replay shape the vectorized batch kernel supports: every
        tenant starts from reset, so per-tenant misses equal one
        ``batch_run_trace`` over the concatenated stream.  Tenants are
        adopted *cold* (counters + digest chain; predictors rebuild
        lazily by replay on first touch).  Where the kernel is
        unavailable the event engine replays warm, exactly as before.
        """
        records = self.journal.records
        if self.kernel_choice != "batch" or not records:
            for record in records:
                self.store.replay_batch(record["tenant"], record["bid"],
                                        record["pcs"], record["targets"])
            return
        from ..sim.kernel import batch_run_trace
        metas: Dict[str, TenantMeta] = {}
        streams: Dict[str, Tuple[List[int], List[int]]] = {}
        for record in records:
            tenant = record["tenant"]
            meta = metas.setdefault(tenant, TenantMeta())
            meta.absorb(record["bid"], record["pcs"], record["targets"], 0)
            pcs, targets = streams.setdefault(tenant, ([], []))
            pcs.extend(record["pcs"])
            targets.extend(record["targets"])
        for tenant, meta in metas.items():
            pcs, targets = streams[tenant]
            meta.misses = batch_run_trace(self._kernel_config, pcs, targets)
            self.store.adopt(tenant, meta)

    def stream_for(self, tenant: str) -> Tuple[List[int], List[int]]:
        """A tenant's full accepted stream: checkpoint base + journal tail.

        The reload fallback :class:`~repro.service.state.TenantStore`
        uses when the trace cache cannot serve a parked stream.  Without
        a checkpoint this is exactly the journal scan it always was.
        """
        if self._base_path is None:
            return self.journal.stream_for(tenant)
        pcs, targets = read_tenant_stream(self._base_path, tenant)
        skip = self._base_covered - self.journal.base
        for record in self.journal.records[skip:]:
            if record["tenant"] == tenant:
                pcs.extend(record["pcs"])
                targets.extend(record["targets"])
        return pcs, targets

    # -- checkpoint + compaction ---------------------------------------------

    def _checkpoint_tenants(self) -> Dict[str, tuple]:
        """Assemble ``tenant -> (meta, pcs, targets, predictor)`` to freeze.

        Resident tenants contribute their live predictor (pickled into
        the checkpoint so recovery restarts warm); parked tenants
        contribute stream columns only and are adopted cold.
        """
        frozen: Dict[str, tuple] = {}
        for tenant, meta in self.store.meta.items():
            state = self.store.resident_state(tenant)
            if state is not None:
                frozen[tenant] = (meta, state.pcs, state.targets,
                                  state.predictor)
            else:
                pcs, targets = self.stream_for(tenant)
                frozen[tenant] = (meta, pcs, targets, None)
        return frozen

    def compact(self, crash_after_step: Optional[int] = None) -> dict:
        """Checkpoint the shard and compact the journal behind it.

        The five steps of :data:`COMPACTION_STEPS` are each individually
        crash-safe: a crash after any step recovers bit-identically,
        because every step either writes to a temp name (cleaned as a
        stray) or is an atomic ``os.replace`` between two states that
        both satisfy the recovery invariant *base(journal) <= covered(a
        valid retained checkpoint) <= total records*.  Retention lags by
        one — the previous checkpoint is kept at ``.prev`` and the new
        journal base is *its* watermark — so salvage of a corrupt
        current checkpoint always finds a fallback that still connects
        to the journal.

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
        # Lag-one retention: the new journal base is the watermark of
        # whatever will occupy the .prev slot after rotation.
        if cur.exists() and self._cur_covered is not None:
            new_base = self._cur_covered
        elif self._base_is_prev:
            new_base = self._base_covered
        else:
            new_base = 0
        payload = build_checkpoint(self.shard_id, self.spec, covered,
                                   self._checkpoint_tenants())
        report = {"completed": False, "journal_records": covered,
                  "base": new_base}
        scratch = cur.with_name(cur.name + ".tmp")
        with synced_file(scratch, "w") as sink:               # step 0
            json.dump(payload, sink, indent=2, sort_keys=True)
            sink.write("\n")
        if crashed(0):
            return report
        if cur.exists():
            os.replace(cur, prev)                             # step 1
        if crashed(1):
            return report
        os.replace(scratch, cur)                              # step 2
        if crashed(2):
            return report
        segment = self.journal.path.with_name(
            self.journal.path.name + ".compact")
        self.journal.write_segment(segment, new_base)         # step 3
        if crashed(3):
            return report
        os.replace(segment, self.journal.path)                # step 4
        if crashed(4):
            return report
        self.journal.reopen_compacted(new_base)               # step 5
        self._base_path = cur
        self._base_covered = covered
        self._cur_covered = covered
        self._base_is_prev = False
        self._batches_since_checkpoint = 0
        elapsed = time.perf_counter() - started
        self.metrics.counter("shard.checkpoints").inc()
        self.metrics.counter("shard.compactions").inc()
        self.metrics.histogram("shard.checkpoint_seconds").observe(
            max(elapsed, 1e-9))
        report.update(completed=True, seconds=round(elapsed, 6))
        self.tracer.event("shard_compacted", shard=self.shard_id,
                          journal_records=covered, base=new_base)
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
        for name in ("evictions", "reloads"):
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
    request_queue,
    response_queue,
    chaos_plan_path: Optional[str],
    max_resident: int,
    parent_pid: int,
    metrics_interval: float = 1.0,
    checkpoint_interval: int = 0,
) -> None:
    """Process entry point: recover shard state, then serve the queue.

    Message grammar (requests): ``("batch", req_id, tenant, bid, pcs,
    targets, want_predictions)``, ``("stats", req_id)``, ``("stop",)``.
    Responses: ``("ok", req_id, reply)``, ``("shed", req_id, reason)``,
    ``("err", req_id, type, message)``, ``("event", name, attrs)``,
    ``("stats", req_id, payload)``, ``("metrics", shard_id, snapshot)``,
    ``("stopped", shard_id)``.
    """
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
            response_queue.put(("event", "checkpoint_fallback", {
                "shard": shard_id,
                "count": core.recovery["fallbacks"],
                "quarantined": core.recovery["quarantined"],
                "source": core.recovery["source"],
            }))
        response_queue.put(("event", "shard_ready", {
            "shard": shard_id, "replayed": core.replayed,
            "recovery": core.recovery,
        }))
        _shard_loop(core, request_queue, response_queue, parent_pid,
                    metrics_interval)
    except Exception as exc:  # pragma: no cover - crash diagnostics
        response_queue.put(("event", "shard_error", {
            "shard": shard_id,
            "error": f"{type(exc).__name__}: {exc}",
            "trace": traceback.format_exc(limit=5),
        }))
        sys.exit(1)
    finally:
        if core is not None:
            core.close()


def _shard_loop(core: ShardCore, request_queue, response_queue,
                parent_pid: int, metrics_interval: float = 1.0) -> None:
    journal_was_disabled = False
    last_publish = time.monotonic()

    def maybe_publish() -> None:
        # Periodic snapshot to the server — after batches and on idle
        # polls alike, so a quiet shard still reports its gauges.
        nonlocal last_publish
        now = time.monotonic()
        if now - last_publish >= metrics_interval:
            last_publish = now
            response_queue.put(("metrics", core.shard_id,
                                core.metrics_snapshot()))

    while True:
        try:
            message = request_queue.get(timeout=_POLL_SECONDS)
        except queue.Empty:
            if os.getppid() != parent_pid:
                return  # orphaned: the server died without stopping us
            maybe_publish()
            continue
        kind = message[0]
        if kind == "stop":
            response_queue.put(("metrics", core.shard_id,
                                core.metrics_snapshot()))
            core.write_snapshot()
            response_queue.put(("stopped", core.shard_id))
            return
        if kind == "stats":
            response_queue.put(("stats", message[1], core.stats()))
            continue
        _, req_id, tenant, bid, pcs, targets, want_predictions = message
        started = time.perf_counter()
        try:
            reply = core.handle(tenant, bid, pcs, targets, want_predictions)
        except ReproError as exc:
            response_queue.put(("err", req_id, type(exc).__name__, str(exc)))
            continue
        elapsed = time.perf_counter() - started
        core.metrics.histogram("shard.batch_seconds").observe(elapsed)
        maybe_publish()
        reply["shard_seconds"] = round(elapsed, 6)
        if reply["status"] == "shed":
            response_queue.put(("shed", req_id, reply["reason"]))
        else:
            response_queue.put(("ok", req_id, reply))
        if core.journal.disabled and not journal_was_disabled:
            journal_was_disabled = True
            response_queue.put(("event", "journal_off", {
                "shard": core.shard_id,
            }))
