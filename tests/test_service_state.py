"""Tests for tenant state, the shard journal, LRU residency, and replay."""

import json
from array import array

import pytest

from repro.core.columns import encode_columns
from repro.errors import ServiceError
from repro.service.replay import replay_records, replay_run, write_replay
from repro.service.shard import ShardCore, journal_path
from repro.service.state import (
    ShardJournal, TenantMeta, TenantStore, read_service_journal,
    valid_tenant,
)
from repro.runtime.cache import TraceCache
from repro.workloads.io import load_trace, save_trace
from repro.workloads.program import WorkloadConfig, generate_trace

SPEC = "btb:entries=64,assoc=2"
HYBRID = "hybrid:p1=3,p2=1,entries=128,assoc=4,meta=bpst"


def batch(seed, events=40):
    trace = generate_trace(WorkloadConfig(name="t", events=events, seed=seed))
    return list(trace.pcs), list(trace.targets)


class TestTenantMeta:
    def test_digest_is_deterministic(self):
        a, b = TenantMeta(), TenantMeta()
        pcs, targets = batch(1)
        for meta in (a, b):
            meta.absorb(1, pcs, targets, misses=7)
        assert a.digest() == b.digest()
        assert a.to_dict() == b.to_dict()

    def test_digest_covers_order_and_misses(self):
        pcs1, tg1 = batch(1)
        pcs2, tg2 = batch(2)
        forward, backward, drifted = TenantMeta(), TenantMeta(), TenantMeta()
        forward.absorb(1, pcs1, tg1, 3)
        forward.absorb(2, pcs2, tg2, 3)
        backward.absorb(1, pcs2, tg2, 3)
        backward.absorb(2, pcs1, tg1, 3)
        drifted.absorb(1, pcs1, tg1, 3)
        drifted.absorb(2, pcs2, tg2, 4)  # same stream, different behaviour
        assert forward.digest() != backward.digest()
        assert forward.digest() != drifted.digest()

    def test_valid_tenant(self):
        assert valid_tenant("t00")
        assert valid_tenant("alpha.beta-1_x")
        assert not valid_tenant("")
        assert not valid_tenant(".hidden")
        assert not valid_tenant("a" * 65)
        assert not valid_tenant(42)


class TestShardJournal:
    def test_append_and_reopen_replays(self, tmp_path):
        path = tmp_path / "journal-0.jsonl"
        journal = ShardJournal(path, 0, SPEC)
        pcs, targets = batch(1)
        assert journal.append("t00", 1, pcs, targets)
        journal.close()

        reopened = ShardJournal(path, 0, SPEC)
        assert [r["tenant"] for r in reopened.replayed] == ["t00"]
        assert reopened.replayed[0]["pcs"] == pcs
        reopened.close()

    def test_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "journal-0.jsonl"
        journal = ShardJournal(path, 0, SPEC)
        pcs, targets = batch(1)
        journal.append("t00", 1, pcs, targets)
        journal.close()
        good = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "accept", "tenant": "t01", "bi')  # SIGKILL

        reopened = ShardJournal(path, 0, SPEC)
        assert len(reopened.replayed) == 1
        reopened.close()
        assert path.stat().st_size == good

    def test_header_mismatch_raises(self, tmp_path):
        path = tmp_path / "journal-0.jsonl"
        ShardJournal(path, 0, SPEC).close()
        with pytest.raises(ServiceError, match="belongs to shard"):
            ShardJournal(path, 1, SPEC)
        with pytest.raises(ServiceError, match="belongs to shard"):
            ShardJournal(path, 0, "btb:entries=128,assoc=4")


class TestTenantStore:
    def _store(self, tmp_path, max_resident=2):
        cache = TraceCache(tmp_path / "cache")
        return TenantStore(SPEC, cache, max_resident=max_resident)

    def test_eviction_then_reload_is_bit_identical(self, tmp_path):
        # The contract's heart: a tenant that was evicted and rebuilt
        # must end on the same digest as one that never left memory.
        streams = [batch(seed) for seed in (1, 2, 3)]
        evicted = self._store(tmp_path / "a", max_resident=1)
        resident = self._store(tmp_path / "b", max_resident=8)
        for store in (evicted, resident):
            for bid, (pcs, targets) in enumerate(streams, start=1):
                store.apply_batch("t00", bid, pcs, targets)
                if store is evicted:
                    # Interleave another tenant so t00 gets LRU-evicted.
                    store.apply_batch("other", bid, *batch(9))
        assert evicted.evictions > 0
        assert evicted.reloads > 0
        assert (evicted.snapshot()["t00"]["digest"]
                == resident.snapshot()["t00"]["digest"])

    def test_reload_divergence_is_detected(self, tmp_path):
        store = self._store(tmp_path, max_resident=1)
        pcs, targets = batch(1)
        store.apply_batch("t00", 1, pcs, targets)
        store.evict("t00")
        store.meta["t00"].misses += 1  # simulate silent state corruption
        with pytest.raises(ServiceError, match="divergence"):
            store.apply_batch("t00", 2, *batch(2))

    def test_evicted_tenant_without_parked_stream_raises(self, tmp_path):
        store = self._store(tmp_path, max_resident=1)
        pcs, targets = batch(1)
        store.apply_batch("t00", 1, pcs, targets)
        store._resident.clear()  # lost without an evict or a journal
        with pytest.raises(ServiceError, match="no parked stream"):
            store.apply_batch("t00", 2, *batch(2))


class EventLog:
    """A tracer stand-in that keeps every event with its attributes."""

    def __init__(self):
        self.events = []

    def event(self, name, **attrs):
        self.events.append((name, attrs))

    def reload_sources(self):
        return [attrs["source"] for name, attrs in self.events
                if name == "tenant_reload"]


class TestParkedState:
    """Reload imports the parked state only when it is bound to the
    tenant's live counters; every other case replays and audits."""

    def _store(self, tmp_path, spec=HYBRID):
        log = EventLog()
        store = TenantStore(spec, TraceCache(tmp_path / "cache"),
                            max_resident=1, tracer=log)
        return store, log

    def _park(self, store):
        store.apply_batch("t00", 1, *batch(1, events=200))
        store.apply_batch("t01", 1, *batch(2))  # evicts t00
        return store.cache.path_for("tenant-t00")

    def _rewrite(self, path, edit):
        trace = load_trace(path)
        edit(trace.metadata.extra)
        save_trace(trace, path)

    def _finish(self, store, spec=HYBRID):
        """Reload t00 with batch 2; it must match a never-evicted twin."""
        store.apply_batch("t00", 2, *batch(3, events=200))
        twin = TenantStore(spec, store.cache, max_resident=8)
        for bid, seed in ((1, 1), (2, 3)):
            twin.apply_batch("twin", bid, *batch(seed, events=200))
        live = store.snapshot()["t00"]
        assert (live["events"], live["misses"]) == (
            twin.meta["twin"].events, twin.meta["twin"].misses)
        assert store.reloads == 1

    def test_evict_then_reload_imports_state(self, tmp_path):
        store, log = self._store(tmp_path)
        path = self._park(store)
        parked = load_trace(path).metadata.extra["state"]
        meta = store.meta["t00"]
        assert (parked["events"], parked["misses"], parked["digest"]) == (
            meta.events, meta.misses, meta.digest())
        self._finish(store)
        assert log.reload_sources() == ["state"]
        assert store.reload_replays == 0

    def test_mismatched_binding_falls_back_to_replay(self, tmp_path):
        store, log = self._store(tmp_path)
        path = self._park(store)

        def stale(extra):
            extra["state"]["misses"] += 1
        self._rewrite(path, stale)
        self._finish(store)
        assert log.reload_sources() == ["replay"]
        assert store.reload_replays == 1

    def test_unloadable_state_falls_back_to_replay(self, tmp_path):
        store, log = self._store(tmp_path)
        path = self._park(store)

        def emptied(extra):
            columns = extra["state"]["columns"]
            columns["c0.table"] = columns["c0.table"][:-12] + "AAAAAAAAAAAA"
            columns["selector"] = "%%%"
        self._rewrite(path, emptied)
        self._finish(store)
        assert log.reload_sources() == ["replay"]

    def test_state_that_does_not_fit_falls_back_to_replay(self, tmp_path):
        store, log = self._store(tmp_path)
        path = self._park(store)

        def too_many_ways(extra):
            extra["state"]["columns"]["c0.table"] = (
                encode_columns({"table": array("q", [0, 1, 0, 0, 32, 1, 0, 0,
                                                     64, 1, 0, 0, 96, 1, 0, 0,
                                                     128, 1, 0, 0])})["table"])
        self._rewrite(path, too_many_ways)
        self._finish(store)
        assert log.reload_sources() == ["replay"]

    def test_trace_without_state_replays(self, tmp_path):
        spec = "twolevel:p=3,precision=full,address=concat,entries=none"
        store, log = self._store(tmp_path, spec)
        path = self._park(store)  # wide keys: the stream is parked alone
        assert "state" not in load_trace(path).metadata.extra
        self._finish(store, spec)
        assert log.reload_sources() == ["replay"]


class TestShardCore:
    def test_evict_reload_cycle_takes_the_import_path(self, tmp_path):
        core = ShardCore(0, HYBRID, tmp_path, max_resident=1)
        for bid in (1, 2, 3):
            for tenant in ("t00", "t01"):
                assert core.handle(tenant, bid, *batch(bid))["status"] == "ok"
        counters = core.metrics_snapshot()["counters"]
        assert counters["shard.reloads"] == 4
        assert counters["shard.reload_replays"] == 0
        assert core.stats()["reload_replays"] == 0
        core.close()

    def test_stream_for_concatenates_in_order(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path)
        pcs1, tg1 = batch(1)
        pcs2, tg2 = batch(2)
        core.handle("t00", 1, pcs1, tg1)
        core.handle("t01", 1, pcs2, tg2)  # interleaved other tenant
        core.handle("t00", 2, pcs2, tg2)
        pcs, targets = core.stream_for("t00")
        assert pcs == pcs1 + pcs2
        assert targets == tg1 + tg2
        core.close()

    def test_duplicate_bid_answers_idempotently(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path)
        pcs, targets = batch(1)
        first = core.handle("t00", 1, pcs, targets)
        assert first["status"] == "ok" and first["applied"]
        replayed = core.handle("t00", 1, pcs, targets)
        assert replayed["status"] == "ok"
        assert replayed["applied"] is False
        assert replayed["digest"] == first["digest"]
        assert core.duplicates == 1
        core.close()

    def test_invalid_tenant_and_bid_rejected(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path)
        assert core.handle("", 1, [1], [2])["status"] == "error"
        assert core.handle("t00", 0, [1], [2])["status"] == "error"
        assert core.handle("t00", 1, [1, 2], [3])["status"] == "error"
        core.close()

    def test_dead_journal_sheds_instead_of_applying(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path)
        core.journal.disabled = True
        reply = core.handle("t00", 1, *batch(1))
        assert reply == {"status": "shed", "reason": "journal_unavailable"}
        assert core.store.cumulative("t00")["events"] == 0
        core.close()

    def test_want_predictions_returns_aligned_vector(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path)
        pcs, targets = batch(1, events=16)
        reply = core.handle("t00", 1, pcs, targets, want_predictions=True)
        assert len(reply["predictions"]) == len(pcs)
        assert reply["batch_misses"] == reply["misses"]
        core.close()

    def test_respawn_replays_journal_to_same_digest(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path)
        for bid in (1, 2, 3):
            core.handle("t00", bid, *batch(bid))
        before = core.store.snapshot()["t00"]
        core.close()

        respawned = ShardCore(0, SPEC, tmp_path)
        assert respawned.replayed == 3
        assert respawned.store.snapshot()["t00"] == before
        # And the watermark survived: the old batches are duplicates.
        reply = respawned.handle("t00", 3, *batch(3))
        assert reply["applied"] is False
        respawned.close()


class TestReplay:
    def _serve_in_process(self, run_dir, tenants=3, batches=3):
        core = ShardCore(0, SPEC, run_dir)
        for index in range(tenants):
            for bid in range(1, batches + 1):
                reply = core.handle(f"t{index:02d}", bid,
                                    *batch(100 * index + bid))
                assert reply["status"] == "ok"
        snapshot = core.store.snapshot()
        core.close()
        return snapshot

    def test_offline_replay_matches_live_digests(self, tmp_path):
        snapshot = self._serve_in_process(tmp_path)
        _, records = read_service_journal(journal_path(tmp_path, 0))
        replayed = replay_records(SPEC, {0: records})
        for tenant, live in snapshot.items():
            assert replayed[tenant]["digest"] == live["digest"]
            assert replayed[tenant]["events"] == live["events"]
            assert replayed[tenant]["misses"] == live["misses"]

    def test_write_replay_emits_tenants_json(self, tmp_path):
        self._serve_in_process(tmp_path)
        out = write_replay(tmp_path, tmp_path / "replay")
        payload = json.loads(out.read_text())
        assert payload["schema"] == "repro-service-tenants/1"
        assert payload["spec"] == SPEC
        assert len(payload["tenants"]) == 3

    def test_cross_shard_tenant_is_a_routing_violation(self, tmp_path):
        pcs, targets = batch(1)
        record = {"tenant": "t00", "bid": 1, "pcs": pcs, "targets": targets}
        with pytest.raises(ServiceError, match="routing violation"):
            replay_records(SPEC, {0: [record], 1: [record]})

    def test_replay_run_requires_journals(self, tmp_path):
        with pytest.raises(ServiceError, match="no journal"):
            replay_run(tmp_path)
