"""Crash-recovery tests: checkpoints, compaction crash sweep, salvage.

The invariant under test is the tentpole one: after a crash at *any*
interleaving point of the compaction protocol — and after any salvage
fallback — a restarted shard's per-tenant digests are bit-identical to
a never-crashed twin and to the offline replay oracle.
"""

import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import decode_columns, encode_columns
from repro.errors import ServiceError
from repro.runtime.verify import verify_run
from repro.service.checkpoint import (
    SNAPSHOT_SCHEMA, checkpoint_path, payload_crc,
    prev_checkpoint_path, quarantine_checkpoint, validate_checkpoint,
)
from repro.service.replay import replay_records, replay_run, replay_shard
from repro.service import shard as shard_module
from repro.service.shard import (
    COMPACTION_STEPS, ShardCore, find_sealed, journal_path,
)
from repro.service.state import read_service_journal
from repro.workloads.program import WorkloadConfig, generate_trace

SPEC = "btb:entries=64,assoc=2"


def batch(seed, events=40):
    trace = generate_trace(WorkloadConfig(name="t", events=events, seed=seed))
    return list(trace.pcs), list(trace.targets)


def drive(core, bids, tenants=("a", "b"), events=40):
    """Apply one batch per (bid, tenant); every reply must be ok."""
    for bid in bids:
        for index, tenant in enumerate(tenants):
            pcs, targets = batch(bid * 10 + index, events)
            reply = core.handle(tenant, bid, pcs, targets)
            assert reply["status"] == "ok", reply
    return core


def golden_snapshot(tmp_path, bids, tenants=("a", "b"), events=40):
    """Digests of a never-crashed, never-checkpointed twin run."""
    run_dir = tmp_path / "golden"
    run_dir.mkdir(parents=True, exist_ok=True)
    core = ShardCore(0, SPEC, run_dir, kernel="event")
    drive(core, bids, tenants=tenants, events=events)
    snapshot = core.store.snapshot()
    core.close()
    return snapshot


def corrupt_file(path):
    """Flip one byte mid-file (breaks the CRC, keeps it parseable-ish)."""
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


class TestCheckpointFormat:
    def _payload(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path, kernel="event")
        drive(core, range(1, 4))
        report = core.compact()
        assert report["completed"]
        core.close()
        return json.loads(checkpoint_path(tmp_path, 0).read_text())

    def test_round_trip(self, tmp_path):
        payload = self._payload(tmp_path)
        assert payload["schema"] == SNAPSHOT_SCHEMA == "repro-shard-snapshot/2"
        assert payload["journal_records"] == 6
        result = validate_checkpoint(payload, shard_id=0, spec=SPEC)
        assert sorted(result["metas"]) == ["a", "b"]
        for tenant, entry in payload["tenants"].items():
            # State, never history: no stream columns, no batch bounds.
            assert not {"pcs", "targets", "bounds"} & set(entry)
            assert result["metas"][tenant].events == entry["events"] > 0
            assert sorted(entry["predictor"]) == ["table"]

    def test_crc_flip_rejected(self, tmp_path):
        payload = self._payload(tmp_path)
        payload["journal_records"] = 7
        with pytest.raises(ServiceError, match="CRC"):
            validate_checkpoint(payload)

    def test_wrong_shard_and_spec_rejected(self, tmp_path):
        payload = self._payload(tmp_path)
        with pytest.raises(ServiceError, match="belongs to shard"):
            validate_checkpoint(payload, shard_id=3)
        with pytest.raises(ServiceError, match="spec"):
            validate_checkpoint(payload, spec="btb:entries=128,assoc=1")

    def test_tampered_counters_fail_digest(self, tmp_path):
        payload = self._payload(tmp_path)
        entry = payload["tenants"]["a"]
        entry["misses"] = entry["misses"] + 1
        payload["crc32"] = payload_crc(payload)  # re-arm the CRC
        with pytest.raises(ServiceError, match="inconsistent meta"):
            validate_checkpoint(payload)

    def test_history_checkpoint_schema_rejected(self, tmp_path):
        payload = self._payload(tmp_path)
        payload["schema"] = "repro-shard-snapshot/1"
        payload["crc32"] = payload_crc(payload)
        with pytest.raises(ServiceError, match="schema 'repro-shard-"
                           "snapshot/1' is not repro-shard-snapshot/2"):
            validate_checkpoint(payload)

    def test_quarantine_leaves_sidecar(self, tmp_path):
        path = tmp_path / "snapshot-0.json"
        path.write_text("{}")
        target = quarantine_checkpoint(path, "CRC mismatch")
        assert not path.exists()
        assert target.name == "snapshot-0.json.corrupt"
        sidecar = json.loads(
            (tmp_path / "snapshot-0.json.corrupt.json").read_text())
        assert sidecar["reason"] == "CRC mismatch"

    def test_checkpoint_equals_segment_replay_to_its_watermark(self,
                                                               tmp_path):
        payload = self._payload(tmp_path)
        (sealed,) = find_sealed(tmp_path)[0].values()
        _, records = read_service_journal(sealed)
        assert len(records) == payload["journal_records"]
        replayed = replay_shard(SPEC, records, kernel="event")
        for tenant, entry in payload["tenants"].items():
            meta, predictor = replayed[tenant]
            assert meta.digest() == entry["digest"]
            assert encode_columns(predictor.export_state()) \
                == entry["predictor"]

    def test_size_does_not_grow_with_history(self, tmp_path):
        """Ten times the batches for the same tenants: the checkpoint
        differs only by the decimal digits of its counters."""
        sizes = {}
        for rounds in (8, 80):
            run_dir = tmp_path / f"r{rounds}"
            run_dir.mkdir()
            core = ShardCore(0, SPEC, run_dir, kernel="event")
            drive(core, range(1, rounds + 1), events=64)
            assert core.compact()["completed"]
            core.close()
            sizes[rounds] = checkpoint_path(run_dir, 0).stat().st_size
        growth = sizes[80] - sizes[8]
        assert 0 <= growth <= 32, sizes
        assert growth < 0.01 * sizes[8]


class TestCrashAtEveryStep:
    """The acceptance sweep: crash after each compaction step, recover."""

    @pytest.mark.parametrize("prior_compaction", [False, True])
    @pytest.mark.parametrize(
        "crash_after_step",
        list(range(len(COMPACTION_STEPS))) + [None],
        ids=[f"step{n}" for n in range(len(COMPACTION_STEPS))] + ["complete"],
    )
    def test_recovers_bit_identical(self, tmp_path, crash_after_step,
                                    prior_compaction):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        core = ShardCore(0, SPEC, run_dir, kernel="event")
        drive(core, range(1, 3))
        if prior_compaction:
            assert core.compact()["completed"]
        drive(core, range(3, 5))
        report = core.compact(crash_after_step=crash_after_step)
        assert report["completed"] == (crash_after_step is None)
        # The core is now the corpse of a SIGKILLed process: discard it
        # without close() and recover from the run directory alone.
        golden = golden_snapshot(tmp_path, range(1, 5))
        revived = ShardCore(0, SPEC, run_dir, kernel="event")
        assert revived.recovery["fallbacks"] == 0
        assert revived.store.snapshot() == golden
        # The revived shard must keep serving — and stay identical to a
        # twin that never crashed.
        drive(revived, [5])
        extended = golden_snapshot(tmp_path / "ext", range(1, 6))
        assert revived.store.snapshot() == extended
        # ... and the offline oracle agrees with the live state.
        revived.close()
        _, replayed = replay_run(run_dir, kernel="event")
        for tenant, meta in extended.items():
            assert replayed[tenant]["digest"] == meta["digest"]

    def test_stray_temps_cleaned_on_restart(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path, kernel="event")
        drive(core, range(1, 3))
        core.compact(crash_after_step=0)  # leaves snapshot-0.json.tmp
        assert (tmp_path / "snapshot-0.json.tmp").exists()
        revived = ShardCore(0, SPEC, tmp_path, kernel="event")
        assert not (tmp_path / "snapshot-0.json.tmp").exists()
        revived.close()


class TestSalvageLadder:
    def _compacted_run(self, run_dir, rounds=2):
        run_dir.mkdir(exist_ok=True)
        core = ShardCore(0, SPEC, run_dir, kernel="event")
        bid = 1
        for _ in range(rounds):
            drive(core, range(bid, bid + 2))
            bid += 2
            assert core.compact()["completed"]
        drive(core, [bid])  # a tail past the last checkpoint
        snapshot = core.store.snapshot()
        core.close()
        return snapshot, bid

    def test_corrupt_current_salvages_prev(self, tmp_path):
        live, _ = self._compacted_run(tmp_path / "run")
        run_dir = tmp_path / "run"
        corrupt_file(checkpoint_path(run_dir, 0))
        revived = ShardCore(0, SPEC, run_dir, kernel="event")
        assert revived.recovery["source"] == "checkpoint_prev"
        assert revived.recovery["fallbacks"] == 1
        assert revived.recovery["quarantined"] == ["snapshot-0.json.corrupt"]
        assert (run_dir / "snapshot-0.json.corrupt").exists()
        assert (run_dir / "snapshot-0.json.corrupt.json").exists()
        assert revived.store.snapshot() == live
        revived.close()

    def test_corrupt_both_replays_the_segments_from_genesis(self, tmp_path):
        live, _ = self._compacted_run(tmp_path / "run", rounds=3)
        run_dir = tmp_path / "run"
        corrupt_file(checkpoint_path(run_dir, 0))
        corrupt_file(prev_checkpoint_path(run_dir, 0))
        assert len(find_sealed(run_dir)[0]) == 3
        revived = ShardCore(0, SPEC, run_dir, kernel="event")
        assert revived.recovery["source"] == "journal"
        assert revived.recovery["fallbacks"] == 2
        assert revived.store.snapshot() == live
        revived.close()

    @pytest.mark.parametrize("damage", ["missing", "corrupt"])
    def test_lost_sealed_segment_with_no_checkpoint_refuses(self, tmp_path,
                                                           damage):
        self._compacted_run(tmp_path / "run", rounds=3)
        run_dir = tmp_path / "run"
        corrupt_file(checkpoint_path(run_dir, 0))
        corrupt_file(prev_checkpoint_path(run_dir, 0))
        segment = list(find_sealed(run_dir)[0].values())[1]
        if damage == "missing":
            segment.unlink()
        else:
            with open(segment, "r+b") as sink:  # a garbage line mid-file
                sink.seek(segment.stat().st_size // 2)
                sink.write(b"\n#garbage\n")
        with pytest.raises(ServiceError, match="missing or corrupt sealed "
                                               "journal segment"):
            ShardCore(0, SPEC, run_dir, kernel="event")

    def test_prev_fallback_needs_its_sealed_segment(self, tmp_path):
        self._compacted_run(tmp_path / "run")
        run_dir = tmp_path / "run"
        corrupt_file(checkpoint_path(run_dir, 0))
        list(find_sealed(run_dir)[0].values())[-1].unlink()  # past .prev
        with pytest.raises(ServiceError, match="a sealed segment is "
                                               "missing"):
            ShardCore(0, SPEC, run_dir, kernel="event")

    def test_corrupt_checkpoint_with_full_journal_replays(self, tmp_path):
        # One compaction: no .prev yet, so losing the checkpoint falls
        # straight to a full replay of the sealed + live segments.
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        core = ShardCore(0, SPEC, run_dir, kernel="event")
        drive(core, range(1, 3))
        assert core.compact()["completed"]
        drive(core, [3])
        live = core.store.snapshot()
        core.close()
        corrupt_file(checkpoint_path(run_dir, 0))
        revived = ShardCore(0, SPEC, run_dir, kernel="event")
        assert revived.recovery["source"] == "journal"
        assert revived.recovery["fallbacks"] == 1
        assert revived.store.snapshot() == live
        revived.close()

    def test_history_checkpoint_is_quarantined_then_refused(self, tmp_path):
        """A ``repro-shard-snapshot/1`` checkpoint over a journal its
        writer trimmed: quarantined like any unknown schema, and with the
        trimmed prefix gone nothing can re-prove the history."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        core = ShardCore(0, SPEC, run_dir, kernel="event")
        drive(core, range(1, 3))
        assert core.compact()["completed"]
        drive(core, [3])
        core.close()
        path = checkpoint_path(run_dir, 0)
        payload = json.loads(path.read_text())
        payload["schema"] = "repro-shard-snapshot/1"
        payload["crc32"] = payload_crc(payload)
        path.write_text(json.dumps(payload))
        for sealed in find_sealed(run_dir)[0].values():
            sealed.unlink()  # the old format kept no sealed segments
        with pytest.raises(ServiceError, match="missing or corrupt sealed"):
            ShardCore(0, SPEC, run_dir, kernel="event")
        sidecar = json.loads(
            (run_dir / "snapshot-0.json.corrupt.json").read_text())
        assert "schema 'repro-shard-snapshot/1' is not " \
            "repro-shard-snapshot/2" in sidecar["reason"]

    def test_recovery_metrics_surface(self, tmp_path):
        live, _ = self._compacted_run(tmp_path / "run")
        run_dir = tmp_path / "run"
        corrupt_file(checkpoint_path(run_dir, 0))
        revived = ShardCore(0, SPEC, run_dir, kernel="event")
        snapshot = revived.metrics_snapshot()
        counters = snapshot["counters"]
        assert counters["shard.recoveries"] == 1
        assert counters["shard.checkpoint_fallbacks"] == 1
        assert counters["shard.tail_replayed"] > 0
        assert "shard.recovery_seconds" in snapshot["histograms"]
        revived.close()


class TestStateInCheckpoints:
    def _checkpointed(self, run_dir, max_resident=8, tenants=("a", "b"),
                      spec=SPEC):
        run_dir.mkdir(parents=True, exist_ok=True)
        core = ShardCore(0, spec, run_dir, max_resident=max_resident,
                         kernel="event")
        drive(core, range(1, 3), tenants=tenants)
        assert core.compact()["completed"]
        return core

    def test_resident_tenants_restart_warm_from_columns(self, tmp_path):
        run_dir = tmp_path / "run"
        self._checkpointed(run_dir).close()
        payload = json.loads(checkpoint_path(run_dir, 0).read_text())
        for entry in payload["tenants"].values():
            assert sorted(entry["predictor"]) == ["table"]
        revived = ShardCore(0, SPEC, run_dir, kernel="event")
        assert revived.store.resident_count == 2
        drive(revived, range(3, 5))
        assert revived.store.reloads == 0
        assert revived.store.snapshot() == golden_snapshot(tmp_path,
                                                           range(1, 5))
        revived.close()

    def test_malformed_predictor_columns_fail_validation(self, tmp_path):
        run_dir = tmp_path / "run"
        self._checkpointed(run_dir).close()
        payload = json.loads(checkpoint_path(run_dir, 0).read_text())
        payload["tenants"]["a"]["predictor"] = {"table": "AAAAAAAAAAA="}
        payload["crc32"] = payload_crc(payload)
        with pytest.raises(ServiceError, match="predictor state"):
            validate_checkpoint(payload)

    def test_parked_tenant_imports_its_bound_state_after_a_crash(self,
                                                                 tmp_path):
        run_dir = tmp_path / "run"
        # a1 b1 a2 b2 with one resident slot: "a" is parked at the
        # checkpoint, with state bound to exactly its checkpointed meta.
        self._checkpointed(run_dir, max_resident=1).close()
        payload = json.loads(checkpoint_path(run_dir, 0).read_text())
        assert payload["tenants"]["a"]["predictor"] is None
        revived = ShardCore(0, SPEC, run_dir, max_resident=1,
                            kernel="event")
        drive(revived, [3])  # a3 and b3 both reload parked state
        assert revived.store.reloads == 2
        assert revived.store.reload_replays == 0
        assert revived.store.snapshot() == golden_snapshot(tmp_path,
                                                           range(1, 4))
        revived.close()

    @pytest.mark.parametrize("damage", ["binding", "crc", "missing"])
    def test_parked_tenant_replays_when_its_state_is_not_bound(self,
                                                              tmp_path,
                                                              damage):
        run_dir = tmp_path / "run"
        self._checkpointed(run_dir, max_resident=1).close()
        park = run_dir / "parked" / "a.json"
        parked = json.loads(park.read_text())
        if damage == "binding":
            parked["misses"] += 1
            parked["crc32"] = payload_crc(parked)
            park.write_text(json.dumps(parked))
        elif damage == "crc":  # a plausible table the CRC was not over
            table = decode_columns(parked["columns"])["table"]
            table[1] += 4
            parked["columns"] = encode_columns({"table": table})
            park.write_text(json.dumps(parked))
        else:
            park.unlink()
        revived = ShardCore(0, SPEC, run_dir, max_resident=1,
                            kernel="event")
        drive(revived, [3])
        assert revived.store.reload_replays == 1  # "a" replayed, "b" not
        assert revived.store.snapshot() == golden_snapshot(tmp_path,
                                                           range(1, 4))
        revived.close()

    def test_tenant_parked_in_the_tail_rolls_forward(self, tmp_path):
        """Parked *after* the checkpoint: recovery takes the park file's
        point instead of replaying, and the next batch imports it."""
        run_dir = tmp_path / "run"
        tenants = ("a", "b", "c")
        core = self._checkpointed(run_dir, max_resident=1, tenants=tenants)
        drive(core, [3], tenants=tenants)  # a3, b3 parked in the tail
        live = core.store.snapshot()
        core.close()
        revived = ShardCore(0, SPEC, run_dir, max_resident=1,
                            kernel="event")
        assert revived.recovery["tail_records"] == 3
        assert revived.store.snapshot() == live
        # a3, b3 rolled forward to their parks; c restarted warm.
        assert revived.store.reloads == 0
        drive(revived, [4], tenants=tenants)
        assert revived.store.reload_replays == 0
        assert revived.store.snapshot() == golden_snapshot(
            tmp_path, range(1, 5), tenants=tenants)
        revived.close()

    def test_compaction_reads_no_history_and_rewrites_nothing(
            self, tmp_path, monkeypatch):
        core = self._checkpointed(tmp_path / "run", max_resident=1,
                                  tenants=("a", "b", "c"))
        drive(core, [3], tenants=("a", "b", "c"))
        live_bytes = core.journal.path.read_bytes()
        base = core.journal.base
        reads = []
        monkeypatch.setattr(shard_module, "read_service_journal",
                            lambda *args: reads.append(args))
        assert core.compact()["completed"]
        assert reads == []
        sealed = tmp_path / "run" / f"sealed-0-{base}.jsonl"
        assert sealed.read_bytes() == live_bytes  # renamed, not rewritten
        core.close()

    def test_wide_key_spec_survives_evict_compact_and_recovery(self,
                                                              tmp_path):
        """Keys wider than 63 bits export no state: such a tenant parks
        nothing, checkpoints as counters only, and replays from the
        segments — bit-identical through every step."""
        spec = "twolevel:p=3,precision=full,address=concat,entries=none"
        run_dir = tmp_path / "run"
        core = self._checkpointed(run_dir, max_resident=1, spec=spec)
        assert not (run_dir / "parked" / "a.json").exists()
        payload = json.loads(checkpoint_path(run_dir, 0).read_text())
        assert all(entry["predictor"] is None
                   for entry in payload["tenants"].values())
        drive(core, [3])
        core.close()
        revived = ShardCore(0, spec, run_dir, max_resident=1,
                            kernel="event")
        drive(revived, [4])
        assert revived.store.reload_replays >= 2
        assert revived.compact()["completed"]
        drive(revived, [5])
        twin_dir = tmp_path / "twin"
        twin_dir.mkdir()
        twin = ShardCore(0, spec, twin_dir, kernel="event")
        drive(twin, range(1, 6))
        assert revived.store.snapshot() == twin.store.snapshot()
        revived.close()
        twin.close()
        _, replayed = replay_run(run_dir, kernel="event")
        for tenant, meta in twin.store.snapshot().items():
            assert replayed[tenant]["digest"] == meta["digest"]


class TestKernelIdentity:
    """Satellite: kernel="auto" in shards is digest-identical to event."""

    def test_live_apply_identical_across_kernels(self, tmp_path):
        snapshots = {}
        for kernel in ("event", "auto"):
            run_dir = tmp_path / kernel
            run_dir.mkdir()
            core = ShardCore(0, SPEC, run_dir, kernel=kernel)
            drive(core, range(1, 4))
            snapshots[kernel] = core.store.snapshot()
            core.close()
        assert snapshots["event"] == snapshots["auto"]

    def test_full_journal_recovery_identical_across_kernels(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        core = ShardCore(0, SPEC, run_dir, kernel="event")
        drive(core, range(1, 4))
        live = core.store.snapshot()
        core.close()
        for kernel in ("event", "auto"):
            target = tmp_path / f"copy-{kernel}"
            shutil.copytree(run_dir, target)
            revived = ShardCore(0, SPEC, target, kernel=kernel)
            assert revived.recovery["source"] == "journal"
            assert revived.store.snapshot() == live
            revived.close()

    def test_replay_records_identical_across_kernels(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path, kernel="event")
        drive(core, range(1, 4))
        core.close()
        from repro.service.state import read_service_journal
        _, records = read_service_journal(journal_path(tmp_path, 0))
        assert (replay_records(SPEC, {0: records}, kernel="event")
                == replay_records(SPEC, {0: records}, kernel="auto"))


class TestOfflineComposition:
    def test_replay_run_spans_compaction(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path, kernel="event")
        drive(core, range(1, 3))
        assert core.compact()["completed"]
        drive(core, range(3, 5))
        assert core.compact()["completed"]  # base now > 0
        drive(core, [5])
        live = core.store.snapshot()
        core.close()
        header = json.loads(
            journal_path(tmp_path, 0).read_text().splitlines()[0])
        assert header["base"] > 0
        _, replayed = replay_run(tmp_path, kernel="event")
        for tenant, meta in live.items():
            assert replayed[tenant]["digest"] == meta["digest"]
            assert replayed[tenant]["events"] == meta["events"]

    def test_replay_run_needs_no_checkpoint(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path, kernel="event")
        drive(core, range(1, 3))
        assert core.compact()["completed"]
        drive(core, range(3, 5))
        assert core.compact()["completed"]
        live = core.store.snapshot()
        core.close()
        checkpoint_path(tmp_path, 0).unlink()
        prev_checkpoint_path(tmp_path, 0).unlink()
        _, replayed = replay_run(tmp_path, kernel="event")
        for tenant, meta in live.items():
            assert replayed[tenant]["digest"] == meta["digest"]

    def test_replay_run_refuses_a_missing_sealed_segment(self, tmp_path):
        core = ShardCore(0, SPEC, tmp_path, kernel="event")
        drive(core, range(1, 3))
        assert core.compact()["completed"]
        drive(core, range(3, 5))
        assert core.compact()["completed"]
        core.close()
        find_sealed(tmp_path)[0][0].unlink()  # base 0
        with pytest.raises(ServiceError, match="sealed segment is missing"):
            replay_run(tmp_path, kernel="event")


class TestCheckpointedServeEndToEnd:
    def test_serve_checkpoints_and_verify_proves_composition(self, tmp_path):
        """A real checkpointing server: snapshots and sealed segments
        manifested, and ``repro verify`` proves each checkpoint == the
        segments replayed to its watermark, and segment replay == the
        live digests (and the offline oracle)."""
        import os
        import subprocess
        import sys
        import time

        from repro.__main__ import main
        from repro.service.loadgen import run_loadgen
        from repro.service.replay import write_replay

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        run_dir = tmp_path / "run"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", SPEC,
             "--run-dir", str(run_dir), "--shards", "2",
             "--checkpoint-interval", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env)
        try:
            endpoint = run_dir / "endpoint.json"
            deadline = time.monotonic() + 30
            info = None
            while time.monotonic() < deadline:
                assert process.poll() is None, process.communicate()[1]
                if endpoint.is_file():
                    try:
                        info = json.loads(endpoint.read_text())
                    except (OSError, ValueError):
                        info = None
                    if info and info.get("port"):
                        break
                time.sleep(0.05)
            assert info and info.get("port"), "server never listened"
            # 6 tenants: t00..t03 all route to shard 1, t04/t05 to
            # shard 0, so both shards cross the checkpoint cadence.
            summary = run_loadgen(
                info["host"], info["port"], tenants=6, batches=6,
                batch_events=24, concurrency=2, shutdown=True)
            process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert summary["failed"] == 0 and summary["inconsistencies"] == []
        # Checkpoints exist and are manifested next to the journals.
        snapshots = sorted(p.name for p in run_dir.glob("snapshot-?.json"))
        assert snapshots == ["snapshot-0.json", "snapshot-1.json"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        manifested = [kind for kind in manifest["artifacts"]
                      if kind.startswith("shard_snapshot.")]
        assert sorted(manifested) == ["shard_snapshot.0", "shard_snapshot.1"]
        # Both shards sealed segments behind their checkpoints, and the
        # manifest lists every one of them.
        sealed = find_sealed(run_dir)
        assert sorted(sealed) == [0, 1]
        manifested = sorted(entry["path"] for kind, entry
                            in manifest["artifacts"].items()
                            if kind.startswith("service_segment."))
        assert manifested == sorted(path.name for paths in sealed.values()
                                    for path in paths.values())
        # verify proves format + checkpoint replay + segment replay.
        report = verify_run(run_dir)
        assert report.ok, report.render()
        assert {"service:checkpoint_replay", "service:replay"} \
            <= {finding.check for finding in report.findings}
        # ... and the offline oracle round-trips through the checkpoint.
        write_replay(run_dir, tmp_path / "replay")
        assert main(["verify", str(run_dir),
                     "--against", str(tmp_path / "replay")]) == 0


@settings(max_examples=15, deadline=None)
@given(
    batches=st.integers(min_value=3, max_value=6),
    compact_after=st.integers(min_value=1, max_value=3),
    torn_bytes=st.integers(min_value=0, max_value=40),
    corrupt_cur=st.booleans(),
)
def test_torn_tail_times_stale_checkpoint_recovers(tmp_path_factory, batches,
                                                   compact_after, torn_bytes,
                                                   corrupt_cur):
    """Property: any torn journal tail interleaved with a stale or
    corrupt checkpoint recovers to exactly the accepted-record replay."""
    run_dir = tmp_path_factory.mktemp("chaosrun")
    compact_after = min(compact_after, batches - 1)
    core = ShardCore(0, SPEC, run_dir, kernel="event")
    for bid in range(1, batches + 1):
        pcs, targets = batch(bid, events=16)
        assert core.handle("a", bid, pcs, targets)["status"] == "ok"
        if bid == compact_after:
            assert core.compact()["completed"]
    core.close()
    if torn_bytes:
        # SIGKILL mid-append: a torn, newline-less fragment at the tail.
        with open(journal_path(run_dir, 0), "ab") as sink:
            sink.write(b'{"kind": "accept", "tenant": "a"' [:torn_bytes])
    if corrupt_cur:
        corrupt_file(checkpoint_path(run_dir, 0))
    revived = ShardCore(0, SPEC, run_dir, kernel="event")
    live = revived.store.snapshot()
    revived.close()
    # Oracle: offline replay of exactly what the run directory retains.
    _, replayed = replay_run(run_dir, kernel="event")
    assert set(replayed) == set(live)
    for tenant, meta in live.items():
        assert replayed[tenant]["digest"] == meta["digest"]
