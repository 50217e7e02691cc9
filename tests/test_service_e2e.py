"""End-to-end serving tests: a real ``repro serve`` over TCP.

One subprocess server per test, driven by the library-level loadgen;
asserts the full contract — answered batches, graceful shutdown with a
verifiable manifest, offline replay bit-identity, tamper detection, and
the SIGINT exit-code policy.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.service.loadgen import run_loadgen
from repro.service.replay import write_replay

SPEC = "btb:entries=64,assoc=2"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _start_server(run_dir, *extra):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", SPEC,
         "--run-dir", str(run_dir), "--shards", "2", "--max-resident", "2",
         *extra],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env())
    endpoint = Path(run_dir) / "endpoint.json"
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"server died during startup (exit {process.returncode}):\n"
                f"{process.communicate()[1]}")
        if endpoint.is_file():
            try:
                info = json.loads(endpoint.read_text())
            except (OSError, ValueError):
                info = {}
            if info.get("port"):
                return process, info
        time.sleep(0.05)
    process.kill()
    raise AssertionError("server never wrote a live endpoint.json")


class TestServeEndToEnd:
    def test_full_cycle_replay_verify_and_tamper(self, tmp_path):
        run_dir = tmp_path / "run"
        process, info = _start_server(run_dir)
        try:
            summary = run_loadgen(
                info["host"], info["port"], tenants=4, batches=3,
                batch_events=24, concurrency=2, shutdown=True)
            process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert summary["ok"] == 12
        assert summary["failed"] == 0
        assert summary["shed"] == 0
        assert summary["inconsistencies"] == []

        # Offline replay of the journals is the oracle; the live
        # snapshot must be bit-identical to it.
        write_replay(run_dir, tmp_path / "replay")
        assert main(["verify", str(run_dir),
                     "--against", str(tmp_path / "replay")]) == 0

        # Flip one byte of an accepted batch: the manifest's hashes (and
        # the replay cross-check) must catch it — exit 4, not silence.
        journal = next(run_dir.glob("journal-*.jsonl"))
        raw = journal.read_bytes()
        mark = raw.rindex(b'"pcs": [')
        digit = raw.index(b"[", mark) + 1
        flipped = (raw[:digit]
                   + str((int(chr(raw[digit])) + 1) % 10).encode()
                   + raw[digit + 1:])
        journal.write_bytes(flipped)
        assert main(["verify", str(run_dir),
                     "--against", str(tmp_path / "replay")]) == 4

    def test_trace_log_run_verifies(self, tmp_path):
        """``--trace-log``: the log is final before the manifest hashes
        it, and holds spans — the serving session and one per shard
        compaction — as its schema requires."""
        from repro.runtime.telemetry import read_trace_log

        run_dir = tmp_path / "run"
        trace_log = run_dir / "trace.jsonl"
        process, info = _start_server(run_dir, "--trace-log", str(trace_log),
                                      "--checkpoint-interval", "2")
        try:
            summary = run_loadgen(
                info["host"], info["port"], tenants=4, batches=3,
                batch_events=24, concurrency=2, shutdown=True)
            process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0
        assert summary["failed"] == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "trace_log" in manifest["artifacts"]
        assert main(["verify", str(run_dir)]) == 0
        records = read_trace_log(trace_log)
        spans = [record["name"] for record in records
                 if record["kind"] == "span"]
        assert spans.count("serve") == 1 and "compact" in spans
        assert records[-1]["name"] == "server_stop"

    def test_live_stats_top_and_metrics_stream(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        process, info = _start_server(run_dir, "--stats-interval", "0.2")
        try:
            run_loadgen(info["host"], info["port"], tenants=4, batches=3,
                        batch_events=24, concurrency=2)

            # One-shot console against the live server: tables, then the
            # raw merged snapshot (validated on receipt by fetch_stats).
            snapshot_out = tmp_path / "snapshot.json"
            assert main(["stats", "--endpoint",
                         str(run_dir / "endpoint.json"),
                         "--out", str(snapshot_out)]) == 0
            tables = capsys.readouterr().out
            assert "server" in tables and "shards" in tables
            snapshot = json.loads(snapshot_out.read_text())
            assert snapshot["schema"] == "repro-metrics-snapshot/1"
            assert snapshot["counters"]["server.accepted"] >= 12
            assert snapshot["counters"]["shard.events"] >= 1
            assert "server.latency_seconds" in snapshot["histograms"]

            # Three fast dashboard frames; the later ones carry rates.
            assert main(["top", "--endpoint", str(run_dir / "endpoint.json"),
                         "--interval", "0.05", "--iterations", "3",
                         "--plain"]) == 0
            frames = capsys.readouterr().out
            assert frames.count("repro top") == 3

            run_loadgen(info["host"], info["port"], tenants=0,
                        concurrency=1, shutdown=True)
            process.communicate(timeout=60)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        assert process.returncode == 0

        # The streamed artifact must parse, verify, and agree with the
        # final service-metrics.json (the verify cross-check).
        stream_path = run_dir / "metrics-stream.jsonl"
        assert stream_path.is_file()
        from repro.runtime.telemetry import read_trace_log
        from repro.service.state import METRICS_STREAM_SCHEMA
        records = read_trace_log(stream_path, schema=METRICS_STREAM_SCHEMA)
        assert records and records[-1]["kind"] == "final"
        seqs = [record["seq"] for record in records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        final = json.loads((run_dir / "service-metrics.json").read_text())
        assert records[-1]["merged"]["counters"] \
            == final["snapshot"]["counters"]
        assert main(["verify", str(run_dir)]) == 0

    def test_stats_against_dead_server_fails_cleanly(self, tmp_path):
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"host": "127.0.0.1", "port": 1}))
        # Connection refused is a clean classified exit, not a traceback.
        assert main(["stats", "--endpoint", str(endpoint)]) in (1, 4)
        # And no --port/--endpoint at all is a usage error (exit 2).
        assert main(["stats"]) == 2

    def test_loadgen_gives_up_when_its_server_dies(self, tmp_path):
        run_dir = tmp_path / "run"
        process, _ = _start_server(run_dir)
        tenants, batches = 6, 2000
        loadgen = subprocess.Popen(
            [sys.executable, "-m", "repro", "loadgen",
             "--endpoint", str(run_dir / "endpoint.json"),
             "--tenants", str(tenants), "--batches", str(batches),
             "--batch-events", "32", "--concurrency", "3",
             "--out", str(tmp_path / "loadgen.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=_env())
        try:
            # Mid-run: once the shards have journalled some batches.
            journals = [run_dir / f"journal-{k}.jsonl" for k in (0, 1)]
            deadline = time.monotonic() + 30
            while sum(len(path.read_bytes().splitlines())
                      for path in journals if path.exists()) < 40:
                assert time.monotonic() < deadline, "no batch journalled"
                assert loadgen.poll() is None, loadgen.communicate()
                time.sleep(0.02)
            process.kill()
            process.wait()
            _, stderr = loadgen.communicate(timeout=20)
        finally:
            for child in (loadgen, process):
                if child.poll() is None:
                    child.kill()
                    child.communicate()
        assert loadgen.returncode == 4, stderr
        assert "server unreachable" in stderr
        summary = json.loads((tmp_path / "loadgen.json").read_text())
        # Every batch not answered is counted, sent or not.
        assert summary["failed"] > 1
        assert summary["sent"] < tenants * batches
        assert (summary["ok"] + summary["shed"] + summary["failed"]
                == tenants * batches)

    def test_sigint_mid_stream_exits_4_without_manifest(self, tmp_path):
        run_dir = tmp_path / "run"
        process, info = _start_server(run_dir)
        try:
            summary = run_loadgen(info["host"], info["port"], tenants=2,
                                  batches=2, batch_events=16, concurrency=1)
            assert summary["ok"] == 4
            process.send_signal(signal.SIGINT)
            _, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
        # SIGINT mid-run is a classified failure: exit 4, a one-line
        # diagnosis, and no manifest (the run dir must not verify).
        assert process.returncode == 4
        assert "error: interrupted" in stderr
        assert not (run_dir / "manifest.json").exists()
        assert main(["verify", str(run_dir)]) == 4
