"""Tests for the shared durable record log and atomic file writer.

The record-log tests run over every log kind in the repository through
its owner's own writer/reopen path and read-only reader, so a drifted
copy of the commit rule in any owner shows up here.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.core.config import BTBConfig
from repro.errors import ServiceError
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.verify import read_journal
from repro.service.state import ShardJournal, read_service_journal
from repro.sim.attribution import ATTRIBUTION_SCHEMA, read_attribution
from repro.sim.engine import SimulationResult
from repro.runtime.telemetry import TRACE_LOG_SCHEMA, Tracer, read_trace_log
from repro.service.state import METRICS_STREAM_SCHEMA, SHEDS_SCHEMA

SPEC = "btb:entries=64,assoc=2"


# -- one adapter per log kind -------------------------------------------------
#
# ``create(path, ids)`` writes a fresh log holding one record per id,
# ``reopen_append(path, ids)`` reopens it the way its owner does and
# appends, ``reopen(path)`` reopens it without appending, and
# ``read(path)`` returns the ids of the committed records, read-only.


class ResultsJournal:
    def record(self, journal, name):
        journal.record(BTBConfig(), name, SimulationResult(
            benchmark=name, predictor="btb", events=100, mispredictions=7))

    def create(self, path, ids):
        with CheckpointJournal(path, resume=False) as journal:
            for name in ids:
                self.record(journal, name)

    def reopen_append(self, path, ids):
        with CheckpointJournal(path) as journal:
            for name in ids:
                self.record(journal, name)

    def reopen(self, path):
        CheckpointJournal(path).close()

    def read(self, path):
        entries, _ = read_journal(path)
        return [benchmark for _, benchmark in entries]


class ShardJournalKind:
    def create(self, path, ids):
        self.reopen_append(path, ids)

    def reopen_append(self, path, ids):
        journal = ShardJournal(path, 0, SPEC)
        for name in ids:
            assert journal.append(name, 1, [0x100, 0x104], [0x200, 0x204])
        journal.close()

    def reopen(self, path):
        ShardJournal(path, 0, SPEC).close()

    def read(self, path):
        _, records = read_service_journal(path)
        return [record["tenant"] for record in records]


class BenchTrendHistory:
    def tool(self):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent
                               / "tools"))
        try:
            import bench_trend
        finally:
            sys.path.pop(0)
        return bench_trend

    def create(self, path, ids):
        self.reopen_append(path, ids)

    def reopen_append(self, path, ids):
        bench = path.parent / "BENCH_serve.json"
        bench.write_text(json.dumps({
            "clean": {"events_per_sec": 5e4, "latency_p99_ms": 20.0},
            "chaos": {"events_per_sec": 4e4}}))
        for name in ids:
            assert self.tool().main(["--history", str(path), "--record",
                                     "--label", name, str(bench)]) == 0

    def reopen(self, path):
        self.tool().read_history(path)

    def read(self, path):
        return [record["label"] for record in self.tool().read_history(path)]


class FreshLog:
    """A log its owner only ever creates (trace log, attribution, sheds,
    metrics stream): reopening goes through the shared appender."""

    def __init__(self, schema, reader, shape):
        self.schema = schema
        self.reader = reader
        self.shape = shape

    def create(self, path, ids):
        from repro.runtime.records import RecordLog

        with RecordLog(path, {"schema": self.schema}) as log:
            for name in ids:
                log.write(self.shape(name))

    def reopen_append(self, path, ids):
        from repro.runtime.records import RecordLog, read_records

        committed = read_records(path).committed
        with RecordLog(path, {"schema": self.schema}, committed) as log:
            for name in ids:
                log.write(self.shape(name))

    def reopen(self, path):
        from repro.runtime.records import RecordLog, read_records

        RecordLog(path, committed=read_records(path).committed).close()

    def read(self, path):
        return [record["id"] for record in self.reader(path)]


class TraceLog(FreshLog):
    def __init__(self):
        super().__init__(TRACE_LOG_SCHEMA, read_trace_log, lambda name: {
            "kind": "event", "name": "dispatch", "t": 0.0,
            "attrs": {}, "id": name})

    def create(self, path, ids):
        tracer = Tracer(sink=path)
        for name in ids:
            tracer.sink.write(self.shape(name))
        tracer.close()


KINDS = {
    "results_journal": ResultsJournal(),
    "shard_journal": ShardJournalKind(),
    "trace_log": TraceLog(),
    "attribution": FreshLog(
        ATTRIBUTION_SCHEMA, read_attribution,
        lambda name: {"kind": "record", "id": name, "events": 1}),
    "sheds": FreshLog(
        SHEDS_SCHEMA, lambda path: read_trace_log(path, schema=SHEDS_SCHEMA),
        lambda name: {"kind": "shed", "reason": "overload", "id": name}),
    "metrics_stream": FreshLog(
        METRICS_STREAM_SCHEMA,
        lambda path: read_trace_log(path, schema=METRICS_STREAM_SCHEMA),
        lambda name: {"kind": "snapshot", "seq": 1, "id": name}),
    "bench_trend": BenchTrendHistory(),
}

BEFORE = ["a0", "a1", "a2"]
AFTER = ["b0", "b1"]


def final_line_offsets(raw):
    """Every cut inside the final record: its start up to its newline."""
    start = raw.rindex(b"\n", 0, len(raw) - 1) + 1
    return range(start, len(raw))


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def test_unterminated_final_record_is_not_committed(tmp_path, kind):
    """Losing only the final newline drops that record; the next two
    appends land on a clean line boundary and survive the next reopen."""
    path = tmp_path / "log.jsonl"
    kind.create(path, BEFORE)
    raw = path.read_bytes()
    path.write_bytes(raw[:-1])  # exactly the trailing newline is lost
    assert kind.read(path) == BEFORE[:-1]
    kind.reopen_append(path, AFTER)
    kind.reopen(path)
    assert kind.read(path) == BEFORE[:-1] + AFTER
    assert b"\x00" not in path.read_bytes()
    for line in path.read_bytes().splitlines():
        assert isinstance(json.loads(line), dict)


def test_every_cut_inside_final_record_reads_committed_prefix(tmp_path,
                                                              kind):
    path = tmp_path / "log.jsonl"
    kind.create(path, BEFORE)
    raw = path.read_bytes()
    for cut in final_line_offsets(raw):
        path.write_bytes(raw[:cut])
        assert kind.read(path) == BEFORE[:-1], f"cut at byte {cut}"
        kind.reopen_append(path, AFTER)
        kind.reopen(path)
        assert kind.read(path) == BEFORE[:-1] + AFTER, f"cut at byte {cut}"
        assert b"\x00" not in path.read_bytes()


# -- the commit rule itself ---------------------------------------------------


class TestCommitRule:
    def test_roundtrip_and_committed_bytes(self, tmp_path):
        from repro.runtime.records import RecordLog, read_records

        path = tmp_path / "sub" / "log.jsonl"
        with RecordLog(path, {"schema": "x/1"}) as log:
            log.write({"n": 1, "a": [1, 2]})
        parsed = read_records(path)
        assert parsed.header == {"schema": "x/1"}
        assert parsed.records == [{"a": [1, 2], "n": 1}]
        assert parsed.committed == path.stat().st_size
        assert not parsed.dropped_tail
        assert path.read_bytes() == (b'{"schema": "x/1"}\n'
                                     b'{"a": [1, 2], "n": 1}\n')

    def test_interior_failure_raises_with_line_number(self, tmp_path):
        from repro.runtime.records import RecordError, read_records

        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"schema": "x/1"}\n[1, 2]\n{"n": 1}\n')
        with pytest.raises(RecordError, match=":2: corrupt"):
            read_records(path)

    def test_terminated_final_failure_is_dropped(self, tmp_path):
        from repro.runtime.records import read_records

        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"schema": "x/1"}\n{"n": 1}\n"not an object"\n')
        parsed = read_records(path)
        assert parsed.records == [{"n": 1}]
        assert parsed.dropped_tail
        assert parsed.committed == len(b'{"schema": "x/1"}\n{"n": 1}\n')

    def test_parse_hook_failure_follows_the_same_rule(self, tmp_path):
        from repro.runtime.records import RecordError, read_records

        def needs_n(record):
            return record["n"]

        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"schema": "x/1"}\n{"n": 1}\n{"m": 2}\n')
        parsed = read_records(path, parse=needs_n)
        assert parsed.records == [1] and parsed.dropped_tail
        path.write_bytes(b'{"schema": "x/1"}\n{"m": 2}\n{"n": 1}\n')
        with pytest.raises(RecordError):
            read_records(path, parse=needs_n)

    def test_no_committed_header(self, tmp_path):
        from repro.runtime.records import read_records

        path = tmp_path / "log.jsonl"
        for raw in (b"", b'{"schema": "x', b'{"schema": "x/1"}'):
            path.write_bytes(raw)
            parsed = read_records(path)
            assert parsed.header is None and parsed.records == []
            assert parsed.committed == 0
            assert parsed.dropped_tail == bool(raw)

    def test_resumed_log_truncates_before_first_write(self, tmp_path):
        from repro.runtime.records import RecordLog, read_records

        path = tmp_path / "log.jsonl"
        path.write_bytes(b'{"schema": "x/1"}\n{"n": 1}\n{"n": 2, "to')
        with RecordLog(path, {"schema": "x/1"},
                       read_records(path).committed) as log:
            log.write({"n": 3})
        assert path.read_bytes() == (b'{"schema": "x/1"}\n{"n": 1}\n'
                                     b'{"n": 3}\n')


# -- a shard killed while creating its journal --------------------------------


class TestShardJournalTornHeader:
    def header_bytes(self, tmp_path):
        path = tmp_path / "reference.jsonl"
        ShardJournal(path, 0, SPEC).close()
        return path.read_bytes()

    def test_every_torn_header_starts_fresh(self, tmp_path):
        header = self.header_bytes(tmp_path)
        path = tmp_path / "journal-0.jsonl"
        for cut in range(len(header)):
            path.write_bytes(header[:cut])
            journal = ShardJournal(path, 0, SPEC)
            assert journal.replayed == [] and journal.base == 0
            assert journal.append("t00", 1, [1, 2], [3, 4])
            journal.close()
            reopened = ShardJournal(path, 0, SPEC)
            assert [r["tenant"] for r in reopened.replayed] == ["t00"]
            reopened.close()
            assert path.read_bytes().startswith(header)

    def test_shard_core_restarts_after_torn_header(self, tmp_path):
        from repro.service.shard import ShardCore, journal_path

        header = self.header_bytes(tmp_path)
        journal_path(tmp_path, 0).write_bytes(header[:len(header) // 2])
        core = ShardCore(0, SPEC, tmp_path, kernel="event")
        assert core.handle("t00", 1, [1, 2], [3, 4])["status"] == "ok"
        core.close()

    def test_read_only_reader_still_refuses_headerless_journal(self,
                                                               tmp_path):
        path = tmp_path / "journal-0.jsonl"
        path.write_bytes(b'{"base": 0, "sch')
        with pytest.raises(ServiceError, match="empty journal"):
            read_service_journal(path)


# -- atomic whole-file writes -------------------------------------------------


class HalfWriteStream:
    """File proxy whose first write lands half its bytes, then fails."""

    def __init__(self, stream):
        self._stream = stream

    def write(self, data):
        self._stream.write(data[:len(data) // 2])
        self._stream.flush()
        raise OSError(28, "No space left on device")

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._stream.close()


def write_trace_file(path):
    from repro.workloads.io import save_trace
    from repro.workloads.program import WorkloadConfig, generate_trace

    save_trace(generate_trace(WorkloadConfig(name="t", events=50, seed=3)),
               path)


def write_ext_trace_file(path):
    from repro.ingest.schema import write_ext_trace

    write_ext_trace(path, "demo", "test", "1",
                    sites=[{"id": 0, "pc": 4096}],
                    targets=[{"id": 0, "pc": 8192}],
                    events=[(0, 0)] * 20)


def write_tenants_snapshot(path):
    from repro.service.shard import ShardCore, snapshot_path

    core = ShardCore(0, SPEC, path.parent, kernel="event")
    core.handle("t00", 1, [1, 2], [3, 4])
    try:
        assert core.write_snapshot() == snapshot_path(path.parent, 0)
    finally:
        core.close()


ATOMIC_WRITERS = {
    "trace": ("perl.trace", write_trace_file),
    "ext_trace": ("demo.ndjson", write_ext_trace_file),
    "tenants_snapshot": ("tenants-0.json", write_tenants_snapshot),
}


@pytest.fixture(params=sorted(ATOMIC_WRITERS))
def atomic_writer(request):
    return ATOMIC_WRITERS[request.param]


def test_failed_write_leaves_target_untouched_and_no_temp(
        tmp_path, monkeypatch, atomic_writer):
    name, write = atomic_writer
    target = tmp_path / name
    target.write_bytes(b"previous contents\n")
    before = set(os.listdir(tmp_path))
    from repro.runtime import records

    def half_writing_open(file, *args, **kwargs):
        stream = open(file, *args, **kwargs)
        return HalfWriteStream(stream) if str(file).endswith(".tmp") \
            else stream

    monkeypatch.setattr(records, "open", half_writing_open, raising=False)
    with pytest.raises(OSError, match="No space"):
        write(target)
    monkeypatch.undo()
    assert target.read_bytes() == b"previous contents\n"
    assert not [entry for entry in set(os.listdir(tmp_path)) - before
                if entry.endswith(".tmp")]


def test_atomic_write_fsyncs_before_publishing(tmp_path, monkeypatch,
                                               atomic_writer):
    """The file renamed over the target is one that was fsync'd."""
    name, write = atomic_writer
    synced, published = set(), []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        synced.add(os.fstat(fd).st_ino)
        return real_fsync(fd)

    def replace(source, destination):
        if Path(destination).name == name:
            published.append(os.stat(source).st_ino)
        return real_replace(source, destination)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    write(tmp_path / name)
    monkeypatch.undo()
    assert published and set(published) <= synced
