"""The schema registry behind ``repro verify`` against golden fixtures.

``tests/fixtures/schemas/`` holds one small valid instance of every
registered schema, named after its id (``repro-run-metrics/2`` ->
``repro-run-metrics-2.json``).  Every fixture must validate, and every
tamper variant built from it — a flipped count, a dropped key, a torn
final line, a broken CRC or digest chain — must fail with the named
message.  Append-only logs follow the records commit rule instead: a
torn final line is the signature of a crash mid-append and is dropped.
"""

import base64
import json
import re
import shutil
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core.columns import decode_columns, encode_columns
from repro.runtime.chaos import ChaosPlan
from repro.runtime.verify import (
    VALIDATORS,
    embedded_schema,
    verify_file,
    verify_run,
    write_manifest,
)
from repro.service.checkpoint import (
    build_checkpoint,
    payload_crc,
    validate_checkpoint,
)
from repro.service.state import TenantMeta

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "schemas"


def fixture_name(schema):
    (path,) = FIXTURES.glob(schema.replace("/", "-") + ".*")
    return path.name


def load(path):
    """A fixture as a list of JSON objects: one per line, or the document."""
    text = path.read_text()
    if path.suffix == ".json":
        return [json.loads(text)]
    return [json.loads(line) for line in text.splitlines()]


def dump(path, records):
    if path.suffix == ".json":
        path.write_text(json.dumps(records[0], indent=2, sort_keys=True))
    else:
        path.write_text("".join(json.dumps(record, sort_keys=True) + "\n"
                                for record in records))


def _parent(records, keys):
    node = records
    for key in keys[:-1]:
        node = node[key]
    return node


def flip(*keys, to=None, by=1):
    """Change one count at ``keys`` (line index first): ``+by`` or ``to``."""
    def mutate(records):
        node = _parent(records, keys)
        node[keys[-1]] = node[keys[-1]] + by if to is None else to
    return mutate


def drop(*keys):
    """Delete the key at ``keys`` (line index first)."""
    def mutate(records):
        del _parent(records, keys)[keys[-1]]
    return mutate


def resealed(mutate):
    """Apply ``mutate`` to a checkpoint, then recompute its CRC."""
    def sealed(records):
        mutate(records)
        records[0]["crc32"] = payload_crc(records[0])
    return sealed


def rename(*keys, to):
    """Move the value at ``keys`` to the sibling key ``to``."""
    def mutate(records):
        node = _parent(records, keys)
        node[to] = node.pop(keys[-1])
    return mutate


def both(*mutations):
    def mutate(records):
        for each in mutations:
            each(records)
    return mutate


def keep(*kinds):
    """Keep the header and only the records of ``kinds``."""
    def mutate(records):
        records[1:] = [record for record in records[1:]
                       if record.get("kind") in kinds]
    return mutate


def no_events(records):
    """An external trace of its header and an empty ``end`` record."""
    records[1:] = [{"end": True, "events": 0}]


def too_many_buckets(records):
    histogram = records[0]["histograms"]["server.queue_depth"]
    histogram["buckets"] = {str(index): 0 for index in range(1000)}


def table_value(index, value=None, cut=False):
    """Set one value of tenant t00's predictor table, or cut its last one."""
    def mutate(records):
        state = records[0]["tenants"]["t00"]["predictor"]
        column = decode_columns(state)["table"]
        if cut:
            column = column[:-1]
            state["table"] = base64.b64encode(column.tobytes()).decode()
            return
        column[index] = value
        state.update(encode_columns({"table": column}))
    return mutate


def first_bucket(records):
    histogram = next(hist for hist in records[0]["histograms"].values()
                     if hist["buckets"])
    histogram["buckets"][next(iter(histogram["buckets"]))] += 1


def duplicate_last(records):
    records.append(dict(records[-1]))


TORN = "torn"

#: schema -> [(variant, mutation or TORN, expected failure message)].
TAMPERS = {
    "repro-checkpoint/1": [
        ("flip", flip(1, "result", "mispredictions", by=10**6),
         "inconsistent result: 1000208 misses in 600 events"),
        ("drop", drop(1, "benchmark"), "corrupt record line"),
        ("duplicate", duplicate_last, "journalled twice"),
    ],
    "repro-run-metrics/2": [
        ("flip", flip(0, "units", "completed"),
         "kernels count 2 unit.s., 3 completed"),
        ("drop", drop(0, "per_unit"), r"missing keys \['per_unit'\]"),
        ("units", drop(0, "units", "poisoned"), "unit counters"),
        ("workers", flip(0, "workers", to=0), "workers 0, wall time"),
        ("wall", flip(0, "wall_time_s", to=0), "wall time 0"),
        ("phase", flip(0, "phases", "journal", "count", to=0),
         "phase 'journal'"),
        ("simulate", drop(0, "phases", "simulate"),
         "units completed but no simulate phase"),
        ("source", flip(0, "per_unit", 0, "trace_source", to="disk"),
         r"trace sources \['disk', 'generated'\]"),
        ("counter", flip(0, "counters", "journal", to=0),
         "counter 'journal' = 0 is not a positive int"),
        ("degradation", flip(0, "degradations", "meltdown", to=1),
         "unknown degradation 'meltdown'"),
        ("kernel", flip(0, "kernels", "gpu", to=1),
         r"unknown kernel.s. \['event', 'gpu'\]"),
        ("fallbacks", flip(0, "kernel_fallbacks",
                           "trace shorter than 4096 events"),
         "3 auto fallback.s. but only 2 per-event"),
    ],
    "repro-trace-log/1": [
        ("flip", flip(2, "dur_s", to=-1.0), ":3: not a named span"),
        ("drop", drop(1, "name"), ":2: not a named span"),
        ("torn", TORN, "torn final line: True"),
        ("kind", flip(1, "kind", to="mark"), ":2: not a named span"),
        ("spans only", keep("span"), "has 11 span.s., 0 event.s."),
        ("events only", keep("event"), "has 0 span.s., 1 event.s."),
    ],
    "repro-attribution/1": [
        ("flip", flip(1, "causes", "cold"), "causes sum to"),
        ("drop", drop(1, "sites"), "record keys"),
        ("torn", TORN, "not a whole repro-attribution/1 artifact"),
        ("pid", flip(0, "pid", to=1), "not a whole repro-attribution/1"),
        ("cause", rename(1, "causes", "cold", to="warm"), "or causes"),
        ("site", flip(1, "sites", 0, "causes", "cold"),
         "site 0x2caf0 causes do not sum to its 31 misses"),
        ("range", flip(1, "site_count", to=1), "counts out of range"),
        ("capacity", flip(1, "tables", 0, "capacity", to=10),
         "table holds 203 entries of 10"),
        ("summary", flip(3, "events"),
         ":4: summary does not total the 2 record"),
        ("two summaries", duplicate_last,
         "2 record.s. and 2 summary line.s."),
        ("no summary", keep("record"), "2 record.s. and 0 summary line.s."),
    ],
    "repro-chaos-plan/1": [
        ("flip", flip(0, "faults", 0, "times", to=0), "times must be >= 1"),
        ("drop", drop(0, "faults", 0, "point"), "a fault has no 'point'"),
    ],
    "repro-ext-trace/1": [
        ("flip", flip(-1, "events"), "declares 4 event.s. but 3 were read"),
        ("drop", drop(1, "t"), "needs integer fields 's' and 't'"),
        ("torn", TORN, "unparseable record"),
        ("header", drop(0, "producer"), "header missing string field"),
        ("dense", flip(0, "sites", 1, "id", to=5), r"sites\[1\] has id 5"),
        ("reference", flip(2, "t", to=9), "target id 9 outside table"),
        ("context", flip(2, "p", 0, to=7), "path context 'p' must be"),
        ("no end", keep(), "missing the closing 'end' record"),
        ("no events", no_events, ": no events"),
        ("label", flip(0, "targets", 0, "label", to=""),
         "targets table has an empty label"),
    ],
    "repro-service-journal/1": [
        ("flip", flip(0, "base", to=-1), "bad journal base -1"),
        ("drop", drop(1, "tenant"), "malformed accept record"),
    ],
    "repro-service-sheds/1": [
        ("drop", drop(1, "reason"), "malformed shed record"),
    ],
    "repro-service-tenants/1": [
        ("flip", flip(0, "tenants", "t00", "misses", by=100),
         "'t00' has bad counters"),
        ("drop", drop(0, "tenants", "t01", "digest"), "'t01' has bad"),
    ],
    "repro-service-metrics/1": [
        ("flip", flip(0, "counters", "answered"),
         r"accounting hole: accepted 8 \+ refused 0 != answered 9"),
        ("drop", drop(0, "respawns"), "counters and respawns must be"),
        ("snapshot", flip(0, "snapshot", "counters", "shard.events", to=-1),
         "counter 'shard.events' must be a non-negative int"),
    ],
    "repro-service-metrics-stream/1": [
        ("flip", flip(2, "seq", to=1), "'final' record seq 1 after"),
        ("drop", drop(1, "merged"), "snapshot must be a dict"),
        ("pid", flip(0, "pid", to=1), "not a deterministic"),
        ("kind", flip(1, "kind", to="tick"), "'tick' record seq 1"),
        ("after final", duplicate_last, "'final' record seq 15 after 'final'"),
        ("t", flip(1, "t", to=-1), ":2: bad t or shards"),
        ("shard", flip(2, "shards", "0", "counters", "shard.events", to=-1),
         ":3: counter 'shard.events' must be"),
        ("backwards", flip(1, "merged", "counters", "server.accepted",
                           to=100), ":3: server.accepted went backwards"),
        ("vanished", both(
            flip(1, "merged", "counters", "server.connections", to=1),
            drop(2, "merged", "counters", "server.connections")),
         ":3: server.connections went backwards"),
        ("empty", keep(), "metrics stream has no snapshots"),
    ],
    "repro-shard-snapshot/2": [
        ("flip", resealed(flip(0, "journal_records")),
         "tenants hold 8 batches but journal_records says 9"),
        ("drop", resealed(drop(0, "tenants", "t00", "chain")),
         r"tenant 't00': inconsistent meta \('chain'\)"),
        ("crc", flip(0, "crc32"), "CRC mismatch"),
        ("digest", resealed(flip(0, "tenants", "t01", "digest", to="0" * 64)),
         "digest does not match chain"),
        ("columns", resealed(rename(0, "tenants", "t00", "predictor", "table",
                                    to="history")),
         r"columns \['history'\] are not the spec's \['table'\]"),
        ("rows", resealed(table_value(0, cut=True)),
         "'table' is 376 bytes"),
        ("negative", resealed(table_value(0, -1)),
         "'table' holds a negative value"),
        ("miss bit", resealed(table_value(2, 2)),
         "'table' holds a miss bit not 0 or 1"),
    ],
    "repro-metrics-snapshot/1": [
        ("flip", first_bucket, "buckets sum to"),
        ("drop", drop(0, "gauges"), "section 'gauges' missing"),
        ("counter", flip(0, "counters", "shard.events", to=-1),
         "counter 'shard.events' must be a non-negative int"),
        ("gauge", flip(0, "gauges", "shard.resident", to=1.5),
         "gauge 'shard.resident' must be an int"),
        ("keys", drop(0, "histograms", "server.queue_depth", "sum_units"),
         r"'server.queue_depth' missing \['sum_units'\]"),
        ("alpha", flip(0, "histograms", "server.queue_depth", "alpha",
                       to=1.5), "alpha 1.5"),
        ("zeros", flip(0, "histograms", "server.queue_depth", "zero_count"),
         "count 8, zero_count 9"),
        ("bound", too_many_buckets, "1000 buckets exceeds bound"),
        ("min max", flip(0, "histograms", "shard.batch_events", "min",
                         to=4.0), "min 4.0 / max 3.0"),
    ],
    "repro-manifest/1": [
        ("flip", flip(0, "artifacts", "metrics", "bytes"),
         "1827 bytes, manifest says 1828"),
        ("drop", drop(0, "degradations"),
         r"manifest missing keys \['degradations'\]"),
        ("digest", flip(0, "artifacts", "journal", "sha256", to="0" * 64),
         "sha256 mismatch"),
        ("workers", flip(0, "workers", to=0), "workers 0"),
        ("degradation", flip(0, "degradations", "meltdown", to=1),
         "unknown degradation 'meltdown'"),
        ("empty", flip(0, "artifacts", to={}), "lists no artifacts"),
        ("kind", rename(0, "artifacts", "metrics", to="notes"),
         "unknown artifact kind 'notes'"),
        ("kind schema", flip(0, "artifacts", "metrics", "schema",
                             to="repro-trace-log/1"),
         "metrics: malformed entry"),
        ("sha length", flip(0, "artifacts", "journal", "sha256", to="ab"),
         "journal: malformed entry"),
    ],
}

#: Append-only logs: a torn final line is dropped, never a failure.
APPEND_LOGS = {
    "repro-checkpoint/1": "1 journalled result(s) (torn tail dropped)",
    "repro-service-journal/1": "7 accepted batch(es)",
    "repro-service-sheds/1": "1 shed(s)",
    "repro-service-metrics-stream/1": "1 snapshot(s)",
}


@pytest.fixture
def workdir(tmp_path):
    """A private copy of the fixtures (the manifest hashes its siblings)."""
    target = tmp_path / "schemas"
    shutil.copytree(FIXTURES, target)
    return target


def test_every_registered_schema_has_a_fixture_and_tampers():
    names = {path.name for path in FIXTURES.iterdir()}
    assert {fixture_name(schema) for schema in VALIDATORS} == names
    assert set(TAMPERS) == set(VALIDATORS)
    for schema in VALIDATORS:
        assert embedded_schema(FIXTURES / fixture_name(schema)) == schema


@pytest.mark.parametrize("schema", sorted(VALIDATORS))
def test_fixture_validates(schema):
    report = verify_file(FIXTURES / fixture_name(schema))
    assert report.ok, report.render()
    assert [finding.check for finding in report.findings] \
        == [f"format:{schema}"]


@pytest.mark.parametrize("schema, mutate, message", [
    pytest.param(schema, mutate, message, id=f"{schema}:{variant}")
    for schema, variants in sorted(TAMPERS.items())
    for variant, mutate, message in variants
])
def test_tamper_variant_fails(workdir, schema, mutate, message):
    path = workdir / fixture_name(schema)
    if mutate is TORN:
        raw = path.read_bytes()
        start = raw.rindex(b"\n", 0, len(raw) - 1) + 1
        path.write_bytes(raw[:(start + len(raw)) // 2])
    else:
        records = load(path)
        mutate(records)
        dump(path, records)
    report = verify_file(path)
    assert not report.ok
    (finding,) = report.failures
    assert finding.check == f"format:{schema}"
    assert re.search(message, finding.detail), finding.detail


@pytest.mark.parametrize("schema", sorted(APPEND_LOGS))
def test_append_log_drops_a_torn_final_line(workdir, schema):
    path = workdir / fixture_name(schema)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    report = verify_file(path)
    assert report.ok, report.render()
    assert APPEND_LOGS[schema] in report.findings[0].detail


class TestVerifyFileCommand:
    def test_files_and_exit_codes(self, workdir, capsys):
        clean = workdir / fixture_name("repro-metrics-snapshot/1")
        assert main(["verify", str(clean)]) == 0
        assert "VERIFIED" in capsys.readouterr().out
        records = load(clean)
        first_bucket(records)
        dump(clean, records)
        other = workdir / fixture_name("repro-chaos-plan/1")
        assert main(["verify", str(other), str(clean)]) == 4
        out = capsys.readouterr().out
        assert "buckets sum to" in out and "seed 7, 2 fault(s)" in out

    def test_unknown_schema_fails(self, tmp_path, capsys):
        path = tmp_path / "notes.json"
        path.write_text('{"schema": "notes/1"}\n')
        assert main(["verify", str(path)]) == 4
        assert "unrecognised schema 'notes/1'" in capsys.readouterr().out

    def test_against_needs_run_directories(self, tmp_path, capsys):
        path = FIXTURES / fixture_name("repro-chaos-plan/1")
        assert main(["verify", str(path), "--against", str(tmp_path)]) == 2
        assert "--against compares run directories" \
            in capsys.readouterr().err


def test_chaos_plan_without_faults_is_an_empty_plan(tmp_path):
    path = tmp_path / "plan.json"
    path.write_text('{"schema": "repro-chaos-plan/1", "seed": 3}\n')
    assert ChaosPlan.load(path).faults == ()
    report = verify_file(path)
    assert report.ok and "seed 3, 0 fault(s)" in report.findings[0].detail


def serving_run(tmp_path):
    """A serving run directory assembled from the service fixtures.

    They come from one run: the journal fixture is the shard's sealed
    segment, the checkpoint covers all of it, and its tenants replay to
    ``tenants.json``; the live segment after it holds no record yet.
    """
    run_dir = tmp_path / "svc"
    run_dir.mkdir()
    artifacts = {}
    for kind, schema, name in (
            ("service_segment.0", "repro-service-journal/1",
             "sealed-0-0.jsonl"),
            ("shard_snapshot.0", "repro-shard-snapshot/2", "snapshot-0.json"),
            ("service_tenants", "repro-service-tenants/1", "tenants.json"),
            ("service_metrics", "repro-service-metrics/1",
             "service-metrics.json"),
            ("service_metrics_stream", "repro-service-metrics-stream/1",
             "metrics-stream.jsonl"),
            ("service_sheds", "repro-service-sheds/1", "sheds.jsonl")):
        shutil.copy(FIXTURES / fixture_name(schema), run_dir / name)
        artifacts[kind] = run_dir / name
    header = json.loads((run_dir / "sealed-0-0.jsonl").read_text()
                        .splitlines()[0])
    live = run_dir / "journal-0.jsonl"
    live.write_text(json.dumps({**header, "base": 8}, sort_keys=True) + "\n")
    artifacts["service_journal.0"] = live
    write_manifest(run_dir, artifacts)
    return run_dir, artifacts


class TestServingBooks:
    def test_fixture_run_verifies(self, tmp_path):
        run_dir, _ = serving_run(tmp_path)
        report = verify_run(run_dir)
        assert report.ok, report.render()
        checks = {finding.check for finding in report.findings}
        assert {"service:replay", "service:checkpoint_replay",
                "metrics_stream"} <= checks

    def test_unbalanced_books_fail_even_when_rehashed(self, tmp_path):
        """accepted + refused == answered + shed, or a batch went missing."""
        run_dir, artifacts = serving_run(tmp_path)
        path = run_dir / "service-metrics.json"
        metrics = json.loads(path.read_text())
        metrics["counters"]["accepted"] += 1  # accepted, never answered
        path.write_text(json.dumps(metrics, indent=2, sort_keys=True))
        write_manifest(run_dir, artifacts)
        report = verify_run(run_dir)
        assert not report.ok
        (finding,) = report.failures
        assert finding.check == "format:service_metrics"
        assert "accounting hole: accepted 9" in finding.detail

    def test_books_unchecked_before_the_refused_counter(self, tmp_path):
        """A file from before ``refused`` cannot tell a refusal from a
        late shed, so a batch shed before acceptance must not fail it."""
        run_dir, artifacts = serving_run(tmp_path)
        path = run_dir / "service-metrics.json"
        metrics = json.loads(path.read_text())
        del metrics["counters"]["refused"]
        metrics["counters"]["shed"] += 1  # backpressure, never accepted
        path.write_text(json.dumps(metrics, indent=2, sort_keys=True))
        write_manifest(run_dir, artifacts)
        report = verify_run(run_dir)
        assert report.ok, report.render()
        (finding,) = [finding for finding in report.findings
                      if finding.check == "format:service_metrics"]
        assert "books unchecked: written before the refused counter" \
            in finding.detail


class TestCheckpointState:
    """A checkpoint carries table state as columns or not at all."""

    def checkpoint(self):
        meta = TenantMeta()
        meta.absorb(1, [4, 8], [16, 32], 2)
        from repro.core.factory import predictor_from_spec

        predictor = predictor_from_spec("btb:entries=16")
        predictor.run_trace([4, 8], [16, 32])
        return build_checkpoint(0, "btb:entries=16", 2, {
            "live": (meta, predictor),
            "parked": (meta, None),
        })

    def test_writers_emit_columns_or_nothing(self):
        payload = self.checkpoint()
        states = [entry["predictor"] for entry in payload["tenants"].values()]
        assert isinstance(states[0], dict) and states[1] is None
        validate_checkpoint(payload)

    def test_a_history_checkpoint_file_is_unrecognised(self, workdir):
        path = workdir / fixture_name("repro-shard-snapshot/2")
        records = load(path)
        resealed(flip(0, "schema", to="repro-shard-snapshot/1"))(records)
        dump(path, records)
        report = verify_file(path)
        assert not report.ok
        assert "unrecognised schema 'repro-shard-snapshot/1'" \
            in report.failures[0].detail

    def test_a_pickle_string_fails_validation(self):
        from repro.errors import ServiceError

        payload = self.checkpoint()
        payload["tenants"]["live"]["predictor"] = "gASVpickled-by-an-old-writer"
        payload["crc32"] = payload_crc(payload)
        with pytest.raises(ServiceError, match="predictor state"):
            validate_checkpoint(payload)

    def test_state_columns_must_match_the_spec(self):
        from repro.errors import ServiceError

        payload = self.checkpoint()
        state = payload["tenants"]["live"]["predictor"]
        state["history"] = state["table"]
        payload["crc32"] = payload_crc(payload)
        with pytest.raises(ServiceError, match="are not the spec's"):
            validate_checkpoint(payload)
