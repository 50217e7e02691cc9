"""CI assertion: telemetry artifacts match their published schemas.

Usage::

    python .github/workflows/check_metrics_schema.py ARTIFACT [ARTIFACT...]

Each argument is dispatched on its embedded schema identifier:

* ``repro-run-metrics/2`` — a ``--metrics-out`` document (top-level keys,
  unit counters, per-phase breakdown shape, degradation event names);
* ``repro-trace-log/1`` — a ``--trace-log`` file (header line, one JSON
  record per line, span/event record shapes);
* ``repro-attribution/1`` — an ``--attribution`` artifact (header,
  record/summary shapes, and the exactness invariant: per-cause counts
  sum to the misprediction total, per record, per site, and in the
  aggregate summary);
* ``repro-manifest/1`` — a run-directory ``manifest.json`` (artifact
  entry shapes, known kinds, and — for artifacts that exist next to the
  manifest — matching byte sizes and SHA-256 digests);
* ``repro-ext-trace/1`` — an ingested external trace (header tables with
  dense ids, event records referencing only declared ids, and an end
  record whose event count matches);
* ``repro-bench-kernel/1`` — a ``tools/bench_kernel.py`` artifact
  (per-figure aggregates, per-class breakdown, class times summing to
  the figure totals, internally consistent speedups);
* ``repro-metrics-snapshot/1`` — a merged metrics snapshot (``repro
  stats --json``): integer counters/gauges, bounded log-bucketed
  histograms whose bucket counts sum to their observation counts;
* ``repro-service-metrics-stream/1`` — a server's live
  ``metrics-stream.jsonl`` (header line, increasing ``seq``, valid
  merged + per-shard snapshots per record, monotonic ``server.*``
  counters, torn final line tolerated);
* ``repro-bench-trend/1`` — a ``tools/bench_trend.py`` history file
  (header line, one run record per line with a numeric metrics map);
* ``repro-shard-snapshot/1`` — a shard recovery checkpoint (whole-payload
  CRC32, per-tenant digests re-derived from the stored chain link +
  counters, batch bounds and base64 stream columns consistent with the
  counters and with the covered journal watermark, predictor state as
  named base64 int64 columns of whole rows, no pickle);
* ``repro-bench-recovery/1`` — a ``tools/bench_recovery.py`` artifact
  (per-size points with internally consistent speedups, headline
  matching the largest point).
"""

import base64
import hashlib
import json
import math
import os
import re
import struct
import sys
import zlib

METRICS_SCHEMA = "repro-run-metrics/2"
TRACE_LOG_SCHEMA = "repro-trace-log/1"
ATTRIBUTION_SCHEMA = "repro-attribution/1"
MANIFEST_SCHEMA = "repro-manifest/1"
EXT_TRACE_SCHEMA = "repro-ext-trace/1"
BENCH_KERNEL_SCHEMA = "repro-bench-kernel/1"
SNAPSHOT_SCHEMA = "repro-metrics-snapshot/1"
METRICS_STREAM_SCHEMA = "repro-service-metrics-stream/1"
BENCH_TREND_SCHEMA = "repro-bench-trend/1"
SHARD_SNAPSHOT_SCHEMA = "repro-shard-snapshot/1"
BENCH_RECOVERY_SCHEMA = "repro-bench-recovery/1"
MANIFEST_KINDS = {
    "journal": "repro-checkpoint/1",
    "metrics": METRICS_SCHEMA,
    "trace_log": TRACE_LOG_SCHEMA,
    "attribution": ATTRIBUTION_SCHEMA,
    "chaos_plan": "repro-chaos-plan/1",
    "ext_trace": EXT_TRACE_SCHEMA,
    "service_journal": "repro-service-journal/1",
    "service_sheds": "repro-service-sheds/1",
    "service_tenants": "repro-service-tenants/1",
    "service_metrics": "repro-service-metrics/1",
    "service_metrics_stream": METRICS_STREAM_SCHEMA,
    "shard_snapshot": SHARD_SNAPSHOT_SCHEMA,
}
DEGRADATION_EVENTS = {
    "cache_fallback", "serial_fallback", "checkpoint_off", "telemetry_off",
    # Serving-path degradations (manifest.json of a `repro serve` run).
    "shard_respawn", "shard_failed", "service_journal_off",
    "snapshot_missing", "metrics_stream_off", "checkpoint_fallback",
}
CAUSES = {"cold", "capacity", "conflict", "training", "metapredictor",
          "unknown"}
ATTRIBUTION_RECORD_KEYS = {
    "kind", "benchmark", "predictor", "events", "mispredictions", "causes",
    "sites", "site_count", "tables", "confusion",
}

METRICS_KEYS = {
    "schema", "workers", "wall_time_s", "phases", "units", "worker_crashes",
    "unit_wall_time_s", "queue_depth", "worker_utilization", "trace_loads",
    "per_unit", "counters", "kernels", "kernel_fallbacks",
}
KERNELS = {"event", "batch"}
UNIT_KEYS = {"total", "completed", "from_checkpoint", "requeued", "poisoned"}
TRACE_SOURCES = {"memo", "cache", "generated"}


def check_metrics(path: str) -> None:
    data = json.load(open(path))
    assert data["schema"] == METRICS_SCHEMA, data.get("schema")
    missing = METRICS_KEYS - set(data)
    assert not missing, f"metrics missing keys: {sorted(missing)}"
    assert set(data["units"]) == UNIT_KEYS, sorted(data["units"])
    assert data["workers"] >= 1
    assert data["wall_time_s"] > 0.0, "wall_time_s must be nonzero"
    for name, stats in data["phases"].items():
        assert set(stats) == {"seconds", "count"}, (name, stats)
        assert stats["seconds"] >= 0.0 and stats["count"] >= 1, (name, stats)
    assert "simulate" in data["phases"] or data["units"]["completed"] == 0
    for source in data["trace_loads"]:
        assert source in TRACE_SOURCES, f"unknown trace source {source!r}"
    for unit in data["per_unit"]:
        assert unit["trace_source"] in TRACE_SOURCES, unit
        assert unit["seconds"] >= 0.0, unit
    for name, count in data["counters"].items():
        assert isinstance(name, str) and name, repr(name)
        assert isinstance(count, int) and not isinstance(count, bool), \
            (name, count)
        assert count >= 1, (name, count)
    for event, count in data.get("degradations", {}).items():
        assert event in DEGRADATION_EVENTS, f"unknown degradation {event!r}"
        assert count >= 1, (event, count)
    # Every completed unit ran on exactly one kernel; every auto
    # fallback (counted by reason) ran on the per-event loop.
    kernels, fallbacks = data["kernels"], data["kernel_fallbacks"]
    assert set(kernels) <= KERNELS, sorted(kernels)
    for name, count in {**kernels, **fallbacks}.items():
        assert isinstance(name, str) and name, repr(name)
        assert isinstance(count, int) and count >= 1, (name, count)
    assert sum(kernels.values()) == data["units"]["completed"], \
        (kernels, data["units"])
    assert sum(fallbacks.values()) <= kernels.get("event", 0), \
        (fallbacks, kernels)
    print(f"{path}: valid {METRICS_SCHEMA} "
          f"({data['units']['completed']} units, "
          f"{len(data['phases'])} phases, kernels {kernels})")


def check_trace_log(path: str) -> None:
    lines = open(path).read().splitlines()
    assert lines, "empty trace log"
    header = json.loads(lines[0])
    assert header.get("schema") == TRACE_LOG_SCHEMA, header
    spans = events = 0
    for number, line in enumerate(lines[1:], start=2):
        record = json.loads(line)
        kind = record.get("kind")
        assert kind in ("span", "event"), f"line {number}: kind {kind!r}"
        assert record.get("name"), f"line {number}: unnamed record"
        assert record.get("t") is not None and record["t"] >= 0.0
        assert isinstance(record.get("attrs"), dict), f"line {number}"
        if kind == "span":
            assert record.get("dur_s") is not None and record["dur_s"] >= 0.0
            assert record.get("depth", -1) >= 0
            spans += 1
        else:
            events += 1
    assert spans > 0, "trace log recorded no spans"
    assert events > 0, "trace log recorded no events"
    print(f"{path}: valid {TRACE_LOG_SCHEMA} "
          f"({spans} spans, {events} events)")


def check_attribution(path: str) -> None:
    lines = open(path).read().splitlines()
    assert lines, "empty attribution artifact"
    header = json.loads(lines[0])
    assert header.get("schema") == ATTRIBUTION_SCHEMA, header
    assert "pid" not in header, "attribution header must be deterministic"
    records = summaries = 0
    totals = {"events": 0, "mispredictions": 0}
    cause_totals = {cause: 0 for cause in CAUSES}
    for number, line in enumerate(lines[1:], start=2):
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "record":
            assert set(record) == ATTRIBUTION_RECORD_KEYS, \
                f"line {number}: keys {sorted(record)}"
            causes = record["causes"]
            assert set(causes) == CAUSES, f"line {number}: {sorted(causes)}"
            assert sum(causes.values()) == record["mispredictions"], \
                f"line {number}: cause counts do not sum to mispredictions"
            assert 0 <= record["mispredictions"] <= record["events"]
            assert len(record["sites"]) <= record["site_count"]
            for site in record["sites"]:
                assert sum(site["causes"].values()) == site["misses"], \
                    f"line {number}: site {site['pc']:#x} causes != misses"
                assert 0 <= site["misses"] <= site["executions"]
                assert set(site["causes"]) <= CAUSES, site
            for table in record["tables"]:
                assert table["entries"] >= 0, table
                if table["capacity"] is not None:
                    assert table["entries"] <= table["capacity"], table
            totals["events"] += record["events"]
            totals["mispredictions"] += record["mispredictions"]
            for cause, count in causes.items():
                cause_totals[cause] += count
            records += 1
        elif kind == "summary":
            assert record["records"] == records, \
                f"line {number}: summary records != preceding record count"
            assert record["events"] == totals["events"], f"line {number}"
            assert record["mispredictions"] == totals["mispredictions"], \
                f"line {number}"
            assert record["causes"] == cause_totals, f"line {number}"
            summaries += 1
        else:
            raise AssertionError(f"line {number}: kind {kind!r}")
    assert records > 0, "attribution artifact has no records"
    assert summaries == 1, f"expected exactly one summary, got {summaries}"
    print(f"{path}: valid {ATTRIBUTION_SCHEMA} "
          f"({records} records, {totals['mispredictions']} misses attributed)")


def check_ext_trace(path: str) -> None:
    lines = open(path).read().splitlines()
    assert lines, "empty ext-trace"
    header = json.loads(lines[0])
    assert header.get("schema") == EXT_TRACE_SCHEMA, header
    assert header.get("producer") and header.get("producer_version"), header
    assert header.get("name"), "ext-trace header has no name"
    tables = {}
    for table in ("sites", "targets"):
        entries = header.get(table)
        assert isinstance(entries, list) and entries, f"bad {table} table"
        for index, entry in enumerate(entries):
            assert entry.get("id") == index, \
                f"{table} ids must be dense 0..n-1 (entry {index}: {entry})"
            assert entry.get("label"), f"{table} entry {index} has no label"
        tables[table] = len(entries)
    events = 0
    ended = False
    for number, line in enumerate(lines[1:], start=2):
        record = json.loads(line)
        assert not ended, f"line {number}: data after the end record"
        if record.get("end"):
            assert record.get("events") == events, \
                f"end record says {record.get('events')}, counted {events}"
            ended = True
            continue
        assert 0 <= record.get("s", -1) < tables["sites"], f"line {number}"
        assert 0 <= record.get("t", -1) < tables["targets"], f"line {number}"
        for site in record.get("p", []):
            assert 0 <= site < tables["sites"], f"line {number}: path {site}"
        events += 1
    assert ended, "ext-trace has no end record"
    assert events > 0, "ext-trace has no events"
    print(f"{path}: valid {EXT_TRACE_SCHEMA} "
          f"({events} events, {tables['sites']} sites, "
          f"{tables['targets']} targets)")


def manifest_base_kind(kind: str) -> str:
    """``ext_trace.0`` -> ``ext_trace``; plain kinds pass through."""
    base, dot, suffix = kind.partition(".")
    if dot and suffix.isdigit():
        return base
    return kind


def check_manifest(path: str) -> None:
    data = json.load(open(path))
    assert data["schema"] == MANIFEST_SCHEMA, data.get("schema")
    assert data["workers"] >= 1, data.get("workers")
    degradations = data["degradations"]
    for event, count in degradations.items():
        assert event in DEGRADATION_EVENTS, f"unknown degradation {event!r}"
        assert count >= 1, (event, count)
    artifacts = data["artifacts"]
    assert artifacts, "manifest lists no artifacts"
    base = os.path.dirname(os.path.abspath(path))
    verified = 0
    for kind, entry in artifacts.items():
        base_kind = manifest_base_kind(kind)
        assert base_kind in MANIFEST_KINDS, f"unknown artifact kind {kind!r}"
        assert set(entry) == {"path", "bytes", "sha256", "schema"}, \
            (kind, sorted(entry))
        assert entry["schema"] == MANIFEST_KINDS[base_kind], \
            (kind, entry["schema"])
        assert len(entry["sha256"]) == 64, (kind, entry["sha256"])
        assert entry["bytes"] >= 0, (kind, entry["bytes"])
        # Artifacts produced by the run are recorded relative to the run
        # directory (relocatable); absolute paths only name external
        # inputs such as a user-supplied chaos plan.
        target = os.path.join(base, entry["path"])
        if os.path.exists(target):
            blob = open(target, "rb").read()
            assert len(blob) == entry["bytes"], \
                f"{kind}: {len(blob)} bytes on disk, manifest says " \
                f"{entry['bytes']}"
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"], \
                f"{kind}: sha256 mismatch against {entry['path']}"
            verified += 1
    print(f"{path}: valid {MANIFEST_SCHEMA} "
          f"({len(artifacts)} artifacts, {verified} hashes verified, "
          f"{sum(degradations.values())} degradation(s))")


def check_bench_kernel(path: str) -> None:
    data = json.load(open(path))
    assert data["schema"] == BENCH_KERNEL_SCHEMA, data.get("schema")
    assert data["events"] > 0, "benchmark ran on an empty trace"
    budgets = data["budgets"]
    assert set(budgets) == {"tagless_speedup_min", "aggregate_speedup_min",
                            "fullassoc_speedup_min", "enforced"}, \
        sorted(budgets)
    figures = data["figures"]
    assert set(figures) == {"fig16", "fig18_table6", "fig11"}, \
        sorted(figures)
    for name, figure in figures.items():
        assert figure["configs"] > 0, name
        assert figure["oracle_s"] > 0.0 and figure["batch_s"] > 0.0, name
        # Speedup is derived, not free-standing: recompute within
        # rounding slack of the recorded per-figure times.
        derived = figure["oracle_s"] / figure["batch_s"]
        assert abs(figure["speedup"] - derived) <= 0.05 * derived, \
            f"{name}: speedup {figure['speedup']} vs derived {derived:.2f}"
        classes = figure["classes"]
        assert classes, f"{name}: no class breakdown"
        assert sum(b["configs"] for b in classes.values()) \
            == figure["configs"], f"{name}: class configs do not sum"
        for class_name, bucket in classes.items():
            assert bucket["oracle_s"] >= 0.0 and bucket["batch_s"] > 0.0, \
                (name, class_name)
            assert bucket["speedup"] > 0.0, (name, class_name)
        # Class times must account for the figure totals (rounding slack:
        # each class contributes at most 0.001s of rounding error).
        slack = 0.002 * len(classes) + 0.01
        for column in ("oracle_s", "batch_s"):
            total = sum(bucket[column] for bucket in classes.values())
            assert abs(total - figure[column]) <= slack + 0.01 * figure[column], \
                f"{name}: class {column} sum {total:.3f} vs {figure[column]}"
        if budgets["enforced"]:
            floor = budgets["fullassoc_speedup_min" if name == "fig11"
                            else "aggregate_speedup_min"]
            assert figure["speedup"] >= floor, \
                f"{name}: aggregate speedup below enforced budget"
            tagless = classes.get("tagless")
            if tagless:
                assert tagless["speedup"] >= budgets["tagless_speedup_min"], \
                    f"{name}: tagless speedup below enforced budget"
    print(f"{path}: valid {BENCH_KERNEL_SCHEMA} "
          f"(fig16 {figures['fig16']['speedup']}x, "
          f"fig18_table6 {figures['fig18_table6']['speedup']}x, "
          f"fig11 {figures['fig11']['speedup']}x)")


def assert_snapshot(snapshot, context: str) -> None:
    """Structural invariants of one ``repro-metrics-snapshot/1`` dict."""
    assert isinstance(snapshot, dict), f"{context}: snapshot is not a dict"
    assert snapshot.get("schema") == SNAPSHOT_SCHEMA, \
        f"{context}: schema {snapshot.get('schema')!r}"
    for section in ("counters", "gauges", "histograms"):
        assert isinstance(snapshot.get(section), dict), f"{context}: {section}"
    for name, value in snapshot["counters"].items():
        assert isinstance(value, int) and not isinstance(value, bool), \
            f"{context}: counter {name} = {value!r}"
        assert value >= 0, f"{context}: counter {name} negative"
    for name, value in snapshot["gauges"].items():
        assert isinstance(value, int) and not isinstance(value, bool), \
            f"{context}: gauge {name} = {value!r}"
    for name, hist in snapshot["histograms"].items():
        where = f"{context}: histogram {name}"
        assert {"alpha", "count", "zero_count", "sum_units", "min", "max",
                "buckets"} <= set(hist), f"{where}: keys {sorted(hist)}"
        alpha = hist["alpha"]
        assert 0.0 < alpha < 1.0, f"{where}: alpha {alpha}"
        assert hist["count"] >= hist["zero_count"] >= 0, where
        buckets = hist["buckets"]
        # The documented memory bound: bucket count can never exceed the
        # index span of the trackable range [1e-9, 1e9] at this alpha.
        gamma = (1.0 + alpha) / (1.0 - alpha)
        most = math.ceil(math.log(1e18) / math.log(gamma)) + 2
        assert len(buckets) <= most, \
            f"{where}: {len(buckets)} buckets exceeds bound {most}"
        total = hist["zero_count"] + sum(buckets.values())
        assert total == hist["count"], \
            f"{where}: buckets sum to {total}, count says {hist['count']}"
        if hist["count"] > 0:
            assert hist["min"] is not None and hist["max"] is not None, where
            assert hist["min"] <= hist["max"], where


def check_snapshot(path: str) -> None:
    snapshot = json.load(open(path))
    assert_snapshot(snapshot, path)
    print(f"{path}: valid {SNAPSHOT_SCHEMA} "
          f"({len(snapshot['counters'])} counters, "
          f"{len(snapshot['gauges'])} gauges, "
          f"{len(snapshot['histograms'])} histograms)")


def check_metrics_stream(path: str) -> None:
    lines = open(path).read().splitlines()
    assert lines, "empty metrics stream"
    header = json.loads(lines[0])
    assert header.get("schema") == METRICS_STREAM_SCHEMA, header
    assert "pid" not in header, "metrics-stream header must be deterministic"
    records = 0
    last_seq = 0
    finals = 0
    floors = {}
    for number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except ValueError:
            # A torn final line is the signature of a crash mid-append;
            # everything before it must still parse.
            assert number == len(lines), f"line {number}: corrupt record"
            break
        where = f"line {number}"
        assert record.get("kind") in ("snapshot", "final"), where
        assert finals == 0, f"{where}: record after the final snapshot"
        seq = record.get("seq")
        assert isinstance(seq, int) and seq > last_seq, \
            f"{where}: seq {seq!r} not above {last_seq}"
        last_seq = seq
        assert record.get("t", -1.0) >= 0.0, where
        assert_snapshot(record.get("merged"), where)
        shards = record.get("shards")
        assert isinstance(shards, dict), where
        for shard_id, snapshot in shards.items():
            assert_snapshot(snapshot, f"{where}: shard {shard_id}")
        # Only server-side counters are monotonic across the stream: a
        # shard respawn resets that shard's registry, so merged shard.*
        # counters may legitimately step backwards.
        for name, value in record["merged"]["counters"].items():
            if not name.startswith("server."):
                continue
            assert value >= floors.get(name, 0), \
                f"{where}: {name} went backwards"
            floors[name] = value
        if record["kind"] == "final":
            finals += 1
        records += 1
    assert records > 0, "metrics stream has no snapshots"
    print(f"{path}: valid {METRICS_STREAM_SCHEMA} "
          f"({records} snapshots, {finals} final, "
          f"{len(floors)} server counters monotonic)")


def check_bench_trend(path: str) -> None:
    lines = open(path).read().splitlines()
    assert lines, "empty bench-trend history"
    header = json.loads(lines[0])
    assert header.get("schema") == BENCH_TREND_SCHEMA, header
    runs = 0
    last_run = 0
    metric_names = set()
    for number, line in enumerate(lines[1:], start=2):
        record = json.loads(line)
        where = f"line {number}"
        assert record.get("kind") == "run", where
        run = record.get("run")
        assert isinstance(run, int) and run > last_run, \
            f"{where}: run {run!r} not above {last_run}"
        last_run = run
        metrics = record.get("metrics")
        assert isinstance(metrics, dict) and metrics, \
            f"{where}: empty metrics map"
        for name, value in metrics.items():
            assert isinstance(name, str) and ":" in name, \
                f"{where}: metric name {name!r} (want file:dotted.path)"
            assert isinstance(value, (int, float)) \
                and not isinstance(value, bool) \
                and math.isfinite(value), f"{where}: {name} = {value!r}"
            metric_names.add(name)
        runs += 1
    assert runs > 0, "bench-trend history records no runs"
    print(f"{path}: valid {BENCH_TREND_SCHEMA} "
          f"({runs} runs, {len(metric_names)} metrics tracked)")


def check_shard_snapshot(path: str) -> None:
    data = json.load(open(path))
    assert data["schema"] == SHARD_SNAPSHOT_SCHEMA, data.get("schema")
    scrubbed = {key: value for key, value in data.items() if key != "crc32"}
    canonical = json.dumps(scrubbed, sort_keys=True,
                           separators=(",", ":")).encode("utf-8")
    assert data.get("crc32") == zlib.crc32(canonical) & 0xFFFFFFFF, \
        "whole-payload CRC mismatch"
    covered = data["journal_records"]
    assert isinstance(covered, int) and covered >= 0, covered
    assert isinstance(data.get("shard"), int), data.get("shard")
    assert isinstance(data.get("spec"), str) and data["spec"], "missing spec"
    tenants = data["tenants"]
    assert isinstance(tenants, dict), "tenants is not an object"
    total_batches = 0
    for tenant, entry in tenants.items():
        where = f"tenant {tenant!r}"
        chain = bytes.fromhex(entry["chain"])
        assert len(chain) == 32, f"{where}: chain link not 32 bytes"
        counters = struct.pack("<QQQ", entry["seq"], entry["events"],
                               entry["misses"])
        derived = hashlib.sha256(chain + counters).hexdigest()
        assert entry["digest"] == derived, \
            f"{where}: digest does not match chain + counters"
        bounds = entry["bounds"]
        assert len(bounds) == entry["seq"], \
            f"{where}: {len(bounds)} bounds for {entry['seq']} batches"
        assert sum(count for _, count in bounds) == entry["events"], \
            f"{where}: bounds do not sum to the event count"
        if bounds:
            assert bounds[-1][0] == entry["last_bid"], \
                f"{where}: final bound bid != last_bid"
        for column in ("pcs", "targets"):
            raw = base64.b64decode(entry[column].encode("ascii"),
                                   validate=True)
            assert len(raw) % 4 == 0, f"{where}: torn {column} column"
            assert len(raw) // 4 == entry["events"], \
                f"{where}: {column} holds {len(raw) // 4} events, " \
                f"counters say {entry['events']}"
        check_predictor_state(entry.get("predictor"), data["spec"], where)
        total_batches += entry["seq"]
    assert total_batches == covered, \
        f"tenants hold {total_batches} batches, journal_records says " \
        f"{covered}"
    print(f"{path}: valid {SHARD_SNAPSHOT_SCHEMA} "
          f"(shard {data['shard']}, {len(tenants)} tenants, "
          f"{covered} records covered, CRC + digests verified)")


#: Row width of each predictor state column kind: ``table`` rows are
#: (key, target, miss_bit, confidence), ``history`` and ``selector`` rows
#: (id, value).
STATE_ROW_WIDTHS = {"table": 4, "history": 2, "selector": 2}


def state_columns(spec: str) -> set:
    """The state column names a predictor of ``spec`` exports."""
    family, _, body = spec.strip().lower().partition(":")
    fields = dict(item.strip().partition("=")[::2]
                  for item in body.split(",") if item.strip())
    if family == "btb":
        return {"table"}
    if family == "twolevel":
        return {"table", "history"}
    assert family == "hybrid", f"unknown predictor family in {spec!r}"
    count = sum(1 for key in fields if re.fullmatch(r"p\d+", key))
    names = {f"c{index}.{kind}" for index in range(count)
             for kind in ("table", "history")}
    if fields.get("meta") == "bpst":
        names.add("selector")
    return names


def check_predictor_state(state, spec: str, where: str) -> None:
    """``None`` (parked tenant) or the spec's named base64 int64 columns.

    Every column must hold whole rows of non-negative values, table miss
    bits must be 0 or 1, and the names must be exactly the ones the
    spec's predictor exports.  A string — a pickled predictor — is
    refused: checkpoints carry no code-bearing blobs.
    """
    if state is None:
        return
    assert isinstance(state, dict), \
        f"{where}: predictor state is not a column map"
    assert set(state) == state_columns(spec), \
        f"{where}: predictor state columns {sorted(state)} are not " \
        f"{sorted(state_columns(spec))}"
    for name, blob in state.items():
        width = STATE_ROW_WIDTHS[name.rpartition(".")[2]]
        assert isinstance(blob, str), f"{where}: column {name!r} not base64"
        raw = base64.b64decode(blob.encode("ascii"), validate=True)
        assert len(raw) % (8 * width) == 0, \
            f"{where}: column {name!r} is {len(raw)} bytes, not whole " \
            f"rows of {width} int64 values"
        values = struct.unpack(f"<{len(raw) // 8}q", raw)
        assert all(value >= 0 for value in values), \
            f"{where}: column {name!r} holds a negative value"
        if width == 4:
            assert all(bit in (0, 1) for bit in values[2::4]), \
                f"{where}: column {name!r} holds a miss bit not 0 or 1"


def check_bench_recovery(path: str) -> None:
    data = json.load(open(path))
    assert data["schema"] == BENCH_RECOVERY_SCHEMA, data.get("schema")
    points = data["points"]
    assert isinstance(points, list) and points, "no measurement points"
    last_total = 0
    for point in points:
        assert point["total_batches"] > last_total, \
            "points must grow in journal length"
        last_total = point["total_batches"]
        assert 0 < point["tail_events"] <= point["total_events"], point
        assert point["snapshot_recovery_s"] > 0.0, point
        assert point["full_replay_s"] > 0.0, point
        derived = point["full_replay_s"] / point["snapshot_recovery_s"]
        assert abs(point["speedup"] - derived) <= 0.05 * derived + 0.01, \
            f"speedup {point['speedup']} vs derived {derived:.2f}"
    headline = data["headline"]
    assert headline["speedup_vs_full_replay"] == points[-1]["speedup"], \
        "headline speedup must come from the largest point"
    assert headline["snapshot_recovery_s"] \
        == points[-1]["snapshot_recovery_s"], "headline recovery time"
    print(f"{path}: valid {BENCH_RECOVERY_SCHEMA} "
          f"({len(points)} points, "
          f"{headline['speedup_vs_full_replay']}x at "
          f"{points[-1]['total_events']} events)")


def check_artifact(path: str) -> None:
    """Dispatch one artifact to its checker by embedded schema id."""
    with open(path) as handle:
        first = handle.readline()
    try:
        header = json.loads(first)
    except ValueError:
        header = None
    schema = header.get("schema") if isinstance(header, dict) else None
    if schema == TRACE_LOG_SCHEMA:
        check_trace_log(path)
    elif schema == ATTRIBUTION_SCHEMA:
        check_attribution(path)
    elif schema == EXT_TRACE_SCHEMA:
        check_ext_trace(path)
    elif schema == METRICS_STREAM_SCHEMA:
        check_metrics_stream(path)
    elif schema == BENCH_TREND_SCHEMA:
        check_bench_trend(path)
    else:
        # Multi-line JSON documents: the schema key is inside the body.
        data = json.load(open(path))
        schema = data.get("schema")
        if schema == METRICS_SCHEMA:
            check_metrics(path)
        elif schema == MANIFEST_SCHEMA:
            check_manifest(path)
        elif schema == BENCH_KERNEL_SCHEMA:
            check_bench_kernel(path)
        elif schema == SNAPSHOT_SCHEMA:
            check_snapshot(path)
        elif schema == SHARD_SNAPSHOT_SCHEMA:
            check_shard_snapshot(path)
        elif schema == BENCH_RECOVERY_SCHEMA:
            check_bench_recovery(path)
        else:
            raise AssertionError(
                f"{path}: unrecognised artifact schema {schema!r}")


def main() -> None:
    assert len(sys.argv) > 1, \
        "usage: check_metrics_schema.py ARTIFACT [ARTIFACT...]"
    for path in sys.argv[1:]:
        check_artifact(path)


if __name__ == "__main__":
    main()
