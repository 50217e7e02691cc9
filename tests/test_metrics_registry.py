"""The live-observability stack: metrics registry, consoles, bench trends.

Four surfaces, from the inside out:

* the mergeable registry (``repro.runtime.metrics``) — counters, gauges,
  log-bucketed histograms, and the two contracts everything above relies
  on: merging is exact and order-independent down to the serialized
  bytes, and quantile estimates stay within the documented ``alpha``
  relative-error bound of the true sample quantile;
* snapshot validation — ``validate_snapshot`` as the wire-format gate;
* the stream artifact — ``metrics-stream.jsonl`` survives a torn tail
  exactly like the trace log it is built on;
* the operator consoles and the bench-trend gate — rendering and
  regression verdicts over canned inputs (the live-server paths are
  exercised by ``tests/test_service_e2e.py``).
"""

import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.metrics import (
    DEFAULT_ALPHA,
    MAX_TRACKABLE,
    MIN_TRACKABLE,
    SNAPSHOT_SCHEMA,
    Counter,
    Gauge,
    LogHistogram,
    MetricsRegistry,
    counter_names,
    merge_snapshots,
    snapshot_bytes,
    validate_snapshot,
)
from repro.runtime.records import RecordLog
from repro.runtime.telemetry import read_trace_log
from repro.service.console import render_stats, shard_rows
from repro.service.state import METRICS_STREAM_SCHEMA

values = st.floats(min_value=1e-7, max_value=1e7,
                   allow_nan=False, allow_infinity=False)


def exact_quantile(samples, q):
    import math
    ordered = sorted(samples)
    rank = min(max(1, math.ceil(q * len(ordered))), len(ordered))
    return ordered[rank - 1]


# -- primitives --------------------------------------------------------------

class TestPrimitives:
    def test_counter_monotonic(self):
        counter = Counter()
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_goes_both_ways(self):
        gauge = Gauge()
        gauge.set(7)
        gauge.inc(-3)
        assert gauge.value == 4

    def test_histogram_rejects_garbage(self):
        hist = LogHistogram()
        with pytest.raises(ValueError):
            hist.observe(float("nan"))
        with pytest.raises(ValueError):
            hist.observe(-1.0)

    def test_histogram_clamps_to_trackable_range(self):
        hist = LogHistogram()
        hist.observe(MIN_TRACKABLE / 100)   # below: exact-zero bucket
        hist.observe(MAX_TRACKABLE * 100)   # above: clamped, still counted
        assert hist.count == 2
        assert hist.quantile(1.0) == MAX_TRACKABLE * 100  # exact max kept

    def test_registry_rejects_cross_kind_names(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    @pytest.mark.parametrize("value, units", [
        # An integer just above 2**53 nano-units, where the float
        # product rounds to ...876: the mean must still be exact.
        (9007199.826171875, 9007199826171875),
        # 2**-10 is exactly 976562.5 nano-units: half rounds to even.
        (2.0 ** -10, 976562),
    ])
    def test_mean_is_exact_in_nano_units(self, value, units):
        hist = LogHistogram()
        hist.observe(value)
        assert hist.sum_units == units
        assert hist.mean() == units / 10 ** 9

    def test_empty_histogram_summary(self):
        hist = LogHistogram()
        assert hist.quantile(0.5) is None
        assert hist.mean() is None
        assert hist.summary() == {"count": 0, "p50_s": 0.0, "p99_s": 0.0,
                                  "max_s": 0.0}


# -- the documented error bound ----------------------------------------------

class TestQuantileBound:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(values, min_size=1, max_size=300),
           st.sampled_from([0.5, 0.9, 0.99, 1.0]))
    def test_quantile_within_alpha_of_exact(self, samples, q):
        hist = LogHistogram()
        for value in samples:
            hist.observe(value)
        exact = exact_quantile(samples, q)
        estimate = hist.quantile(q)
        assert abs(estimate - exact) <= DEFAULT_ALPHA * exact + 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.lists(values, min_size=1, max_size=300))
    def test_extremes_are_exact_and_mean_is_tight(self, samples):
        hist = LogHistogram()
        for value in samples:
            hist.observe(value)
        assert hist.quantile(1.0) == max(samples)
        true_mean = sum(samples) / len(samples)
        # The mean comes from the integer nano-unit sum, so it is exact
        # up to the quantization of each observation.
        assert abs(hist.mean() - true_mean) <= 1e-9 * len(samples)

    def test_memory_stays_bounded(self):
        import math
        hist = LogHistogram()
        for exponent in range(-9, 10):
            for mantissa in range(1, 100):
                hist.observe(mantissa * 10.0 ** exponent)
        gamma = (1 + DEFAULT_ALPHA) / (1 - DEFAULT_ALPHA)
        bound = math.ceil(math.log(1e18) / math.log(gamma)) + 2
        assert len(hist.buckets) <= bound


# -- exact, order-independent merging ----------------------------------------

def build_registry(spec):
    """One registry from ``(counter_incs, gauge_sets, observations)``."""
    counter_incs, gauge_sets, observations = spec
    registry = MetricsRegistry()
    for name, amount in counter_incs:
        registry.counter(f"c.{name}").inc(amount)
    for name, value in gauge_sets:
        registry.gauge(f"g.{name}").set(value)
    for name, value in observations:
        registry.histogram(f"h.{name}").observe(value)
    return registry


registry_specs = st.tuples(
    st.lists(st.tuples(st.sampled_from("abc"), st.integers(0, 100)),
             max_size=5),
    st.lists(st.tuples(st.sampled_from("abc"), st.integers(-50, 50)),
             max_size=5),
    st.lists(st.tuples(st.sampled_from("abc"), values), max_size=10),
)


class TestMerge:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(registry_specs, min_size=2, max_size=5),
           st.randoms(use_true_random=False))
    def test_merge_is_order_independent_to_the_byte(self, specs, rng):
        snapshots = [build_registry(spec).snapshot() for spec in specs]
        reference = snapshot_bytes(merge_snapshots(snapshots))
        shuffled = list(snapshots)
        rng.shuffle(shuffled)
        assert snapshot_bytes(merge_snapshots(shuffled)) == reference

    @settings(max_examples=50, deadline=None)
    @given(st.lists(registry_specs, min_size=1, max_size=4))
    def test_merged_counters_are_exact_sums(self, specs):
        registries = [build_registry(spec) for spec in specs]
        merged = merge_snapshots(r.snapshot() for r in registries)
        validate_snapshot(merged)
        for name in counter_names(merged):
            expected = sum(r.snapshot()["counters"].get(name, 0)
                           for r in registries)
            assert merged["counters"][name] == expected
        for name, hist in merged["histograms"].items():
            expected = sum(r.snapshot()["histograms"].get(
                name, {"count": 0})["count"] for r in registries)
            assert hist["count"] == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(values, min_size=1, max_size=100),
           st.lists(values, min_size=1, max_size=100))
    def test_merged_quantile_still_within_bound(self, left, right):
        one, two = LogHistogram(), LogHistogram()
        for value in left:
            one.observe(value)
        for value in right:
            two.observe(value)
        one.merge(two)
        combined = left + right
        for q in (0.5, 0.99):
            exact = exact_quantile(combined, q)
            assert abs(one.quantile(q) - exact) <= DEFAULT_ALPHA * exact + 1e-12

    def test_alpha_mismatch_refuses_to_merge(self):
        one, two = LogHistogram(alpha=0.05), LogHistogram(alpha=0.01)
        with pytest.raises(ValueError):
            one.merge(two)

    def test_roundtrip_is_identity(self):
        hist = LogHistogram()
        for value in (0.001, 0.5, 12.0, 1e-12, 1e12):
            hist.observe(value)
        again = LogHistogram.from_dict(hist.to_dict())
        assert again.to_dict() == hist.to_dict()


# -- snapshot validation ------------------------------------------------------

class TestValidation:
    def good(self):
        registry = MetricsRegistry()
        registry.counter("server.accepted").inc(3)
        registry.gauge("server.inflight").set(1)
        registry.histogram("server.latency_seconds").observe(0.01)
        return registry.snapshot()

    def test_good_snapshot_passes(self):
        validate_snapshot(self.good())

    @pytest.mark.parametrize("mutate", [
        lambda s: s.pop("schema"),
        lambda s: s.__setitem__("schema", "repro-metrics-snapshot/999"),
        lambda s: s.pop("gauges"),
        lambda s: s["counters"].__setitem__("server.accepted", -1),
        lambda s: s["counters"].__setitem__("server.accepted", True),
        lambda s: s["counters"].__setitem__("server.accepted", 1.5),
        lambda s: s["histograms"]["server.latency_seconds"].pop("buckets"),
    ])
    def test_mutations_are_rejected(self, mutate):
        snapshot = self.good()
        mutate(snapshot)
        with pytest.raises(ValueError):
            validate_snapshot(snapshot)


# -- the stream artifact survives a torn tail ---------------------------------

class TestStreamArtifact:
    def write_stream(self, path, records):
        with RecordLog(path, {"schema": METRICS_STREAM_SCHEMA}) as writer:
            for record in records:
                writer.write(record)

    def record(self, seq):
        registry = MetricsRegistry()
        registry.counter("server.accepted").inc(seq)
        return {"kind": "snapshot", "seq": seq, "t": float(seq),
                "merged": registry.snapshot(), "shards": {}}

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "metrics-stream.jsonl"
        self.write_stream(path, [self.record(n) for n in (1, 2, 3)])
        records = read_trace_log(path, schema=METRICS_STREAM_SCHEMA)
        assert [r["seq"] for r in records] == [1, 2, 3]
        for record in records:
            validate_snapshot(record["merged"])

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "metrics-stream.jsonl"
        self.write_stream(path, [self.record(n) for n in (1, 2)])
        with open(path, "a", encoding="utf-8") as stream:
            stream.write('{"kind": "snapshot", "seq": 3, "mer')  # SIGKILL
        records = read_trace_log(path, schema=METRICS_STREAM_SCHEMA)
        assert [r["seq"] for r in records] == [1, 2]

    def test_interior_corruption_still_raises(self, tmp_path):
        path = tmp_path / "metrics-stream.jsonl"
        self.write_stream(path, [self.record(1)])
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        lines.insert(1, "not json")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_trace_log(path, schema=METRICS_STREAM_SCHEMA)


# -- console rendering over canned stats --------------------------------------

def canned_stats():
    shard_metrics = MetricsRegistry()
    shard_metrics.counter("shard.events").inc(640)
    shard_metrics.histogram("shard.batch_seconds").observe(0.004)
    return {
        "counters": {"accepted": 10, "answered": 9, "events_applied": 640,
                     "duplicates": 1, "shed": 0},
        "respawns": 1,
        "latency": {"count": 9, "p50_s": 0.003, "p99_s": 0.02,
                    "max_s": 0.02},
        "queue_depth": {"max": 4, "mean": 1.5},
        "sheds_by_reason": {"queue_full": 2},
        "degradations": {"shard_respawn": 1},
        "shards": [
            {"shard": 0, "available": True, "queue_depth": 1, "batches": 5,
             "tenants": 3, "resident": 2, "evictions": 1,
             "reload_replays": 1, "metrics": shard_metrics.snapshot()},
            {"shard": 1, "available": False},
        ],
    }


class TestConsole:
    def test_shard_rows_mark_down_shards(self):
        rows = shard_rows(canned_stats())
        assert rows[0][1] == "up" and rows[1][1] == "down"
        assert rows[0][5] == "2/3"
        assert len(rows[1]) == len(rows[0])

    def test_shard_rows_count_replayed_reloads(self):
        # A reload that fell back to replay instead of importing parked
        # state must be visible, not silent.
        rows = shard_rows(canned_stats())
        assert rows[0][7] == 1
        assert "replays" in render_stats(canned_stats())

    def test_shard_rates_render_when_known(self):
        rows = shard_rows(canned_stats(), rates={0: 1234.5})
        assert rows[0][4] == "1,234"

    def test_render_stats_mentions_everything(self):
        text = render_stats(canned_stats())
        for needle in ("accepted", "respawns", "queue_full",
                       "shard_respawn", "p50", "down"):
            assert needle in text, needle

    def test_resolve_endpoint_closes_endpoint_file(self, tmp_path):
        import gc
        import warnings

        from repro.service.console import resolve_endpoint

        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps({"host": "127.0.0.1", "port": 4242}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert resolve_endpoint(str(endpoint), "ignored", None) \
                == ("127.0.0.1", 4242)
            gc.collect()
        assert not [w for w in caught
                    if issubclass(w.category, ResourceWarning)]

    def test_shard_rows_mark_respawned_shards(self):
        rows = shard_rows(canned_stats(), rates={0: 0.0}, respawned={0})
        assert rows[0][1] == "respawned"
        assert rows[0][4] == "0"

    def test_top_clamps_counter_resets_to_zero(self, monkeypatch):
        """A shard respawn resets shard.* counters; the dashboard must
        show rate 0 + state ``respawned`` for one interval, never a
        negative/garbage rate."""
        import io

        from repro.service import console

        def stats_with_events(events):
            stats = canned_stats()
            registry = MetricsRegistry()
            registry.counter("shard.events").inc(events)
            registry.histogram("shard.batch_seconds").observe(0.004)
            stats["shards"][0]["metrics"] = registry.snapshot()
            return stats

        # Frame 1 baseline 640; frame 2 the counter has gone BACKWARDS
        # to 100 (respawn); frame 3 it advances again.
        frames = iter([stats_with_events(640), stats_with_events(100),
                       stats_with_events(200)])
        monkeypatch.setattr(console, "fetch_stats",
                            lambda host, port: next(frames))
        ticks = iter([0.0, 1.0, 2.0])
        sink = io.StringIO()
        code = console.run_top("h", 1, interval=0.0, iterations=3,
                               plain=True, stream=sink,
                               clock=lambda: next(ticks), sleep=lambda s: None)
        assert code == 0
        out = sink.getvalue()
        assert "respawned" in out
        assert "-540" not in out and "-440" not in out
        # Frame 3: the shard is plain "up" again and rates resume
        # ((200 - 100) / 1s).
        final_frame = out.rsplit("frame 3", 1)[1]
        assert "respawned" not in final_frame
        assert "100" in final_frame


# -- bench trend gate ---------------------------------------------------------

def load_bench_trend():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
    try:
        import bench_trend
    finally:
        sys.path.pop(0)
    return bench_trend


class TestBenchTrend:
    def serve_doc(self, events_per_sec):
        return {"clean": {"events_per_sec": events_per_sec,
                          "latency_p99_ms": 20.0},
                "chaos": {"events_per_sec": events_per_sec * 0.8}}

    def write(self, path, doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_record_then_clean_check_passes(self, tmp_path, capsys):
        tool = load_bench_trend()
        bench = self.write(tmp_path / "BENCH_serve.json", self.serve_doc(5e4))
        history = str(tmp_path / "trend.jsonl")
        assert tool.main(["--history", history, "--record", bench]) == 0
        assert tool.main(["--history", history, bench]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_regression_beyond_budget_fails(self, tmp_path, capsys):
        tool = load_bench_trend()
        history = str(tmp_path / "trend.jsonl")
        good = self.write(tmp_path / "BENCH_serve.json", self.serve_doc(5e4))
        assert tool.main(["--history", history, "--record", good]) == 0
        bad = self.write(tmp_path / "BENCH_serve.json", self.serve_doc(3e4))
        assert tool.main(["--history", history, bad]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_improvement_and_small_noise_pass(self, tmp_path):
        tool = load_bench_trend()
        history = str(tmp_path / "trend.jsonl")
        base = self.write(tmp_path / "BENCH_serve.json", self.serve_doc(5e4))
        assert tool.main(["--history", history, "--record", base]) == 0
        noisy = self.write(tmp_path / "BENCH_serve.json",
                           self.serve_doc(5e4 * 0.95))  # -5% < 10% budget
        assert tool.main(["--history", history, noisy]) == 0
        better = self.write(tmp_path / "BENCH_serve.json",
                            self.serve_doc(9e4))
        assert tool.main(["--history", history, better]) == 0

    def test_lower_is_better_direction(self, tmp_path, capsys):
        tool = load_bench_trend()
        history = str(tmp_path / "trend.jsonl")
        doc = self.serve_doc(5e4)
        base = self.write(tmp_path / "BENCH_serve.json", doc)
        assert tool.main(["--history", history, "--record", base]) == 0
        doc["clean"]["latency_p99_ms"] = 40.0  # doubled p99: regression
        worse = self.write(tmp_path / "BENCH_serve.json", doc)
        assert tool.main(["--history", history, worse]) == 1
        assert "latency_p99_ms" in capsys.readouterr().out

    def test_history_runs_are_sequential(self, tmp_path):
        tool = load_bench_trend()
        history = tmp_path / "trend.jsonl"
        bench = self.write(tmp_path / "BENCH_serve.json", self.serve_doc(5e4))
        for _ in range(3):
            assert tool.main(["--history", str(history), "--record",
                              bench]) == 0
        records = tool.read_history(history)
        assert [r["run"] for r in records] == [1, 2, 3]
        header = json.loads(history.read_text().splitlines()[0])
        assert header["schema"] == "repro-bench-trend/1"

    def test_torn_append_then_two_records_stays_readable(self, tmp_path):
        """A SIGKILL mid-append must not poison the history: the next
        --record cuts the torn tail before appending."""
        tool = load_bench_trend()
        history = tmp_path / "trend.jsonl"
        bench = self.write(tmp_path / "BENCH_serve.json", self.serve_doc(5e4))
        assert tool.main(["--history", str(history), "--record", bench]) == 0
        with open(history, "ab") as sink:
            sink.write(b'{"kind": "run", "metrics": {"BENCH_se')  # SIGKILL
        for _ in range(2):
            assert tool.main(["--history", str(history), "--record",
                              bench]) == 0
        assert [r["run"] for r in tool.read_history(history)] == [1, 2, 3]
        assert tool.main(["--history", str(history), bench]) == 0
        # The reader checks every run record: runs must increase.
        history.write_text(history.read_text().replace('"run": 3', '"run": 2'))
        with pytest.raises(SystemExit, match="malformed run record"):
            tool.read_history(history)
