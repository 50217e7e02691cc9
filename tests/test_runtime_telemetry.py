"""Tests for the telemetry layer and the serial-run metrics it fixes.

Covers the tracer core (span timing/nesting with an injected clock,
counters, the fsync'd JSONL sink and its recovery contract), the
``repro-run-metrics/2`` serial-run record (nonzero wall time, real trace
sources, per-phase breakdown, workers fixed at construction), the
serial/parallel schema round trip, and the summarize_metrics tool.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.core.config import BTBConfig, TwoLevelConfig
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.scheduler import RunMetrics
from repro.runtime.telemetry import (
    TRACE_LOG_SCHEMA,
    Tracer,
    open_trace_log,
    read_trace_log,
)
from repro.sim.suite_runner import SuiteRunner

BENCHMARKS = ("perl", "ixx")
SCALE = 0.1


class SteppingClock:
    """Monotonic fake clock advancing a fixed step per reading."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


class TestTracerCore:
    def test_span_times_with_injected_clock(self):
        metrics = RunMetrics()
        tracer = Tracer(metrics=metrics, clock=SteppingClock(step=1.0))
        with tracer.span("trace_gen", benchmark="perl"):
            pass
        # Readings: epoch, span start, span end -> duration exactly 1.0.
        assert metrics.phases["trace_gen"].seconds == 1.0
        assert metrics.phases["trace_gen"].count == 1
        assert tracer.counters["trace_gen"] == 1

    def test_spans_nest_and_record_depth(self, tmp_path):
        tracer = Tracer(sink=tmp_path / "log.jsonl")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        tracer.close()
        records = read_trace_log(tmp_path / "log.jsonl")
        by_name = {record["name"]: record for record in records}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        # Inner finishes (and is logged) first.
        assert records[0]["name"] == "inner"

    def test_span_annotate_and_error_attr(self, tmp_path):
        tracer = Tracer(sink=tmp_path / "log.jsonl")
        with pytest.raises(RuntimeError):
            with tracer.span("simulate", benchmark="perl") as span:
                span.annotate(events=123)
                raise RuntimeError("boom")
        tracer.close()
        (record,) = read_trace_log(tmp_path / "log.jsonl")
        assert record["attrs"] == {
            "benchmark": "perl", "events": 123, "error": "RuntimeError",
        }

    def test_events_count_without_sink(self):
        tracer = Tracer()
        tracer.event("requeue", unit="x")
        tracer.event("requeue", unit="y")
        assert tracer.counters["requeue"] == 2

    def test_record_span_feeds_phases(self):
        metrics = RunMetrics()
        tracer = Tracer(metrics=metrics)
        tracer.record_span("simulate", 2.5, worker=0)
        tracer.record_span("simulate", 1.5, worker=1)
        assert metrics.phases["simulate"].seconds == 4.0
        assert metrics.phases["simulate"].count == 2

    def test_no_sink_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        tracer = Tracer()
        with tracer.span("simulate"):
            pass
        tracer.event("dispatch")
        tracer.close()
        assert list(tmp_path.iterdir()) == []


class TestTraceLog:
    def test_header_then_one_line_per_record(self, tmp_path):
        path = tmp_path / "log.jsonl"
        tracer = Tracer(sink=path)
        with tracer.span("trace_gen", benchmark="perl"):
            pass
        tracer.event("dispatch", unit="a/b")
        tracer.close()
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["schema"] == TRACE_LOG_SCHEMA
        span, event = map(json.loads, lines[1:])
        assert span["kind"] == "span" and span["name"] == "trace_gen"
        assert span["dur_s"] >= 0 and span["attrs"] == {"benchmark": "perl"}
        assert event["kind"] == "event" and event["name"] == "dispatch"

    def test_read_drops_torn_final_line(self, tmp_path):
        path = tmp_path / "log.jsonl"
        tracer = Tracer(sink=path)
        tracer.event("dispatch")
        tracer.close()
        with open(path, "a") as stream:
            stream.write('{"kind": "event", "name": "trunc')  # SIGKILL tear
        records = read_trace_log(path)
        assert [record["name"] for record in records] == ["dispatch"]

    def test_read_rejects_interior_corruption(self, tmp_path):
        path = tmp_path / "log.jsonl"
        header = json.dumps({"schema": TRACE_LOG_SCHEMA})
        path.write_text(header + "\nnot json\n"
                        '{"kind": "event", "name": "late"}\n')
        with pytest.raises(ValueError, match="corrupt"):
            read_trace_log(path)

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format": "repro-checkpoint", "version": 1}\n')
        with pytest.raises(ValueError, match="not a"):
            read_trace_log(path)

    def test_writer_accepts_open_sink(self, tmp_path):
        sink = open_trace_log(tmp_path / "log.jsonl")
        tracer = Tracer(sink=sink)
        assert tracer.sink is sink
        tracer.close()
        assert read_trace_log(tmp_path / "log.jsonl") == []


def make_runner(tmp_path, name, **kwargs):
    directory = tmp_path / name
    return SuiteRunner(
        benchmarks=BENCHMARKS,
        scale=SCALE,
        cache_dir=directory / "traces",
        checkpoint=CheckpointJournal(directory / "results.jsonl"),
        progress=False,
        **kwargs,
    )


class TestSerialRunMetrics:
    def test_serial_wall_time_is_nonzero(self, tmp_path):
        runner = make_runner(tmp_path, "serial")
        runner.rates(BTBConfig())
        data = runner.metrics_summary()
        assert data["wall_time_s"] > 0.0
        assert data["worker_utilization"] != {}
        assert data["unit_wall_time_s"]["total"] > 0.0

    def test_serial_trace_sources_are_real(self, tmp_path):
        runner = make_runner(tmp_path, "sources")
        runner.rates(BTBConfig())
        # Cold run: every trace was generated, nothing is "serial".
        assert runner.metrics.trace_loads == {"generated": len(BENCHMARKS)}
        runner.rates(BTBConfig(update_rule="always"))
        # Second config: traces come from the in-process memo.
        assert runner.metrics.trace_loads["memo"] == len(BENCHMARKS)

        warm = SuiteRunner(
            benchmarks=BENCHMARKS, scale=SCALE, progress=False,
            cache_dir=tmp_path / "sources" / "traces",
        )
        warm.rates(BTBConfig())
        # Fresh process over the same cache dir: on-disk cache hits.
        assert warm.metrics.trace_loads == {"cache": len(BENCHMARKS)}

    def test_serial_phase_breakdown_present(self, tmp_path):
        runner = make_runner(tmp_path, "phases")
        runner.rates(BTBConfig())
        phases = runner.metrics_summary()["phases"]
        for name in ("trace_gen", "simulate", "journal"):
            assert phases[name]["count"] >= 1, name
            assert phases[name]["seconds"] >= 0.0

    def test_workers_fixed_at_construction(self, tmp_path):
        runner = make_runner(tmp_path, "workers")
        assert runner.metrics.workers == 1
        assert runner.metrics_summary()["workers"] == 1
        parallel = make_runner(tmp_path, "workers4", workers=4)
        assert parallel.metrics.workers == 4

    def test_serial_checkpoint_hit_counted(self, tmp_path):
        directory = tmp_path / "run"
        first = make_runner(tmp_path, "run")
        first.rates(BTBConfig())
        first.checkpoint.close()
        resumed = SuiteRunner(
            benchmarks=BENCHMARKS, scale=SCALE, progress=False,
            cache_dir=directory / "traces",
            checkpoint=CheckpointJournal(directory / "results.jsonl",
                                         resume=True),
        )
        resumed.rates(BTBConfig())
        assert resumed.metrics.units_from_checkpoint == len(BENCHMARKS)
        assert resumed.tracer.counters["checkpoint_hit"] == len(BENCHMARKS)


class TestSchemaRoundTrip:
    def test_serial_and_parallel_emit_identical_key_sets(self, tmp_path):
        serial = make_runner(tmp_path, "serial")
        parallel = make_runner(tmp_path, "parallel", workers=4)
        configs = {p: TwoLevelConfig.practical(p, 256, 2) for p in (0, 1)}
        for config in configs.values():
            serial.rates(config)
            parallel.rates(config)
        serial_data = json.loads(json.dumps(serial.metrics_summary()))
        parallel_data = json.loads(json.dumps(parallel.metrics_summary()))
        assert serial_data["schema"] == "repro-run-metrics/2"
        assert parallel_data["schema"] == "repro-run-metrics/2"
        assert set(serial_data) == set(parallel_data)
        assert set(serial_data["units"]) == set(parallel_data["units"])
        for data in (serial_data, parallel_data):
            assert data["wall_time_s"] > 0.0
            assert data["phases"]["simulate"]["count"] > 0
            assert data["worker_utilization"] != {}

    def test_results_bit_identical_with_trace_log_attached(self, tmp_path):
        plain = make_runner(tmp_path, "plain")
        logged = make_runner(tmp_path, "logged",
                             trace_log=tmp_path / "trace.jsonl")
        config = BTBConfig()
        assert logged.rates(config) == plain.rates(config)
        logged.tracer.close()
        records = read_trace_log(tmp_path / "trace.jsonl")
        names = {record["name"] for record in records}
        assert {"trace_gen", "simulate", "journal"} <= names


class TestParallelTelemetry:
    def test_parallel_phases_split_load_from_simulate(self, tmp_path):
        runner = make_runner(tmp_path, "par", workers=2)
        runner.rates(BTBConfig())
        phases = runner.metrics_summary()["phases"]
        # Parent generated each trace once; workers loaded from cache.
        assert phases["trace_gen"]["count"] == len(BENCHMARKS)
        assert phases["simulate"]["count"] == len(BENCHMARKS)
        assert "trace_load" in phases

    def test_parallel_trace_log_records_pool_lifecycle(self, tmp_path):
        runner = make_runner(tmp_path, "parlog", workers=2,
                             trace_log=tmp_path / "trace.jsonl")
        runner.rates(BTBConfig())
        runner.tracer.close()
        records = read_trace_log(tmp_path / "trace.jsonl")
        events = [r["name"] for r in records if r["kind"] == "event"]
        assert "pool_start" in events and "pool_stop" in events
        assert events.count("dispatch") == len(BENCHMARKS)


class TestSummarizeMetricsTool:
    @staticmethod
    def load_tool():
        path = Path(__file__).resolve().parent.parent \
            / "tools" / "summarize_metrics.py"
        spec = importlib.util.spec_from_file_location("summarize_metrics", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_renders_metrics_document(self, tmp_path, capsys):
        runner = make_runner(tmp_path, "tool")
        runner.rates(BTBConfig())
        metrics_path = tmp_path / "m.json"
        metrics_path.write_text(json.dumps(runner.metrics_summary(), indent=2))
        tool = self.load_tool()
        assert tool.main([str(metrics_path)]) == 0
        output = capsys.readouterr().out
        assert "phase breakdown (repro-run-metrics/2)" in output
        assert "simulate" in output
        assert "wall_time_s" in output

    def test_renders_trace_log(self, tmp_path, capsys):
        log_path = tmp_path / "t.jsonl"
        tracer = Tracer(sink=log_path)
        with tracer.span("simulate", benchmark="perl"):
            pass
        tracer.event("dispatch")
        tracer.close()
        tool = self.load_tool()
        assert tool.main([str(log_path)]) == 0
        output = capsys.readouterr().out
        assert "span breakdown (repro-trace-log/1)" in output
        assert "dispatch" in output

    def test_rejects_garbage_file(self, tmp_path, capsys):
        path = tmp_path / "junk.bin"
        path.write_text("definitely not json")
        tool = self.load_tool()
        assert tool.main([str(path)]) == 1
        assert "error:" in capsys.readouterr().err
