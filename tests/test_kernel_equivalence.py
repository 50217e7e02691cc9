"""Oracle-equivalence harness for the vectorized batch kernel.

The per-event reference loop (:func:`repro.core.base.default_run_trace`:
``predict`` then ``update`` per branch) is the oracle: its semantics
were validated statement-by-statement against the paper.  The batch
kernel (:mod:`repro.sim.kernel`) must reproduce its misprediction count
*bit-exactly* for every supported configuration — same misses, same
result, on generated and ingested traces, regardless of how the trace
is chunked.  These tests are the contract; any divergence is a kernel
bug by definition.

Also covers the edge-case bugs the harness flushed out: silent uint32
wraparound at kernel ingress, and predictor ``reset()`` dropping the
attribution observer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base import default_run_trace
from repro.core.config import BTBConfig, HybridConfig, TwoLevelConfig
from repro.core.factory import build_predictor, config_from_spec
from repro.errors import SimulationError, TraceError
from repro.ingest import ExternalTraceSource, write_ext_trace
from repro.sim.engine import (
    AUTO_MIN_EVENTS,
    SHORT_TRACE_REASON,
    resolve_kernel,
    simulate,
    sweep_kernel,
)
from repro.sim.kernel import (
    DEFAULT_CHUNK_EVENTS,
    batch_run_trace,
    supports,
    unsupported_reason,
)
from repro.sim.suite_runner import SuiteRunner
from repro.workloads import (
    Trace,
    TraceMetadata,
    WorkloadConfig,
    generate_trace,
    trace_columns,
)

from .test_attribution import FAMILY_SPECS

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def columns(trace):
    return trace_columns(trace)


def oracle_misses(config, trace):
    """The reference: per-branch ``predict``/``update``, no fast path."""
    return default_run_trace(build_predictor(config), trace.pcs, trace.targets)


@pytest.fixture(scope="module")
def ingested_trace(tmp_path_factory):
    """A normalized ``real-*`` trace: high PCs/targets, few hot sites."""
    directory = tmp_path_factory.mktemp("ingest")
    sites = [{"id": i, "label": f"mod.py:site{i}:{10 + i}"} for i in range(12)]
    targets = [{"id": i, "label": f"mod.py:target{i}"} for i in range(8)]
    # A deterministic mix of monomorphic, alternating, and wandering
    # sites, long enough to fill small tables and trigger evictions.
    events = []
    for step in range(3000):
        site = (step * 7) % 12
        if site < 4:
            target = site % 2
        elif site < 8:
            target = (step // 2) % 3
        else:
            target = (step * 5) % 8
        events.append((site, target))
    path = write_ext_trace(directory / "sample.ndjson", name="sample",
                           producer="unit-test", producer_version="1",
                           sites=sites, targets=targets, events=events)
    source = ExternalTraceSource.open(path)
    runner = SuiteRunner(benchmarks=(), scale=1.0, progress=False,
                         cache_dir=directory / "traces")
    name = runner.register_external(source)
    return runner.trace(name)


class TestOracleEquivalence:
    """Every family spec, both kernels, identical miss counts."""

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_generated_trace(self, spec, small_trace):
        config = config_from_spec(spec)
        pcs, targets = columns(small_trace)
        assert batch_run_trace(config, pcs, targets) \
            == oracle_misses(config, small_trace)

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_ingested_trace(self, spec, ingested_trace):
        assert ingested_trace.name.startswith("real-")
        config = config_from_spec(spec)
        pcs, targets = columns(ingested_trace)
        assert batch_run_trace(config, pcs, targets) \
            == oracle_misses(config, ingested_trace)

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_simulate_batch_kernel_result(self, spec, small_trace):
        config = config_from_spec(spec)
        predictor = build_predictor(config)
        event = simulate(predictor, small_trace, kernel="event")
        batch = simulate(predictor, small_trace, kernel="batch")
        assert batch == event

    def test_alternating_trace(self, alternating_trace):
        config = TwoLevelConfig(path_length=1)
        pcs, targets = columns(alternating_trace)
        assert batch_run_trace(config, pcs, targets) \
            == oracle_misses(config, alternating_trace)


class TestChunking:
    """Chunked epochs must be invisible: any chunk size, same misses."""

    CONFIGS = (
        BTBConfig(num_entries=32, associativity=2),
        TwoLevelConfig(path_length=3, num_entries=64, associativity=4),
        TwoLevelConfig(path_length=4, num_entries=64,
                       associativity="tagless"),
    )

    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000, DEFAULT_CHUNK_EVENTS])
    def test_chunk_sizes_match_oracle(self, small_trace, chunk):
        pcs, targets = columns(small_trace)
        for config in self.CONFIGS:
            assert batch_run_trace(config, pcs, targets,
                                   chunk_events=chunk) \
                == oracle_misses(config, small_trace)

    def test_empty_trace(self):
        empty = np.array([], dtype=np.int64)
        for config in self.CONFIGS:
            assert batch_run_trace(config, empty, empty) == 0

    def test_trace_shorter_than_one_chunk(self):
        pcs = np.array([0x1000, 0x1000, 0x1000], dtype=np.int64)
        targets = np.array([0x2000, 0x2000, 0x3000], dtype=np.int64)
        trace = Trace(list(pcs), list(targets), TraceMetadata(name="tiny"))
        for config in self.CONFIGS:
            assert batch_run_trace(config, pcs, targets,
                                   chunk_events=DEFAULT_CHUNK_EVENTS) \
                == oracle_misses(config, trace)

    def test_hysteresis_split_across_chunk_seam(self):
        # One branch, 2bc update rule: target A trains, then B misses
        # once (miss bit set, no replacement), then B misses again
        # (replacement).  Chunk size 3 puts the seam exactly between
        # the two B misses, so the miss bit must be carried across the
        # epoch boundary for the counts to match.
        pcs = [0x1000] * 6
        targets = [0xA0, 0xA0, 0xA0, 0xB0, 0xB0, 0xB0]
        trace = Trace(pcs, targets, TraceMetadata(name="seam"))
        config = BTBConfig(num_entries=16, associativity=1,
                           update_rule="2bc")
        expected = oracle_misses(config, trace)
        pc_col, target_col = columns(trace)
        for chunk in (1, 2, 3, 4, 5):
            assert batch_run_trace(config, pc_col, target_col,
                                   chunk_events=chunk) == expected


@pytest.fixture(scope="module")
def wide_trace():
    """~1,650 sites with random reuse: LRU evicts at every size to 1,024."""
    import random

    rng = random.Random(5)
    pcs, targets = [], []
    for step in range(8000):
        if rng.random() < 0.4:
            site = rng.randrange(1600)
        else:
            site = 1600 + rng.randrange(48)
        pcs.append(0x10000 + 4 * site)
        targets.append(0x80000 + 4 * ((site + step // 256) % 5))
    return Trace(pcs, targets, TraceMetadata(name="wide"))


class TestFullyAssociative:
    """One set of up to 1,024 ways, LRU order carried across chunk seams."""

    SIZES = (16, 256, 1024)

    @staticmethod
    def configs(size):
        return (
            BTBConfig(num_entries=size, associativity="full"),
            TwoLevelConfig.practical(1, size, "full"),
            TwoLevelConfig.practical(3, size, "full"),
        )

    def test_every_size_evicts(self, wide_trace):
        # Guards the trace: each size must lose hits to capacity, or the
        # equivalence below would not exercise the LRU walk.
        misses = [oracle_misses(BTBConfig(num_entries=size,
                                          associativity="full"), wide_trace)
                  for size in self.SIZES + (1 << 15,)]
        assert misses == sorted(misses, reverse=True)
        assert len(set(misses)) == len(misses)

    @pytest.mark.parametrize("chunk", [1, 37, 500, DEFAULT_CHUNK_EVENTS])
    @pytest.mark.parametrize("size", SIZES)
    def test_chunk_seams_match_oracle(self, wide_trace, size, chunk):
        if chunk == 1:
            # A seam after every event: a short head keeps it quick.
            trace = Trace(wide_trace.pcs[:500], wide_trace.targets[:500],
                          TraceMetadata(name="wide-head"))
        else:
            trace = wide_trace
        pcs, targets = columns(trace)
        for config in self.configs(size):
            assert batch_run_trace(config, pcs, targets,
                                   chunk_events=chunk) \
                == oracle_misses(config, trace), config.label


class TestWraparoundRegression:
    """uint32 columns near 2**32 must not wrap in key assembly."""

    def high_address_trace(self):
        pcs, targets = [], []
        for step in range(2500):
            pcs.append(0xFFFF_FF00 + 4 * ((step * 11) % 64))
            targets.append(0x8000_0000 + 4 * ((step * 3) % 40))
        return Trace(pcs, targets, TraceMetadata(name="high"))

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_high_addresses_match_oracle(self, spec):
        trace = self.high_address_trace()
        config = config_from_spec(spec)
        pcs, targets = columns(trace)
        assert pcs.dtype == np.int64 and targets.dtype == np.int64
        assert batch_run_trace(config, pcs, targets) \
            == oracle_misses(config, trace)

    def test_uint32_columns_upcast_at_ingress(self):
        trace = self.high_address_trace()
        pcs = np.array(trace.pcs, dtype=np.uint32)
        targets = np.array(trace.targets, dtype=np.uint32)
        config = TwoLevelConfig(path_length=4, address_mode="xor",
                                num_entries=64, associativity=4)
        assert batch_run_trace(config, pcs, targets) \
            == oracle_misses(config, trace)

    def test_trace_columns_contract(self, small_trace):
        pcs, targets = trace_columns(small_trace)
        assert pcs.dtype == np.int64 and targets.dtype == np.int64
        assert len(pcs) == len(small_trace)

    def test_trace_columns_rejects_out_of_range(self):
        bad = Trace([1 << 33], [0x2000], TraceMetadata(name="wide"))
        with pytest.raises(TraceError, match="32-bit"):
            trace_columns(bad)


class TestKernelResolution:
    """The kernel selector: explicit errors, silent auto fallback."""

    def test_unknown_kernel_rejected(self):
        with pytest.raises(SimulationError, match="unknown kernel"):
            resolve_kernel(build_predictor(BTBConfig()), kernel="simd")

    def test_event_always_resolves(self):
        chosen, reason = resolve_kernel(build_predictor(BTBConfig()),
                                        kernel="event")
        assert (chosen, reason) == ("event", None)

    def test_batch_resolves_for_supported_config(self):
        config = TwoLevelConfig(path_length=3)
        assert supports(config)
        chosen, reason = resolve_kernel(build_predictor(config),
                                        kernel="batch")
        assert (chosen, reason) == ("batch", None)

    def test_attribution_forces_event(self):
        predictor = build_predictor(BTBConfig())
        chosen, reason = resolve_kernel(predictor, kernel="auto",
                                        attribution=object())
        assert chosen == "event"
        assert "attribution" in reason
        with pytest.raises(SimulationError, match="attribution"):
            resolve_kernel(predictor, kernel="batch",
                           attribution=object())

    def test_reset_false_forces_event(self):
        predictor = build_predictor(BTBConfig())
        chosen, reason = resolve_kernel(predictor, kernel="auto",
                                        reset=False)
        assert chosen == "event"
        assert "reset" in reason
        with pytest.raises(SimulationError, match="reset"):
            resolve_kernel(predictor, kernel="batch", reset=False)

    def test_unsupported_config_falls_back(self):
        # Wide xor-folded keys are outside the kernel's exact envelope.
        config = TwoLevelConfig(path_length=12, precision="full",
                                pattern_budget=24)
        predictor = build_predictor(config)
        if supports(config):  # pragma: no cover - envelope may grow
            pytest.skip("config became supported")
        chosen, reason = resolve_kernel(predictor, kernel="auto")
        assert chosen == "event"
        assert reason == unsupported_reason(config)
        with pytest.raises(SimulationError, match="batch kernel"):
            resolve_kernel(predictor, kernel="batch")

    def test_configless_predictor_falls_back(self):
        class Bare:
            def reset(self):
                pass

        chosen, reason = resolve_kernel(Bare(), kernel="auto")
        assert chosen == "event"
        assert "config" in reason

    def test_length_rule(self):
        predictor = build_predictor(BTBConfig())
        short, long = AUTO_MIN_EVENTS - 1, AUTO_MIN_EVENTS
        assert sweep_kernel(predictor, short, "auto") \
            == ("event", SHORT_TRACE_REASON)
        assert sweep_kernel(predictor, long, "auto") == ("batch", None)
        # Only auto follows the rule: explicit kernels run as asked.
        assert sweep_kernel(predictor, short, "batch") == ("batch", None)
        assert sweep_kernel(predictor, long, "event") == ("event", None)

    def test_suite_runner_rejects_batch_attribution(self, tmp_path):
        with pytest.raises(ValueError, match="attribution"):
            SuiteRunner(benchmarks=("perl",), scale=0.1,
                        cache_dir=tmp_path / "t", progress=False,
                        kernel="batch", attribution=True)

    def test_suite_runner_rejects_unknown_kernel(self, tmp_path):
        with pytest.raises(ValueError, match="kernel"):
            SuiteRunner(benchmarks=("perl",), scale=0.1,
                        cache_dir=tmp_path / "t", progress=False,
                        kernel="simd")


def _exact_length_generator(events_by_benchmark):
    """A ``generate_fn`` giving each benchmark a trace of a set length."""

    def generate(config):
        return generate_trace(WorkloadConfig(
            name=config.name, events=events_by_benchmark[config.name],
            seed=11))

    return generate


class TestAutoLengthRule:
    """``auto`` runs the kernel only on traces of AUTO_MIN_EVENTS or more."""

    CONFIGS = (BTBConfig(num_entries=64, associativity=4),
               TwoLevelConfig.practical(3, 256, "full"))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("events, kernel", [
        (AUTO_MIN_EVENTS - 1, "event"),
        (AUTO_MIN_EVENTS, "batch"),
    ])
    def test_runner_picks_kernel_by_length(self, tmp_path, workers, events,
                                           kernel):
        generate = _exact_length_generator({"perl": events})
        runner = SuiteRunner(benchmarks=("perl",), scale=1.0,
                             cache_dir=tmp_path / "auto", progress=False,
                             workers=workers, generate_fn=generate)
        oracle = SuiteRunner(benchmarks=("perl",), scale=1.0,
                             cache_dir=tmp_path / "event", progress=False,
                             kernel="event", generate_fn=generate)
        pairs = [(config, "perl") for config in self.CONFIGS]
        runner.compute_many(pairs)
        summary = runner.metrics_summary()
        assert summary["kernels"] == {kernel: len(self.CONFIGS)}
        expected_fallbacks = (
            {SHORT_TRACE_REASON: len(self.CONFIGS)} if kernel == "event"
            else {})
        assert summary["kernel_fallbacks"] == expected_fallbacks
        for config in self.CONFIGS:
            assert runner.result(config, "perl") \
                == oracle.result(config, "perl")
        assert oracle.metrics_summary()["kernels"] \
            == {"event": len(self.CONFIGS)}
        assert oracle.metrics_summary()["kernel_fallbacks"] == {}

    def test_unsupported_config_fallback_is_counted(self, tmp_path):
        config = TwoLevelConfig(path_length=12, precision="full",
                                pattern_budget=24)
        if supports(config):  # pragma: no cover - envelope may grow
            pytest.skip("config became supported")
        generate = _exact_length_generator({"perl": AUTO_MIN_EVENTS})
        runner = SuiteRunner(benchmarks=("perl",), scale=1.0,
                             cache_dir=tmp_path / "t", progress=False,
                             generate_fn=generate)
        runner.result(config, "perl")
        summary = runner.metrics_summary()
        assert summary["kernels"] == {"event": 1}
        assert summary["kernel_fallbacks"] == {unsupported_reason(config): 1}


class TestParallelTraceMemo:
    """A parallel batch leaves the parent's trace memo as it found it."""

    def test_parent_keeps_only_traces_it_held(self, tmp_path):
        config = TwoLevelConfig.practical(3, 256, 2)
        pairs = [(config, "perl"), (config, "ixx"), (config, "jhm")]
        parallel = SuiteRunner(benchmarks=("perl", "ixx", "jhm"),
                               scale=0.1, cache_dir=tmp_path / "p",
                               progress=False, workers=2)
        held = parallel.trace("ixx")
        parallel.compute_many(pairs)
        assert set(parallel._traces) == {"ixx"}
        assert parallel._traces["ixx"] is held
        cache = parallel.trace_cache
        for benchmark in ("perl", "jhm"):
            assert cache.load(cache.key(benchmark, 0.1)) is not None
        serial = SuiteRunner(benchmarks=("perl", "ixx", "jhm"), scale=0.1,
                             cache_dir=tmp_path / "s", progress=False)
        for pair in pairs:
            assert parallel.result(*pair) == serial.result(*pair)


class TestRunnerEquivalence:
    """SuiteRunner results are kernel-independent, serial or parallel."""

    CONFIGS = (
        BTBConfig(num_entries=64, associativity=4),
        TwoLevelConfig.practical(3, 256, 2),
        HybridConfig(components=(TwoLevelConfig.practical(1, 128, 4),
                                 TwoLevelConfig.practical(5, 128, 4))),
    )

    def test_batch_runner_matches_event_runner(self, tmp_path):
        results = {}
        for kernel in ("event", "batch"):
            runner = SuiteRunner(benchmarks=("perl", "ixx"), scale=0.1,
                                 cache_dir=tmp_path / kernel,
                                 progress=False, kernel=kernel)
            results[kernel] = {
                (i, bench): runner.result(config, bench).mispredictions
                for i, config in enumerate(self.CONFIGS)
                for bench in ("perl", "ixx")
            }
        assert results["batch"] == results["event"]

    def test_auto_matches_event_with_workers(self, tmp_path):
        serial = SuiteRunner(benchmarks=("perl",), scale=0.1,
                             cache_dir=tmp_path / "serial",
                             progress=False, kernel="event")
        parallel = SuiteRunner(benchmarks=("perl",), scale=0.1,
                               cache_dir=tmp_path / "parallel",
                               progress=False, kernel="auto", workers=2)
        pairs = [(config, "perl") for config in self.CONFIGS]
        parallel.compute_many(pairs)
        for config in self.CONFIGS:
            assert parallel.result(config, "perl") \
                == serial.result(config, "perl")

    def test_attribution_artifact_serial_vs_parallel(self, tmp_path):
        """Byte-identical attribution artifacts, workers=1 vs workers=2."""
        config = TwoLevelConfig.practical(2, 128, 2)
        blobs = {}
        for label, workers in (("serial", 1), ("parallel", 2)):
            runner = SuiteRunner(benchmarks=("perl", "ixx"), scale=0.1,
                                 cache_dir=tmp_path / label,
                                 progress=False, attribution=True,
                                 workers=workers)
            runner.compute_many([(config, "perl"), (config, "ixx")])
            path = tmp_path / f"{label}.json"
            assert runner.write_attribution(path)
            blobs[label] = path.read_bytes()
        assert blobs["serial"] == blobs["parallel"]


class TestObserverSurvivesReset:
    """reset() must not silently drop the attribution observer."""

    class Recorder:
        def __init__(self):
            self.evictions = []
            self.writes = []

        def evicted(self, key, cause):
            self.evictions.append((key, cause))

        def wrote(self, index, key):
            self.writes.append((index, key))

    def fill(self, predictor, branches=64):
        for step in range(branches):
            predictor.update(0x1000 + 4 * step, 0x2000 + 4 * step)

    def test_btb_reset_keeps_observer(self):
        predictor = build_predictor(BTBConfig(num_entries=8,
                                              associativity=1))
        observer = self.Recorder()
        predictor.table.observer = observer
        predictor.reset()
        assert predictor.table.observer is observer
        self.fill(predictor)
        # Set-associative tables report conflict evictions; 64 distinct
        # branches in an 8-entry direct-mapped table must evict.
        assert observer.evictions

    def test_twolevel_reset_keeps_observer(self):
        predictor = build_predictor(
            TwoLevelConfig(path_length=2, num_entries=8,
                           associativity="tagless"))
        observer = self.Recorder()
        predictor.table.observer = observer
        predictor.reset()
        assert predictor.table.observer is observer
        self.fill(predictor)
        # Tagless tables report every slot write to the observer.
        assert observer.writes

    def test_reset_without_observer_stays_clean(self):
        predictor = build_predictor(BTBConfig(num_entries=8))
        predictor.reset()
        assert predictor.table.observer is None

    def test_monitor_retargets_to_rebuilt_table(self):
        # The attribution _TableMonitor keeps a table reference for
        # detach(); reset() must point it at the rebuilt table or
        # detach would strand the observer on the live one.
        from repro.sim.attribution import _TableMonitor

        predictor = build_predictor(BTBConfig(num_entries=8,
                                              associativity=1))
        monitor = _TableMonitor(predictor.table)
        predictor.reset()
        assert monitor.table is predictor.table
        assert predictor.table.observer is monitor
        monitor.detach()
        assert predictor.table.observer is None

    def test_attribution_after_reset_matches_fresh_run(self, small_trace):
        from repro.sim.attribution import InstrumentedRun

        config = TwoLevelConfig(path_length=3, num_entries=64,
                                associativity=4)
        fresh = InstrumentedRun(build_predictor(config)).run(
            small_trace, label="fresh")
        recycled_predictor = build_predictor(config)
        recycled_predictor.run_trace(small_trace.pcs, small_trace.targets)
        recycled_predictor.reset()
        recycled = InstrumentedRun(recycled_predictor).run(
            small_trace, label="recycled")
        assert recycled.mispredictions == fresh.mispredictions
        assert recycled.causes == fresh.causes
