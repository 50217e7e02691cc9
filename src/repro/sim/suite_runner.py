"""Running predictor configurations over the whole benchmark suite.

The :class:`SuiteRunner` caches generated traces (generation costs seconds
per benchmark) and memoises simulation results per (config, benchmark), so
parameter sweeps that revisit configurations — as the best-predictor
searches of Figures 16/18 do — pay for each simulation once per process.

For crash safety the runner can additionally be given the durability layer
from :mod:`repro.runtime`:

* ``cache_dir`` — traces are persisted to a validated on-disk cache
  (checksummed format, atomic writes); corrupt or truncated files are
  detected at load, quarantined, and regenerated transparently;
* ``checkpoint`` — completed (config, benchmark) results are journalled to
  an append-only JSONL file and replayed on resume, so a killed sweep
  continues where it stopped instead of starting over.

With ``workers=N`` (N > 1) batch lookups — :meth:`SuiteRunner.rates`,
:func:`repro.sim.sweep.sweep`, :meth:`SuiteRunner.compute_many` — are
decomposed into (config, benchmark) work units and executed on a
:class:`~repro.runtime.parallel.ParallelExecutor` worker pool.  Traces
are pre-generated once into the on-disk cache and shared; simulation is
deterministic, so parallel results are bit-identical to serial ones.
Serial runs, pool workers, and the pool's serial fallback all run a unit
through one method, :meth:`SuiteRunner.run_unit`.  Every run accumulates
a :class:`~repro.runtime.scheduler.RunMetrics` record exposed via
:meth:`SuiteRunner.metrics_summary`.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..core.config import PredictorConfig
from ..core.factory import build_predictor
from ..workloads.program import generate_trace
from ..workloads.suite import AVG_BENCHMARKS, benchmark_names, workload_config
from ..workloads.trace import Trace
from .engine import SimulationResult, simulate, sweep_kernel
from .groups import groups_with_real, with_group_averages


class UnitRun(NamedTuple):
    """One simulated (config, benchmark) unit (:meth:`SuiteRunner.run_unit`)."""

    result: SimulationResult
    #: where the trace came from: ``memo``, ``cache`` or ``generated``
    trace_source: str
    #: the slice of the unit's time spent obtaining the trace
    load_seconds: float
    #: the kernel that ran (``None`` for a custom simulate function)
    kernel: Optional[str]
    #: why an ``auto`` request ran on the per-event loop, if it did
    fallback: Optional[str]
    #: the unit's serialized ``repro-attribution/1`` record, if collected
    attribution: Optional[dict]


class SuiteRunner:
    """Simulates predictor configs over (a subset of) the benchmark suite."""

    def __init__(
        self,
        benchmarks: Optional[Iterable[str]] = None,
        scale: Optional[float] = None,
        cache_dir: Optional[object] = None,
        checkpoint: Optional[object] = None,
        simulate_fn: Optional[Callable[..., SimulationResult]] = None,
        generate_fn: Optional[Callable[..., Trace]] = None,
        workers: int = 1,
        progress: bool = True,
        trace_log: Optional[object] = None,
        attribution: bool = False,
        kernel: str = "auto",
    ) -> None:
        """Args beyond the suite subset and trace scale:

        Args:
            cache_dir: directory for the on-disk trace cache (or an already
                constructed :class:`repro.runtime.cache.TraceCache`).
            checkpoint: a :class:`repro.runtime.checkpoint.CheckpointJournal`
                consulted before simulating and appended to after.
            simulate_fn: override for :func:`repro.sim.engine.simulate`
                (used by fault-injection tests; serial path only).
            generate_fn: override for trace generation (fault injection).
            workers: worker process count for batch lookups; 1 (default)
                simulates serially in-process.  Parallel mode requires an
                on-disk trace cache — a private temporary one is created
                when ``cache_dir`` is not given.
            progress: emit the executor's live stderr progress line.
            trace_log: path (or open
                :class:`~repro.runtime.records.RecordLog`) for the
                structured JSONL telemetry log; ``None`` keeps the tracer
                in-memory only.
            attribution: run every fresh simulation under the instrumented
                misprediction-attribution loop (see
                :mod:`repro.sim.attribution`) and collect per-cause /
                per-site records, written out by
                :meth:`write_attribution`.  Off by default — the fast
                ``run_trace`` paths stay untouched.  Results replayed from
                a checkpoint carry no attribution record (only the re-run
                units are instrumented).
            kernel: simulation kernel for every fresh run — ``"auto"``
                (default: the vectorized column kernel when it supports
                the config and the trace has at least
                :data:`~repro.sim.engine.AUTO_MIN_EVENTS` events, the
                per-event oracle loop otherwise), ``"event"`` (always
                the oracle), or ``"batch"`` (the kernel, strict).
                Attribution runs always use the per-event engine;
                combining ``attribution=True`` with ``kernel="batch"``
                is rejected.  Each completed unit's kernel, and the
                reason for every ``auto`` fallback, is counted in
                :meth:`metrics_summary`.
        """
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if kernel not in ("event", "batch", "auto"):
            raise ValueError(
                f"kernel must be event, batch, or auto, got {kernel!r}"
            )
        if kernel == "batch" and attribution:
            raise ValueError(
                "attribution requires the per-event engine; use "
                "kernel='event' (or 'auto') with attribution=True"
            )
        self.kernel = kernel
        self.benchmarks: Tuple[str, ...] = tuple(
            benchmarks if benchmarks is not None else benchmark_names()
        )
        self.scale = scale
        self.workers = workers
        self.progress = progress
        self._traces: Dict[str, Trace] = {}
        #: registered external (ingested) trace sources, by benchmark name.
        #: Kept out of ``self.benchmarks`` — experiments and sweeps that
        #: enumerate the synthetic suite stay untouched; batch lookups
        #: with default benchmarks include externals explicitly.
        self._external: Dict[str, object] = {}
        self._results: Dict[Tuple[PredictorConfig, str], SimulationResult] = {}
        self._simulate = simulate_fn if simulate_fn is not None else simulate
        self._generate = generate_fn if generate_fn is not None else generate_trace
        self.checkpoint = checkpoint
        from ..runtime.scheduler import RunMetrics
        from ..runtime.telemetry import Tracer

        self.metrics = RunMetrics(workers=workers)
        self.tracer = Tracer(sink=trace_log, metrics=self.metrics)
        if attribution:
            from .attribution import AttributionCollector

            self.attribution: Optional[AttributionCollector] = (
                AttributionCollector()
            )
        else:
            self.attribution = None
        if cache_dir is None:
            self.trace_cache = None
        else:
            from ..runtime.cache import TraceCache

            self.trace_cache = (
                cache_dir if isinstance(cache_dir, TraceCache)
                else TraceCache(cache_dir)
            )
            self.trace_cache.tracer = self.tracer
        if self.checkpoint is not None:
            self.checkpoint.attach_tracer(self.tracer)

    # -- traces -------------------------------------------------------------

    def trace(self, name: str) -> Trace:
        """The (cached) trace for one benchmark.

        Lookup order: in-memory memo, on-disk cache (when configured),
        regeneration.  A cached file that fails checksum/structure
        validation counts as a miss: the trace is regenerated and the
        clean bytes are rewritten atomically over the corrupt file.
        """
        return self._trace_with_source(name)[0]

    def register_external(self, source: object) -> str:
        """Register an ingested trace source; returns its benchmark name.

        ``source`` is a :class:`~repro.ingest.normalize.
        ExternalTraceSource` (path + digest + ``real-<name>``).
        Registered externals resolve through :meth:`trace` like any
        benchmark — normalized through the trace cache, keyed fresh on
        the source digest — and batch lookups with default benchmarks
        include them, so they flow through sweeps, attribution, and
        manifests automatically.  Re-registering a name replaces the
        source (and drops any stale memoised trace).
        """
        name = source.name
        previous = self._external.get(name)
        if previous is not None and previous.digest != source.digest:
            self._traces.pop(name, None)
        self._external[name] = source
        return name

    def external_names(self) -> Tuple[str, ...]:
        """Registered external benchmark names, in registration order."""
        return tuple(self._external)

    def _trace_with_source(self, name: str) -> Tuple[Trace, str]:
        """The trace plus where it came from: memo / cache / generated."""
        cached = self._traces.get(name)
        if cached is not None:
            return cached, "memo"
        external = self._external.get(name)
        if external is not None:
            from ..ingest.normalize import load_external_trace

            with self.tracer.span("trace_ingest", benchmark=name):
                cached, origin = load_external_trace(
                    external, self.trace_cache, self.scale)
            self._traces[name] = cached
            return cached, origin
        if self.trace_cache is not None:
            with self.tracer.span("trace_load", benchmark=name):
                cached = self.trace_cache.load(
                    self.trace_cache.key(name, self.scale)
                )
            if cached is not None:
                self._traces[name] = cached
                return cached, "cache"
        with self.tracer.span("trace_gen", benchmark=name):
            cached = self._generate(workload_config(name, self.scale))
        self._traces[name] = cached
        if self.trace_cache is not None:
            self.trace_cache.store(
                self.trace_cache.key(name, self.scale), cached
            )
        return cached, "generated"

    def traces(self) -> Dict[str, Trace]:
        return {name: self.trace(name) for name in self.benchmarks}

    # -- simulation --------------------------------------------------------

    def result(self, config: PredictorConfig, benchmark: str) -> SimulationResult:
        """Simulate one config on one benchmark (memoised + checkpointed).

        The checkpoint journal (when configured) is consulted before any
        trace is generated or simulated, so resuming a killed sweep skips
        completed pairs entirely; fresh results are journalled with an
        atomic flush before being returned.
        """
        cached = self._known(config, benchmark)
        if cached is None:
            cached = self._run_simulation(config, benchmark)
            self._results[(config, benchmark)] = cached
            if self.checkpoint is not None:
                self.checkpoint.record(config, benchmark, cached)
        return cached

    def _known(
        self, config: PredictorConfig, benchmark: str
    ) -> Optional[SimulationResult]:
        """The memoised or journalled result of a pair; ``None`` = run it."""
        key = (config, benchmark)
        cached = self._results.get(key)
        if cached is None and self.checkpoint is not None:
            cached = self.checkpoint.get(config, benchmark)
            if cached is not None:
                self._results[key] = cached
                self.metrics.units_from_checkpoint += 1
                self.tracer.event("checkpoint_hit", benchmark=benchmark)
        return cached

    def run_unit(self, config: PredictorConfig, benchmark: str) -> UnitRun:
        """Simulate one (config, benchmark) unit, unmemoised and unjournalled.

        The one body every unit runs through: the serial path, each pool
        worker (over its own runner on the shared cache), and the units a
        pool leaves to the serial fallback.  The trace is obtained before
        the predictor is built, so its loading or generation stays out of
        the build-to-result interval.  With attribution on, the unit runs
        the instrumented loop into a fresh collector and returns its
        record rather than merging it.
        """
        start = time.perf_counter()
        trace, source = self._trace_with_source(benchmark)
        load_seconds = time.perf_counter() - start
        collector = None
        if self.attribution is not None:
            from .attribution import AttributionCollector

            collector = AttributionCollector()
        predictor = build_predictor(config)
        if self._simulate is simulate:
            kernel, fallback = sweep_kernel(
                predictor, len(trace), self.kernel, collector)
            result = simulate(predictor, trace, tracer=self.tracer,
                              attribution=collector, kernel=kernel)
        else:  # a fault-injection override
            kernel = fallback = None
            with self.tracer.span("simulate", benchmark=benchmark,
                                  predictor=str(getattr(config, "label",
                                                        config))):
                result = self._simulate(predictor, trace)
        record = collector.records()[0] if collector is not None else None
        return UnitRun(result, source, load_seconds, kernel, fallback, record)

    def _run_simulation(
        self, config: PredictorConfig, benchmark: str
    ) -> SimulationResult:
        start = time.perf_counter()
        unit = self.run_unit(config, benchmark)
        elapsed = time.perf_counter() - start
        if unit.attribution is not None:
            self.attribution.add_dict(unit.attribution)
        self.metrics.units_total += 1
        # Serial runs accumulate wall time per simulation (the parallel
        # executor accumulates its own pool wall time instead), so a
        # workers=1 sweep reports real utilisation, not 0.0.
        self.metrics.wall_time += elapsed
        label = str(getattr(config, "label", config))
        self.metrics.record_unit(
            f"{label}/{benchmark}", benchmark, label, elapsed,
            worker="serial", attempt=1, trace_source=unit.trace_source,
            kernel=unit.kernel, fallback=unit.fallback,
        )
        return unit.result

    # -- parallel execution --------------------------------------------------

    def _parallel_trace_cache(self):
        """The on-disk cache workers share (created on demand)."""
        if self.trace_cache is None:
            import atexit
            import shutil
            import tempfile

            from ..runtime.cache import TraceCache

            directory = tempfile.mkdtemp(prefix="repro-traces-")
            atexit.register(shutil.rmtree, directory, ignore_errors=True)
            self.trace_cache = TraceCache(directory)
            self.trace_cache.tracer = self.tracer
        return self.trace_cache

    def compute_many(
        self,
        pairs: Iterable[Tuple[PredictorConfig, str]],
    ) -> None:
        """Resolve a batch of (config, benchmark) pairs into the memo table.

        Pairs already memoised or journalled are skipped; the remainder
        runs serially (``workers == 1``) or on the parallel worker pool.
        Fresh results are journalled in completion order as they stream
        back, so a killed parallel run loses at most the units in flight.
        Deduplicates, so callers can pass overlapping batches freely.
        """
        todo: Dict[Tuple[PredictorConfig, str], None] = {}
        for config, benchmark in pairs:
            key = (config, benchmark)
            if key not in todo and self._known(config, benchmark) is None:
                todo[key] = None
        if not todo:
            return
        if self.workers == 1 or len(todo) == 1:
            for config, benchmark in todo:
                self.result(config, benchmark)
            return

        from ..runtime.parallel import ParallelExecutor
        from ..runtime.scheduler import WorkUnit

        cache = self._parallel_trace_cache()
        # Generate each needed trace exactly once, through the normal
        # (memo -> disk -> generate) path; workers then only load.  A
        # trace this call memoised is dropped once it is in the cache:
        # forked workers load their own copy, so holding it here would
        # only add it to every worker's inherited memory.
        for benchmark in {benchmark for _, benchmark in todo}:
            held = benchmark in self._traces
            self.trace(benchmark)
            if benchmark in self._external:
                # Workers cannot re-normalize an external source (they
                # resolve misses through workload_config, which only
                # knows the synthetic suite), so the shared cache must
                # hold a digest-fresh copy before dispatch.
                self._ensure_external_cached(cache, benchmark)
            if not held:
                del self._traces[benchmark]
        units = [
            WorkUnit(unit_id, config, benchmark)
            for unit_id, (config, benchmark) in enumerate(todo)
        ]
        executor = ParallelExecutor(
            self.workers,
            cache,
            scale=self.scale,
            metrics=self.metrics,
            progress=self.progress,
            tracer=self.tracer,
            attribution=self.attribution is not None,
            kernel=self.kernel,
        )

        def on_result(unit, result) -> None:
            self._results[(unit.config, unit.benchmark)] = result
            if self.checkpoint is not None:
                self.checkpoint.record(unit.config, unit.benchmark, result)

        def on_attribution(unit, record) -> None:
            self.attribution.add_dict(record)

        executor.run(
            units,
            on_result=on_result,
            on_attribution=(
                on_attribution if self.attribution is not None else None
            ),
        )
        # A pool that ran out of respawns stops early (``serial_fallback``);
        # the units it left finish here, on the ordinary serial path.
        for unit in executor.unfinished():
            self.result(unit.config, unit.benchmark)
        executor.raise_poisoned()

    def _ensure_external_cached(self, cache, benchmark: str) -> None:
        """Make the shared on-disk cache hold a fresh copy of an external.

        The memoised trace may predate the cache (or the on-disk copy
        may have been normalized from different source bytes); either
        way the digest recorded in the cached metadata decides.
        """
        from ..ingest.normalize import trace_ingest_info

        key = cache.key(benchmark, self.scale)
        on_disk = cache.load(key)
        digest = self._external[benchmark].digest
        if on_disk is not None:
            info = trace_ingest_info(on_disk) or {}
            if info.get("source_sha256") == digest:
                return
        cache.store(key, self._traces[benchmark])

    def write_attribution(self, path: object) -> bool:
        """Write the collected ``repro-attribution/1`` artifact to ``path``.

        Returns ``False`` (writing nothing) when the runner was built
        without ``attribution=True``.  Serial and parallel runs over the
        same work produce byte-identical artifacts: records are
        normalized, truncated, and sorted the same way on both paths.
        """
        if self.attribution is None:
            return False
        with self.tracer.span("attribution_write", path=str(path),
                              records=len(self.attribution)):
            self.attribution.write(path)
        return True

    def degradations(self) -> Dict[str, int]:
        """Degradation events this run survived, by name (empty = clean).

        Sourced from the tracer's counters, so every component that emits
        a :data:`~repro.runtime.chaos.DEGRADATION_EVENTS` event (cache,
        journal, telemetry, parallel pool) is covered without extra
        plumbing.
        """
        from ..runtime.chaos import DEGRADATION_EVENTS

        return {
            name: self.tracer.counters[name]
            for name in DEGRADATION_EVENTS
            if self.tracer.counters.get(name)
        }

    def metrics_summary(self) -> Dict[str, object]:
        """The run's :class:`RunMetrics` as a JSON-ready dict.

        Extends the executor-level record with the parent-side trace-cache
        counters, the checkpoint-journal size, and any degradation events
        the run survived, so ``--metrics-out`` captures the whole run in
        one document.  ``workers`` is fixed at runner construction (and
        only ever raised by the executor), so the record needs no post-hoc
        patching.
        """
        data = self.metrics.to_dict()
        data["degradations"] = self.degradations()
        if self.trace_cache is not None:
            stats = self.trace_cache.stats
            data["parent_trace_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "stores": stats.stores,
                "corruptions": stats.corruptions,
                "fallbacks": stats.fallbacks,
            }
        if self.checkpoint is not None:
            data["checkpoint_entries"] = len(self.checkpoint)
        if self.attribution is not None:
            data["attribution_records"] = len(self.attribution)
        return data

    def rates(
        self,
        config: PredictorConfig,
        benchmarks: Optional[Iterable[str]] = None,
    ) -> Dict[str, float]:
        """Per-benchmark misprediction percentages for one config.

        Defaults to the runner's synthetic suite plus every registered
        external (ingested) benchmark.
        """
        if benchmarks is not None:
            names = tuple(benchmarks)
        else:
            names = self.benchmarks + self.external_names()
        if self.workers > 1:
            self.compute_many((config, name) for name in names)
        return {name: self.result(config, name).misprediction_rate for name in names}

    def rates_with_groups(
        self,
        config: PredictorConfig,
        benchmarks: Optional[Iterable[str]] = None,
    ) -> Dict[str, float]:
        """Per-benchmark rates plus all computable group averages.

        With external traces registered, the dynamic ``AVG-real`` group
        (their arithmetic mean) joins the paper's groups.
        """
        return with_group_averages(
            self.rates(config, benchmarks),
            groups=groups_with_real(self._external),
        )

    def average(
        self,
        config: PredictorConfig,
        benchmarks: Optional[Iterable[str]] = None,
    ) -> float:
        """Arithmetic-mean misprediction rate; defaults to the paper's AVG.

        On a runner covering only part of the suite, the default average is
        taken over the covered AVG members (or, failing that, over whatever
        benchmarks the runner has).
        """
        if benchmarks is not None:
            names = tuple(benchmarks)
        else:
            names = tuple(n for n in AVG_BENCHMARKS if n in self.benchmarks)
            if not names:
                names = self.benchmarks
        rates = self.rates(config, names)
        return sum(rates.values()) / len(rates)

    def best(
        self,
        configs: Iterable[PredictorConfig],
        benchmarks: Optional[Iterable[str]] = None,
    ) -> Tuple[PredictorConfig, float]:
        """The config minimising the AVG misprediction rate.

        This mirrors the paper's methodology: "the pathlength is chosen to
        minimize the AVG misprediction rate" (appendix note).
        """
        names = tuple(benchmarks) if benchmarks is not None else None
        scored: List[Tuple[float, int, PredictorConfig]] = []
        for order, config in enumerate(configs):
            scored.append((self.average(config, names), order, config))
        if not scored:
            raise ValueError("best() needs at least one configuration")
        best_rate, _, best_config = min(scored)
        return best_config, best_rate

    def cached_simulations(self) -> int:
        """Number of memoised (config, benchmark) results (diagnostics)."""
        return len(self._results)


#: Process-wide shared runner so tests, examples, and benches reuse traces.
_shared_runner: Optional[SuiteRunner] = None


def shared_runner() -> SuiteRunner:
    """The process-wide :class:`SuiteRunner` (created on first use)."""
    global _shared_runner
    if _shared_runner is None:
        _shared_runner = SuiteRunner()
    return _shared_runner
