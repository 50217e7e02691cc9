"""Parallel sweep execution over a ``multiprocessing`` worker pool.

:class:`ParallelExecutor` runs a batch of independent
:class:`~repro.runtime.scheduler.WorkUnit`\\ s — one ``(config,
benchmark)`` simulation each — across worker processes and streams
completed :class:`~repro.sim.engine.SimulationResult`\\ s back to the
parent as they finish, so the caller can journal them incrementally and a
killed parent loses at most the units in flight.

Design points:

* **Traces are shared through the on-disk cache, not pickled.**  The
  parent pre-generates every needed trace into the validated
  :class:`~repro.runtime.cache.TraceCache` once; workers memoise loads
  per process.  Task messages carry only the (small, frozen) predictor
  config, so dispatch cost is independent of trace length.
* **One unit in flight per worker.**  The parent assigns units one at a
  time over per-worker queues and records exactly which unit each worker
  holds, so a crashed worker's loss is precise: its unit is requeued (up
  to the :class:`~repro.runtime.policies.ExecutionPolicy` retry budget)
  and a replacement worker is spawned.
* **Crash and hang detection.**  A worker that dies (SIGKILL, OOM,
  segfault) is noticed by liveness polling; a worker that exceeds the
  policy deadline on one unit is SIGKILLed by the watchdog and treated
  the same.  A unit that fails on every attempt is *poisoned*: the pool
  keeps draining the remaining units and the failure is raised at the end
  with structured :attr:`~repro.errors.ReproError.context`.
* **Serial fallback.**  A pool that keeps losing workers eventually
  exhausts its respawn budget.  Instead of aborting with work undone, the
  executor emits a ``serial_fallback`` degradation event, tears the pool
  down (refunding the attempt of any unit a surviving worker still held),
  and finishes the remaining units serially in the parent — simulation is
  deterministic, so the results are bit-identical to a healthy pool's.
* **Determinism.**  Simulation is a pure function of (config, benchmark,
  scale) — traces are seeded — so parallel results are bit-identical to
  serial ones regardless of completion order.

Workers exit on a ``None`` sentinel, and also when orphaned (the parent
pid changes), so a SIGKILLed parent never leaks a pool that would pin CI
pipes open.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import SimulationError
from .cache import TraceCache
from .chaos import active as active_chaos
from .policies import ExecutionPolicy
from .scheduler import POISONED, RunMetrics, Scheduler, WorkUnit
from .telemetry import Tracer

#: Parent loop poll interval and the workers' orphan-check interval.
_POLL_SECONDS = 0.05
_WORKER_POLL_SECONDS = 2.0
#: Grace period for workers to drain the stop sentinel at shutdown.
_SHUTDOWN_GRACE_SECONDS = 2.0
#: Per-unit attempt budget when no explicit policy is supplied: a pool
#: must survive environmentally-killed workers (OOM, preemption) without
#: the caller opting in to retries.
DEFAULT_PARALLEL_ATTEMPTS = 3


def _worker_main(
    worker_id: int,
    parent_pid: int,
    cache_dir: str,
    scale: Optional[float],
    task_queue: "multiprocessing.Queue",
    result_queue: "multiprocessing.Queue",
    attribution: bool = False,
    chaos_path: Optional[str] = None,
    kernel: str = "auto",
) -> None:
    """Worker loop: pull (unit_id, config, benchmark), simulate, report.

    Messages back to the parent::

        ("ok",  worker_id, unit_id, SimulationResult, trace_source,
                seconds, load_seconds, attribution_record_or_None,
                kernel, fallback_reason_or_None)
        ("err", worker_id, unit_id, error_type_name, error_message, seconds)

    ``trace_source`` records where the trace came from (``memo`` — this
    worker's per-process memo, ``cache`` — the shared on-disk cache,
    ``generated`` — regenerated after a cache miss/corruption), feeding
    the run's cache hit/miss metrics.  ``load_seconds`` is the slice of
    ``seconds`` spent obtaining the trace (0 for a memo hit), so the
    parent's tracer can attribute worker time to the load/generate vs
    simulate phases without sharing a tracer across processes.

    With ``attribution`` enabled each unit runs the instrumented
    classifying loop and the final "ok" field carries the unit's
    serialized ``repro-attribution/1`` record (already normalized by the
    collector, so the parent merges dicts identical to the serial path's).

    ``kernel`` is the kernel :func:`~repro.sim.engine.sweep_kernel` chose
    for the unit; ``fallback_reason`` says why an ``auto`` request ran on
    the per-event loop (``None`` when it did not).
    """
    from ..core.factory import build_predictor
    from ..sim.engine import simulate, sweep_kernel
    from ..workloads.program import generate_trace
    from ..workloads.suite import workload_config
    from . import chaos

    if chaos_path:
        # Re-arm the parent's journalled chaos plan in this process:
        # ticket claims go through the shared on-disk state, so a fault's
        # `times` budget holds across the whole process tree.
        chaos.install(chaos.ChaosPlan.load(chaos_path))

    if attribution:
        from ..sim.attribution import AttributionCollector

    cache = TraceCache(cache_dir)
    traces: Dict[str, object] = {}
    while True:
        try:
            item = task_queue.get(timeout=_WORKER_POLL_SECONDS)
        except queue.Empty:
            if os.getppid() != parent_pid:  # orphaned: parent was killed
                return
            continue
        if item is None:
            return
        unit_id, config, benchmark = item
        label = f"{getattr(config, 'label', config)}/{benchmark}"
        start = time.perf_counter()
        try:
            chaos.active().inject("worker.unit", label=label)
            trace = traces.get(benchmark)
            source = "memo"
            load_seconds = 0.0
            if trace is None:
                load_start = time.perf_counter()
                trace = cache.load(cache.key(benchmark, scale))
                source = "cache"
                if trace is None:
                    # The parent pre-warms the cache, so this is the
                    # corruption (or races-with-eviction) path:
                    # regenerate and re-store.
                    trace = generate_trace(workload_config(benchmark, scale))
                    cache.store(cache.key(benchmark, scale), trace)
                    source = "generated"
                load_seconds = time.perf_counter() - load_start
            traces[benchmark] = trace
            collector = AttributionCollector() if attribution else None
            predictor = build_predictor(config)
            chosen, fallback = sweep_kernel(predictor, len(trace), kernel,
                                            collector)
            result = simulate(predictor, trace, attribution=collector,
                              kernel=chosen)
            attribution_record = (
                collector.records()[0] if collector is not None else None
            )
        except Exception as exc:  # reported, requeued/poisoned by the parent
            result_queue.put((
                "err", worker_id, unit_id,
                type(exc).__name__, str(exc),
                time.perf_counter() - start,
            ))
            continue
        result_queue.put((
            "ok", worker_id, unit_id, result, source,
            time.perf_counter() - start, load_seconds, attribution_record,
            chosen, fallback,
        ))


class _WorkerHandle:
    """Parent-side state for one live worker process."""

    def __init__(self, worker_id: int, process: "multiprocessing.Process",
                 task_queue: "multiprocessing.Queue") -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.unit: Optional[WorkUnit] = None
        self.started_at: float = 0.0

    @property
    def busy(self) -> bool:
        return self.unit is not None

    def assign(self, unit: WorkUnit) -> None:
        self.unit = unit
        self.started_at = time.perf_counter()
        self.task_queue.put((unit.unit_id, unit.config, unit.benchmark))


class _Progress:
    """Live stderr progress line (``\\r``-updated on a tty, sparse otherwise)."""

    def __init__(self, total: int, enabled: bool = True) -> None:
        self.total = total
        self.stream = sys.stderr
        self.enabled = enabled and total > 0
        self.is_tty = self.enabled and self.stream.isatty()
        self.step = max(1, total // 10)
        self.last_reported = -1
        self.last_write = 0.0
        self.dirty = False
        self.started_at = time.perf_counter()

    def update(self, scheduler: Scheduler, busy: int, workers: int) -> None:
        if not self.enabled:
            return
        done = scheduler.completed_count
        if self.is_tty:
            # Redraw on completion-count changes, throttled to ~4 Hz.
            now = time.perf_counter()
            if done == self.last_reported and now - self.last_write < 0.25:
                return
            self.last_write = now
        else:
            # Non-tty (CI logs): one line per ~10% of the run plus the end.
            if done == self.last_reported:
                return
            if done % self.step != 0 and done != self.total:
                return
        self.last_reported = done
        elapsed = max(time.perf_counter() - self.started_at, 1e-9)
        line = (
            f"[parallel] {done}/{self.total} units | {busy}/{workers} busy | "
            f"queue {scheduler.pending_depth} | requeued {scheduler.requeues} | "
            f"{done / elapsed:.1f} unit/s"
        )
        if self.is_tty:
            self.stream.write("\r" + line.ljust(78))
            self.dirty = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()

    def close(self) -> None:
        if self.dirty:
            self.stream.write("\n")
            self.stream.flush()


class ParallelExecutor:
    """Runs work units over a pool of simulation worker processes.

    Args:
        workers: worker process count (must be >= 1).
        trace_cache: the shared on-disk cache workers load traces from
            (a :class:`TraceCache` or a directory path).
        scale: trace-length scale forwarded to cache keys / regeneration;
            must match the runner that pre-warmed the cache.
        policy: retry budget (``max_attempts``) for crashed/failed units
            and the per-unit ``deadline`` used by the hang watchdog.  When
            omitted, the pool defaults to
            ``max_attempts=DEFAULT_PARALLEL_ATTEMPTS`` — unlike the serial
            path, a worker can die to environmental causes (OOM kill,
            node preemption) that say nothing about the unit itself, so a
            parallel run must survive a lost worker out of the box.  Pass
            an explicit policy to restore fail-fast semantics.
        metrics: a :class:`RunMetrics` to accumulate into (one per run;
            shared across several ``run()`` calls by the suite runner).
        progress: emit the live stderr progress line (default on).
        tracer: the run's :class:`~repro.runtime.telemetry.Tracer`;
            dispatch/requeue/poison/respawn events and worker-reported
            load/simulate phase times are recorded through it.  Defaults
            to a fresh tracer feeding ``metrics``.
        attribution: run every unit under the instrumented attribution
            loop; each completion then ships its serialized attribution
            record back with the result (see ``run``'s
            ``on_attribution``).
        mp_context: ``multiprocessing`` context override (tests).
        kernel: simulation kernel requested for every unit (``"auto"``,
            the default, ``"event"``, or ``"batch"``), resolved per unit
            by :func:`~repro.sim.engine.sweep_kernel`; the serial
            crash-fallback path resolves it the same way, so results
            stay identical either way.
    """

    def __init__(
        self,
        workers: int,
        trace_cache: "TraceCache | str",
        scale: Optional[float] = None,
        policy: Optional[ExecutionPolicy] = None,
        metrics: Optional[RunMetrics] = None,
        progress: bool = True,
        tracer: Optional[Tracer] = None,
        attribution: bool = False,
        mp_context: Optional[object] = None,
        kernel: str = "auto",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.trace_cache = (
            trace_cache if isinstance(trace_cache, TraceCache)
            else TraceCache(trace_cache)
        )
        self.scale = scale
        self.policy = policy or ExecutionPolicy(
            max_attempts=DEFAULT_PARALLEL_ATTEMPTS
        )
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.tracer = tracer if tracer is not None else Tracer(metrics=self.metrics)
        self.progress_enabled = progress
        self.attribution = attribution
        self.kernel = kernel
        self._ctx = mp_context or multiprocessing.get_context()
        self._next_worker_id = 0
        #: set when the respawn budget ran out: the pool was torn down
        #: and the remaining units were finished serially in the parent.
        self._fallback_reason: Optional[str] = None

    # -- pool plumbing -------------------------------------------------------

    def _spawn_worker(self, result_queue: "multiprocessing.Queue") -> _WorkerHandle:
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        chaos_plan = active_chaos()
        chaos_path = getattr(chaos_plan, "path", None)
        process = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, os.getpid(), str(self.trace_cache.directory),
                  self.scale, task_queue, result_queue, self.attribution,
                  str(chaos_path) if chaos_path else None, self.kernel),
            name=f"repro-sim-worker-{worker_id}",
            daemon=True,
        )
        process.start()
        return _WorkerHandle(worker_id, process, task_queue)

    @staticmethod
    def _stop_worker(handle: _WorkerHandle, kill: bool = False) -> None:
        if kill and handle.process.is_alive():
            handle.process.kill()
        else:
            try:
                handle.task_queue.put(None)
            except (OSError, ValueError):  # queue torn down already
                pass
        handle.process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
        handle.task_queue.close()

    # -- execution -----------------------------------------------------------

    def run(
        self,
        units: Sequence[WorkUnit],
        on_result: Optional[Callable[[WorkUnit, object], None]] = None,
        on_attribution: Optional[Callable[[WorkUnit, dict], None]] = None,
    ) -> Dict[int, object]:
        """Execute ``units``; returns ``{unit_id: SimulationResult}``.

        ``on_result`` is invoked in the parent, in completion order, as
        each unit finishes — the journalling hook.  With attribution
        enabled, ``on_attribution`` follows it with the unit's serialized
        attribution record (the collector-merge hook).  If any unit
        exhausts its retry budget, the remaining units still run to
        completion and a :class:`SimulationError` carrying the poisoned
        units' labels, attempt counts, and per-attempt errors in
        ``context`` is raised at the end.
        """
        units = list(units)
        scheduler = Scheduler(units, max_attempts=self.policy.max_attempts)
        self.metrics.workers = max(self.metrics.workers, self.workers)
        self.metrics.units_total += len(units)
        results: Dict[int, object] = {}
        if not units:
            return results

        run_start = time.perf_counter()
        self._fallback_reason = None
        self.tracer.event("pool_start", workers=self.workers, units=len(units))
        # Enough spare respawns to absorb sporadic environmental kills,
        # small enough that a systematically-crashing pool degrades to the
        # serial fallback before every unit burns its whole retry budget.
        respawn_budget = 2 * self.workers + len(units)
        result_queue = self._ctx.Queue()
        pool: Dict[int, _WorkerHandle] = {}
        progress = _Progress(len(units), enabled=self.progress_enabled)
        unit_by_id = {unit.unit_id: unit for unit in units}
        try:
            for _ in range(min(self.workers, len(units))):
                handle = self._spawn_worker(result_queue)
                pool[handle.worker_id] = handle
            while not scheduler.done:
                self._dispatch(pool, scheduler)
                message = self._poll_results(result_queue)
                if message is not None:
                    self._handle_message(
                        message, pool, scheduler, unit_by_id, results,
                        on_result, on_attribution,
                    )
                self._reap_workers(pool, scheduler, result_queue, respawn_budget)
                if self._fallback_reason is not None:
                    break
                progress.update(
                    scheduler,
                    busy=sum(1 for h in pool.values() if h.busy),
                    workers=len(pool),
                )
            if self._fallback_reason is not None and not scheduler.done:
                self._enter_serial_fallback(
                    pool, scheduler, result_queue, unit_by_id, results,
                    on_result, on_attribution, progress,
                )
        finally:
            progress.close()
            for handle in pool.values():
                self._stop_worker(handle)
            result_queue.close()
            self.metrics.wall_time += time.perf_counter() - run_start
            self.metrics.units_requeued += scheduler.requeues
            self.metrics.units_poisoned += len(scheduler.poisoned)
            self.tracer.event(
                "pool_stop",
                completed=scheduler.completed_count,
                requeued=scheduler.requeues,
                poisoned=len(scheduler.poisoned),
                wall_time_s=round(time.perf_counter() - run_start, 6),
            )

        if scheduler.poisoned:
            self._raise_poisoned(scheduler)
        return results

    def _dispatch(self, pool: Dict[int, _WorkerHandle], scheduler: Scheduler) -> None:
        for handle in pool.values():
            if handle.busy or not handle.process.is_alive():
                continue
            unit = scheduler.acquire(handle.worker_id)
            if unit is None:
                return
            handle.assign(unit)
            self.metrics.sample_queue_depth(scheduler.pending_depth)
            self.tracer.event(
                "dispatch", unit=unit.label, worker=handle.worker_id,
                attempt=scheduler.attempts(unit.unit_id),
                queue_depth=scheduler.pending_depth,
            )

    @staticmethod
    def _poll_results(result_queue: "multiprocessing.Queue") -> Optional[tuple]:
        try:
            return result_queue.get(timeout=_POLL_SECONDS)
        except queue.Empty:
            return None

    def _handle_message(
        self,
        message: tuple,
        pool: Dict[int, _WorkerHandle],
        scheduler: Scheduler,
        unit_by_id: Dict[int, WorkUnit],
        results: Dict[int, object],
        on_result: Optional[Callable[[WorkUnit, object], None]],
        on_attribution: Optional[Callable[[WorkUnit, dict], None]] = None,
    ) -> None:
        kind, worker_id, unit_id = message[0], message[1], message[2]
        handle = pool.get(worker_id)
        if handle is not None and handle.unit is not None \
                and handle.unit.unit_id == unit_id:
            handle.unit = None  # worker is idle again
        unit = unit_by_id[unit_id]
        if kind == "ok":
            (_, _, _, result, trace_source, seconds, load_seconds,
             attribution_record, kernel, fallback) = message
            if scheduler.complete(unit_id):
                results[unit_id] = result
                # Attribute the worker-reported split to the run's phase
                # breakdown: trace acquisition vs simulation proper.
                if trace_source != "memo" and load_seconds > 0:
                    self.tracer.record_span(
                        "trace_load" if trace_source == "cache" else "trace_gen",
                        load_seconds, benchmark=unit.benchmark, worker=worker_id,
                    )
                self.tracer.record_span(
                    "simulate", max(seconds - load_seconds, 0.0),
                    benchmark=unit.benchmark, worker=worker_id,
                )
                self.metrics.record_unit(
                    unit.label, unit.benchmark,
                    str(getattr(unit.config, "label", unit.config)),
                    seconds, worker_id, scheduler.attempts(unit_id), trace_source,
                    kernel=kernel, fallback=fallback,
                )
                if on_result is not None:
                    on_result(unit, result)
                if on_attribution is not None and attribution_record is not None:
                    on_attribution(unit, attribution_record)
        else:
            _, _, _, error_type, error_message, _seconds = message
            error = f"{error_type}: {error_message}"
            outcome = scheduler.fail(unit_id, error)
            self.tracer.event(
                "poison" if outcome == POISONED else "requeue",
                unit=unit.label, worker=worker_id, error=error,
            )

    def _reap_workers(
        self,
        pool: Dict[int, _WorkerHandle],
        scheduler: Scheduler,
        result_queue: "multiprocessing.Queue",
        respawn_budget: int,
    ) -> None:
        """Detect dead and hung workers; requeue their units; respawn."""
        deadline = self.policy.deadline
        for worker_id in list(pool):
            handle = pool[worker_id]
            dead = not handle.process.is_alive()
            hung = (
                not dead
                and handle.busy
                and deadline is not None
                and time.perf_counter() - handle.started_at > deadline
            )
            if not dead and not hung:
                continue
            if hung:
                handle.process.kill()
                handle.process.join(timeout=_SHUTDOWN_GRACE_SECONDS)
            reason = (
                f"worker {worker_id} exceeded the {deadline:g}s deadline"
                if hung else
                f"worker {worker_id} died (exitcode {handle.process.exitcode})"
            )
            lost = scheduler.worker_lost(worker_id, reason)
            self.metrics.worker_crashes += 1
            self.tracer.event(
                "worker_lost", worker=worker_id, reason=reason,
                hung=hung,
            )
            for lost_unit, outcome in lost:
                self.tracer.event(
                    "poison" if outcome == POISONED else "requeue",
                    unit=lost_unit.label, worker=worker_id, error=reason,
                )
            handle.task_queue.close()
            del pool[worker_id]
            if scheduler.done:
                continue
            if self._next_worker_id >= respawn_budget:
                # Pool is unstable.  Don't abort with work undone:
                # degrade to finishing the remaining units serially in
                # the parent (bit-identical results — simulation is
                # deterministic).  run() tears the pool down.
                if self._fallback_reason is None:
                    self._fallback_reason = reason
                    self.tracer.event(
                        "serial_fallback",
                        respawns=self._next_worker_id,
                        respawn_budget=respawn_budget,
                        last_failure=reason,
                    )
                continue
            pool_handle = self._spawn_worker(result_queue)
            pool[pool_handle.worker_id] = pool_handle
            self.tracer.event(
                "respawn", worker=pool_handle.worker_id,
                replaces=worker_id,
            )

    # -- serial fallback -----------------------------------------------------

    def _enter_serial_fallback(
        self,
        pool: Dict[int, _WorkerHandle],
        scheduler: Scheduler,
        result_queue: "multiprocessing.Queue",
        unit_by_id: Dict[int, WorkUnit],
        results: Dict[int, object],
        on_result: Optional[Callable[[WorkUnit, object], None]],
        on_attribution: Optional[Callable[[WorkUnit, dict], None]],
        progress: _Progress,
    ) -> None:
        """Tear the pool down and finish the remaining units in-process.

        Results already sitting in the queue are drained first so
        completed units are never re-simulated; units that surviving
        workers still held are returned to the queue with their attempt
        refunded (the unit did not fail — the pool abandoned it).
        """
        while True:
            message = self._poll_results(result_queue)
            if message is None:
                break
            self._handle_message(
                message, pool, scheduler, unit_by_id, results,
                on_result, on_attribution,
            )
        for worker_id in list(pool):
            handle = pool.pop(worker_id)
            self._stop_worker(handle, kill=True)
            for unit in scheduler.release_worker(worker_id):
                self.tracer.event(
                    "release", unit=unit.label, worker=worker_id,
                    reason="serial fallback teardown",
                )
        self._drain_serially(scheduler, results, on_result, on_attribution,
                             progress)

    def _drain_serially(
        self,
        scheduler: Scheduler,
        results: Dict[int, object],
        on_result: Optional[Callable[[WorkUnit, object], None]],
        on_attribution: Optional[Callable[[WorkUnit, dict], None]],
        progress: _Progress,
    ) -> None:
        """Run every remaining unit in the parent process, one at a time."""
        from ..core.factory import build_predictor
        from ..sim.engine import simulate, sweep_kernel
        from ..workloads.program import generate_trace
        from ..workloads.suite import workload_config

        if self.attribution:
            from ..sim.attribution import AttributionCollector

        traces: Dict[str, object] = {}
        while not scheduler.done:
            unit = scheduler.acquire("serial-fallback")
            if unit is None:  # only poisoned units remain
                break
            start = time.perf_counter()
            try:
                trace = traces.get(unit.benchmark)
                source = "memo"
                load_seconds = 0.0
                if trace is None:
                    load_start = time.perf_counter()
                    key = self.trace_cache.key(unit.benchmark, self.scale)
                    trace = self.trace_cache.load(key)
                    source = "cache"
                    if trace is None:
                        trace = generate_trace(
                            workload_config(unit.benchmark, self.scale))
                        self.trace_cache.store(key, trace)
                        source = "generated"
                    load_seconds = time.perf_counter() - load_start
                    traces[unit.benchmark] = trace
                collector = AttributionCollector() if self.attribution else None
                predictor = build_predictor(unit.config)
                kernel, fallback = sweep_kernel(predictor, len(trace),
                                                self.kernel, collector)
                result = simulate(predictor, trace, attribution=collector,
                                  kernel=kernel)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
                outcome = scheduler.fail(unit.unit_id, error)
                self.tracer.event(
                    "poison" if outcome == POISONED else "requeue",
                    unit=unit.label, worker="serial-fallback", error=error,
                )
                continue
            seconds = time.perf_counter() - start
            if not scheduler.complete(unit.unit_id):
                continue
            results[unit.unit_id] = result
            if source != "memo" and load_seconds > 0:
                self.tracer.record_span(
                    "trace_load" if source == "cache" else "trace_gen",
                    load_seconds, benchmark=unit.benchmark,
                    worker="serial-fallback",
                )
            self.tracer.record_span(
                "simulate", max(seconds - load_seconds, 0.0),
                benchmark=unit.benchmark, worker="serial-fallback",
            )
            self.metrics.record_unit(
                unit.label, unit.benchmark,
                str(getattr(unit.config, "label", unit.config)),
                seconds, "serial-fallback",
                scheduler.attempts(unit.unit_id), source,
                kernel=kernel, fallback=fallback,
            )
            if on_result is not None:
                on_result(unit, result)
            if on_attribution is not None and collector is not None:
                on_attribution(unit, collector.records()[0])
            progress.update(scheduler, busy=0, workers=0)

    def _raise_poisoned(self, scheduler: Scheduler) -> None:
        poisoned = scheduler.poisoned
        labels = [unit.label for unit in poisoned.values()]
        error = SimulationError(
            f"{len(poisoned)} work unit(s) failed on every attempt: "
            + ", ".join(sorted(labels))
        )
        raise error.with_context(
            poisoned_units=sorted(labels),
            max_attempts=scheduler.max_attempts,
            unit_errors={
                unit.label: scheduler.errors.get(unit_id, [])
                for unit_id, unit in poisoned.items()
            },
            completed=scheduler.completed_count,
            total=scheduler.total,
        )
