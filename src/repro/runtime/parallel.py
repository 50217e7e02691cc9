"""Parallel sweep execution over a ``multiprocessing`` worker pool.

:class:`ParallelExecutor` runs a batch of independent
:class:`~repro.runtime.scheduler.WorkUnit`\\ s — one ``(config,
benchmark)`` simulation each — across worker processes and streams
completed :class:`~repro.sim.engine.SimulationResult`\\ s back to the
parent as they finish, so the caller can journal them incrementally and a
killed parent loses at most the units in flight.  Each worker runs its
units through a :class:`~repro.sim.suite_runner.SuiteRunner` of its own
(:meth:`~repro.sim.suite_runner.SuiteRunner.run_unit`, the serial path's
unit body), so the pool adds scheduling, not a second way to simulate.

Design points:

* **Traces are shared through the on-disk cache, not pickled.**  The
  parent pre-generates every needed trace into the validated
  :class:`~repro.runtime.cache.TraceCache` once; workers memoise loads
  per process.  Task messages carry only the (small, frozen) predictor
  config, so dispatch cost is independent of trace length.
* **One unit in flight per worker.**  The parent assigns units one at a
  time over per-worker queues and records exactly which unit each worker
  holds, so a crashed worker's loss is precise: its unit is requeued (up
  to :data:`DEFAULT_PARALLEL_ATTEMPTS` attempts) and a replacement worker
  is spawned.
* **Crash detection.**  A worker that dies (SIGKILL, OOM, segfault) is
  noticed by liveness polling.  There is no hang watchdog: simulation is
  a bounded loop over a finite trace, and injected hangs sleep at most
  2 s.  A unit that fails on every attempt is *poisoned*: the pool keeps
  draining the remaining units, and :meth:`ParallelExecutor.raise_poisoned`
  reports the failure with structured
  :attr:`~repro.errors.ReproError.context`.
* **Serial fallback.**  A pool that keeps losing workers eventually
  exhausts its respawn budget.  Instead of aborting with work undone, the
  executor emits a ``serial_fallback`` degradation event, keeps the
  results already queued, kills the pool and returns early;
  :meth:`ParallelExecutor.unfinished` names the units left, which the
  suite runner finishes on its ordinary serial path — simulation is
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
from .scheduler import POISONED, RunMetrics, Scheduler, WorkUnit
from .telemetry import Tracer

#: Parent loop poll interval and the workers' orphan-check interval.
_POLL_SECONDS = 0.05
_WORKER_POLL_SECONDS = 2.0
#: Grace period for workers to drain the stop sentinel at shutdown.
_SHUTDOWN_GRACE_SECONDS = 2.0
#: Per-unit attempt budget: a pool must survive environmentally-killed
#: workers (OOM, preemption), whose deaths say nothing about the unit.
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

        ("ok",  worker_id, unit_id, UnitRun, seconds)
        ("err", worker_id, unit_id, error_type_name, error_message, seconds)

    Each unit runs through :meth:`SuiteRunner.run_unit` on one runner per
    process, built over the shared on-disk cache with no journal (the
    parent journals).  Its memo keeps each trace loaded once per worker;
    the :class:`~repro.sim.suite_runner.UnitRun` carries the trace
    source (``memo`` / ``cache`` / ``generated``), the load time, the
    kernel and any ``auto`` fallback reason, and with ``attribution``
    the unit's normalized ``repro-attribution/1`` record.
    """
    from ..sim.suite_runner import SuiteRunner
    from . import chaos

    if chaos_path:
        # Re-arm the parent's journalled chaos plan in this process:
        # ticket claims go through the shared on-disk state, so a fault's
        # `times` budget holds across the whole process tree.
        chaos.install(chaos.ChaosPlan.load(chaos_path))

    runner = SuiteRunner(scale=scale, cache_dir=cache_dir, progress=False,
                         attribution=attribution, kernel=kernel)
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
            unit = runner.run_unit(config, benchmark)
        except Exception as exc:  # reported, requeued/poisoned by the parent
            result_queue.put((
                "err", worker_id, unit_id,
                type(exc).__name__, str(exc),
                time.perf_counter() - start,
            ))
            continue
        result_queue.put((
            "ok", worker_id, unit_id, unit, time.perf_counter() - start,
        ))


class _WorkerHandle:
    """Parent-side state for one live worker process."""

    def __init__(self, worker_id: int, process: "multiprocessing.Process",
                 task_queue: "multiprocessing.Queue") -> None:
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.unit: Optional[WorkUnit] = None

    @property
    def busy(self) -> bool:
        return self.unit is not None

    def assign(self, unit: WorkUnit) -> None:
        self.unit = unit
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
            by :func:`~repro.sim.engine.sweep_kernel` exactly as the
            serial path does.
    """

    def __init__(
        self,
        workers: int,
        trace_cache: "TraceCache | str",
        scale: Optional[float] = None,
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
        self.metrics = metrics if metrics is not None else RunMetrics()
        self.tracer = tracer if tracer is not None else Tracer(metrics=self.metrics)
        self.progress_enabled = progress
        self.attribution = attribution
        self.kernel = kernel
        self._ctx = mp_context or multiprocessing.get_context()
        self._next_worker_id = 0
        #: set when the respawn budget ran out: the pool was torn down
        #: early, leaving :meth:`unfinished` units to the caller.
        self._fallback_reason: Optional[str] = None
        #: the last :meth:`run`'s bookkeeping
        self._scheduler = Scheduler([])

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
        attribution record (the collector-merge hook).  A unit that
        exhausts its retry budget does not stop the others; the caller
        reports it through :meth:`raise_poisoned` once every other unit
        is done.  After a serial fallback the run returns early, and
        :meth:`unfinished` lists the units it left.
        """
        units = list(units)
        scheduler = self._scheduler = Scheduler(
            units, max_attempts=DEFAULT_PARALLEL_ATTEMPTS)
        self.metrics.workers = max(self.metrics.workers, self.workers)
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

        def on_message(message: tuple) -> None:
            self._handle_message(message, pool, scheduler, unit_by_id,
                                 results, on_result, on_attribution)

        try:
            for _ in range(min(self.workers, len(units))):
                handle = self._spawn_worker(result_queue)
                pool[handle.worker_id] = handle
            while not scheduler.done and self._fallback_reason is None:
                self._dispatch(pool, scheduler)
                message = self._poll_results(result_queue)
                if message is not None:
                    on_message(message)
                self._reap_workers(pool, scheduler, result_queue, respawn_budget)
                progress.update(
                    scheduler,
                    busy=sum(1 for h in pool.values() if h.busy),
                    workers=len(pool),
                )
            if self._fallback_reason is not None:
                # Keep what the pool already finished; the rest is left
                # to the caller's serial path.
                message = self._poll_results(result_queue)
                while message is not None:
                    on_message(message)
                    message = self._poll_results(result_queue)
        finally:
            progress.close()
            for handle in pool.values():
                self._stop_worker(handle, kill=self._fallback_reason is not None)
            result_queue.close()
            self.metrics.wall_time += time.perf_counter() - run_start
            self.metrics.units_total += (
                scheduler.completed_count + len(scheduler.poisoned))
            self.metrics.units_requeued += scheduler.requeues
            self.metrics.units_poisoned += len(scheduler.poisoned)
            self.tracer.event(
                "pool_stop",
                completed=scheduler.completed_count,
                requeued=scheduler.requeues,
                poisoned=len(scheduler.poisoned),
                wall_time_s=round(time.perf_counter() - run_start, 6),
            )
        return results

    def unfinished(self) -> List[WorkUnit]:
        """Units the last :meth:`run` left neither completed nor poisoned.

        Empty unless the pool fell back to serial: those units are the
        caller's to finish (:class:`~repro.sim.suite_runner.SuiteRunner`
        runs them through :meth:`~repro.sim.suite_runner.SuiteRunner.result`).
        """
        return self._scheduler.unfinished()

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
            _, _, _, run, seconds = message
            if scheduler.complete(unit_id):
                results[unit_id] = run.result
                # Attribute the worker-reported split to the run's phase
                # breakdown: trace acquisition vs simulation proper.
                if run.trace_source != "memo" and run.load_seconds > 0:
                    self.tracer.record_span(
                        "trace_load" if run.trace_source == "cache"
                        else "trace_gen",
                        run.load_seconds, benchmark=unit.benchmark,
                        worker=worker_id,
                    )
                self.tracer.record_span(
                    "simulate", max(seconds - run.load_seconds, 0.0),
                    benchmark=unit.benchmark, worker=worker_id,
                )
                self.metrics.record_unit(
                    unit.label, unit.benchmark,
                    str(getattr(unit.config, "label", unit.config)),
                    seconds, worker_id, scheduler.attempts(unit_id),
                    run.trace_source, kernel=run.kernel, fallback=run.fallback,
                )
                if on_result is not None:
                    on_result(unit, run.result)
                if on_attribution is not None and run.attribution is not None:
                    on_attribution(unit, run.attribution)
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
        """Detect dead workers; requeue their units; respawn."""
        for worker_id in list(pool):
            handle = pool[worker_id]
            if handle.process.is_alive():
                continue
            reason = (
                f"worker {worker_id} died (exitcode {handle.process.exitcode})"
            )
            lost = scheduler.worker_lost(worker_id, reason)
            self.metrics.worker_crashes += 1
            self.tracer.event("worker_lost", worker=worker_id, reason=reason)
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
                # run() stops the pool and leaves the remaining units to
                # the caller's serial path (bit-identical results —
                # simulation is deterministic).
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

    def raise_poisoned(self) -> None:
        """Raise the last :meth:`run`'s poisoned units, if it had any.

        A :class:`SimulationError` carrying the poisoned units' labels,
        the attempt budget and each attempt's error in ``context``.  The
        caller raises it once every other unit has finished, including
        any it finished itself after a serial fallback (``completed``
        counts those).
        """
        scheduler = self._scheduler
        poisoned = scheduler.poisoned
        if not poisoned:
            return
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
            completed=scheduler.total - len(poisoned),
            total=scheduler.total,
        )
