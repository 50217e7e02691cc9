"""Work-unit scheduling and run metrics for parallel sweeps.

A design-space sweep decomposes into independent ``(config, benchmark)``
simulations — :class:`WorkUnit`\\ s.  :class:`Scheduler` is the pure
bookkeeping core of the parallel executor: it hands units to workers,
tracks what is in flight where, requeues the units of a crashed or hung
worker up to a retry budget, and quarantines units that fail on every
attempt (*poisoned* units) instead of wedging the pool.

The scheduler holds no clocks, processes, or queues, so every recovery
path is unit-testable deterministically; :mod:`repro.runtime.parallel`
supplies the ``multiprocessing`` plumbing around it.

:class:`RunMetrics` is the observability record of a run: per-unit wall
times, queue-depth samples, per-worker busy time, trace-load sources
(cache hits vs regenerations), a per-phase wall-time breakdown fed by the
:mod:`repro.runtime.telemetry` tracer, and unit counters (completed /
replayed from checkpoint / requeued / poisoned).  It renders to a stable
JSON schema (``repro-run-metrics/2``) for ``--metrics-out``; serial and
parallel runs emit the same key set.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, Iterable, List, Optional, Tuple

from .records import PathLike
from .telemetry import PhaseStats

#: Outcomes of :meth:`Scheduler.fail`.
REQUEUED = "requeued"
POISONED = "poisoned"


@dataclass(frozen=True)
class WorkUnit:
    """One independent simulation: a predictor config on one benchmark."""

    unit_id: int
    config: object
    benchmark: str

    @property
    def label(self) -> str:
        """Human-readable ``config/benchmark`` identifier."""
        config_label = getattr(self.config, "label", None) or str(self.config)
        return f"{config_label}/{self.benchmark}"


class Scheduler:
    """Tracks pending / in-flight / completed / poisoned work units.

    Args:
        units: the work units to execute (dispatched FIFO).
        max_attempts: total execution attempts per unit before it is
            poisoned (1 = no retries).
    """

    def __init__(self, units: Iterable[WorkUnit], max_attempts: int = 1) -> None:
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.max_attempts = max_attempts
        self._pending: Deque[WorkUnit] = deque(units)
        self._units: Dict[int, WorkUnit] = {u.unit_id: u for u in self._pending}
        self.total = len(self._units)
        if self.total != len(self._pending):
            raise ValueError("work units must have distinct unit_ids")
        #: unit_id -> worker that currently holds it
        self._in_flight: Dict[int, object] = {}
        self._attempts: Dict[int, int] = {}
        self._completed: Dict[int, int] = {}  # unit_id -> attempts used
        #: unit_id -> every error message seen across attempts
        self.errors: Dict[int, List[str]] = {}
        self._poisoned: Dict[int, WorkUnit] = {}
        self.requeues = 0

    # -- streaming arrivals --------------------------------------------------

    def add(self, unit: WorkUnit) -> None:
        """Enqueue a unit that arrived after construction.

        Batch sweeps know their whole unit set up front; the prediction
        service does not — batches arrive over the wire for the lifetime
        of a shard.  Streamed units share all the recovery bookkeeping
        (requeue on worker loss, attempt budgets, poisoning) with
        construction-time ones.
        """
        if unit.unit_id in self._units:
            raise ValueError(f"duplicate unit_id {unit.unit_id}")
        self._units[unit.unit_id] = unit
        self._pending.append(unit)
        self.total += 1

    # -- dispatch ------------------------------------------------------------

    def acquire(self, worker_id: object) -> Optional[WorkUnit]:
        """Hand the next pending unit to ``worker_id`` (``None`` if empty).

        Units completed while a requeued duplicate sat in the queue (a
        crashed worker's result can arrive after its unit was requeued)
        are skipped, never re-dispatched.
        """
        while self._pending:
            unit = self._pending.popleft()
            if unit.unit_id in self._completed or unit.unit_id in self._poisoned:
                continue
            self._in_flight[unit.unit_id] = worker_id
            self._attempts[unit.unit_id] = self._attempts.get(unit.unit_id, 0) + 1
            return unit
        return None

    # -- outcomes ------------------------------------------------------------

    def complete(self, unit_id: int) -> bool:
        """Mark a unit done; ``False`` for a duplicate/stale completion."""
        if unit_id in self._completed:
            return False
        if unit_id not in self._units:
            raise KeyError(f"unknown unit {unit_id}")
        self._in_flight.pop(unit_id, None)
        self._poisoned.pop(unit_id, None)
        self._completed[unit_id] = self._attempts.get(unit_id, 1)
        return True

    def fail(self, unit_id: int, error: str) -> str:
        """Record a failed attempt; requeue or poison the unit.

        Returns :data:`REQUEUED` when the unit goes back to the queue for
        another attempt, :data:`POISONED` when its retry budget is spent.
        """
        if unit_id not in self._units:
            raise KeyError(f"unknown unit {unit_id}")
        self._in_flight.pop(unit_id, None)
        self.errors.setdefault(unit_id, []).append(error)
        if unit_id in self._completed:  # stale failure for a finished unit
            return REQUEUED
        if self._attempts.get(unit_id, 0) >= self.max_attempts:
            self._poisoned[unit_id] = self._units[unit_id]
            return POISONED
        self.requeues += 1
        self._pending.append(self._units[unit_id])
        return REQUEUED

    def worker_lost(self, worker_id: object, error: str) -> List[Tuple[WorkUnit, str]]:
        """Fail every unit the (crashed/killed) worker held.

        Returns ``(unit, outcome)`` pairs, one per in-flight unit of that
        worker (normally exactly one).
        """
        held = [uid for uid, wid in self._in_flight.items() if wid == worker_id]
        return [(self._units[uid], self.fail(uid, error)) for uid in held]

    def release_worker(self, worker_id: object) -> List[WorkUnit]:
        """Return a worker's in-flight units to the queue, attempt refunded.

        Used for units that did not fail but must be handed back (the
        batches queued behind a dead service shard's running one): they
        never ran, so requeueing them must not burn retry budget the way
        :meth:`worker_lost` does.
        """
        held = [uid for uid, wid in self._in_flight.items() if wid == worker_id]
        released = []
        for unit_id in held:
            del self._in_flight[unit_id]
            self._attempts[unit_id] = max(0, self._attempts.get(unit_id, 1) - 1)
            self._pending.append(self._units[unit_id])
            released.append(self._units[unit_id])
        return released

    # -- state ---------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True when every unit is either completed or poisoned."""
        return len(self._completed) + len(self._poisoned) >= self.total

    @property
    def pending_depth(self) -> int:
        return len(self._pending)

    @property
    def in_flight_count(self) -> int:
        return len(self._in_flight)

    @property
    def completed_count(self) -> int:
        return len(self._completed)

    def unfinished(self) -> List[WorkUnit]:
        """Units neither completed nor poisoned, in submission order."""
        return [unit for unit_id, unit in self._units.items()
                if unit_id not in self._completed
                and unit_id not in self._poisoned]

    @property
    def poisoned(self) -> Dict[int, WorkUnit]:
        """Units that failed on every attempt, keyed by unit id."""
        return dict(self._poisoned)

    def attempts(self, unit_id: int) -> int:
        return self._attempts.get(unit_id, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scheduler(total={self.total}, pending={self.pending_depth}, "
            f"in_flight={self.in_flight_count}, done={self.completed_count}, "
            f"poisoned={len(self._poisoned)})"
        )


# -- metrics ----------------------------------------------------------------

#: JSON schema identifier written by :meth:`RunMetrics.to_dict`.
METRICS_SCHEMA = "repro-run-metrics/2"


@dataclass(frozen=True)
class UnitTiming:
    """Wall-clock record of one completed simulation."""

    unit: str
    benchmark: str
    config: str
    seconds: float
    worker: object
    attempt: int
    trace_source: str  # "memo" | "cache" | "generated"

    def to_dict(self) -> dict:
        return {
            "unit": self.unit,
            "benchmark": self.benchmark,
            "config": self.config,
            "seconds": round(self.seconds, 6),
            "worker": self.worker,
            "attempt": self.attempt,
            "trace_source": self.trace_source,
        }


@dataclass
class RunMetrics:
    """Observability record of a (serial or parallel) sweep run.

    One instance lives on the :class:`~repro.sim.suite_runner.SuiteRunner`
    and accumulates across every executor invocation of the run, so a
    multi-sweep experiment reports one coherent record.
    """

    workers: int = 0
    units_total: int = 0
    units_completed: int = 0
    #: pairs resolved from the checkpoint journal without simulating
    units_from_checkpoint: int = 0
    units_requeued: int = 0
    units_poisoned: int = 0
    worker_crashes: int = 0
    wall_time: float = 0.0
    unit_timings: List[UnitTiming] = field(default_factory=list)
    queue_depth_samples: List[int] = field(default_factory=list)
    #: worker id -> cumulative busy seconds
    worker_busy: Dict[object, float] = field(default_factory=dict)
    #: trace-load source ("memo"/"cache"/"generated") -> count
    trace_loads: Dict[str, int] = field(default_factory=dict)
    #: phase name (trace_gen/trace_load/simulate/journal/...) -> stats,
    #: accumulated by the run's :class:`~repro.runtime.telemetry.Tracer`
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    #: tracer span/event occurrence counts (cache_fallback, requeue, ...),
    #: mirrored from :attr:`Tracer.counters` so the metrics artifact
    #: carries them (``counters`` key of ``repro-run-metrics/2``)
    counters: Dict[str, int] = field(default_factory=dict)
    #: simulation kernel that ran ("event"/"batch") -> completed units
    kernels: Dict[str, int] = field(default_factory=dict)
    #: why a ``kernel="auto"`` unit ran on the per-event loop -> count
    kernel_fallbacks: Dict[str, int] = field(default_factory=dict)

    def record_unit(
        self,
        unit: str,
        benchmark: str,
        config: str,
        seconds: float,
        worker: object,
        attempt: int,
        trace_source: str,
        kernel: Optional[str] = None,
        fallback: Optional[str] = None,
    ) -> None:
        """Record one completed simulation.

        ``kernel`` is the kernel that ran it (``None`` when a custom
        simulate function did) and ``fallback`` the reason an ``auto``
        request ran on the per-event loop.
        """
        self.unit_timings.append(UnitTiming(
            unit, benchmark, config, seconds, worker, attempt, trace_source,
        ))
        self.units_completed += 1
        self.worker_busy[worker] = self.worker_busy.get(worker, 0.0) + seconds
        self.trace_loads[trace_source] = self.trace_loads.get(trace_source, 0) + 1
        if kernel is not None:
            self.kernels[kernel] = self.kernels.get(kernel, 0) + 1
        if fallback is not None:
            self.kernel_fallbacks[fallback] = (
                self.kernel_fallbacks.get(fallback, 0) + 1)

    def record_phase(self, name: str, seconds: float) -> None:
        """Accumulate one span into the per-phase breakdown (tracer hook)."""
        stats = self.phases.get(name)
        if stats is None:
            stats = self.phases[name] = PhaseStats()
        stats.add(seconds)

    def record_counter(self, name: str, amount: int = 1) -> None:
        """Count one tracer span/event occurrence (tracer hook)."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def sample_queue_depth(self, depth: int) -> None:
        self.queue_depth_samples.append(depth)

    def utilization(self) -> Dict[str, float]:
        """Busy-time fraction per worker over the accumulated wall time."""
        if self.wall_time <= 0:
            return {}
        return {
            str(worker): round(min(1.0, busy / self.wall_time), 4)
            for worker, busy in sorted(self.worker_busy.items(), key=lambda kv: str(kv[0]))
        }

    def to_dict(self) -> dict:
        """JSON-ready form (schema ``repro-run-metrics/2``)."""
        seconds = [t.seconds for t in self.unit_timings]
        depths = self.queue_depth_samples
        return {
            "schema": METRICS_SCHEMA,
            "workers": self.workers,
            "wall_time_s": round(self.wall_time, 6),
            "phases": {
                name: stats.to_dict()
                for name, stats in sorted(self.phases.items())
            },
            "units": {
                "total": self.units_total,
                "completed": self.units_completed,
                "from_checkpoint": self.units_from_checkpoint,
                "requeued": self.units_requeued,
                "poisoned": self.units_poisoned,
            },
            "worker_crashes": self.worker_crashes,
            "unit_wall_time_s": {
                "total": round(sum(seconds), 6),
                "mean": round(sum(seconds) / len(seconds), 6) if seconds else 0.0,
                "max": round(max(seconds), 6) if seconds else 0.0,
            },
            "queue_depth": {
                "max": max(depths) if depths else 0,
                "mean": round(sum(depths) / len(depths), 3) if depths else 0.0,
            },
            "worker_utilization": self.utilization(),
            "trace_loads": dict(self.trace_loads),
            "kernels": dict(sorted(self.kernels.items())),
            "kernel_fallbacks": dict(sorted(self.kernel_fallbacks.items())),
            "counters": dict(sorted(self.counters.items())),
            "per_unit": [t.to_dict() for t in self.unit_timings],
        }


#: Top-level keys every ``repro-run-metrics/2`` document carries.
METRICS_KEYS = frozenset(RunMetrics().to_dict())


def _positive_counts(counts: object, what: str) -> Dict[str, int]:
    if not isinstance(counts, dict):
        raise ValueError(f"{what} is not an object")
    for name, count in counts.items():
        if not name or not isinstance(count, int) \
                or isinstance(count, bool) or count < 1:
            raise ValueError(f"{what} {name!r} = {count!r} is not a "
                             f"positive int")
    return counts


def validate_run_metrics(path: PathLike) -> Tuple[dict, str]:
    """Registry validator of ``repro-run-metrics/2`` (see ``repro verify``).

    Beyond the key sets and value ranges: every completed unit ran on
    exactly one kernel, and every ``auto`` fallback on the per-event loop.
    """
    from .chaos import check_degradations

    data = json.loads(Path(path).read_text())
    if data.get("schema") != METRICS_SCHEMA:
        raise ValueError(f"schema {data.get('schema')!r}, expected "
                         f"{METRICS_SCHEMA!r}")
    missing = METRICS_KEYS - set(data)
    if missing:
        raise ValueError(f"metrics missing keys {sorted(missing)}")
    units = data["units"]
    if set(units) != set(RunMetrics().to_dict()["units"]):
        raise ValueError(f"unit counters {sorted(units)}")
    if data["workers"] < 1 or not data["wall_time_s"] > 0:
        raise ValueError(f"workers {data['workers']}, wall time "
                         f"{data['wall_time_s']}")
    for name, stats in data["phases"].items():
        if set(stats) != {"seconds", "count"} or stats["seconds"] < 0 \
                or stats["count"] < 1:
            raise ValueError(f"phase {name!r}: {stats}")
    if "simulate" not in data["phases"] and units["completed"]:
        raise ValueError("units completed but no simulate phase")
    sources = set(data["trace_loads"]) | {
        unit["trace_source"] for unit in data["per_unit"]}
    if not sources <= {"memo", "cache", "generated"} \
            or any(unit["seconds"] < 0 for unit in data["per_unit"]):
        raise ValueError(f"trace sources {sorted(sources)} or a negative "
                         f"unit time")
    _positive_counts(data["counters"], "counter")
    check_degradations(data.get("degradations", {}))
    kernels = _positive_counts(data["kernels"], "kernel")
    fallbacks = _positive_counts(data["kernel_fallbacks"], "fallback")
    if not set(kernels) <= {"event", "batch"}:
        raise ValueError(f"unknown kernel(s) {sorted(kernels)}")
    if sum(kernels.values()) != units["completed"]:
        raise ValueError(f"kernels count {sum(kernels.values())} unit(s), "
                         f"{units['completed']} completed")
    if sum(fallbacks.values()) > kernels.get("event", 0):
        raise ValueError(f"{sum(fallbacks.values())} auto fallback(s) but "
                         f"only {kernels.get('event', 0)} per-event unit(s)")
    return data, (f"{units['completed']} unit(s), "
                  f"{len(data['phases'])} phase(s), kernels {kernels}")
