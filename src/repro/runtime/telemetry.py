"""Unified telemetry: spans, counters, and a structured JSONL event log.

Every long-running phase of a sweep — trace generation, cache load/store,
simulation, checkpoint journalling, the parallel pool's recovery paths —
is wrapped in a :meth:`Tracer.span` (a context manager with monotonic
timing and nesting) or announced as a point :meth:`Tracer.event`.  The
tracer aggregates spans into per-phase totals that
:class:`repro.runtime.scheduler.RunMetrics` reports as the
``repro-run-metrics/2`` phase breakdown, so serial and parallel runs emit
one coherent accounting of where the wall clock went.

When a sink is attached (``--trace-log FILE``) every finished span and
every event additionally becomes one fsync'd JSON line in a structured
trace log (schema ``repro-trace-log/1``, a :mod:`~repro.runtime.records`
log), durable across a SIGKILL.  With no sink attached the tracer only keeps
in-memory aggregates — a span is two clock reads and two dict updates —
so instrumentation stays cheap enough to leave on permanently.

The clock is injectable so tests can drive span timing deterministically.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .records import PathLike, RecordLog, read_records

#: JSON schema identifier of the structured trace log (header line).
TRACE_LOG_SCHEMA = "repro-trace-log/1"


@dataclass
class PhaseStats:
    """Accumulated wall time and occurrence count of one phase."""

    seconds: float = 0.0
    count: int = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.count += 1

    def to_dict(self) -> dict:
        return {"seconds": round(self.seconds, 6), "count": self.count}


def open_trace_log(path: PathLike) -> RecordLog:
    """A fresh ``repro-trace-log/1`` sink; the header names the writer pid."""
    return RecordLog(path, {"schema": TRACE_LOG_SCHEMA, "pid": os.getpid()})


class _Span:
    """One open span; finished (and logged) by the tracer on ``__exit__``."""

    __slots__ = ("tracer", "name", "attrs", "depth", "started_at", "seconds")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict,
                 depth: int, started_at: float) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = depth
        self.started_at = started_at
        self.seconds: Optional[float] = None

    def annotate(self, **attrs: object) -> None:
        """Attach further attributes mid-span (e.g. a late cache verdict)."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type: object, *exc_info: object) -> None:
        if exc_type is not None:
            self.attrs["error"] = getattr(exc_type, "__name__", str(exc_type))
        self.tracer._finish(self)


class Tracer:
    """Span/event recorder shared by one run (serial or parallel parent).

    Args:
        sink: a :class:`~repro.runtime.records.RecordLog` (or a path to
            open one at with :func:`open_trace_log`) that
            receives one JSON line per finished span / event; ``None``
            (the default) keeps aggregates in memory only.
        metrics: a :class:`~repro.runtime.scheduler.RunMetrics` whose
            per-phase breakdown this tracer feeds (span name = phase).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        sink: Optional[Union[RecordLog, PathLike]] = None,
        metrics: Optional[object] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        if sink is not None and not isinstance(sink, RecordLog):
            sink = open_trace_log(sink)
        self.sink = sink
        self.metrics = metrics
        self.clock = clock
        self.counters: Dict[str, int] = {}
        self._stack: List[_Span] = []
        self._epoch = clock()

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, **attrs: object) -> _Span:
        """Open a nested, monotonic-timed span (use as a context manager)."""
        span = _Span(self, name, attrs, len(self._stack), self.clock())
        self._stack.append(span)
        return span

    def _finish(self, span: _Span) -> None:
        span.seconds = self.clock() - span.started_at
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        else:  # pragma: no cover - misnested exit (defensive)
            self._stack = [s for s in self._stack if s is not span]
        self._record(span.name, span.seconds, span.depth, span.attrs)

    def record_span(self, name: str, seconds: float, **attrs: object) -> None:
        """Record an externally-timed span (e.g. reported by a worker)."""
        self._record(name, seconds, len(self._stack), attrs)

    def _record(self, name: str, seconds: float, depth: int, attrs: dict) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1
        if self.metrics is not None:
            self.metrics.record_phase(name, seconds)
            recorder = getattr(self.metrics, "record_counter", None)
            if recorder is not None:
                recorder(name)
        self._sink_write({
            "kind": "span",
            "name": name,
            "t": round(self.clock() - self._epoch, 6),
            "dur_s": round(seconds, 6),
            "depth": depth,
            "attrs": attrs,
        })

    # -- events --------------------------------------------------------------

    def event(self, name: str, **attrs: object) -> None:
        """Record a point event (dispatch, requeue, quarantine, ...)."""
        self.counters[name] = self.counters.get(name, 0) + 1
        if self.metrics is not None:
            recorder = getattr(self.metrics, "record_counter", None)
            if recorder is not None:
                recorder(name)
        self._sink_write({
            "kind": "event",
            "name": name,
            "t": round(self.clock() - self._epoch, 6),
            "attrs": attrs,
        })

    def _sink_write(self, record: dict) -> None:
        """Forward one record to the sink; a failing sink is detached.

        Telemetry must never take the run down: an :class:`OSError` from
        the log file (disk full, or an injected ``telemetry.write``
        chaos fault) drops the sink, keeps the in-memory aggregates, and
        counts a ``telemetry_off`` degradation event.
        """
        if self.sink is None:
            return
        from .chaos import active as active_chaos

        try:
            active_chaos().inject("telemetry.write", label=record["name"])
            if not self.sink.closed:  # post-close stragglers are dropped
                self.sink.write(record)
        except OSError:
            sink, self.sink = self.sink, None
            try:
                sink.close()
            except OSError:  # pragma: no cover - double-fault close
                pass
            self.event("telemetry_off", path=str(sink.path))

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Close the sink (aggregates stay readable)."""
        if self.sink is not None:
            self.sink.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer(sink={self.sink and str(self.sink.path)!r}, "
            f"counters={self.counters})"
        )


#: Module-level tracer used when a component has none attached: records
#: in-memory counters only, never opens a file.
NULL_TRACER = Tracer()


def read_trace_log(path: PathLike, schema: str = TRACE_LOG_SCHEMA) -> List[dict]:
    """Parse a trace-log file; validates the header, tolerates a torn tail.

    Returns the records after the header.  ``schema`` selects which JSONL
    artifact family is expected (``repro-trace-log/1`` by default; the
    attribution artifact, the sheds log and the metrics stream reuse this
    reader with their own schema).  Raises ``ValueError`` when the header
    does not match or an interior line is corrupt; a torn *final* line is
    dropped (the :mod:`~repro.runtime.records` commit rule).
    """
    log = read_records(path)
    if log.header is None:
        raise ValueError(f"{path}: empty trace log")
    if log.header.get("schema") != schema:
        raise ValueError(f"{path}: not a {schema} log (header {log.header!r})")
    return log.records


def validate_trace_log(path: PathLike) -> Tuple[List[dict], str]:
    """Registry validator of ``repro-trace-log/1`` (see ``repro verify``).

    A finished run's log is whole (a fresh sink per run, so never torn)
    and holds at least one span and one event, each of its kind's shape.
    """
    log = read_records(path)
    if log.header is None or log.header.get("schema") != TRACE_LOG_SCHEMA \
            or log.dropped_tail:
        raise ValueError(f"{path}: not a whole {TRACE_LOG_SCHEMA} log "
                         f"(header {log.header!r}, torn final line: "
                         f"{log.dropped_tail})")
    records = log.records
    spans = 0
    for number, record in enumerate(records, start=2):
        span = record.get("kind") == "span"
        times = [record.get("t")] + ([record.get("dur_s"),
                                      record.get("depth")] if span else [])
        if record.get("kind") not in ("span", "event") \
                or not record.get("name") \
                or not isinstance(record.get("attrs"), dict) \
                or not all(isinstance(value, (int, float)) and value >= 0
                           for value in times):
            raise ValueError(f"{path}:{number}: not a named span (t, dur_s, "
                             f"depth >= 0) or event (t >= 0) with attrs")
        spans += span
    if not spans or spans == len(records):
        raise ValueError(f"{path}: trace log needs spans and events, has "
                         f"{spans} span(s), {len(records) - spans} event(s)")
    return records, f"{spans} span(s), {len(records) - spans} event(s)"
