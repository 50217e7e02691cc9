"""Crash-safe execution runtime for long-running sweeps.

The paper's design-space study is hundreds of (config, benchmark)
simulations; this package supplies the durability layer that makes such
sweeps survivable:

* :mod:`repro.runtime.cache` — a validated on-disk trace cache (checksummed
  v2 binary format, atomic writes, corruption quarantined and regenerated);
* :mod:`repro.runtime.records` — the durable record log (header line +
  one fsync'd JSON object per line, torn-tail tolerant) every JSONL log
  shares, plus the fsync'd and atomic whole-file writers;
* :mod:`repro.runtime.checkpoint` — an append-only JSONL journal of
  completed ``(config, benchmark) -> SimulationResult`` records so a killed
  run resumes where it stopped;
* :mod:`repro.runtime.policies` — per-simulation deadline and bounded
  retry-with-backoff, attaching structured error context;
* :mod:`repro.runtime.scheduler` — work-unit decomposition, the pure
  pending/in-flight/poisoned scheduling core, and :class:`RunMetrics`
  observability records;
* :mod:`repro.runtime.parallel` — :class:`ParallelExecutor`, a
  crash-recovering ``multiprocessing`` worker pool that streams results
  back for incremental journalling;
* :mod:`repro.runtime.chaos` — deterministic, seed-driven chaos plans:
  named fault injections (cache corruption, disk-full stores, journal and
  telemetry write errors, worker crashes/hangs) scheduled by a journalled
  :class:`ChaosPlan`, so whole-run fault scenarios are replayable and
  resumable;
* :mod:`repro.runtime.faults` — the two on-disk fault primitives (file
  corruption and truncation) the chaos layer mutates artifacts with;
* :mod:`repro.runtime.verify` — end-of-run artifact manifests
  (``repro-manifest/1``: per-artifact SHA-256 + schema) and the
  ``repro verify`` cross-checks proving a run directory is internally
  consistent;
* :mod:`repro.runtime.telemetry` — the unified observability layer:
  span-based :class:`Tracer` (monotonic timing, nesting, counters), the
  structured JSONL trace log (``repro-trace-log/1``), and the per-phase
  accounting behind the ``repro-run-metrics/2`` breakdown.
"""

from ..errors import FaultInjectedError
from .cache import TraceCache
from .chaos import (
    CORE_POINTS,
    DEGRADATION_EVENTS,
    INJECTION_POINTS,
    SERVICE_POINTS,
    ChaosPlan,
    FaultSpec,
    NO_CHAOS,
    active,
    fire_once,
    install,
    uninstall,
)
from .checkpoint import CheckpointJournal, config_key
from .faults import corrupt_file, truncate_file
from .parallel import ParallelExecutor
from .policies import ExecutionPolicy, run_with_policy
from .scheduler import RunMetrics, Scheduler, WorkUnit
from .records import RecordLog
from .telemetry import PhaseStats, Tracer, read_trace_log

__all__ = [
    "CORE_POINTS",
    "ChaosPlan",
    "CheckpointJournal",
    "DEGRADATION_EVENTS",
    "ExecutionPolicy",
    "FaultInjectedError",
    "FaultSpec",
    "INJECTION_POINTS",
    "NO_CHAOS",
    "ParallelExecutor",
    "PhaseStats",
    "RunMetrics",
    "SERVICE_POINTS",
    "Scheduler",
    "TraceCache",
    "RecordLog",
    "Tracer",
    "WorkUnit",
    "active",
    "config_key",
    "corrupt_file",
    "fire_once",
    "install",
    "read_trace_log",
    "run_with_policy",
    "truncate_file",
    "uninstall",
]
