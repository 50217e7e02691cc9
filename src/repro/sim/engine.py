"""Trace-driven simulation: run a predictor over a trace, count misses.

The methodology matches the paper: every indirect branch is predicted at
fetch and the predictor is updated with the resolved target; a branch for
which the predictor has no prediction counts as mispredicted; cold-start
misses are included (traces start with empty predictors).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.base import IndirectBranchPredictor, default_run_trace
from ..errors import SimulationError
from ..workloads.trace import Trace


@dataclass(frozen=True)
class SimulationResult:
    """Outcome of simulating one predictor over one trace."""

    benchmark: str
    predictor: str
    events: int
    mispredictions: int

    def __post_init__(self) -> None:
        if self.events < 0 or not 0 <= self.mispredictions <= max(self.events, 0):
            raise SimulationError(
                f"inconsistent result: {self.mispredictions} misses in "
                f"{self.events} events"
            )

    def to_dict(self) -> dict:
        """JSON-ready form, used by the checkpoint journal."""
        return {
            "benchmark": self.benchmark,
            "predictor": self.predictor,
            "events": self.events,
            "mispredictions": self.mispredictions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result journalled by :meth:`to_dict` (validating)."""
        return cls(
            benchmark=data["benchmark"],
            predictor=data["predictor"],
            events=int(data["events"]),
            mispredictions=int(data["mispredictions"]),
        )

    @property
    def misprediction_rate(self) -> float:
        """Misprediction percentage (0..100), the paper's reported metric."""
        if self.events == 0:
            return 0.0
        return 100.0 * self.mispredictions / self.events

    @property
    def hit_rate(self) -> float:
        """Prediction hit percentage (0..100).

        Complements :attr:`misprediction_rate` exactly: the two always
        sum to 100, including on an empty trace (zero events means zero
        mispredictions, so the hit rate is vacuously perfect).
        """
        return 100.0 - self.misprediction_rate

    def __str__(self) -> str:
        return (
            f"{self.benchmark}/{self.predictor}: "
            f"{self.misprediction_rate:.2f}% misses "
            f"({self.mispredictions}/{self.events})"
        )


#: ``kernel="auto"`` sweeps run the batch kernel only on traces at least
#: this long and the per-event loop below it.  On short traces the
#: kernel's fixed numpy cost per call eats its gain (a BTB runs 0.46x on
#: a 500-event gcc prefix; at 2,000 events every table class is
#: 1.2-6.5x faster, at 4,096 1.7-10x), and a run whose traces are all
#: short never imports numpy (~14 MB of RSS per process).
AUTO_MIN_EVENTS = 4096

#: Why the length rule kept an ``auto`` run on the per-event loop.
SHORT_TRACE_REASON = f"trace shorter than {AUTO_MIN_EVENTS} events"


def resolve_kernel(
    predictor: IndirectBranchPredictor,
    kernel: str = "event",
    reset: bool = True,
    attribution: Optional[object] = None,
) -> tuple:
    """Resolve a ``kernel`` request to ``("event" | "batch", reason)``.

    ``reason`` explains why the batch kernel was not used (``None`` when
    it was).  ``kernel="auto"`` silently falls back to the per-event
    oracle; ``kernel="batch"`` raises :class:`SimulationError` instead.
    """
    if kernel not in ("event", "batch", "auto"):
        raise SimulationError(
            f"unknown kernel {kernel!r} (choose event, batch, or auto)"
        )
    if kernel == "event":
        return "event", None
    reason: Optional[str] = None
    config = getattr(predictor, "config", None)
    if attribution is not None:
        reason = "misprediction attribution requires the per-event engine"
    elif not reset:
        reason = "reset=False chains predictor state the batch kernel does not carry"
    elif config is None:
        reason = f"{type(predictor).__name__} carries no config to batch-simulate"
    else:
        try:
            from .kernel import unsupported_reason
        except ImportError as exc:  # numpy unavailable
            reason = f"batch kernel unavailable: {exc}"
        else:
            reason = unsupported_reason(config)
    if reason is None:
        return "batch", None
    if kernel == "batch":
        raise SimulationError(f"batch kernel cannot run this simulation: {reason}")
    return "event", reason


def sweep_kernel(
    predictor: IndirectBranchPredictor,
    events: int,
    kernel: str = "auto",
    attribution: Optional[object] = None,
) -> tuple:
    """The kernel a sweep runs ``predictor`` on over an ``events``-long trace.

    Applies the :data:`AUTO_MIN_EVENTS` length rule to ``kernel="auto"``,
    then :func:`resolve_kernel`; returns ``(chosen, reason)`` the same
    way.  Sweeps pass ``chosen`` to :func:`simulate`, so the kernel named
    in every ``simulate`` call is the one that runs.
    """
    if kernel == "auto" and events < AUTO_MIN_EVENTS:
        return "event", SHORT_TRACE_REASON
    return resolve_kernel(predictor, kernel=kernel, attribution=attribution)


def simulate(
    predictor: IndirectBranchPredictor,
    trace: Trace,
    reset: bool = True,
    label: Optional[str] = None,
    tracer: Optional[object] = None,
    attribution: Optional[object] = None,
    kernel: str = "event",
) -> SimulationResult:
    """Run ``predictor`` over ``trace`` and return the misprediction result.

    Args:
        predictor: any object implementing the predictor protocol.
        reset: clear predictor state first (set ``False`` to chain traces,
            e.g. for context-switch studies).
        label: predictor name recorded in the result; defaults to the
            config label when available.
        tracer: optional :class:`~repro.runtime.telemetry.Tracer`; when
            given, the predictor run is timed as one ``simulate`` span
            (the run's per-phase breakdown and ``--trace-log`` feed).
        attribution: optional
            :class:`~repro.sim.attribution.AttributionCollector`; when
            given, the run executes the instrumented classifying loop
            instead of the fast path and deposits a per-cause/per-site
            attribution record with the collector.  The returned miss
            count comes from the same instrumented run (it matches the
            fast path exactly); ``None`` keeps the fast path untouched.
        kernel: ``"event"`` (default) runs the per-event oracle loop;
            ``"batch"`` runs the vectorized column kernel
            (:mod:`repro.sim.kernel`) and raises :class:`SimulationError`
            for configurations or modes it cannot simulate exactly;
            ``"auto"`` prefers batch and silently falls back to the
            oracle (attribution runs, ``reset=False`` chaining,
            unsupported configs, or a missing numpy).  Sweeps choose
            through :func:`sweep_kernel`, which also keeps traces
            shorter than :data:`AUTO_MIN_EVENTS` on the oracle.  The batch kernel
            rebuilds predictor state from the config and leaves the
            ``predictor`` instance untouched; miss counts are bit-exact
            against the oracle.
    """
    if label is None:
        config = getattr(predictor, "config", None)
        label = getattr(config, "label", type(predictor).__name__)
    chosen, _ = resolve_kernel(
        predictor, kernel=kernel, reset=reset, attribution=attribution
    )
    if reset:
        predictor.reset()

    # The one choke point every simulation crosses (serial runner,
    # parallel workers, direct calls): the chaos plan's "simulate"
    # injection point fires here.  Lazy import keeps the
    # engine<->runtime import order acyclic.
    from ..runtime.chaos import active as _active_chaos

    _active_chaos().inject("simulate", label=f"{label}/{trace.name}")

    def run_events() -> int:
        if chosen == "batch":
            from .kernel import batch_run_trace

            return batch_run_trace(predictor.config, trace.pcs, trace.targets)
        if attribution is not None:
            from .attribution import InstrumentedRun

            record = InstrumentedRun(predictor).run(trace, label=str(label))
            attribution.add(record)
            return record.mispredictions
        run = getattr(predictor, "run_trace", None)
        if run is not None:
            return run(trace.pcs, trace.targets)
        # pragma: no cover - all built-in predictors define run_trace
        return default_run_trace(predictor, trace.pcs, trace.targets)

    if tracer is not None:
        span = tracer.span("simulate", benchmark=trace.name,
                           predictor=str(label), events=len(trace))
        if attribution is not None:
            span.annotate(attribution=True)
        if chosen != "event":
            span.annotate(kernel=chosen)
        with span:
            misses = run_events()
    else:
        misses = run_events()
    return SimulationResult(
        benchmark=trace.name,
        predictor=label,
        events=len(trace),
        mispredictions=misses,
    )
