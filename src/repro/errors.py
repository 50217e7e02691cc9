"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause without
swallowing unrelated bugs.

Errors carry a structured ``context`` dict (poisoned units, attempt
budget, per-attempt errors, ...) populated by the runtime layer (the
parallel pool's poisoned-unit report, the service client's exhausted
retries) so that a failure deep inside a sweep can be reported with
enough information to retry or skip it.
"""

from __future__ import annotations

from typing import Dict


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Attributes:
        context: structured diagnostic fields attached as the error
            propagates (e.g. ``poisoned_units``, ``max_attempts``,
            ``sweep_point``).  Empty for errors raised outside the
            runtime layer.
    """

    def __init__(self, *args: object) -> None:
        super().__init__(*args)
        self.context: Dict[str, object] = {}

    def with_context(self, **fields: object) -> "ReproError":
        """Attach structured fields; returns ``self`` for re-raising."""
        self.context.update(fields)
        return self

    def __str__(self) -> str:
        base = super().__str__()
        if not self.context:
            return base
        detail = ", ".join(f"{key}={value!r}" for key, value in self.context.items())
        return f"{base} [{detail}]"


class ConfigError(ReproError, ValueError):
    """An invalid predictor, workload, or experiment configuration.

    Raised eagerly at construction time: a predictor or workload object that
    was successfully created is guaranteed to be internally consistent.
    """


class TraceError(ReproError, ValueError):
    """A malformed trace (bad event, inconsistent arrays, bad file format)."""


class IngestError(ReproError, ValueError):
    """A malformed or unusable external trace (``repro-ext-trace/1``).

    Raised by the strict NDJSON reader in :mod:`repro.ingest.schema` and
    by the adapters that produce the format.  The one-line message names
    the file, the record index, and the byte offset of the offending
    input; the same pair is carried structurally as :attr:`record` /
    :attr:`byte_offset` so quarantined ingest artifacts can embed it
    without re-parsing the message.
    """

    def __init__(self, *args: object) -> None:
        super().__init__(*args)
        self.record: int = 0
        self.byte_offset: int = 0


class StateError(ReproError, ValueError):
    """Predictor state columns that do not fit the predictor importing them.

    Also raised by ``export_state()`` when a value does not fit in an
    ``int64`` column (keys of full-precision concatenated patterns).
    """


class SimulationError(ReproError, RuntimeError):
    """A failure during trace-driven simulation."""


class FaultInjectedError(SimulationError):
    """A deliberately injected failure (retryable, like any transient).

    Raised by the chaos layer's ``error``-mode faults
    (:meth:`repro.runtime.chaos.ChaosPlan.inject`) and by test doubles
    that model raise-on-Nth-call crashes.
    """


class CheckpointError(ReproError, RuntimeError):
    """A corrupt or unusable checkpoint journal."""


class ExperimentError(ReproError, RuntimeError):
    """A failure while running or rendering a paper experiment."""


class ServiceError(ReproError, RuntimeError):
    """A failure in the prediction service (server, shard, or client).

    Client-side instances carry ``context`` fields (tenant, shard,
    attempts, elapsed) describing the exhausted retry budget.
    """


class ProtocolError(ServiceError):
    """A malformed, oversized, or unparseable service protocol frame."""
