"""Checkpointed result store: an append-only JSONL journal.

Every completed ``(config, benchmark)`` simulation is appended to the
journal as one self-contained JSON line and flushed (``flush`` +
``fsync``), so a killed ``--full`` sweep loses at most the simulation that
was in flight.  On resume the journal is replayed into the runner's memo
table and completed pairs are never re-simulated.

Configurations are keyed by :func:`config_key`, a canonical JSON encoding
of the frozen config dataclass (class name + sorted fields), which is
stable across processes — unlike ``hash()`` — and survives config-class
field additions as long as defaults are preserved.

The journal is a :mod:`~repro.runtime.records` log: a partial final
line (the signature of a crash mid-append) is tolerated, dropped, and
truncated away before the next append; corruption anywhere earlier raises
:class:`~repro.errors.CheckpointError`, since silently dropping completed
work would make a resumed sweep quietly re-run or — worse — skip pairs.

**Degradation.**  An append that fails with :class:`OSError` (disk full,
or an injected ``journal.append`` chaos fault) turns checkpointing *off*
for the rest of the run: results stay memoised in memory so the run
completes with bit-identical output, a ``checkpoint_off`` telemetry event
announces the lost durability, and the CLI's exit-code policy reports the
degradation (DESIGN.md §3.9).
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple, Union

from ..errors import CheckpointError
from ..sim.engine import SimulationResult
from .chaos import active as active_chaos
from .records import RecordError, RecordLog, read_records
from .telemetry import NULL_TRACER

PathLike = Union[str, Path]

_FORMAT = "repro-checkpoint"
_VERSION = 1


def _entry(record: dict) -> Tuple[Tuple[str, str], SimulationResult]:
    """One journalled result line -> ``((config, benchmark), result)``."""
    return ((record["config"], record["benchmark"]),
            SimulationResult.from_dict(record["result"]))


def config_key(config: object) -> str:
    """A canonical, process-stable string key for a predictor config."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        data = dataclasses.asdict(config)
    elif isinstance(config, str):
        return config
    else:
        raise CheckpointError(
            f"cannot key a {type(config).__name__}; expected a config dataclass"
        )
    payload = {"kind": type(config).__name__, "fields": data}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


class CheckpointJournal:
    """Append-only JSONL journal of completed simulation results.

    Args:
        path: journal file; created (with parents) if missing.
        resume: when ``True`` existing records are loaded and served;
            when ``False`` an existing journal is truncated and the run
            starts fresh.
    """

    def __init__(self, path: PathLike, resume: bool = True) -> None:
        self.path = Path(path)
        self._entries: Dict[Tuple[str, str], SimulationResult] = {}
        self.tracer = NULL_TRACER
        #: ``True`` once an append failed: checkpointing is off for the
        #: rest of the run (results stay memoised in memory only).
        self.disabled = False
        self.dropped_partial = False
        committed = 0
        if resume and self.path.exists():
            committed = self._load()
        self._log = RecordLog(self.path, committed=committed)
        if not committed:  # through _append: a header fault degrades too
            self._append({"format": _FORMAT, "version": _VERSION})

    # -- reading ------------------------------------------------------------

    def _load(self) -> int:
        """Replay an existing journal; returns its committed byte count.

        ``0`` (no committed header: empty, or killed mid-header) means
        start fresh.
        """
        try:
            journal = read_records(self.path, parse=_entry)
        except RecordError as exc:
            raise CheckpointError(str(exc)) from None
        self.dropped_partial = journal.dropped_tail
        header = journal.header
        if header is None:
            return 0
        if header.get("format") != _FORMAT:
            raise CheckpointError(
                f"{self.path}: not a checkpoint journal (header {header!r})"
            )
        if header.get("version") != _VERSION:
            raise CheckpointError(
                f"{self.path}: unsupported journal version "
                f"{header.get('version')!r}"
            )
        self._entries.update(journal.records)
        return journal.committed

    def attach_tracer(self, tracer: object) -> None:
        """Adopt the run's tracer; announces the replayed journal state."""
        self.tracer = tracer
        tracer.event(
            "journal_replay",
            path=str(self.path),
            entries=len(self._entries),
            dropped_partial=self.dropped_partial,
        )
        if self.disabled:
            # The header append already failed (e.g. the disk filled
            # before the run started): re-announce on the run's tracer so
            # the degradation reaches the metrics record.
            tracer.event("checkpoint_off", path=str(self.path),
                         reason="journal unwritable at open")

    def get(self, config: object, benchmark: str) -> Optional[SimulationResult]:
        """The journalled result for one pair, or ``None``."""
        return self._entries.get((config_key(config), benchmark))

    def __contains__(self, pair: Tuple[object, str]) -> bool:
        config, benchmark = pair
        return (config_key(config), benchmark) in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[Tuple[str, str], SimulationResult]]:
        return iter(self._entries.items())

    # -- writing ------------------------------------------------------------

    def _append(self, record: dict) -> None:
        """Write one fsync'd journal line; degrades to checkpoint-off.

        On :class:`OSError` — a full disk or an injected
        ``journal.append`` fault — the journal is disabled rather than
        crashing the run: losing *durability* is recoverable (the sweep
        re-runs on the next resume), losing the *run* is not.
        """
        if self.disabled:
            return
        try:
            active_chaos().inject("journal.append",
                                  label=str(record.get("benchmark", "")))
            self._log.write(record)
        except OSError as exc:
            self.disabled = True
            try:
                self._log.close()
            except OSError:  # pragma: no cover - double-fault close
                pass
            self.tracer.event("checkpoint_off", path=str(self.path),
                              reason=str(exc))

    def record(self, config: object, benchmark: str,
               result: SimulationResult) -> None:
        """Journal one completed simulation (idempotent per pair)."""
        key = (config_key(config), benchmark)
        if key in self._entries:
            return
        self._entries[key] = result
        with self.tracer.span("journal", benchmark=benchmark):
            self._append({
                "config": key[0],
                "benchmark": benchmark,
                "label": getattr(config, "label", str(config)),
                "result": result.to_dict(),
            })

    def close(self) -> None:
        self._log.close()

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckpointJournal({str(self.path)!r}, entries={len(self)})"
