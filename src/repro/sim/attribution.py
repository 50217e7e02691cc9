"""Misprediction attribution: why did this predictor miss?

``run_trace`` returns a single miss count; this module re-runs the same
simulation with bookkeeping attached and classifies **every** miss of any
predictor (BTB, two-level, hybrid) into one cause:

``cold``
    the predictor had no entry for the lookup key and the key was never
    evicted — a compulsory first-touch miss;
``capacity``
    the entry that would have predicted was evicted by global LRU in a
    fully-associative table (§5.1's capacity misses);
``conflict``
    the entry was displaced by a *different* key — per-set LRU eviction in
    a set-associative table, or an aliased slot owned by another key in a
    tagless table (§5.2's interference);
``training``
    the entry was present under the right key but held a stale target —
    the branch switched targets faster than the update rule tracked it;
``metapredictor``
    a hybrid miss where some component table *did* hold the correct
    target but arbitration followed a component that was wrong (§6);
``unknown``
    fallback for third-party predictors that expose no tables.

Alongside the per-cause totals the instrumented run aggregates per-site
statistics (executions, misses, target arity, per-cause counts for the
hot-miss top-K), samples table occupancy/utilization over time, counts a
tagless table's *positive interference* hits (alien entry, right target),
and — for hybrids — builds a component confusion matrix of which
component was followed vs which held the correct target.

The instrumentation is strictly opt-in.  The classifying loops replicate
each predictor's ``run_trace`` fast path operation-for-operation (same
key construction, same arbitration tie-breaks, same commit order), so the
attributed miss total equals the fast path's count exactly; the fast
paths themselves are untouched when attribution is off (the only hook is
the tables' ``observer``, checked on commit's write branches only).

Results serialize as ``repro-attribution/1`` JSONL artifacts through the
same machinery as ``--trace-log`` (header line + one record per
predictor/benchmark pair + a trailing summary), surfaced via
``--attribution FILE`` on the CLI and rendered by
``tools/attribution_report.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..core.btb import BranchTargetBuffer
from ..core.factory import build_predictor
from ..core.hybrid import HybridPredictor
from ..core.tables import (
    BasePredictionTable,
    FullyAssociativeTable,
    SetAssociativeTable,
    TaglessTable,
    UnconstrainedTable,
)
from ..core.twolevel import TwoLevelPredictor
from ..errors import SimulationError
from ..runtime.records import PathLike, RecordLog, read_records
from ..runtime.telemetry import read_trace_log
from ..workloads.trace import Trace

#: Schema identifier of the attribution artifact (JSONL header line).
ATTRIBUTION_SCHEMA = "repro-attribution/1"

#: Miss causes, in reporting order.  ``unknown`` only ever appears for
#: predictors outside the built-in families (no table introspection).
CAUSES = ("cold", "capacity", "conflict", "training", "metapredictor", "unknown")

#: Hot-site truncation applied when a record is serialized.  One constant
#: shared by the serial and parallel paths so artifacts stay bit-identical.
DEFAULT_TOP_SITES = 20

#: Number of evenly-spaced occupancy samples taken over a trace.
OCCUPANCY_SAMPLES = 32


class SiteStats:
    """Per-branch-site accumulator (one PC)."""

    __slots__ = ("pc", "executions", "misses", "targets", "causes")

    def __init__(self, pc: int) -> None:
        self.pc = pc
        self.executions = 0
        self.misses = 0
        self.targets: set = set()
        self.causes: Dict[str, int] = {}

    def miss(self, cause: str) -> None:
        self.misses += 1
        self.causes[cause] = self.causes.get(cause, 0) + 1

    def to_dict(self) -> dict:
        return {
            "pc": self.pc,
            "executions": self.executions,
            "misses": self.misses,
            "targets": len(self.targets),
            "causes": dict(self.causes),
        }


def _organization(table: BasePredictionTable) -> str:
    if isinstance(table, UnconstrainedTable):
        return "unconstrained"
    if isinstance(table, FullyAssociativeTable):
        return "full"
    if isinstance(table, TaglessTable):
        return "tagless"
    if isinstance(table, SetAssociativeTable):
        return f"{table.associativity}-way"
    return type(table).__name__  # pragma: no cover - future organisations


class _TableMonitor:
    """Observer attached to one prediction table for the run's duration.

    Receives the ``evicted``/``wrote`` callbacks documented in
    :mod:`repro.core.tables`, remembers *why* each key lost its entry, and
    (for tagless tables) which key currently owns each slot — the state
    :meth:`classify_miss` consults to name a miss's cause.
    """

    def __init__(self, table: BasePredictionTable) -> None:
        self.table = table
        self.is_tagless = isinstance(table, TaglessTable)
        self.index_mask = table.num_entries - 1 if self.is_tagless else 0
        self.evictions: Dict[int, str] = {}
        self.owners: Dict[int, int] = {}
        self.eviction_counts: Dict[str, int] = {}
        self.positive_interference = 0
        self.occupancy: List[dict] = []
        table.observer = self

    # -- observer callbacks (called from the tables' commit) --------------

    def evicted(self, key: int, cause: str) -> None:
        self.evictions[key] = cause
        self.eviction_counts[cause] = self.eviction_counts.get(cause, 0) + 1

    def wrote(self, index: int, key: int) -> None:
        self.owners[index] = key

    # -- classification ----------------------------------------------------

    def classify_miss(self, key: int, entry: Optional[object]) -> str:
        """Cause of a miss observed at probe time, before the commit."""
        if entry is None:
            return self.evictions.get(key, "cold")
        if self.is_tagless and self.owners.get(key & self.index_mask) != key:
            return "conflict"
        return "training"

    def note_hit(self, key: int, entry: object) -> None:
        """A correct prediction — count tagless positive interference."""
        if self.is_tagless and self.owners.get(key & self.index_mask) != key:
            self.positive_interference += 1

    def note_commit(self, key: int) -> None:
        """The key was just committed; any old eviction record is stale."""
        if self.evictions:
            self.evictions.pop(key, None)

    def sample(self, event_index: int) -> None:
        table = self.table
        entries = len(table)
        capacity = table.capacity
        self.occupancy.append({
            "event": event_index,
            "entries": entries,
            "utilization": (
                round(entries / capacity, 6) if capacity else None
            ),
        })

    def detach(self) -> None:
        self.table.observer = None

    def to_dict(self) -> dict:
        table = self.table
        entries = len(table)
        capacity = table.capacity
        return {
            "organization": _organization(table),
            "capacity": capacity,
            "entries": entries,
            "utilization": round(entries / capacity, 6) if capacity else None,
            "evictions": dict(self.eviction_counts),
            "positive_interference": self.positive_interference,
            "occupancy": list(self.occupancy),
        }


class AttributionResult:
    """Everything the instrumented run learned about one (predictor, trace).

    ``sites`` preserves first-occurrence order (used by
    :func:`repro.analysis.breakdown.per_site_breakdown` to keep its
    historical ordering); serialization truncates to the hot-miss top-K.
    """

    def __init__(self, benchmark: str, predictor: str, events: int) -> None:
        self.benchmark = benchmark
        self.predictor = predictor
        self.events = events
        self.mispredictions = 0
        self.causes: Dict[str, int] = {}
        self.sites: Dict[int, SiteStats] = {}
        self.tables: List[dict] = []
        self.confusion: Dict[str, Dict[str, int]] = {}

    def site(self, pc: int) -> SiteStats:
        stats = self.sites.get(pc)
        if stats is None:
            stats = self.sites[pc] = SiteStats(pc)
        return stats

    def miss(self, pc: int, cause: str) -> None:
        self.mispredictions += 1
        self.causes[cause] = self.causes.get(cause, 0) + 1
        self.sites[pc].miss(cause)

    def confuse(self, row: str, col: str) -> None:
        cells = self.confusion.setdefault(row, {})
        cells[col] = cells.get(col, 0) + 1

    @property
    def misprediction_rate(self) -> float:
        return 100.0 * self.mispredictions / self.events if self.events else 0.0

    def to_dict(self, top: int = DEFAULT_TOP_SITES) -> dict:
        """JSON-ready record (hot sites truncated to ``top``)."""
        hot = sorted(
            self.sites.values(), key=lambda s: (-s.misses, s.pc)
        )[:top]
        return {
            "kind": "record",
            "benchmark": self.benchmark,
            "predictor": self.predictor,
            "events": self.events,
            "mispredictions": self.mispredictions,
            "causes": {cause: self.causes.get(cause, 0) for cause in CAUSES},
            "sites": [stats.to_dict() for stats in hot],
            "site_count": len(self.sites),
            "tables": list(self.tables),
            "confusion": {
                row: dict(cells) for row, cells in sorted(self.confusion.items())
            },
        }


class InstrumentedRun:
    """Opt-in instrumented simulation of one predictor over one trace.

    Dispatches on the predictor family to a classifying loop that mirrors
    the family's ``run_trace`` fast path exactly; unrecognized predictors
    fall back to the generic ``predict``/``update`` protocol with every
    miss attributed ``unknown``.
    """

    def __init__(
        self,
        predictor: object,
        occupancy_samples: int = OCCUPANCY_SAMPLES,
    ) -> None:
        if occupancy_samples < 1:
            raise SimulationError(
                f"occupancy_samples must be >= 1, got {occupancy_samples}"
            )
        self.predictor = predictor
        self.occupancy_samples = occupancy_samples

    def run(self, trace: Trace, label: Optional[str] = None) -> AttributionResult:
        if label is None:
            config = getattr(self.predictor, "config", None)
            label = getattr(config, "label", type(self.predictor).__name__)
        result = AttributionResult(trace.name, str(label), len(trace))
        predictor = self.predictor
        if isinstance(predictor, HybridPredictor):
            self._run_hybrid(predictor, trace, result)
        elif isinstance(predictor, TwoLevelPredictor):
            self._run_two_level(predictor, trace, result)
        elif isinstance(predictor, BranchTargetBuffer):
            self._run_btb(predictor, trace, result)
        else:
            self._run_generic(predictor, trace, result)
        return result

    # -- shared helpers ----------------------------------------------------

    def _sample_interval(self, events: int) -> int:
        return max(1, events // self.occupancy_samples) if events else 0

    # -- per-family classifying loops --------------------------------------

    def _run_two_level(
        self, predictor: TwoLevelPredictor, trace: Trace, result: AttributionResult
    ) -> None:
        monitor = _TableMonitor(predictor.table)
        try:
            pattern_for = predictor.history.pattern_for
            record = predictor.history.record
            build_key = predictor.keys.key
            probe = predictor.table.probe
            commit = predictor.table.commit
            interval = self._sample_interval(result.events)
            taken = 0
            for index, (pc, target) in enumerate(zip(trace.pcs, trace.targets)):
                key = build_key(pc, pattern_for(pc))
                entry = probe(key)
                site = result.site(pc)
                site.executions += 1
                site.targets.add(target)
                if entry is None or entry.target != target:
                    result.miss(pc, monitor.classify_miss(key, entry))
                else:
                    monitor.note_hit(key, entry)
                commit(key, target)
                monitor.note_commit(key)
                record(pc, target)
                if (interval and (index + 1) % interval == 0
                        and taken < self.occupancy_samples):
                    monitor.sample(index + 1)
                    taken += 1
        finally:
            monitor.detach()
        result.tables.append(monitor.to_dict())

    def _run_btb(
        self, predictor: BranchTargetBuffer, trace: Trace, result: AttributionResult
    ) -> None:
        monitor = _TableMonitor(predictor.table)
        try:
            probe = predictor.table.probe
            commit = predictor.table.commit
            interval = self._sample_interval(result.events)
            taken = 0
            for index, (pc, target) in enumerate(zip(trace.pcs, trace.targets)):
                key = pc >> 2
                entry = probe(key)
                site = result.site(pc)
                site.executions += 1
                site.targets.add(target)
                if entry is None or entry.target != target:
                    result.miss(pc, monitor.classify_miss(key, entry))
                else:
                    monitor.note_hit(key, entry)
                commit(key, target)
                monitor.note_commit(key)
                if (interval and (index + 1) % interval == 0
                        and taken < self.occupancy_samples):
                    monitor.sample(index + 1)
                    taken += 1
        finally:
            monitor.detach()
        result.tables.append(monitor.to_dict())

    def _run_hybrid(
        self, predictor: HybridPredictor, trace: Trace, result: AttributionResult
    ) -> None:
        components = predictor.components
        monitors = [_TableMonitor(component.table) for component in components]
        try:
            count = len(components)
            key_fns = [component.key_for for component in components]
            probes = [component.table.probe for component in components]
            commits = [component.table.commit for component in components]
            records = [component.history.record for component in components]
            select = predictor.select_component
            train = predictor.train_selector
            interval = self._sample_interval(result.events)
            taken = 0
            for index, (pc, target) in enumerate(zip(trace.pcs, trace.targets)):
                keys = [key_fns[i](pc) for i in range(count)]
                entries = [probes[i](keys[i]) for i in range(count)]
                chosen, predicted = select(pc, entries)
                correct = [
                    i for i in range(count)
                    if entries[i] is not None and entries[i].target == target
                ]
                result.confuse(
                    "none" if chosen is None else str(chosen),
                    ",".join(str(i) for i in correct) if correct else "none",
                )
                site = result.site(pc)
                site.executions += 1
                site.targets.add(target)
                if predicted != target:
                    if correct:
                        cause = "metapredictor"
                    else:
                        ref = chosen if chosen is not None else 0
                        cause = monitors[ref].classify_miss(keys[ref], entries[ref])
                    result.miss(pc, cause)
                elif chosen is not None:
                    monitors[chosen].note_hit(keys[chosen], entries[chosen])
                # BPST training reads the pre-commit entries, exactly as
                # the fast loop records before committing.
                train(pc, entries, target)
                for i in range(count):
                    commits[i](keys[i], target)
                    monitors[i].note_commit(keys[i])
                    records[i](pc, target)
                if (interval and (index + 1) % interval == 0
                        and taken < self.occupancy_samples):
                    for monitor in monitors:
                        monitor.sample(index + 1)
                    taken += 1
        finally:
            for monitor in monitors:
                monitor.detach()
        result.tables.extend(monitor.to_dict() for monitor in monitors)

    def _run_generic(
        self, predictor: object, trace: Trace, result: AttributionResult
    ) -> None:
        predict = predictor.predict
        update = predictor.update
        for pc, target in zip(trace.pcs, trace.targets):
            site = result.site(pc)
            site.executions += 1
            site.targets.add(target)
            if predict(pc) != target:
                result.miss(pc, "unknown")
            update(pc, target)


def attribute(
    config_or_predictor: object,
    trace: Trace,
    reset: bool = True,
    label: Optional[str] = None,
    occupancy_samples: int = OCCUPANCY_SAMPLES,
) -> AttributionResult:
    """Run an instrumented simulation and return its attribution result.

    Accepts a predictor instance or any config accepted by
    :func:`repro.core.factory.build_predictor`.
    """
    if hasattr(config_or_predictor, "predict"):
        predictor = config_or_predictor
    else:
        predictor = build_predictor(config_or_predictor)  # type: ignore[arg-type]
    if reset:
        predictor.reset()
    return InstrumentedRun(predictor, occupancy_samples).run(trace, label=label)


class AttributionCollector:
    """Accumulates attribution records and writes the JSONL artifact.

    One record per (predictor, benchmark) pair; adding the same pair again
    replaces the record (checkpoint-resume re-runs).  Records normalize
    through :meth:`AttributionResult.to_dict` on entry — the parallel
    workers ship exactly that dict over the result pipe — and
    :meth:`write` emits them sorted by (predictor, benchmark), so serial
    and parallel runs produce bit-identical artifacts.
    """

    def __init__(self, top_sites: int = DEFAULT_TOP_SITES) -> None:
        self.top_sites = top_sites
        self._records: Dict[Tuple[str, str], dict] = {}

    def add(self, result: AttributionResult) -> None:
        self.add_dict(result.to_dict(top=self.top_sites))

    def add_dict(self, record: dict) -> None:
        if record.get("kind") != "record":
            raise SimulationError(
                f"not an attribution record: {record.get('kind')!r}"
            )
        self._records[(record["predictor"], record["benchmark"])] = record

    def records(self) -> List[dict]:
        return [self._records[key] for key in sorted(self._records)]

    def __len__(self) -> int:
        return len(self._records)

    def summary(self) -> dict:
        """Aggregate totals across all collected records."""
        records = self.records()
        causes = {cause: 0 for cause in CAUSES}
        events = 0
        mispredictions = 0
        for record in records:
            events += record["events"]
            mispredictions += record["mispredictions"]
            for cause, count in record["causes"].items():
                causes[cause] = causes.get(cause, 0) + count
        return {
            "kind": "summary",
            "records": len(records),
            "events": events,
            "mispredictions": mispredictions,
            "causes": causes,
        }

    def write(self, path: PathLike) -> None:
        """Write the ``repro-attribution/1`` artifact (records + summary)."""
        # No pid in the header: serial and parallel runs write equal bytes.
        with RecordLog(path, {"schema": ATTRIBUTION_SCHEMA}) as writer:
            for record in self.records():
                writer.write(record)
            writer.write(self.summary())


#: Key set of every serialized ``record`` line.
RECORD_KEYS = frozenset({
    "kind", "benchmark", "predictor", "events", "mispredictions", "causes",
    "sites", "site_count", "tables", "confusion",
})


def read_attribution(path: PathLike) -> List[dict]:
    """Parse an attribution artifact; validates the schema header."""
    return read_trace_log(path, schema=ATTRIBUTION_SCHEMA)


def validate_attribution(path: PathLike) -> Tuple[List[dict], str]:
    """Registry validator of ``repro-attribution/1`` (see ``repro verify``).

    The artifact is written whole, so a torn line fails, and its header
    names no pid (serial and parallel runs write equal bytes).  The exactness
    invariant holds per record, per hot site and in the one trailing
    summary: cause counts sum to the misprediction total.
    """
    log = read_records(path)
    if log.header != {"schema": ATTRIBUTION_SCHEMA} or log.dropped_tail:
        raise ValueError(f"{path}: not a whole {ATTRIBUTION_SCHEMA} artifact "
                         f"(header {log.header!r}, torn final line: "
                         f"{log.dropped_tail})")
    lines = log.records
    totals = AttributionCollector()
    summaries = []
    for number, record in enumerate(lines, start=2):
        where = f"{path}:{number}"
        if record.get("kind") == "summary":
            summaries.append(record)
            if record != totals.summary():
                raise ValueError(f"{where}: summary does not total the "
                                 f"{len(totals)} record(s) before it")
            continue
        try:
            _check_record(record)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"{where}: malformed record ({exc!r})") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
        totals.add_dict(record)
    if not len(totals) or len(summaries) != 1 or lines[-1] is not summaries[0]:
        raise ValueError(f"{path}: {len(totals)} record(s) and "
                         f"{len(summaries)} summary line(s); want records, "
                         f"then one summary")
    return lines, (f"{len(totals)} record(s), "
                   f"{summaries[0]['mispredictions']} miss(es) attributed")


def _check_record(record: dict) -> None:
    """One ``record`` line's shape, ranges and cause sums."""
    if record["kind"] != "record" or set(record) != RECORD_KEYS \
            or set(record["causes"]) != set(CAUSES):
        raise ValueError(f"record keys {sorted(record)} or causes "
                         f"{sorted(record['causes'])}")
    cause_sum = sum(record["causes"].values())
    if cause_sum != record["mispredictions"]:
        raise ValueError(f"causes sum to {cause_sum}, record says "
                         f"{record['mispredictions']}")
    if not 0 <= record["mispredictions"] <= record["events"] \
            or len(record["sites"]) > record["site_count"]:
        raise ValueError("counts out of range")
    for site in record["sites"]:
        if sum(site["causes"].values()) != site["misses"] \
                or not set(site["causes"]) <= set(CAUSES) \
                or not 0 <= site["misses"] <= site["executions"]:
            raise ValueError(f"site {site['pc']:#x} causes do not sum to "
                             f"its {site['misses']} misses")
    for table in record["tables"]:
        capacity = table["capacity"]
        if table["entries"] < 0 or (capacity is not None
                                    and table["entries"] > capacity):
            raise ValueError(f"table holds {table['entries']} entries of "
                             f"{capacity}")
