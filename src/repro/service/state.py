"""Per-tenant predictor state, the shard journal, and LRU residency.

The serving contract rests on one fact about the paper's predictors:
their state is a pure function of the applied ``(pc, target)`` event
stream.  Everything here exploits that.

* :class:`TenantMeta` — the tiny always-resident record per tenant:
  cumulative counters, the last accepted batch id (the idempotency
  watermark), and a *chained* SHA-256 over the accepted stream.  Its
  :meth:`~TenantMeta.digest` is the tenant's state fingerprint: an
  offline replay of the same accepted batches produces the same digest,
  which is how ``repro verify`` proves a served tenant bit-identical to
  one rebuilt from the journal.  The chain link serializes into the
  ``repro-shard-snapshot/1`` checkpoint, so the fingerprint survives a
  crash and resumes over the journal tail.

* :class:`TenantState` — the heavy, *evictable* part: the live predictor
  plus the accepted stream columns needed to rebuild it.

* :class:`ShardJournal` — an fsync'd JSONL journal of accepted batches,
  one per shard.  Batches are journalled **before** they are applied, so
  a shard SIGKILLed mid-batch either never journalled the batch (the
  server requeues it; the respawned shard applies it fresh) or did (the
  respawned shard's replay makes the retry a duplicate).  Either way the
  batch is applied exactly once.  A journal whose appends start failing
  flips to ``disabled`` and the shard sheds instead of accepting work it
  could not re-prove — availability is sacrificed before auditability.

* :class:`TenantStore` — bounded residency: at most ``max_resident``
  tenants keep live predictors; the least recently used is parked in the
  run's :class:`~repro.runtime.cache.TraceCache` as an ordinary trace
  whose CRC'd metadata also carries the predictor's exported table state
  (:mod:`repro.core.columns`), bound to the tenant's ``(events, misses,
  digest)``.  Its next batch reloads it by *importing* that state —
  O(table size), not O(history).  When the binding does not match the
  live counters, or there is no usable state (a corrupt file, a tenant
  adopted cold after a crash, the journal fallback), the tenant is
  rebuilt by replay instead, audited against its counters.
"""

from __future__ import annotations

import hashlib
import json
import re
import struct
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import (
    Callable, Dict, List, Optional, Sequence, Tuple, Union,
)

from ..core.columns import Columns, decode_columns, encode_columns
from ..core.factory import predictor_from_spec
from ..errors import ServiceError, StateError
from ..runtime.cache import TraceCache
from ..runtime.chaos import active as active_chaos
from ..runtime.records import (
    RecordError, RecordFile, RecordLog, encode_record, read_records,
    synced_file,
)
from ..runtime.telemetry import NULL_TRACER
from ..workloads.trace import Trace, TraceMetadata

try:  # optional: only used to widen checkpoint columns quickly
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

PathLike = Union[str, Path]


def _widened(values: Sequence[int]) -> array:
    """``array("L")`` copy of a stream column without a per-int loop.

    Checkpoint columns arrive as ``array("I")``; recovery adopts whole
    tenants at once, so the elementwise widening is worth vectorizing.
    """
    if _np is not None and isinstance(values, array) \
            and values.typecode == "I":
        wide = array("L")
        wide.frombytes(
            _np.frombuffer(values, dtype=_np.uint32)
            .astype(_np.uint64).tobytes())
        return wide
    return array("L", values)

#: JSON schema identifier of a shard's accepted-batch journal.
JOURNAL_SCHEMA = "repro-service-journal/1"

#: JSON schema identifier of the shed journal (sheds.jsonl).
SHEDS_SCHEMA = "repro-service-sheds/1"

#: JSON schema identifier of the final per-tenant state snapshot.
TENANTS_SCHEMA = "repro-service-tenants/1"

#: JSON schema identifier of the serving metrics artifact.
SERVICE_METRICS_SCHEMA = "repro-service-metrics/1"

#: JSON schema identifier of the live metrics stream (metrics-stream.jsonl).
METRICS_STREAM_SCHEMA = "repro-service-metrics-stream/1"

#: Tenant names double as cache keys and journal fields; keep them tame.
TENANT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

_COUNTERS = struct.Struct("<QQQ")
_BATCH_HEAD = struct.Struct("<QI")

#: Genesis value of the per-tenant digest chain (see :class:`TenantMeta`).
CHAIN_GENESIS = b"\x00" * 32


def valid_tenant(name: object) -> bool:
    """Whether ``name`` is a usable tenant identifier."""
    return isinstance(name, str) and bool(TENANT_NAME.match(name))


class TenantMeta:
    """Always-resident tenant record: counters + chained stream hash.

    Survives eviction (it is small), so a tenant parked in the trace
    cache still answers duplicate checks and digest queries without
    being rebuilt.

    The stream hash is a SHA-256 *chain* rather than one running
    context: ``chain_{n+1} = sha256(chain_n || header || pcs ||
    targets)`` with :data:`CHAIN_GENESIS` at the root.  A chain link is
    32 opaque bytes, so — unlike an in-flight ``hashlib`` context — the
    whole hash state serializes into a checkpoint and resumes after a
    crash, which is what makes ``repro-shard-snapshot/1`` possible.
    ``bounds`` records the ``(bid, events)`` boundary of every accepted
    batch so a checkpoint can re-synthesize the exact journal records it
    compacted away.
    """

    __slots__ = ("seq", "events", "misses", "last_bid", "bounds", "_chain")

    def __init__(self) -> None:
        self.seq = 0          # accepted batches
        self.events = 0       # accepted events
        self.misses = 0       # mispredictions across the accepted stream
        self.last_bid = 0     # idempotency watermark (bids are >= 1)
        self.bounds: List[Tuple[int, int]] = []  # (bid, events) per batch
        self._chain = CHAIN_GENESIS

    def absorb(self, bid: int, pcs: Sequence[int], targets: Sequence[int],
               misses: int) -> None:
        """Fold one applied batch into the counters and the hash chain."""
        step = hashlib.sha256(self._chain)
        step.update(_BATCH_HEAD.pack(bid, len(pcs)))
        step.update(array("I", pcs).tobytes())
        step.update(array("I", targets).tobytes())
        self._chain = step.digest()
        self.bounds.append((bid, len(pcs)))
        self.seq += 1
        self.events += len(pcs)
        self.misses += misses
        self.last_bid = bid

    def digest(self) -> str:
        """The tenant's state fingerprint (chained stream hash + counters).

        Covers the accepted stream bytes, the batch boundaries, *and* the
        cumulative misprediction count — i.e. both what was applied and
        how the predictor behaved on it.  Replaying the journalled
        batches in order through a fresh predictor reproduces it exactly.
        """
        closing = hashlib.sha256(self._chain)
        closing.update(_COUNTERS.pack(self.seq, self.events, self.misses))
        return closing.hexdigest()

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "events": self.events,
            "misses": self.misses,
            "last_bid": self.last_bid,
            "digest": self.digest(),
        }

    # -- checkpoint serialization -------------------------------------------

    def to_snapshot(self) -> dict:
        """Serialize the full meta — chain link included — for a checkpoint."""
        return {
            "seq": self.seq,
            "events": self.events,
            "misses": self.misses,
            "last_bid": self.last_bid,
            "chain": self._chain.hex(),
            "digest": self.digest(),
            "bounds": [[bid, count] for bid, count in self.bounds],
        }

    @classmethod
    def from_snapshot(cls, data: dict) -> "TenantMeta":
        """Rebuild a meta from checkpoint fields, self-checking as it goes.

        Raises ``ValueError`` when the fields are internally inconsistent
        (digest not reproducible from chain + counters, bounds that do
        not sum to the event count, …) — the salvage ladder treats that
        exactly like a CRC failure.
        """
        meta = cls()
        meta.seq = int(data["seq"])
        meta.events = int(data["events"])
        meta.misses = int(data["misses"])
        meta.last_bid = int(data["last_bid"])
        meta.bounds = [(int(bid), int(count)) for bid, count in data["bounds"]]
        chain = bytes.fromhex(data["chain"])
        if len(chain) != len(CHAIN_GENESIS):
            raise ValueError(f"chain link is {len(chain)} bytes, not "
                             f"{len(CHAIN_GENESIS)}")
        meta._chain = chain
        if len(meta.bounds) != meta.seq:
            raise ValueError(f"{len(meta.bounds)} batch bounds for "
                             f"{meta.seq} accepted batches")
        if sum(count for _, count in meta.bounds) != meta.events:
            raise ValueError("batch bounds do not sum to the event count")
        if meta.bounds and meta.bounds[-1][0] != meta.last_bid:
            raise ValueError("final bound bid does not match last_bid")
        if meta.digest() != data["digest"]:
            raise ValueError("digest does not match chain + counters")
        return meta


class TenantState:
    """The evictable half of a tenant: live predictor + accepted stream."""

    __slots__ = ("predictor", "pcs", "targets")

    def __init__(self, spec: str) -> None:
        self.predictor = predictor_from_spec(spec)
        self.pcs: array = array("L")
        self.targets: array = array("L")

    @classmethod
    def restore(cls, predictor, pcs: Sequence[int],
                targets: Sequence[int]) -> "TenantState":
        """Adopt an already-warm predictor (one loaded from checkpoint columns)."""
        state = cls.__new__(cls)
        state.predictor = predictor
        state.pcs = _widened(pcs)
        state.targets = _widened(targets)
        return state

    def apply(
        self,
        pcs: Sequence[int],
        targets: Sequence[int],
        want_predictions: bool = False,
    ) -> Tuple[int, Optional[List[int]]]:
        """Apply one batch; returns (mispredictions, optional predictions).

        Mirrors the offline engine exactly (predict at fetch, update with
        the resolved target, no-prediction counts as a miss).  Without
        ``want_predictions`` the batch runs through the predictor's own
        ``run_trace`` fast path — the *same* code the offline replay
        uses, so live and replayed miss counts cannot drift apart.
        """
        predictor = self.predictor
        predictions: Optional[List[int]] = None
        if want_predictions:
            misses = 0
            predictions = []
            for pc, target in zip(pcs, targets):
                predicted = predictor.predict(pc)
                predictions.append(predicted if predicted is not None else 0)
                if predicted != target:
                    misses += 1
                predictor.update(pc, target)
        else:
            misses = predictor.run_trace(pcs, targets)
        self.pcs.extend(pcs)
        self.targets.extend(targets)
        return misses, predictions

    def rebuild(self, pcs: Sequence[int], targets: Sequence[int],
                columns: Optional[Columns] = None) -> Optional[int]:
        """Bring this fresh state up to a tenant's full accepted stream.

        With ``columns`` — the predictor state exported when exactly this
        stream was parked — the predictor imports them: O(table size),
        no event is re-run, and the result is ``None``.  Raises
        :class:`~repro.errors.StateError` if they do not fit.

        Without, the stream is replayed and the replayed misprediction
        count returned, so the caller can check it against the tenant's
        running counters — a cheap, continuous determinism audit on
        every replayed reload.
        """
        misses = None
        if columns is not None:
            self.predictor.import_state(columns)
        else:
            misses = self.predictor.run_trace(pcs, targets)
        self.pcs.extend(pcs)
        self.targets.extend(targets)
        return misses


# -- the accepted-batch journal ----------------------------------------------


class ShardJournal:
    """Fsync'd JSONL journal of one shard's accepted batches.

    Line 1 is a header naming the schema, shard, and predictor spec;
    every other line is one accepted batch.  The file is a
    :mod:`~repro.runtime.records` log, so reopening replays the
    committed records, drops a torn tail, and truncates it away before
    appending again.  A journal with no committed header (the shard was
    killed while creating it) starts afresh.

    **Compaction.**  The header also carries ``base``: the number of
    accepted records that preceded this segment and were compacted away
    after a durable checkpoint covered them.  Record *i* of the file is
    therefore absolute record ``base + i`` of the shard's history, and
    :attr:`total_records` is the absolute watermark a checkpoint quotes.
    A fresh journal has ``base`` 0; :meth:`write_segment` +
    :meth:`reopen_compacted` implement the rewrite half of
    :meth:`repro.service.shard.ShardCore.compact`.
    """

    def __init__(self, path: PathLike, shard_id: int, spec: str) -> None:
        self.path = Path(path)
        self.shard_id = shard_id
        self.spec = spec
        #: ``True`` once an append failed; the shard sheds from then on.
        self.disabled = False
        #: batches recovered from an existing journal, in accept order.
        self.replayed: List[dict] = []
        #: absolute record count compacted away before this segment.
        self.base = 0
        committed = 0
        if self.path.exists():
            journal = _read_journal(self.path)
            header = journal.header
            if header is not None:
                if header.get("shard") != shard_id \
                        or header.get("spec") != spec:
                    raise ServiceError(
                        f"{self.path}: journal belongs to shard "
                        f"{header.get('shard')!r} spec "
                        f"{header.get('spec')!r}, not shard {shard_id} "
                        f"spec {spec!r}"
                    )
                self.base = journal_base(header, str(self.path))
                self.replayed = journal.records
                committed = journal.committed
        self._log = RecordLog(self.path, self._header(0), committed)
        #: every live record of this segment, in accept order (absolute
        #: record ``base + i``); appends extend it, compaction trims it.
        self.records: List[dict] = list(self.replayed)

    @property
    def total_records(self) -> int:
        """Absolute accepted-record watermark (compacted + live)."""
        return self.base + len(self.records)

    def _header(self, base: int) -> dict:
        return {
            "schema": JOURNAL_SCHEMA,
            "shard": self.shard_id,
            "spec": self.spec,
            "base": base,
        }

    def append(self, tenant: str, bid: int, pcs: Sequence[int],
               targets: Sequence[int]) -> bool:
        """Durably record one accepted batch *before* it is applied.

        ``False`` (and ``disabled``) when the disk — or an injected
        ``journal.append`` fault — refuses the write: the batch must
        then be shed, never applied off the record.
        """
        if self.disabled:
            return False
        record = {
            "kind": "accept",
            "tenant": tenant,
            "bid": bid,
            "pcs": list(pcs),
            "targets": list(targets),
        }
        try:
            active_chaos().inject("journal.append",
                                  label=f"service:{tenant}")
            self._log.write(record)
            self.records.append(record)
            return True
        except OSError:
            self.disabled = True
            return False

    # -- compaction primitives ----------------------------------------------

    def write_segment(self, path: PathLike, base: int) -> None:
        """Write a compacted copy of this journal (records >= ``base``).

        Fsync'd but *not* adopted: the caller renames it over
        :attr:`path` and then calls :meth:`reopen_compacted` — the
        split lets a crash land between any two steps and still leave
        either the old or the new segment fully intact.
        """
        if base < self.base or base > self.total_records:
            raise ServiceError(
                f"cannot compact to base {base}: segment covers "
                f"[{self.base}, {self.total_records})"
            )
        keep = self.records[base - self.base:]
        with synced_file(path) as sink:
            for record in [self._header(base)] + keep:
                sink.write(encode_record(record))

    def reopen_compacted(self, base: int) -> None:
        """Adopt the compacted segment now sitting at :attr:`path`."""
        self._log.close()
        self.records = self.records[base - self.base:]
        self.base = base
        self._log = RecordLog(self.path, committed=self.path.stat().st_size)

    def close(self) -> None:
        self._log.close()


def _accepted(record: dict) -> dict:
    """``read_records`` parse hook: only accept records belong here."""
    if record.get("kind") != "accept":
        raise ValueError(f"unknown journal record {record.get('kind')!r}")
    return record


def _read_journal(path: PathLike) -> RecordFile:
    """Parse a shard journal; its header (if committed) is schema-checked."""
    try:
        journal = read_records(path, parse=_accepted)
    except RecordError as exc:
        raise ServiceError(str(exc)) from None
    header = journal.header
    if header is not None and header.get("schema") != JOURNAL_SCHEMA:
        raise ServiceError(
            f"{path}: not a {JOURNAL_SCHEMA} journal (header {header!r})")
    return journal


def journal_base(header: dict, origin: str) -> int:
    """The validated ``base`` (compacted-away record count) of a header."""
    base = header.get("base", 0)
    if not isinstance(base, int) or isinstance(base, bool) or base < 0:
        raise ServiceError(f"{origin}: bad journal base {base!r}")
    return base


def read_service_journal(path: PathLike) -> Tuple[dict, List[dict]]:
    """Read-only journal parse for verification and offline replay."""
    journal = _read_journal(path)
    if journal.header is None:
        raise ServiceError(f"{path}: empty journal")
    return journal.header, journal.records


# -- registry validators (``repro verify``; DESIGN.md §3.9) -------------------


def _load_document(path: PathLike, schema: str) -> dict:
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or data.get("schema") != schema:
        raise ServiceError(f"{path}: not a {schema} document")
    return data


def _count(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def validate_service_journal(path: PathLike) -> Tuple[dict, str]:
    """``repro-service-journal/1``: header, base, one accept per line."""
    header, records = read_service_journal(path)
    base = journal_base(header, str(path))
    for number, record in enumerate(records, start=2):
        pcs, targets = record.get("pcs"), record.get("targets")
        if not valid_tenant(record.get("tenant")) \
                or not isinstance(record.get("bid"), int) \
                or record["bid"] < 1 or not isinstance(pcs, list) \
                or not isinstance(targets, list) or not pcs \
                or len(pcs) != len(targets):
            raise ServiceError(f"{path}:{number}: malformed accept record")
    return {"header": header, "records": records}, (
        f"shard {header.get('shard')}: {len(records)} accepted batch(es)"
        + (f", {base} compacted away" if base else ""))


def validate_sheds(path: PathLike) -> Tuple[List[dict], str]:
    """``repro-service-sheds/1``: every line a named, reasoned shed."""
    from ..runtime.telemetry import read_trace_log

    records = read_trace_log(path, schema=SHEDS_SCHEMA)
    for number, record in enumerate(records, start=2):
        if record.get("kind") != "shed" or not record.get("reason") \
                or not valid_tenant(record.get("tenant")):
            raise ServiceError(f"{path}:{number}: malformed shed record")
    return records, f"{len(records)} shed(s)"


def validate_tenants(path: PathLike) -> Tuple[dict, str]:
    """``repro-service-tenants/1``: per-tenant counters and digests."""
    data = _load_document(path, TENANTS_SCHEMA)
    if not isinstance(data.get("spec"), str) or not data["spec"] \
            or not isinstance(data.get("tenants"), dict):
        raise ServiceError(f"{path}: needs a spec and a tenants object")
    for tenant, entry in data["tenants"].items():
        digest = entry.get("digest")
        if not valid_tenant(tenant) \
                or not all(_count(entry.get(key)) for key in
                           ("seq", "events", "misses", "last_bid")) \
                or entry["misses"] > entry["events"] \
                or not isinstance(digest, str) or len(digest) != 64:
            raise ServiceError(f"{path}: tenant {tenant!r} has bad counters "
                               f"or digest")
    return data, f"{len(data['tenants'])} tenant(s)"


def validate_service_metrics(path: PathLike) -> Tuple[dict, str]:
    """``repro-service-metrics/1``, balanced books included.

    Every request that reached admission was either accepted or refused
    up front, and every accepted batch was answered or shed late:
    ``accepted + refused == answered + shed``.  A batch missing from
    the right-hand side was silently dropped.  A file written before the
    ``refused`` counter existed cannot tell an up-front refusal from a
    late shed, so its books are reported unchecked.
    """
    from ..runtime.metrics import validate_snapshot

    data = _load_document(path, SERVICE_METRICS_SCHEMA)
    counters = data.get("counters")
    if not isinstance(counters, dict) \
            or not all(_count(value) for value in counters.values()) \
            or not _count(data.get("respawns")):
        raise ServiceError(f"{path}: counters and respawns must be counts")
    if "snapshot" in data:
        validate_snapshot(data["snapshot"])
    books = {key: counters.get(key, 0)
             for key in ("accepted", "refused", "answered", "shed")}
    if "refused" not in counters:
        return data, (f"{books['accepted']} accepted; books unchecked: "
                      f"written before the refused counter existed")
    if books["accepted"] + books["refused"] \
            != books["answered"] + books["shed"]:
        raise ServiceError(
            f"{path}: accounting hole: accepted {books['accepted']} + "
            f"refused {books['refused']} != answered {books['answered']} + "
            f"shed {books['shed']}")
    return data, (f"{books['accepted']} accepted = {books['answered']} "
                  f"answered + {books['shed'] - books['refused']} shed late")


def validate_metrics_stream(path: PathLike) -> Tuple[List[dict], str]:
    """``repro-service-metrics-stream/1``: the server's flight recording.

    Increasing ``seq``; valid merged and per-shard snapshots; ``server.*``
    counters monotonic (a respawn resets its shard's registry, so merged
    ``shard.*`` counters may dip); nothing after the ``final`` record.
    A torn final line, a crash mid-append, is dropped.
    """
    from ..runtime.metrics import validate_snapshot

    log = read_records(path)
    if log.header is None or log.header.get("schema") != METRICS_STREAM_SCHEMA \
            or "pid" in log.header:
        raise ServiceError(f"{path}: not a deterministic "
                           f"{METRICS_STREAM_SCHEMA} header: {log.header!r}")
    last_kind, last_seq, floors = None, 0, {}
    for number, record in enumerate(log.records, start=2):
        where = f"{path}:{number}"
        kind, seq = record.get("kind"), record.get("seq")
        if kind not in ("snapshot", "final") or last_kind == "final" \
                or not isinstance(seq, int) or seq <= last_seq:
            raise ServiceError(f"{where}: {kind!r} record seq {seq!r} after "
                               f"{last_kind!r} record seq {last_seq}")
        last_kind, last_seq = kind, seq
        if not isinstance(record.get("t"), (int, float)) or record["t"] < 0 \
                or not isinstance(record.get("shards"), dict):
            raise ServiceError(f"{where}: bad t or shards")
        for snapshot in (record.get("merged"), *record["shards"].values()):
            try:
                validate_snapshot(snapshot)
            except ValueError as exc:
                raise ServiceError(f"{where}: {exc}") from None
        counters = record["merged"]["counters"]
        for name in floors.keys() | {name for name in counters
                                     if name.startswith("server.")}:
            if counters.get(name, 0) < floors.get(name, 0):
                raise ServiceError(f"{where}: {name} went backwards")
            floors[name] = counters.get(name, 0)
    if not log.records:
        raise ServiceError(f"{path}: metrics stream has no snapshots")
    return log.records, (f"{len(log.records)} snapshot(s), "
                         f"{len(floors)} server counter(s) monotonic")


# -- bounded residency -------------------------------------------------------


class TenantStore:
    """All of one shard's tenants, at most ``max_resident`` of them live.

    Args:
        spec: predictor spec every tenant's instance is built from.
        cache: trace cache evicted tenants are parked in (stream +
            exported predictor state).
        max_resident: live-predictor budget (LRU beyond it).
        journal_stream: fallback loader (``tenant -> (pcs, targets)``)
            used when the cache cannot serve a parked stream — normally
            :meth:`repro.service.shard.ShardCore.stream_for`.
        tracer: telemetry for evict/reload events.
    """

    def __init__(
        self,
        spec: str,
        cache: TraceCache,
        max_resident: int = 8,
        journal_stream: Optional[
            Callable[[str], Tuple[Sequence[int], Sequence[int]]]] = None,
        tracer=NULL_TRACER,
    ) -> None:
        if max_resident < 1:
            raise ServiceError(
                f"max_resident must be >= 1, got {max_resident}")
        self.spec = spec
        self.cache = cache
        self.max_resident = max_resident
        self.journal_stream = journal_stream
        self.tracer = tracer
        self.meta: Dict[str, TenantMeta] = {}
        self._resident: "OrderedDict[str, TenantState]" = OrderedDict()
        #: tenants adopted cold by recovery; their next reload replays.
        self._cold: set = set()
        self.evictions = 0
        self.reloads = 0
        #: reloads that replayed the stream instead of importing state.
        self.reload_replays = 0

    def _cache_key(self, tenant: str) -> str:
        return f"tenant-{tenant}"

    def last_bid(self, tenant: str) -> int:
        meta = self.meta.get(tenant)
        return meta.last_bid if meta else 0

    def cumulative(self, tenant: str) -> dict:
        """The tenant's cumulative counters (zeros for an unknown one)."""
        meta = self.meta.get(tenant)
        return meta.to_dict() if meta else TenantMeta().to_dict()

    @property
    def resident_count(self) -> int:
        return len(self._resident)

    def resident_state(self, tenant: str) -> Optional[TenantState]:
        """The tenant's live state if resident (no LRU side effects)."""
        return self._resident.get(tenant)

    def apply_batch(
        self,
        tenant: str,
        bid: int,
        pcs: Sequence[int],
        targets: Sequence[int],
        want_predictions: bool = False,
    ) -> Tuple[int, Optional[List[int]]]:
        """Apply one (already journalled) batch to a tenant.

        Returns ``(batch mispredictions, optional predictions)``; the
        cumulative counters live in :meth:`cumulative`.
        """
        state = self._state(tenant)
        misses, predictions = state.apply(pcs, targets, want_predictions)
        self.meta.setdefault(tenant, TenantMeta()).absorb(
            bid, pcs, targets, misses)
        return misses, predictions

    def replay_batch(self, tenant: str, bid: int, pcs: Sequence[int],
                     targets: Sequence[int]) -> None:
        """Apply one journalled batch during respawn recovery."""
        self.apply_batch(tenant, bid, pcs, targets)

    def adopt(self, tenant: str, meta: TenantMeta,
              state: Optional[TenantState] = None) -> None:
        """Install a tenant recovered from a checkpoint.

        ``state`` (a warm predictor + stream) makes the tenant resident
        immediately; without it the tenant is adopted *cold* — counters
        and digest chain only — and its predictor is rebuilt by replay on
        its next batch, which audits the recovered counters.  State parked
        before the crash is not imported for it, even when its binding
        matches.
        """
        self.meta[tenant] = meta
        if state is None:
            self._cold.add(tenant)
        else:
            while len(self._resident) >= self.max_resident:
                self.evict(next(iter(self._resident)))
            self._resident[tenant] = state

    # -- residency -----------------------------------------------------------

    def _state(self, tenant: str) -> TenantState:
        state = self._resident.get(tenant)
        if state is not None:
            self._resident.move_to_end(tenant)
            return state
        state = self._reload(tenant)
        while len(self._resident) >= self.max_resident:
            self.evict(next(iter(self._resident)))
        self._resident[tenant] = state
        return state

    def _reload(self, tenant: str) -> TenantState:
        state = TenantState(self.spec)
        meta = self.meta.get(tenant)
        if meta is None or meta.events == 0:
            return state  # brand-new tenant: nothing to replay
        cold = tenant in self._cold
        self._cold.discard(tenant)
        trace = self.cache.load(self._cache_key(tenant))
        if trace is not None and len(trace.pcs) < meta.events:
            # A parked stream from before a crash the checkpoint already
            # recovered past: shorter than the counters, so provably
            # stale, not divergent.  Fall through to the authoritative
            # (checkpoint + journal) stream instead of dying on it.
            trace = None
        columns = None
        if trace is not None:
            pcs: Sequence[int] = trace.pcs
            targets: Sequence[int] = trace.targets
            stream = "cache"
            if not cold:
                columns = _parked_columns(trace, meta)
        elif self.journal_stream is not None:
            pcs, targets = self.journal_stream(tenant)
            stream = "journal"
        else:
            raise ServiceError(
                f"tenant {tenant!r} has {meta.events} accepted events but "
                f"no parked stream to rebuild from"
            ).with_context(tenant=tenant)
        if len(pcs) > meta.events:
            # Journal-before-apply: the journal (and hence a stream read
            # from it) may already hold the batch being applied right
            # now, or — during a recovery tail replay — records not yet
            # replayed.  The accepted stream is exactly the first
            # ``meta.events`` events of that append-only prefix.
            pcs = pcs[:meta.events]
            targets = targets[:meta.events]
        source = "state"
        if columns is not None:
            try:
                state.rebuild(pcs, targets, columns)
            except StateError:
                columns = None  # the binding matched but the shape did not
        if columns is None:
            source = "replay"
            misses = state.rebuild(pcs, targets)
            if len(pcs) != meta.events or misses != meta.misses:
                raise ServiceError(
                    f"tenant {tenant!r} rebuilt to {misses} misses over "
                    f"{len(pcs)} events; counters say {meta.misses} over "
                    f"{meta.events} (state divergence)"
                ).with_context(tenant=tenant, stream=stream)
            self.reload_replays += 1
        self.reloads += 1
        self.tracer.event("tenant_reload", tenant=tenant, source=source,
                          stream=stream, events=meta.events)
        return state

    def evict(self, tenant: str) -> bool:
        """Park ``tenant`` in the cache and drop its predictor.

        The parked trace holds the accepted stream and, in its metadata,
        the predictor's exported state bound to the tenant's ``(events,
        misses, digest)`` — one file, one fsync.  The running hash and
        counters stay in :attr:`meta`; the next batch imports the state
        (or replays the stream when the state cannot be used).  A
        predictor whose state does not fit ``int64`` columns parks its
        stream only.  ``False`` when the tenant was not resident.
        """
        state = self._resident.pop(tenant, None)
        if state is None:
            return False
        meta = self.meta.get(tenant)
        metadata = TraceMetadata(name=self._cache_key(tenant))
        if meta is not None:
            try:
                metadata.extra["state"] = {
                    "events": meta.events,
                    "misses": meta.misses,
                    "digest": meta.digest(),
                    "columns": encode_columns(
                        state.predictor.export_state()),
                }
            except StateError:
                pass  # keys wider than int64: park the stream alone
        self.cache.store(self._cache_key(tenant),
                         Trace(state.pcs, state.targets, metadata))
        self.evictions += 1
        self.tracer.event("tenant_evict", tenant=tenant,
                          events=len(state.pcs),
                          resident=len(self._resident))
        return True

    def snapshot(self) -> Dict[str, dict]:
        """Final counters + digest for every tenant ever seen."""
        return {tenant: meta.to_dict()
                for tenant, meta in sorted(self.meta.items())}


def _parked_columns(trace: Trace, meta: TenantMeta) -> Optional[Columns]:
    """The state parked with ``trace``, if it is bound to exactly ``meta``.

    ``None`` — replay — when the trace carries no state, when its
    ``(events, misses, digest)`` binding differs from the live counters,
    or when its columns do not decode.
    """
    parked = trace.metadata.extra.get("state")
    if not isinstance(parked, dict):
        return None
    binding = (parked.get("events"), parked.get("misses"),
               parked.get("digest"))
    if binding != (meta.events, meta.misses, meta.digest()) \
            or len(trace.pcs) != meta.events:
        return None
    try:
        return decode_columns(parked.get("columns"))
    except StateError:
        return None
