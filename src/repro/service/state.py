"""Per-tenant predictor state, the shard journal, and LRU residency.

The serving contract rests on one fact about the paper's predictors:
their state is a pure function of the applied ``(pc, target)`` event
stream, held in fixed-size tables.  Everything here exploits that.

* :class:`TenantMeta` — the tiny always-resident record per tenant:
  cumulative counters, the last accepted batch id (the idempotency
  watermark), and a *chained* SHA-256 over the accepted stream.  Its
  :meth:`~TenantMeta.digest` is the tenant's state fingerprint: an
  offline replay of the same accepted batches produces the same digest,
  which is how ``repro verify`` proves a served tenant bit-identical to
  one rebuilt from the journal.  The chain link serializes into the
  ``repro-shard-snapshot/2`` checkpoint, so the fingerprint survives a
  crash and resumes over the journal tail.

* :class:`TenantState` — the heavy, *evictable* part: the live
  predictor.  No event history is kept; the journal is the only record
  of it.

* :class:`ShardJournal` — an fsync'd JSONL journal of accepted batches,
  one live segment per shard.  Batches are journalled **before** they
  are applied, so a shard SIGKILLed mid-batch either never journalled
  the batch (the server requeues it; the respawned shard applies it
  fresh) or did (the respawned shard's replay makes the retry a
  duplicate).  Either way the batch is applied exactly once.  A journal
  whose appends start failing flips to ``disabled`` and the shard sheds
  instead of accepting work it could not re-prove — availability is
  sacrificed before auditability.  Compaction *seals* the live segment
  by renaming it, never rewriting it (:func:`join_segments` joins the
  segments back into the history from genesis).

* :class:`TenantStore` — bounded residency: at most ``max_resident``
  tenants keep live predictors; the least recently used is *parked*:
  its predictor's exported table state (:mod:`repro.core.columns`) is
  written to one CRC'd file, bound to the tenant's ``(events, misses,
  digest)``.  Its next batch reloads it by *importing* that state —
  O(table size), not O(history).  When the binding does not match the
  live counters, or there is no usable state (a corrupt file, keys too
  wide for ``int64`` columns), the tenant is rebuilt by replaying its
  stream from the journal segments instead, audited against its
  counters.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import re
import struct
import zlib
from array import array
from collections import OrderedDict
from pathlib import Path
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from ..core.columns import Columns, decode_columns, encode_columns
from ..core.factory import predictor_from_spec
from ..errors import ServiceError, StateError
from ..runtime.chaos import active as active_chaos
from ..runtime.records import (
    RecordError, RecordFile, RecordLog, atomic_file, read_records,
)
from ..runtime.telemetry import NULL_TRACER

PathLike = Union[str, Path]

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


def canonical_json(payload: dict) -> bytes:
    """The one byte form CRCs are taken over (and files are written in)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def payload_crc(payload: dict) -> int:
    """CRC32 of the canonical payload with the ``crc32`` field removed."""
    scrubbed = {key: value for key, value in payload.items()
                if key != "crc32"}
    return zlib.crc32(canonical_json(scrubbed)) & 0xFFFFFFFF


class TenantMeta:
    """Always-resident tenant record: counters + chained stream hash.

    Survives eviction (it is small), so a parked tenant still answers
    duplicate checks and digest queries without being rebuilt.

    The stream hash is a SHA-256 *chain* rather than one running
    context: ``chain_{n+1} = sha256(chain_n || header || pcs ||
    targets)`` with :data:`CHAIN_GENESIS` at the root.  A chain link is
    32 opaque bytes, so — unlike an in-flight ``hashlib`` context — the
    whole hash state serializes into a checkpoint and resumes after a
    crash, which is what makes ``repro-shard-snapshot/2`` possible.
    """

    __slots__ = ("seq", "events", "misses", "last_bid", "_chain")

    def __init__(self) -> None:
        self.seq = 0          # accepted batches
        self.events = 0       # accepted events
        self.misses = 0       # mispredictions across the accepted stream
        self.last_bid = 0     # idempotency watermark (bids are >= 1)
        self._chain = CHAIN_GENESIS

    def absorb(self, bid: int, pcs: Sequence[int], targets: Sequence[int],
               misses: int) -> None:
        """Fold one applied batch into the counters and the hash chain."""
        step = hashlib.sha256(self._chain)
        step.update(_BATCH_HEAD.pack(bid, len(pcs)))
        step.update(array("I", pcs).tobytes())
        step.update(array("I", targets).tobytes())
        self._chain = step.digest()
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
        return {**self.to_dict(), "chain": self._chain.hex()}

    @classmethod
    def from_snapshot(cls, data: dict) -> "TenantMeta":
        """Rebuild a meta from checkpoint fields, self-checking as it goes.

        Raises ``ValueError`` when the fields are internally inconsistent
        (a digest not reproducible from chain + counters, a negative
        counter) — the salvage ladder treats that exactly like a CRC
        failure.
        """
        meta = cls()
        meta.seq = int(data["seq"])
        meta.events = int(data["events"])
        meta.misses = int(data["misses"])
        meta.last_bid = int(data["last_bid"])
        chain = bytes.fromhex(data["chain"])
        if len(chain) != len(CHAIN_GENESIS):
            raise ValueError(f"chain link is {len(chain)} bytes, not "
                             f"{len(CHAIN_GENESIS)}")
        meta._chain = chain
        if min(meta.seq, meta.events, meta.misses, meta.last_bid) < 0:
            raise ValueError("negative counter")
        if meta.digest() != data["digest"]:
            raise ValueError("digest does not match chain + counters")
        return meta


class TenantState:
    """The evictable half of a tenant: its live predictor, nothing else."""

    __slots__ = ("predictor",)

    def __init__(self, spec: str, predictor=None) -> None:
        self.predictor = (predictor if predictor is not None
                          else predictor_from_spec(spec))

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
        if not want_predictions:
            return predictor.run_trace(pcs, targets), None
        misses = 0
        predictions = []
        for pc, target in zip(pcs, targets):
            predicted = predictor.predict(pc)
            predictions.append(predicted if predicted is not None else 0)
            if predicted != target:
                misses += 1
            predictor.update(pc, target)
        return misses, predictions

    def rebuild(self, pcs: Sequence[int], targets: Sequence[int],
                columns: Optional[Columns] = None) -> Optional[int]:
        """Bring this fresh state up to a tenant's accepted stream.

        With ``columns`` — the predictor state exported when exactly this
        stream was parked — the predictor imports them: O(table size),
        ``pcs``/``targets`` are not read, and the result is ``None``.
        Raises :class:`~repro.errors.StateError` if they do not fit.

        Without, the stream is replayed and the replayed misprediction
        count returned, so the caller can check it against the tenant's
        running counters — a cheap, continuous determinism audit on
        every replayed reload.
        """
        if columns is not None:
            self.predictor.import_state(columns)
            return None
        return self.predictor.run_trace(pcs, targets)


# -- the accepted-batch journal ----------------------------------------------


class ShardJournal:
    """Fsync'd JSONL journal of one shard's accepted batches: its live segment.

    Line 1 is a header naming the schema, shard, and predictor spec;
    every other line is one accepted batch.  The file is a
    :mod:`~repro.runtime.records` log, so reopening replays the
    committed records, drops a torn tail, and truncates it away before
    appending again.

    **Segments.**  The header also carries ``base``: the absolute index
    of the segment's first record, i.e. how many accepted records the
    shard's *sealed* segments before it hold.  Record *i* of the file is
    absolute record ``base + i``, and :attr:`total_records` is the
    absolute watermark a checkpoint quotes.  :meth:`seal` renames the
    live segment away whole (it is never rewritten) and
    :meth:`open_segment` starts the next one.  A file with no committed
    header (the shard was killed between the two, or while writing the
    header) starts afresh at ``fresh_base()`` — the end of the sealed
    segments, asked for only then.
    """

    def __init__(self, path: PathLike, shard_id: int, spec: str,
                 fresh_base: Callable[[], int] = lambda: 0) -> None:
        self.path = Path(path)
        self.shard_id = shard_id
        self.spec = spec
        #: ``True`` once an append failed; the shard sheds from then on.
        self.disabled = False
        #: batches recovered from an existing journal, in accept order.
        self.replayed: List[dict] = []
        header = None
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
                self.replayed = journal.records
                committed = journal.committed
        #: absolute index of this segment's first record.
        self.base = (journal_base(header, str(self.path))
                     if header is not None else fresh_base())
        self._log = RecordLog(self.path, self._header(self.base), committed)
        #: every live record of this segment, in accept order (absolute
        #: record ``base + i``); appends extend it.
        self.records: List[dict] = list(self.replayed)

    @property
    def total_records(self) -> int:
        """Absolute accepted-record watermark (sealed + live)."""
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

    def seal(self, target: PathLike) -> None:
        """Close the live segment and rename it to ``target``, unchanged."""
        self._log.close()
        os.replace(self.path, target)

    def open_segment(self, base: int) -> None:
        """Start a fresh live segment at absolute record ``base``."""
        self._log.close()
        self.base = base
        self.records = []
        self._log = RecordLog(self.path, self._header(base))

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
    """A header's validated ``base``: its first record's absolute index."""
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


def join_segments(segments: Iterable[Tuple[dict, List[dict]]],
                  start: int = 0, origin: str = "journal") -> List[dict]:
    """One shard's accepted records from absolute index ``start`` on.

    ``segments`` are ``(header, records)`` pairs in base order — sealed
    segments, then the live one — all of one shard and spec.  Each must
    begin where the previous one ended and the first at or before
    ``start``; a gap means a sealed segment is missing, and that history
    cannot be re-proved, so this raises
    :class:`~repro.errors.ServiceError`.
    """
    joined: List[dict] = []
    end: Optional[int] = None
    owner = None
    for header, records in segments:
        if owner is None:
            owner = (header.get("shard"), header.get("spec"))
        elif (header.get("shard"), header.get("spec")) != owner:
            raise ServiceError(
                f"{origin}: a segment of shard {header.get('shard')!r} "
                f"spec {header.get('spec')!r} among shard {owner[0]!r} "
                f"spec {owner[1]!r}'s")
        base = journal_base(header, origin)
        if (base > start) if end is None else (base != end):
            raise ServiceError(
                f"{origin}: a segment starts at record {base} but the "
                f"history before it ends at {start if end is None else end} "
                f"(a sealed segment is missing)")
        end = base + len(records)
        if end > start:
            joined.extend(records[max(start - base, 0):])
    if (end or 0) < start:
        raise ServiceError(f"{origin}: history ends at record {end or 0}, "
                           f"before {start}")
    return joined


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
        + (f" from record {base}" if base else ""))


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
        park_dir: directory evicted tenants' exported state is parked in
            (one ``<tenant>.json`` each).
        max_resident: live-predictor budget (LRU beyond it).
        journal_stream: fallback loader (``tenant -> (pcs, targets)``)
            used when a tenant has no parked state bound to its counters
            — normally :meth:`repro.service.shard.ShardCore.stream_for`.
        tracer: telemetry for evict/reload events.
    """

    def __init__(
        self,
        spec: str,
        park_dir: PathLike,
        max_resident: int = 8,
        journal_stream: Optional[
            Callable[[str], Tuple[Sequence[int], Sequence[int]]]] = None,
        tracer=NULL_TRACER,
    ) -> None:
        if max_resident < 1:
            raise ServiceError(
                f"max_resident must be >= 1, got {max_resident}")
        self.spec = spec
        self.park_dir = Path(park_dir)
        self.park_dir.mkdir(parents=True, exist_ok=True)
        self.max_resident = max_resident
        self.journal_stream = journal_stream
        self.tracer = tracer
        self.meta: Dict[str, TenantMeta] = {}
        self._resident: "OrderedDict[str, TenantState]" = OrderedDict()
        self.evictions = 0
        self.reloads = 0
        #: reloads that replayed the stream instead of importing state.
        self.reload_replays = 0

    def park_path(self, tenant: str) -> Path:
        return self.park_dir / f"{tenant}.json"

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

        ``state`` (a warm predictor) makes the tenant resident
        immediately; without it only the counters and digest chain are
        installed, and the next batch reloads the tenant like any parked
        one: it imports a park file bound to exactly these counters, or
        replays its stream from the journal segments.
        """
        self.meta[tenant] = meta
        if state is not None:
            while len(self._resident) >= self.max_resident:
                self.evict(next(iter(self._resident)))
            self._resident[tenant] = state

    def roll_forward(self, tenant: str, records: Sequence[dict]) -> int:
        """Advance a parked tenant over tail records its park file covers.

        Recovery replays the journal tail past a checkpoint; a tenant
        parked *during* that tail has a park file bound to a later point
        than the checkpoint's counters.  When absorbing the first *k* of
        ``records`` (the tenant's tail batches, in order) reproduces the
        file's ``(events, digest)`` at its recorded miss count, the
        stream it covers is exactly those batches: the counters take
        that point and the records need no replay — the next reload
        imports the file.  Returns *k* (0 when nothing matches).
        """
        meta = self.meta.get(tenant)
        parked = self._parked(tenant)
        if meta is None or parked is None or tenant in self._resident:
            return 0
        probe = copy.copy(meta)
        for count, record in enumerate(records, start=1):
            probe.absorb(record["bid"], record["pcs"], record["targets"], 0)
            if probe.events == parked.get("events"):
                probe.misses = parked.get("misses")
                if isinstance(probe.misses, int) \
                        and probe.digest() == parked.get("digest"):
                    self.meta[tenant] = probe
                    return count
                return 0
        return 0

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
            return state  # brand-new tenant: nothing to rebuild
        columns = _bound_columns(self._parked(tenant), meta)
        source = "state"
        if columns is not None:
            try:
                state.rebuild((), (), columns)
            except StateError:
                columns = None  # the binding matched but the shape did not
        if columns is None:
            if self.journal_stream is None:
                raise ServiceError(
                    f"tenant {tenant!r} has {meta.events} accepted events "
                    f"but no parked state or journal to rebuild from"
                ).with_context(tenant=tenant)
            pcs, targets = self.journal_stream(tenant)
            # Journal-before-apply: the journal may already hold the
            # batch being applied right now, or — during a recovery tail
            # replay — records not yet replayed.  The accepted stream is
            # exactly the first ``meta.events`` events of that prefix.
            pcs, targets = pcs[:meta.events], targets[:meta.events]
            source = "replay"
            misses = state.rebuild(pcs, targets)
            if len(pcs) != meta.events or misses != meta.misses:
                raise ServiceError(
                    f"tenant {tenant!r} rebuilt to {misses} misses over "
                    f"{len(pcs)} events; counters say {meta.misses} over "
                    f"{meta.events} (state divergence)"
                ).with_context(tenant=tenant)
            self.reload_replays += 1
        self.reloads += 1
        self.tracer.event("tenant_reload", tenant=tenant, source=source,
                          events=meta.events)
        return state

    def evict(self, tenant: str) -> bool:
        """Park ``tenant``'s exported state and drop its predictor.

        The park file holds the predictor's table state bound to the
        tenant's ``(events, misses, digest)`` — one small file, one
        fsync, O(table size).  The counters and digest chain stay in
        :attr:`meta`; the next batch imports the state (or replays the
        stream when it cannot be used).  A predictor whose state does
        not fit ``int64`` columns, or a park the disk refuses, parks
        nothing: that tenant replays.  ``False`` when the tenant was not
        resident.
        """
        state = self._resident.pop(tenant, None)
        if state is None:
            return False
        meta = self.meta.get(tenant)
        if meta is not None:
            try:
                parked = {
                    "tenant": tenant,
                    "events": meta.events,
                    "misses": meta.misses,
                    "digest": meta.digest(),
                    "columns": encode_columns(
                        state.predictor.export_state()),
                }
                parked["crc32"] = payload_crc(parked)
                with atomic_file(self.park_path(tenant)) as sink:
                    sink.write(canonical_json(parked))
            except (StateError, OSError) as exc:
                self.tracer.event("tenant_park_skipped", tenant=tenant,
                                  reason=str(exc))
        self.evictions += 1
        self.tracer.event("tenant_evict", tenant=tenant,
                          events=meta.events if meta else 0,
                          resident=len(self._resident))
        return True

    def _parked(self, tenant: str) -> Optional[dict]:
        """The tenant's park file if it is whole (CRC) and its own."""
        try:
            parked = json.loads(self.park_path(tenant).read_bytes())
        except (OSError, ValueError):
            return None
        if not isinstance(parked, dict) or parked.get("tenant") != tenant \
                or parked.get("crc32") != payload_crc(parked):
            return None
        return parked

    def snapshot(self) -> Dict[str, dict]:
        """Final counters + digest for every tenant ever seen."""
        return {tenant: meta.to_dict()
                for tenant, meta in sorted(self.meta.items())}


def _bound_columns(parked: Optional[dict],
                   meta: TenantMeta) -> Optional[Columns]:
    """Parked columns, if they are bound to exactly ``meta``.

    ``None`` — replay — when there is no park file, when its ``(events,
    misses, digest)`` binding differs from the live counters, or when
    its columns do not decode.
    """
    if parked is None or (parked.get("events"), parked.get("misses"),
                          parked.get("digest")) \
            != (meta.events, meta.misses, meta.digest()):
        return None
    try:
        return decode_columns(parked.get("columns"))
    except StateError:
        return None
