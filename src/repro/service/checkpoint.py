"""Crash-consistent shard checkpoints (``repro-shard-snapshot/1``).

A checkpoint is one JSON document freezing everything a shard needs to
answer for its history without the journal prefix it covers:

* ``journal_records`` — the absolute accepted-record watermark **W** the
  checkpoint covers.  Recovery = load checkpoint + replay journal
  records ``W..`` (the *tail*), so recovery time is O(events since the
  checkpoint), not O(journal length).
* per tenant — the serialized :class:`~repro.service.state.TenantMeta`
  (counters, digest-chain link, batch bounds), the full accepted stream
  columns (base64 of little-endian ``uint32``), and — for tenants that
  were resident at checkpoint time — the predictor's exported state
  (``predictor``: named base64 ``int64`` columns, see
  :mod:`repro.core.columns`) so recovery restarts warm without replaying
  the stream.
* ``crc32`` — whole-payload CRC over the canonical JSON with the crc
  field removed.  Validation additionally re-derives every tenant's
  digest from its chain link + counters and cross-checks stream lengths
  against the counters, so a checkpoint cannot *pass* validation and
  still disagree with itself.

Nothing in a checkpoint can run code: the predictor state is integers
only, and importing it checks every shape against the shard's spec.
Validation checks the columns' names and row widths; only
:class:`~repro.service.shard.ShardCore` imports them, and state that
does not fit demotes the tenant to a cold (replay-on-touch) adopt.  So
does a pickled predictor blob left by an older writer: it is accepted
by validation but never loaded.

File discipline is write-temp-then-``os.replace`` with fsync, the same
as :class:`~repro.runtime.cache.TraceCache`; a checkpoint that fails
validation is quarantined to ``<name>.corrupt`` with a JSON sidecar,
the same pattern ingest uses for undecodable traces.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import zlib
from array import array
from pathlib import Path
from typing import Collection, Dict, List, Optional, Sequence, Tuple

from ..core.columns import decode_columns, encode_columns, row_width, rows_of
from ..core.factory import predictor_from_spec
from ..errors import ReproError, ServiceError, StateError
from .state import PathLike, TenantMeta, valid_tenant

#: JSON schema identifier of a shard recovery checkpoint.
SNAPSHOT_SCHEMA = "repro-shard-snapshot/1"


def checkpoint_path(run_dir: PathLike, shard_id: int) -> Path:
    """The current (most recent durable) checkpoint of one shard."""
    return Path(run_dir) / f"snapshot-{shard_id}.json"


def prev_checkpoint_path(run_dir: PathLike, shard_id: int) -> Path:
    """The lag-one checkpoint kept as the salvage fallback."""
    return Path(run_dir) / f"snapshot-{shard_id}.prev.json"


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def payload_crc(payload: dict) -> int:
    """CRC32 of the canonical payload with the ``crc32`` field removed."""
    scrubbed = {key: value for key, value in payload.items()
                if key != "crc32"}
    return zlib.crc32(_canonical(scrubbed)) & 0xFFFFFFFF


def _encode_columns(values: Sequence[int]) -> str:
    return base64.b64encode(array("I", values).tobytes()).decode("ascii")


def _decode_columns(blob: str, origin: str) -> array:
    try:
        raw = base64.b64decode(blob.encode("ascii"), validate=True)
    except (binascii.Error, ValueError, UnicodeEncodeError):
        raise ServiceError(f"{origin}: undecodable stream column")
    if len(raw) % 4:
        raise ServiceError(f"{origin}: stream column is {len(raw)} bytes, "
                           f"not a multiple of 4")
    column = array("I")
    column.frombytes(raw)
    return column


def build_checkpoint(
    shard_id: int,
    spec: str,
    journal_records: int,
    tenants: Dict[str, Tuple[TenantMeta, Sequence[int], Sequence[int],
                             Optional[object]]],
) -> dict:
    """Assemble a checkpoint payload (not yet written anywhere).

    ``tenants`` maps each tenant to ``(meta, pcs, targets, predictor)``
    where ``predictor`` is the live instance whose state to export, or
    ``None`` for a tenant whose predictor is parked (it will be adopted
    cold, as is one whose state does not fit ``int64`` columns).
    """
    entries: Dict[str, dict] = {}
    for tenant in sorted(tenants):
        meta, pcs, targets, predictor = tenants[tenant]
        entry = meta.to_snapshot()
        entry["pcs"] = _encode_columns(pcs)
        entry["targets"] = _encode_columns(targets)
        state = None
        if predictor is not None:
            try:
                state = encode_columns(predictor.export_state())
            except StateError:
                pass  # keys wider than int64: adopted cold on recovery
        entry["predictor"] = state
        entries[tenant] = entry
    payload = {
        "schema": SNAPSHOT_SCHEMA,
        "shard": shard_id,
        "spec": spec,
        "journal_records": journal_records,
        "tenants": entries,
    }
    payload["crc32"] = payload_crc(payload)
    return payload


def validate_checkpoint(payload: object, origin: str = "checkpoint",
                        shard_id: Optional[int] = None,
                        spec: Optional[str] = None) -> dict:
    """Full structural + cryptographic validation of a checkpoint payload.

    Returns ``{"payload", "metas": {tenant: TenantMeta}, "streams":
    {tenant: (pcs, targets)}}`` on success; raises
    :class:`~repro.errors.ServiceError` on *any* inconsistency.
    Predictor state must be ``None``, exactly the named columns the
    spec's predictor exports (whole rows of non-negative values, table
    miss bits 0 or 1), or an older writer's pickle blob: a string,
    accepted so the salvage ladder keeps an otherwise valid checkpoint,
    but never loaded — its tenant is adopted cold (DESIGN.md §3.14).
    """
    if not isinstance(payload, dict):
        raise ServiceError(f"{origin}: checkpoint is not an object")
    if payload.get("schema") != SNAPSHOT_SCHEMA:
        raise ServiceError(f"{origin}: schema {payload.get('schema')!r} "
                           f"is not {SNAPSHOT_SCHEMA}")
    if payload.get("crc32") != payload_crc(payload):
        raise ServiceError(f"{origin}: CRC mismatch")
    covered = payload.get("journal_records")
    if not isinstance(covered, int) or isinstance(covered, bool) \
            or covered < 0:
        raise ServiceError(f"{origin}: bad journal_records {covered!r}")
    if shard_id is not None and payload.get("shard") != shard_id:
        raise ServiceError(f"{origin}: checkpoint belongs to shard "
                           f"{payload.get('shard')!r}, not {shard_id}")
    if spec is not None and payload.get("spec") != spec:
        raise ServiceError(f"{origin}: checkpoint spec "
                           f"{payload.get('spec')!r} != {spec!r}")
    if not isinstance(payload.get("shard"), int) \
            or not isinstance(payload.get("spec"), str) or not payload["spec"]:
        raise ServiceError(f"{origin}: needs an int shard and a spec")
    state_names: Optional[set] = None
    entries = payload.get("tenants")
    if not isinstance(entries, dict):
        raise ServiceError(f"{origin}: tenants is not an object")
    metas: Dict[str, TenantMeta] = {}
    streams: Dict[str, Tuple[array, array]] = {}
    total_batches = 0
    for tenant, entry in entries.items():
        where = f"{origin}: tenant {tenant!r}"
        if not valid_tenant(tenant):
            raise ServiceError(f"{where}: invalid tenant name")
        if not isinstance(entry, dict):
            raise ServiceError(f"{where}: entry is not an object")
        try:
            meta = TenantMeta.from_snapshot(entry)
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"{where}: inconsistent meta ({exc})")
        pcs = _decode_columns(entry.get("pcs", ""), where)
        targets = _decode_columns(entry.get("targets", ""), where)
        if len(pcs) != meta.events or len(targets) != meta.events:
            raise ServiceError(
                f"{where}: stream columns hold {len(pcs)}/{len(targets)} "
                f"events; counters say {meta.events}")
        state = entry.get("predictor")
        if state is not None and not isinstance(state, str):
            if state_names is None:
                state_names = _state_names(payload["spec"], origin)
            try:
                _check_state(decode_columns(state), state_names)
            except StateError as exc:
                raise ServiceError(f"{where}: predictor state ({exc})")
        metas[tenant] = meta
        streams[tenant] = (pcs, targets)
        total_batches += meta.seq
    if total_batches != covered:
        raise ServiceError(
            f"{origin}: tenants hold {total_batches} batches but "
            f"journal_records says {covered}")
    return {"payload": payload, "metas": metas, "streams": streams}


def _state_names(spec: str, origin: str) -> set:
    """The state column names a ``spec`` predictor exports."""
    try:
        return set(predictor_from_spec(spec).export_state())
    except (ReproError, ValueError) as exc:
        raise ServiceError(f"{origin}: spec {spec!r} ({exc})") from None


def _check_state(columns: dict, names: set) -> None:
    if set(columns) != names:
        raise StateError(f"columns {sorted(columns)} are not the spec's "
                         f"{sorted(names)}")
    for name, column in columns.items():
        rows_of(column, name)  # width and sign
        if row_width(name) == 4 and max(column[2::4], default=0) > 1:
            raise StateError(f"column {name!r} holds a miss bit not 0 or 1")


def validate_checkpoint_file(path: PathLike) -> Tuple[dict, str]:
    """Registry validator of ``repro-shard-snapshot/1`` (``repro verify``)."""
    loaded = load_checkpoint(path)
    payload = loaded["payload"]
    return loaded, (f"shard {payload['shard']}: covers "
                    f"{payload['journal_records']} record(s), "
                    f"{len(payload['tenants'])} tenant(s), CRC + digest "
                    f"chains verified")


def load_checkpoint(path: PathLike, shard_id: Optional[int] = None,
                    spec: Optional[str] = None) -> dict:
    """Read + validate one checkpoint file (see :func:`validate_checkpoint`).

    Raises :class:`~repro.errors.ServiceError` on unreadable, unparsable
    or inconsistent files — the caller's salvage ladder decides what
    that means.
    """
    raw = Path(path).read_bytes()
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceError(f"{path}: unparsable checkpoint ({exc})")
    return validate_checkpoint(payload, origin=str(path),
                               shard_id=shard_id, spec=spec)


def quarantine_checkpoint(path: PathLike, reason: str) -> Path:
    """Move a failed checkpoint aside with a sidecar naming the reason."""
    source = Path(path)
    target = source.with_name(source.name + ".corrupt")
    os.replace(source, target)
    sidecar = target.with_name(target.name + ".json")
    sidecar.write_text(json.dumps({
        "quarantined": source.name,
        "reason": reason,
    }, indent=2, sort_keys=True) + "\n")
    return target


def restore_predictor(entry: dict, spec: str) -> Optional[object]:
    """A ``spec`` predictor loaded from a tenant's exported state.

    ``None`` — the tenant is then adopted cold and rebuilt by replay —
    when the entry has no state, holds an older writer's pickle blob
    (never loaded), or its columns do not fit the spec.
    """
    state = entry.get("predictor")
    if not isinstance(state, dict):
        return None
    predictor = predictor_from_spec(spec)
    try:
        predictor.import_state(decode_columns(state))
    except StateError:
        return None
    return predictor


def read_tenant_streams(
        path: PathLike, tenants: Collection[str],
) -> Dict[str, Tuple[List[int], List[int]]]:
    """Stream columns of ``tenants`` from an already-validated checkpoint.

    One parse of the file, however many tenants are asked for.  Used by
    the shard's reload fallback and compaction: the file passed full
    validation at recovery (or was just written by this process), and a
    replayed reload re-checks event/miss counts, so a light parse is safe
    here.  Tenants the checkpoint does not hold yield empty columns.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    entries = payload.get("tenants", {})
    streams: Dict[str, Tuple[List[int], List[int]]] = {}
    for tenant in tenants:
        entry = entries.get(tenant)
        if entry is None:
            streams[tenant] = ([], [])
            continue
        where = f"{path}: tenant {tenant!r}"
        streams[tenant] = (list(_decode_columns(entry["pcs"], where)),
                           list(_decode_columns(entry["targets"], where)))
    return streams


def base_records(payload: dict) -> List[dict]:
    """Synthesize the accept records a checkpoint compacted away.

    Rebuilds, from each tenant's batch ``bounds`` and stream columns,
    journal records equivalent to the full prefix the checkpoint covers
    (tenant-sorted; per-tenant order — the only order digests depend on
    — is exact).  ``base_records(snapshot) + journal tail`` is therefore
    a complete replay input, which is how ``repro replay`` and ``repro
    verify`` audit a compacted run.
    """
    records: List[dict] = []
    for tenant in sorted(payload.get("tenants", {})):
        entry = payload["tenants"][tenant]
        where = f"checkpoint tenant {tenant!r}"
        pcs = _decode_columns(entry["pcs"], where)
        targets = _decode_columns(entry["targets"], where)
        offset = 0
        for bid, count in entry["bounds"]:
            records.append({
                "kind": "accept",
                "tenant": tenant,
                "bid": bid,
                "pcs": list(pcs[offset:offset + count]),
                "targets": list(targets[offset:offset + count]),
            })
            offset += count
    return records
