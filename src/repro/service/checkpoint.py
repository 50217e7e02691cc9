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
  were resident at checkpoint time — a pickled predictor so recovery
  restarts warm without replaying the stream.
* ``crc32`` — whole-payload CRC over the canonical JSON with the crc
  field removed.  Validation additionally re-derives every tenant's
  digest from its chain link + counters and cross-checks stream lengths
  against the counters, so a checkpoint cannot *pass* validation and
  still disagree with itself.

Validation never unpickles: the predictor blob is opaque to ``repro
verify`` and ``check_metrics_schema.py`` (both validate structure, CRC
and digest math only).  Only :class:`~repro.service.shard.ShardCore`
unpickles predictors, and only from its own run directory; an unloadable
blob silently demotes the tenant to a cold (replay-on-touch) adopt.

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
import pickle
import zlib
from array import array
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ServiceError
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
    where ``predictor`` is the live instance to pickle, or ``None`` for
    a tenant whose predictor is parked (it will be adopted cold).
    """
    entries: Dict[str, dict] = {}
    for tenant in sorted(tenants):
        meta, pcs, targets, predictor = tenants[tenant]
        entry = meta.to_snapshot()
        entry["pcs"] = _encode_columns(pcs)
        entry["targets"] = _encode_columns(targets)
        blob = None
        if predictor is not None:
            try:
                blob = base64.b64encode(
                    pickle.dumps(predictor, protocol=4)).decode("ascii")
            except Exception:  # unpicklable predictor: adopt cold instead
                blob = None
        entry["predictor"] = blob
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
    :class:`~repro.errors.ServiceError` on *any* inconsistency.  Does
    not unpickle predictor blobs.
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
        blob = entry.get("predictor")
        if blob is not None and not isinstance(blob, str):
            raise ServiceError(f"{where}: predictor blob is not a string")
        metas[tenant] = meta
        streams[tenant] = (pcs, targets)
        total_batches += meta.seq
    if total_batches != covered:
        raise ServiceError(
            f"{origin}: tenants hold {total_batches} batches but "
            f"journal_records says {covered}")
    return {"payload": payload, "metas": metas, "streams": streams}


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


def restore_predictor(entry: dict) -> Optional[object]:
    """Unpickle a tenant's predictor blob; ``None`` when absent/unloadable.

    Only the owning shard calls this, on a checkpoint it (or its
    predecessor) wrote into its own run directory and that already
    passed CRC + digest validation.
    """
    blob = entry.get("predictor")
    if blob is None:
        return None
    try:
        return pickle.loads(base64.b64decode(blob.encode("ascii")))
    except Exception:
        return None


def read_tenant_stream(path: PathLike,
                       tenant: str) -> Tuple[List[int], List[int]]:
    """One tenant's stream columns from an already-validated checkpoint.

    Used by the shard's reload fallback: the file passed full validation
    at recovery (or was just written by this process), and the reload
    audit re-checks event/miss counts after replay, so a light parse is
    safe here and keeps reloads O(file) instead of O(file · validation).
    Unknown tenants yield empty columns.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    entry = payload.get("tenants", {}).get(tenant)
    if entry is None:
        return [], []
    where = f"{path}: tenant {tenant!r}"
    return (list(_decode_columns(entry["pcs"], where)),
            list(_decode_columns(entry["targets"], where)))


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
