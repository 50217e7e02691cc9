"""Crash-consistent shard checkpoints (``repro-shard-snapshot/2``).

A checkpoint freezes a shard's *state*, never its history — the journal
segments are the only record of that.  It is one JSON document:

* ``journal_records`` — the absolute accepted-record watermark **W** the
  checkpoint covers.  Recovery = load checkpoint + replay the live
  journal segment's records ``W..`` (the *tail*), so recovery time is
  O(table size + events since the checkpoint), however long the shard
  has run.
* per tenant — the serialized :class:`~repro.service.state.TenantMeta`
  (counters, digest-chain link, digest) and, for tenants that were
  resident at checkpoint time, the predictor's exported state
  (``predictor``: named base64 ``int64`` columns, see
  :mod:`repro.core.columns`) so recovery restarts them warm.  A parked
  tenant is recorded by its counters and chain only (``predictor``
  ``null``), as is one whose keys do not fit ``int64`` columns.
* ``crc32`` — whole-payload CRC over the canonical JSON with the crc
  field removed.  Validation additionally re-derives every tenant's
  digest from its chain link + counters and checks that the tenants'
  batch counts sum to W, so a checkpoint cannot *pass* validation and
  still disagree with itself.

The file is written in the canonical form itself (compact, sorted keys),
so its size depends on the tenants and the table configuration, not on
how many events were served.

Nothing in a checkpoint can run code: the predictor state is integers
only, and importing it checks every shape against the shard's spec.
Validation checks the columns' names and row widths; only
:class:`~repro.service.shard.ShardCore` imports them, and state that
does not fit leaves the tenant to be rebuilt on first touch.  Any other
schema — the history-carrying ``repro-shard-snapshot/1`` included —
fails validation and takes the salvage ladder's quarantine path.

File discipline is write-temp-then-``os.replace`` with fsync; a
checkpoint that fails validation is quarantined to ``<name>.corrupt``
with a JSON sidecar, the same pattern ingest uses for undecodable traces.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, Optional, Tuple

from ..core.columns import decode_columns, encode_columns, row_width, rows_of
from ..core.factory import predictor_from_spec
from ..errors import ReproError, ServiceError, StateError
from .state import (
    PathLike, TenantMeta, payload_crc, valid_tenant,
)

#: JSON schema identifier of a shard recovery checkpoint.
SNAPSHOT_SCHEMA = "repro-shard-snapshot/2"


def checkpoint_path(run_dir: PathLike, shard_id: int) -> Path:
    """The current (most recent durable) checkpoint of one shard."""
    return Path(run_dir) / f"snapshot-{shard_id}.json"


def prev_checkpoint_path(run_dir: PathLike, shard_id: int) -> Path:
    """The lag-one checkpoint kept as the salvage fallback."""
    return Path(run_dir) / f"snapshot-{shard_id}.prev.json"


def build_checkpoint(
    shard_id: int,
    spec: str,
    journal_records: int,
    tenants: Dict[str, Tuple[TenantMeta, Optional[object]]],
) -> dict:
    """Assemble a checkpoint payload (not yet written anywhere).

    ``tenants`` maps each tenant to ``(meta, predictor)`` where
    ``predictor`` is the live instance whose state to export, or
    ``None`` for a parked tenant (recorded by counters and chain only,
    as is one whose state does not fit ``int64`` columns).
    """
    entries: Dict[str, dict] = {}
    for tenant in sorted(tenants):
        meta, predictor = tenants[tenant]
        state = None
        if predictor is not None:
            try:
                state = encode_columns(predictor.export_state())
            except StateError:
                pass  # keys wider than int64: rebuilt by replay on touch
        entries[tenant] = {**meta.to_snapshot(), "predictor": state}
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

    Returns ``{"payload", "metas": {tenant: TenantMeta}}`` on success;
    raises :class:`~repro.errors.ServiceError` on *any* inconsistency.
    Predictor state must be ``None`` or exactly the named columns the
    spec's predictor exports (whole rows of non-negative values, table
    miss bits 0 or 1).
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
        state = entry.get("predictor")
        if state is not None:
            if state_names is None:
                state_names = _state_names(payload["spec"], origin)
            try:
                _check_state(decode_columns(state), state_names)
            except StateError as exc:
                raise ServiceError(f"{where}: predictor state ({exc})")
        metas[tenant] = meta
        total_batches += meta.seq
    if total_batches != covered:
        raise ServiceError(
            f"{origin}: tenants hold {total_batches} batches but "
            f"journal_records says {covered}")
    return {"payload": payload, "metas": metas}


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
    """Registry validator of ``repro-shard-snapshot/2`` (``repro verify``)."""
    loaded = load_checkpoint(path)
    payload = loaded["payload"]
    warm = sum(entry.get("predictor") is not None
               for entry in payload["tenants"].values())
    return loaded, (f"shard {payload['shard']}: covers "
                    f"{payload['journal_records']} record(s), "
                    f"{len(payload['tenants'])} tenant(s) ({warm} with "
                    f"table state), CRC + digest chains verified")


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

    ``None`` — the tenant is then rebuilt on its next batch — when the
    entry has no state or its columns do not fit the spec.
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
