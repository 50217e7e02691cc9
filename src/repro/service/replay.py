"""Offline replay of shard journals: the serving bit-identity oracle.

A serving run's journals record every accepted batch in accept order.
Because predictor state is a pure function of the applied stream,
replaying those batches through fresh predictors must land on exactly
the per-tenant digests the live server snapshotted — through any number
of shard crashes, respawns, evictions, reloads, checkpoints, and journal
compactions.  ``repro replay`` materialises that oracle as a
``tenants.json`` of its own, and ``repro verify`` compares the two
(directly via the parsed journals, or across run directories via
``--against``).

**Segmented journals.**  Compaction seals a shard's live journal segment
(renames it, unchanged, to ``sealed-<k>-<base>.jsonl``) and starts the
next one at the checkpoint's watermark, so a shard's history from
genesis is its sealed segments in base order followed by the live
``journal-<k>.jsonl``.  Replay reads exactly that and needs no
checkpoint; a missing sealed segment is a gap in the bases and is
refused (:func:`repro.service.state.join_segments`).

**Kernel.**  Replay is the one service path that is *from-reset* by
construction, so it routes through the offline engine's
:func:`~repro.sim.engine.resolve_kernel`: specs the vectorized batch
kernel supports replay as one concatenated stream per tenant (the
per-batch miss splits are irrelevant — digests cover only cumulative
misses); everything else falls back silently to the event engine.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.factory import predictor_from_spec
from ..errors import ServiceError
from ..sim.engine import resolve_kernel
from .shard import find_sealed, journal_path
from .state import (
    TENANTS_SCHEMA, TenantMeta, join_segments, read_service_journal,
)

PathLike = Union[str, Path]


def replay_shard(
    spec: str, records: List[dict], kernel: str = "auto",
) -> Dict[str, Tuple[TenantMeta, Optional[object]]]:
    """Replay one shard's records from reset: ``tenant -> (meta, predictor)``.

    ``meta`` holds the counters and digest a live shard would hold after
    ``records``.  Where ``kernel`` allows and the spec supports it, the
    miss totals come from one vectorized pass over each tenant's
    concatenated stream (bit-identical by the kernel-equivalence
    contract; the per-batch miss splits are irrelevant, digests cover
    only cumulative misses) and ``predictor`` is ``None``.  Otherwise
    each tenant runs through its own event-engine predictor, returned
    warm: the one whose exported state a checkpoint at that point holds.
    """
    chosen, config = "event", None
    if kernel != "event":
        probe = predictor_from_spec(spec)
        chosen, _ = resolve_kernel(probe, kernel=kernel)
        config = getattr(probe, "config", None)
    tenants: Dict[str, Tuple[TenantMeta, Optional[object]]] = {}
    streams: Dict[str, Tuple[List[int], List[int]]] = {}
    for record in records:
        tenant = record["tenant"]
        pcs, targets = record["pcs"], record["targets"]
        if tenant not in tenants:
            tenants[tenant] = (TenantMeta(), None if chosen == "batch"
                               else predictor_from_spec(spec))
        meta, predictor = tenants[tenant]
        if predictor is not None:
            meta.absorb(record["bid"], pcs, targets,
                        predictor.run_trace(pcs, targets))
            continue
        meta.absorb(record["bid"], pcs, targets, 0)
        tenant_pcs, tenant_targets = streams.setdefault(tenant, ([], []))
        tenant_pcs.extend(pcs)
        tenant_targets.extend(targets)
    if streams:
        from ..sim.kernel import batch_run_trace
        for tenant, (tenant_pcs, tenant_targets) in streams.items():
            tenants[tenant][0].misses = batch_run_trace(
                config, tenant_pcs, tenant_targets)
    return tenants


def replay_records(
    spec: str,
    shard_records: Dict[int, List[dict]],
    kernel: str = "auto",
) -> Dict[str, dict]:
    """Replay accepted batches -> final per-tenant counters + digests.

    ``shard_records`` maps shard id to that shard's accept records in
    journal order (batch order within a tenant is total because one
    shard owns the tenant).  Mirrors the live path exactly: predict +
    update per event, fold each batch into the running digest (see
    :func:`replay_shard` for ``kernel``).
    """
    tenants: Dict[str, dict] = {}
    for shard_id in sorted(shard_records):
        replayed = replay_shard(spec, shard_records[shard_id], kernel)
        for tenant, (meta, _) in replayed.items():
            if tenant in tenants:
                raise ServiceError(
                    f"tenant {tenant!r} appears in more than one shard "
                    f"journal (routing violation)"
                )
            tenants[tenant] = {**meta.to_dict(), "shard": shard_id}
    return dict(sorted(tenants.items()))


def find_journals(run_dir: PathLike) -> Dict[int, Path]:
    """The live shard journals of a serving run directory, by shard id."""
    run_dir = Path(run_dir)
    journals: Dict[int, Path] = {}
    for path in sorted(run_dir.glob("journal-*.jsonl")):
        stem = path.stem  # journal-<k>
        suffix = stem.rsplit("-", 1)[-1]
        if suffix.isdigit():
            journals[int(suffix)] = path
    return journals


def replay_run(run_dir: PathLike,
               kernel: str = "auto") -> Tuple[str, Dict[str, dict]]:
    """Replay every shard's segments in ``run_dir`` -> (spec, tenants)."""
    run_dir = Path(run_dir)
    shards = sorted(set(find_journals(run_dir)) | set(find_sealed(run_dir)))
    if not shards:
        raise ServiceError(f"{run_dir}: no journal-*.jsonl to replay")
    spec: str = ""
    shard_records: Dict[int, List[dict]] = {}
    sealed = find_sealed(run_dir)
    for shard_id in shards:
        live = journal_path(run_dir, shard_id)
        paths = list(sealed.get(shard_id, {}).values())
        segments = [read_service_journal(path)
                    for path in paths + ([live] if live.exists() else [])]
        spec = spec or segments[0][0]["spec"]
        if segments[0][0]["spec"] != spec:
            raise ServiceError(
                f"shard {shard_id}: spec {segments[0][0]['spec']!r} "
                f"disagrees with {spec!r} from an earlier journal")
        shard_records[shard_id] = join_segments(
            segments, origin=f"shard {shard_id} journal")
    return spec, replay_records(spec, shard_records, kernel=kernel)


def write_replay(run_dir: PathLike, out_dir: PathLike) -> Path:
    """``repro replay``: write the oracle ``tenants.json`` to ``out_dir``."""
    spec, tenants = replay_run(run_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": TENANTS_SCHEMA,
        "spec": spec,
        "shards": len(find_journals(run_dir)),
        "source": f"offline replay of {Path(run_dir).name}",
        "shard_meta": [],
        "tenants": tenants,
    }
    target = out_dir / "tenants.json"
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target
