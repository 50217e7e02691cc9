"""The ``repro-ext-trace/1`` external-trace format.

External indirect-branch traces enter the system as NDJSON: one header
record followed by one record per dynamic dispatch event, and a closing
record carrying the event count.  The format is producer-agnostic — the
CPython adapter (:mod:`repro.ingest.recorder`), the Bril importer
(:mod:`repro.ingest.bril`), and any future tool all emit the same shape
and go through the same strict reader.

Layout::

    {"schema": "repro-ext-trace/1", "producer": ..., "producer_version":
     ..., "name": ..., "meta": {...}, "sites": [...], "targets": [...]}
    {"s": SITE_ID, "t": TARGET_ID}
    {"s": SITE_ID, "t": TARGET_ID, "p": [SITE_ID, ...]}
    ...
    {"end": true, "events": N}

*ID stability.*  ``sites`` and ``targets`` are tables of
``{"id": n, "label": str, ...}`` entries whose ids must be exactly
``0..len-1`` in order (dense, first-appearance numbering).  Event
records refer to table ids only; labels never appear per event, so a
producer that numbers deterministically yields byte-stable files for
byte-stable program runs.  The optional ``"p"`` field carries path
context (the most recent preceding site ids) for history-based
predictors; the normalizer currently ignores it but the reader
validates it.

*Strictness.*  The reader mirrors the trace-format-v2 conventions of
:mod:`repro.workloads.io`: every violation raises
:class:`~repro.errors.IngestError` naming the file, the record index,
and the byte offset at which the offending record starts, and the same
pair is carried structurally (:attr:`~repro.errors.IngestError.record`
/ :attr:`~repro.errors.IngestError.byte_offset`) for quarantine
sidecars and CLI diagnostics.  Files
must end with the ``end`` record and its event count must match —
truncation is detected, not silently accepted.

Writes are atomic (temp file + rename in the destination directory),
matching :func:`repro.workloads.io.save_trace`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import IngestError
from ..runtime.records import atomic_file

#: Schema identifier carried in the header record (and manifests).
EXT_TRACE_SCHEMA = "repro-ext-trace/1"

PathLike = Union[str, Path]


@dataclass
class ExtTrace:
    """A parsed external trace: header tables plus the event stream."""

    name: str
    producer: str
    producer_version: str
    #: site id -> label (ids are dense 0..n-1; list index == id).
    sites: List[dict]
    #: target id -> label.
    targets: List[dict]
    #: (site id, target id) per dynamic dispatch event, in order.
    events: List[Tuple[int, int]]
    #: free-form producer metadata (command line, interpreter, ...).
    meta: Dict[str, object] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.events)

    def site_label(self, site_id: int) -> str:
        return self.sites[site_id].get("label", str(site_id))

    def target_label(self, target_id: int) -> str:
        return self.targets[target_id].get("label", str(target_id))


def _bad(path: PathLike, record: int, offset: int, detail: str) -> IngestError:
    """An :class:`IngestError` in the house style, context attached."""
    error = IngestError(
        f"{path}: {detail} (record {record}, byte offset {offset})"
    )
    error.record = record
    error.byte_offset = offset
    return error


def _check_table(path: PathLike, offset: int, what: str,
                 table: object) -> List[dict]:
    if not isinstance(table, list):
        raise _bad(path, 0, offset, f"header {what!r} must be a list")
    for index, entry in enumerate(table):
        if not isinstance(entry, dict) or not isinstance(
                entry.get("label"), str):
            raise _bad(path, 0, offset,
                       f"{what}[{index}] must be an object with a "
                       f"string 'label'")
        if entry.get("id") != index:
            raise _bad(path, 0, offset,
                       f"{what}[{index}] has id {entry.get('id')!r}; ids "
                       f"must be dense 0..{len(table) - 1} in order")
    return table


def read_ext_trace(path: PathLike) -> ExtTrace:
    """Strictly parse a ``repro-ext-trace/1`` file.

    Raises :class:`~repro.errors.IngestError` — never a bare JSON or key
    error — on any malformed input, reporting the record index and the
    byte offset at which the offending record starts.
    """
    path = Path(path)
    offset = 0
    record_index = 0
    header: Optional[dict] = None
    sites: List[dict] = []
    targets: List[dict] = []
    events: List[Tuple[int, int]] = []
    closed = False
    with open(path, "rb") as stream:
        for raw in stream:
            line_offset = offset
            offset += len(raw)
            line = raw.strip()
            if not line:
                continue
            if closed:
                raise _bad(path, record_index, line_offset,
                           "data after the closing 'end' record")
            try:
                record = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise _bad(path, record_index, line_offset,
                           f"unparseable record: {exc}") from exc
            if not isinstance(record, dict):
                raise _bad(path, record_index, line_offset,
                           "record must be a JSON object")
            if header is None:
                if record.get("schema") != EXT_TRACE_SCHEMA:
                    raise _bad(path, 0, line_offset,
                               f"schema {record.get('schema')!r}, expected "
                               f"{EXT_TRACE_SCHEMA!r}")
                for key in ("producer", "producer_version", "name"):
                    if not isinstance(record.get(key), str) or not record[key]:
                        raise _bad(path, 0, line_offset,
                                   f"header missing string field {key!r}")
                sites = _check_table(path, line_offset, "sites",
                                     record.get("sites"))
                targets = _check_table(path, line_offset, "targets",
                                       record.get("targets"))
                header = record
                record_index += 1
                continue
            if record.get("end"):
                declared = record.get("events")
                if declared != len(events):
                    raise _bad(path, record_index, line_offset,
                               f"'end' record declares {declared!r} "
                               f"event(s) but {len(events)} were read")
                closed = True
                record_index += 1
                continue
            site_id = record.get("s")
            target_id = record.get("t")
            if not isinstance(site_id, int) or not isinstance(target_id, int):
                raise _bad(path, record_index, line_offset,
                           "event record needs integer fields 's' and 't'")
            if not 0 <= site_id < len(sites):
                raise _bad(path, record_index, line_offset,
                           f"site id {site_id} outside table "
                           f"(0..{len(sites) - 1})")
            if not 0 <= target_id < len(targets):
                raise _bad(path, record_index, line_offset,
                           f"target id {target_id} outside table "
                           f"(0..{len(targets) - 1})")
            context = record.get("p")
            if context is not None:
                if (not isinstance(context, list)
                        or any(not isinstance(item, int)
                               or not 0 <= item < len(sites)
                               for item in context)):
                    raise _bad(path, record_index, line_offset,
                               "path context 'p' must be a list of site ids")
            events.append((site_id, target_id))
            record_index += 1
    if header is None:
        raise _bad(path, 0, 0, "empty file (no header record)")
    if not closed:
        raise _bad(path, record_index, offset,
                   "truncated: missing the closing 'end' record")
    return ExtTrace(
        name=header["name"],
        producer=header["producer"],
        producer_version=header["producer_version"],
        sites=sites,
        targets=targets,
        events=events,
        meta=dict(header.get("meta", {})),
    )


def validate_ext_trace(path: PathLike) -> Tuple[ExtTrace, str]:
    """Registry validator of ``repro-ext-trace/1`` (see ``repro verify``).

    :func:`read_ext_trace`, plus what makes a trace worth simulating: at
    least one event, and non-empty site and target tables whose labels
    are non-empty.
    """
    trace = read_ext_trace(path)
    if not trace.events:
        raise IngestError(f"{path}: no events")
    for what, table in (("sites", trace.sites), ("targets", trace.targets)):
        if not all(entry["label"] for entry in table):
            raise IngestError(f"{path}: {what} table has an empty label")
    return trace, (f"{trace.name!r} from {trace.producer}: {len(trace)} "
                   f"event(s), {len(trace.sites)} site(s), "
                   f"{len(trace.targets)} target(s)")


def write_ext_trace(
    path: PathLike,
    name: str,
    producer: str,
    producer_version: str,
    sites: List[dict],
    targets: List[dict],
    events: Iterable[Tuple[int, int]],
    meta: Optional[Dict[str, object]] = None,
) -> Path:
    """Write a ``repro-ext-trace/1`` file atomically (temp + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": EXT_TRACE_SCHEMA,
        "producer": producer,
        "producer_version": producer_version,
        "name": name,
        "meta": dict(meta or {}),
        "sites": sites,
        "targets": targets,
    }
    count = 0
    with atomic_file(path, "w") as stream:
        stream.write(json.dumps(header, sort_keys=True) + "\n")
        for site_id, target_id in events:
            stream.write(json.dumps({"s": site_id, "t": target_id}) + "\n")
            count += 1
        stream.write(json.dumps({"end": True, "events": count}) + "\n")
    return path


def source_digest(path: PathLike) -> str:
    """Hex SHA-256 of an external trace file's bytes (the cache key)."""
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for chunk in iter(lambda: stream.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def quarantine_ingest(path: PathLike, error: IngestError) -> Optional[Path]:
    """Write a ``<source>.quarantine.json`` sidecar for a bad ingest file.

    Mirrors the trace cache's ``.corrupt`` quarantine: the evidence (the
    one-line diagnosis plus the structured record/byte-offset context)
    survives next to the offending file for debugging.  Best effort — a
    read-only source directory does not turn a diagnosis into a crash.
    """
    target = Path(str(path) + ".quarantine.json")
    record = {
        "schema": "repro-ext-trace-quarantine/1",
        "source": str(path),
        "error": str(error),
        "record": getattr(error, "record", None),
        "byte_offset": getattr(error, "byte_offset", None),
    }
    try:
        target.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    except OSError:
        return None
    return target
