"""Trace serialisation.

Two formats are provided:

* a compact binary format (magic + JSON metadata header + raw little-endian
  ``uint32`` columns) used for caching generated traces on disk;
* a human-readable text format (one ``pc target`` hex pair per line) for
  debugging and for importing traces produced by external tools.

The binary format is version 2 (magic ``REPROTR2``): the header carries a
CRC32 checksum for the metadata blob and for each event column, so that a
torn write, a truncated download, or bit rot in a cache directory is
detected at load time instead of silently corrupting a sweep.  Writes go
through a temporary file in the destination directory followed by an atomic
rename, so a reader never observes a half-written trace.  Version-1 files
(``REPROTR1``, no checksums) are still readable.
"""

from __future__ import annotations

import json
import struct
import zlib
from array import array
from pathlib import Path
from typing import Union

from ..errors import TraceError
from .trace import Trace, TraceMetadata

_MAGIC_V1 = b"REPROTR1"
_MAGIC = b"REPROTR2"
_HEADER_V1 = struct.Struct("<8sII")  # magic, metadata length, event count
#: magic, metadata length, event count, metadata CRC32, pc CRC32, target CRC32
_HEADER = struct.Struct("<8sIIIII")

PathLike = Union[str, Path]


def _metadata_to_dict(metadata: TraceMetadata) -> dict:
    return {
        "name": metadata.name,
        "seed": metadata.seed,
        "description": metadata.description,
        "instruction_count": metadata.instruction_count,
        "conditional_count": metadata.conditional_count,
        "virtual_events": metadata.virtual_events,
        "returns_filtered": metadata.returns_filtered,
        "extra": metadata.extra,
    }


def _metadata_from_dict(data: dict) -> TraceMetadata:
    return TraceMetadata(
        name=data["name"],
        seed=data.get("seed", 0),
        description=data.get("description", ""),
        instruction_count=data.get("instruction_count", 0),
        conditional_count=data.get("conditional_count", 0),
        virtual_events=data.get("virtual_events", 0),
        returns_filtered=data.get("returns_filtered", 0),
        extra=data.get("extra", {}),
    )


def save_trace(trace: Trace, path: PathLike) -> None:
    """Write a trace in the binary cache format (v2, checksummed).

    The file is written to a temporary sibling and renamed into place, so
    concurrent readers and crashed writers never leave a partial trace at
    ``path``.
    """
    metadata_blob = json.dumps(_metadata_to_dict(trace.metadata)).encode("utf-8")
    try:
        pcs = array("I", trace.pcs)
        targets = array("I", trace.targets)
    except OverflowError as exc:
        raise TraceError(
            f"{path}: trace {trace.name!r} has an address outside the 32-bit "
            f"space supported by the binary format: {exc}"
        ) from exc
    pc_blob = pcs.tobytes()
    target_blob = targets.tobytes()
    header = _HEADER.pack(
        _MAGIC,
        len(metadata_blob),
        len(trace),
        zlib.crc32(metadata_blob),
        zlib.crc32(pc_blob),
        zlib.crc32(target_blob),
    )
    # Imported here: the runtime package imports this module at load time.
    from ..runtime.records import atomic_file

    with atomic_file(path) as stream:
        stream.write(header)
        stream.write(metadata_blob)
        stream.write(pc_blob)
        stream.write(target_blob)


def _check_crc(path: PathLike, what: str, blob: bytes, expected: int) -> None:
    actual = zlib.crc32(blob)
    if actual != expected:
        raise TraceError(
            f"{path}: {what} checksum mismatch "
            f"(stored {expected:#010x}, computed {actual:#010x}); "
            f"the file is corrupt"
        )


def load_trace(path: PathLike) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Verifies the per-column CRC32 checksums (v2 files), rejects truncated
    files, and rejects trailing garbage after the event columns, reporting
    the byte offset at which the unexpected data starts.
    """
    with open(path, "rb") as stream:
        magic = stream.read(8)
        if len(magic) != 8:
            raise TraceError(f"{path}: truncated trace header")
        if magic == _MAGIC:
            rest = stream.read(_HEADER.size - 8)
            if len(rest) != _HEADER.size - 8:
                raise TraceError(f"{path}: truncated trace header")
            (metadata_length, event_count,
             metadata_crc, pc_crc, target_crc) = struct.unpack("<IIIII", rest)
            checksummed = True
            header_size = _HEADER.size
        elif magic == _MAGIC_V1:
            rest = stream.read(_HEADER_V1.size - 8)
            if len(rest) != _HEADER_V1.size - 8:
                raise TraceError(f"{path}: truncated trace header")
            metadata_length, event_count = struct.unpack("<II", rest)
            metadata_crc = pc_crc = target_crc = 0
            checksummed = False
            header_size = _HEADER_V1.size
        else:
            raise TraceError(f"{path}: not a repro trace file (bad magic {magic!r})")
        metadata_blob = stream.read(metadata_length)
        if len(metadata_blob) != metadata_length:
            raise TraceError(f"{path}: truncated metadata block")
        if checksummed:
            _check_crc(path, "metadata", metadata_blob, metadata_crc)
        try:
            metadata = _metadata_from_dict(json.loads(metadata_blob.decode("utf-8")))
        except (ValueError, KeyError) as exc:
            raise TraceError(f"{path}: malformed metadata: {exc}") from exc
        column_bytes = event_count * 4
        pcs = array("I")
        targets = array("I")
        pc_blob = stream.read(column_bytes)
        target_blob = stream.read(column_bytes)
        if len(pc_blob) != column_bytes or len(target_blob) != column_bytes:
            raise TraceError(f"{path}: truncated event columns")
        if checksummed:
            _check_crc(path, "pc column", pc_blob, pc_crc)
            _check_crc(path, "target column", target_blob, target_crc)
        trailing = stream.read()
        if trailing:
            offset = header_size + metadata_length + 2 * column_bytes
            raise TraceError(
                f"{path}: {len(trailing)} byte(s) of trailing garbage after "
                f"the event columns (starting at byte offset {offset})"
            )
        pcs.frombytes(pc_blob)
        targets.frombytes(target_blob)
    trace = Trace(array("L", pcs), array("L", targets), metadata)
    return trace


def trace_columns(trace: Trace):
    """Return ``(pcs, targets)`` as ``int64`` numpy columns.

    The binary format stores unsigned 32-bit event columns; the batch
    simulation kernel does all key assembly in signed 64-bit space so
    that addresses near ``2**32`` (common in ingested real traces) can
    be shifted and XOR-mixed without silent wraparound.  This helper is
    the one sanctioned crossing between the two representations: it
    upcasts and *validates* the 32-bit contract, raising
    :class:`~repro.errors.TraceError` for columns no v2 trace file
    could have produced.  Requires numpy.
    """
    from ..core.batch import BatchDtypeError, as_int64_columns

    try:
        return as_int64_columns(trace.pcs, trace.targets)
    except BatchDtypeError as exc:
        raise TraceError(f"trace {trace.name!r}: {exc}") from exc


def save_trace_text(trace: Trace, path: PathLike) -> None:
    """Write a trace as ``pc target`` hex pairs, one event per line."""
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(f"# repro trace: {trace.name} ({len(trace)} events)\n")
        for pc, target in trace:
            stream.write(f"{pc:08x} {target:08x}\n")


def load_trace_text(path: PathLike, name: str = "imported") -> Trace:
    """Read a text trace (comment lines starting with ``#`` are skipped)."""
    pcs = array("L")
    targets = array("L")
    with open(path, "r", encoding="utf-8") as stream:
        for line_number, line in enumerate(stream, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TraceError(f"{path}:{line_number}: expected 'pc target'")
            try:
                pcs.append(int(parts[0], 16))
                targets.append(int(parts[1], 16))
            except (ValueError, OverflowError) as exc:
                raise TraceError(f"{path}:{line_number}: bad address: {exc}") from exc
    return Trace(pcs, targets, TraceMetadata(name=name))
