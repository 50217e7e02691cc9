"""Durable record logs: a header line, then one JSON object per line.

Every append-only JSONL log in the repository is one of these (DESIGN.md
§3.5 lists them).  :class:`RecordLog` appends one
``json.dumps(record, sort_keys=True)`` line per record, flushed and
fsync'd before it returns, so a SIGKILL loses at most the record in
flight; :func:`read_records` parses a log without mutating it.

**The commit rule.**  A record is committed iff its line is
newline-terminated and parses as a JSON object.  Only the final line of
a file may fail the rule — the signature of a crash mid-append — and it
is dropped; a failing interior line raises :class:`RecordError`.  An
owner's ``parse`` callback adds its own per-record check under the same
rule.  Header checks, schema checks and the exception type a caller
finally sees stay with each owner.

:func:`atomic_file` (temp file, fsync, ``os.replace``) and
:func:`synced_file` (an fsync'd write whose caller publishes the
rename) are the matching whole-file writers.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import (
    IO, Any, Callable, Iterator, List, NamedTuple, Optional, Union,
)

PathLike = Union[str, Path]


class RecordError(ValueError):
    """An interior line of a record log failed the commit rule."""


class RecordFile(NamedTuple):
    """A parsed record log.

    ``header`` is ``None`` when no header line is committed (an empty
    file, or one killed while writing its first line).  ``committed`` is
    the byte length of the committed prefix an appender resumes from;
    ``dropped_tail`` says whether a failing final line was dropped.
    """

    header: Optional[dict]
    records: List[Any]
    committed: int
    dropped_tail: bool


def encode_record(record: dict) -> bytes:
    """One log line: the record's canonical JSON plus the newline."""
    return json.dumps(record, sort_keys=True).encode("utf-8") + b"\n"


def read_records(
    path: PathLike,
    parse: Optional[Callable[[dict], Any]] = None,
) -> RecordFile:
    """Parse a record log under the commit rule (never mutates the file).

    ``parse`` maps every record after the header to what lands in
    :attr:`RecordFile.records`; a ``ValueError``/``KeyError``/
    ``TypeError`` it raises fails the line like a JSON error does.
    """
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n")
    tail = lines.pop()  # bytes after the last newline: a torn append
    committed = len(raw) - len(tail)
    header: Optional[dict] = None
    records: List[Any] = []
    for number, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("not a JSON object")
            if number > 1 and parse is not None:
                record = parse(record)
        except (ValueError, KeyError, TypeError) as exc:
            if tail or number < len(lines):
                raise RecordError(
                    f"{path}:{number}: corrupt record line ({exc})") from None
            return RecordFile(header, records, committed - len(line) - 1, True)
        if number == 1:
            header = record
        else:
            records.append(record)
    return RecordFile(header, records, committed, bool(tail))


def _sync(stream: IO) -> None:
    stream.flush()
    os.fsync(stream.fileno())


class RecordLog:
    """Append-only, fsync'd record log (see the module docstring).

    Args:
        path: log file; created (with parents) if missing.
        header: first line of a fresh log; ``None`` leaves writing it to
            the caller.
        committed: bytes of an existing log to keep — its
            :attr:`RecordFile.committed`; anything past them (a torn
            tail) is truncated away before the first write.  ``0``
            starts the log afresh.
    """

    def __init__(self, path: PathLike, header: Optional[dict] = None,
                 committed: int = 0) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stream = open(self.path, "ab")
        self._stream.truncate(committed)
        if header is not None and not committed:
            self.write(header)

    @property
    def closed(self) -> bool:
        return self._stream.closed

    def write(self, record: dict) -> None:
        """Durably append one record (flushed and fsync'd on return)."""
        self._stream.write(encode_record(record))
        _sync(self._stream)

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()

    def __enter__(self) -> "RecordLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@contextmanager
def synced_file(path: PathLike, mode: str = "wb") -> Iterator[IO]:
    """Write ``path`` through the yielded stream, fsync'd on a clean exit.

    No rename: the caller publishes the file (see :func:`atomic_file`).
    """
    with open(path, mode, encoding=None if "b" in mode else "utf-8") as sink:
        yield sink
        _sync(sink)


@contextmanager
def atomic_file(path: PathLike, mode: str = "wb") -> Iterator[IO]:
    """Write ``path`` all-or-nothing through the yielded stream.

    The stream is a temp file in the destination directory; on a clean
    exit it is fsync'd and ``os.replace``\\ d over ``path``.  If the body
    raises, the temp file is unlinked and ``path`` is left untouched.
    """
    path = Path(path)
    descriptor, temp_name = tempfile.mkstemp(
        prefix=path.name + ".", suffix=".tmp", dir=str(path.parent))
    os.close(descriptor)
    try:
        with synced_file(temp_name, mode) as stream:
            yield stream
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
