"""Predictor state as named ``int64`` columns.

The paper's predictors are fixed-size tables, so their state is
O(configuration), not O(events seen).  Every servable predictor
(:class:`~repro.core.btb.BranchTargetBuffer`,
:class:`~repro.core.twolevel.TwoLevelPredictor`,
:class:`~repro.core.hybrid.HybridPredictor`) exports that state with
``export_state()`` as a dict of named ``array("q")`` columns, each a flat
run of fixed-width rows:

``table``
    ``(key, target, miss_bit, confidence)`` per prediction-table entry,
    in LRU order (oldest first; set by set for a set-associative table;
    slot by slot for a tagless one, whose key is the slot).
``history``
    ``(register id, packed pattern)`` per history register.
``selector``
    ``(slot, counter)`` per BPST selector counter.

A hybrid prefixes each component's columns with ``c<i>.``.

``import_state(columns)`` loads such columns into a predictor of the
same configuration.  It checks every shape — the column names, row
width, capacity, ways per set, slot and value ranges — and raises
:class:`~repro.errors.StateError` on any mismatch, leaving the predictor
as it was.  Only integers are read, so nothing on the path can run code:
columns are safe to load from disk, which a pickle is not.

:func:`encode_columns` / :func:`decode_columns` are the one on-disk form:
base64 of each column's little-endian bytes, keyed by name.
"""

from __future__ import annotations

import base64
import binascii
import re
import sys
from array import array
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from ..errors import StateError

#: Named state columns, as ``export_state()`` returns them.
Columns = Dict[str, array]

#: Row width of each column kind (the name's last dotted part).
ROW_WIDTHS = {"table": 4, "history": 2, "selector": 2}

_NAME = re.compile(r"^(?:c\d{1,3}\.)?(?:table|history)$|^selector$")


def row_width(name: str) -> int:
    """Row width of the column called ``name``; unknown names are errors."""
    if not isinstance(name, str) or not _NAME.match(name):
        raise StateError(f"unknown state column {name!r}")
    return ROW_WIDTHS[name.rpartition(".")[2]]


def to_column(rows: Iterable[Tuple[int, ...]], name: str) -> array:
    """Flatten rows into an ``int64`` column; out-of-range values are errors."""
    flat = []
    for row in rows:
        flat.extend(row)
    try:
        return array("q", flat)
    except OverflowError:
        raise StateError(
            f"state column {name!r} holds a value outside int64 "
            f"(keys or patterns wider than 63 bits)") from None


def rows_of(column: array, name: str) -> Iterator[Tuple[int, ...]]:
    """The rows of a ``name`` column, checked for width and sign.

    No state value is negative; callers add the range checks their
    structure needs (capacity, ways, slots, counter maxima, ...).
    """
    width = row_width(name)
    if len(column) % width:
        raise StateError(f"state column {name!r} has {len(column)} values, "
                         f"not whole rows of {width}")
    if column and min(column) < 0:
        raise StateError(f"state column {name!r} holds a negative value")
    return zip(*[iter(column)] * width)


def pairs_of(column: array, name: str, maximum: int) -> Dict[int, int]:
    """The ``(id, value)`` rows of a ``name`` column as a dict.

    Repeated ids and values above ``maximum`` are errors.
    """
    pairs = dict(rows_of(column, name))
    if len(pairs) * 2 != len(column):
        raise StateError(f"{name} rows repeat an id")
    if max(column[1::2], default=0) > maximum:
        raise StateError(f"a {name} value exceeds {maximum}")
    return pairs


def expect_columns(columns: object, names: Sequence[str]) -> None:
    """Check ``columns`` holds exactly ``names``, each an ``array("q")``."""
    if not isinstance(columns, Mapping):
        raise StateError("state columns are not a mapping")
    if set(columns) != set(names):
        raise StateError(f"state columns {sorted(columns)} do not match "
                         f"the predictor's {sorted(names)}")
    for name in names:
        column = columns[name]
        if not isinstance(column, array) or column.typecode != "q":
            raise StateError(f"state column {name!r} is not an int64 array")


def encode_columns(columns: Mapping[str, array]) -> Dict[str, str]:
    """Base64 of each column's little-endian bytes, keyed by name."""
    encoded = {}
    for name in sorted(columns):
        column = columns[name]
        if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
            column = array("q", column)
            column.byteswap()
        encoded[name] = base64.b64encode(column.tobytes()).decode("ascii")
    return encoded


def decode_columns(encoded: object) -> Columns:
    """Inverse of :func:`encode_columns`; every name and width is checked."""
    if not isinstance(encoded, dict):
        raise StateError("encoded state is not an object")
    columns: Columns = {}
    for name, blob in encoded.items():
        width = row_width(name)
        if not isinstance(blob, str):
            raise StateError(f"state column {name!r} is not a string")
        try:
            raw = base64.b64decode(blob.encode("ascii"), validate=True)
        except (binascii.Error, ValueError, UnicodeEncodeError):
            raise StateError(f"state column {name!r} is not base64") from None
        if len(raw) % (8 * width):
            raise StateError(f"state column {name!r} is {len(raw)} bytes, "
                             f"not whole rows of {width} int64 values")
        column = array("q")
        column.frombytes(raw)
        if sys.byteorder != "little":  # pragma: no cover - big-endian hosts
            column.byteswap()
        columns[name] = column
    return columns
