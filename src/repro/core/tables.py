"""Second-level prediction tables.

A prediction table maps a *key* (assembled by :mod:`repro.core.keys` from
the branch address and the history pattern) to an :class:`Entry` holding a
predicted target address.  The paper evaluates four organisations, all
implemented here behind one interface:

* :class:`UnconstrainedTable` — unlimited, fully associative, used for the
  intrinsic-predictability studies of section 3;
* :class:`FullyAssociativeTable` — limited size with LRU replacement
  (section 5.1, capacity misses);
* :class:`SetAssociativeTable` — 1/2/4-way with per-set LRU (section 5.2,
  conflict misses);
* :class:`TaglessTable` — direct-mapped without tags; a lookup always
  returns whatever entry lives at the index, enabling both negative and
  *positive* interference (section 5.2.2).

All tables implement:

``probe(key)``
    Read-only lookup; returns the matching :class:`Entry` or ``None``.
``commit(key, actual_target)``
    Post-resolution update: applies the update rule (immediate or 2bc
    hysteresis) to a hit, allocates/replaces on a miss, and maintains the
    entry's confidence counter (incremented when the stored target matched,
    decremented otherwise, reset to zero on replacement).

Tables additionally expose a narrow observation hook for the misprediction
attribution engine (:mod:`repro.sim.attribution`): setting ``observer`` to
an object implementing

``evicted(key, cause)``
    an entry for ``key`` was removed by replacement (``cause`` is
    ``"capacity"`` for global LRU eviction, ``"conflict"`` for per-set
    eviction in a set-associative table);
``wrote(index, key)``
    a tagless slot now stores ``key``'s target (allocation or target
    replacement) — the aliasing bookkeeping behind conflict attribution

makes replacement activity visible without touching the lookup path.  The
default ``observer`` is ``None`` and the extra checks sit only on commit's
write/eviction branches, so the fast simulation paths are unaffected when
attribution is off.

``export_rows()`` / ``import_rows(column)`` move a table's entries in and
out as the ``table`` column of :mod:`repro.core.columns`.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..errors import ConfigError, StateError
from .columns import rows_of, to_column

#: Update-rule names. ``"2bc"`` replaces a stored target only after two
#: consecutive mispredictions; ``"always"`` replaces it immediately.
UPDATE_RULES = ("always", "2bc")


class Entry:
    """One prediction-table entry.

    Attributes:
        target: the predicted target address.
        miss_bit: hysteresis state for the 2bc update rule (1 after one
            consecutive miss).
        confidence: n-bit saturating confidence counter value, used by
            hybrid metaprediction (section 6.1).
    """

    __slots__ = ("target", "miss_bit", "confidence")

    def __init__(self, target: int) -> None:
        self.target = target
        self.miss_bit = 0
        self.confidence = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Entry(target={self.target:#x}, miss_bit={self.miss_bit}, "
            f"confidence={self.confidence})"
        )


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class BasePredictionTable:
    """Shared update semantics for all table organisations."""

    #: Optional attribution hook (see the module docstring).  Class-level
    #: default so the fast constructors stay untouched; the attribution
    #: engine sets an instance attribute for the duration of a run.
    observer = None

    def __init__(self, update_rule: str = "2bc", confidence_bits: int = 2) -> None:
        if update_rule not in UPDATE_RULES:
            raise ConfigError(
                f"unknown update rule {update_rule!r}; expected one of {UPDATE_RULES}"
            )
        if confidence_bits < 1:
            raise ConfigError(
                f"confidence counter width must be >= 1 bit, got {confidence_bits}"
            )
        self.update_rule = update_rule
        self.confidence_bits = confidence_bits
        self.confidence_max = (1 << confidence_bits) - 1

    # -- interface -------------------------------------------------------

    def probe(self, key: int) -> Optional[Entry]:
        raise NotImplementedError

    def commit(self, key: int, actual_target: int) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    # -- state columns -----------------------------------------------------

    def export_rows(self) -> array:
        """Entries as flat ``(key, target, miss_bit, confidence)`` rows.

        LRU order, oldest first: importing the rows rebuilds the same
        replacement order.
        """
        return to_column(
            ((key, entry.target, entry.miss_bit, entry.confidence)
             for key, entry in self._items()), "table")

    def import_rows(self, column: array) -> None:
        """Replace every entry with exported rows (see :meth:`export_rows`).

        Raises :class:`~repro.errors.StateError` — leaving the table
        unchanged — on a bad row width, flag or counter value, a
        duplicate key, or more rows than the organisation can hold.
        """
        rows = rows_of(column, "table")
        if max(column[2::4], default=0) > 1:
            raise StateError("a table row's miss bit is not 0 or 1")
        if max(column[3::4], default=0) > self.confidence_max:
            raise StateError(f"a table row's confidence exceeds "
                             f"{self.confidence_max}")
        entries = []
        for key, target, miss_bit, confidence in rows:
            entry = Entry(target)
            entry.miss_bit = miss_bit
            entry.confidence = confidence
            entries.append((key, entry))
        self._load(entries)

    def _items(self) -> Iterable[Tuple[int, Entry]]:
        raise NotImplementedError

    def _load(self, entries: List[Tuple[int, Entry]]) -> None:
        raise NotImplementedError

    @staticmethod
    def _unique(entries: List[Tuple[int, Entry]]) -> Dict[int, Entry]:
        loaded = dict(entries)
        if len(loaded) != len(entries):
            raise StateError("table rows repeat a key")
        return loaded

    # -- shared helpers ----------------------------------------------------

    def _apply_update(self, entry: Entry, actual_target: int) -> bool:
        """Update a resident entry after the branch resolves.

        Returns ``True`` when the entry now stores ``actual_target`` (it
        already matched, or the update rule replaced it) — the signal the
        tagless ``wrote`` hook needs to track slot ownership.
        """
        if entry.target == actual_target:
            entry.miss_bit = 0
            if entry.confidence < self.confidence_max:
                entry.confidence += 1
            return True
        if entry.confidence > 0:
            entry.confidence -= 1
        if self.update_rule == "always" or entry.miss_bit:
            entry.target = actual_target
            entry.miss_bit = 0
            return True
        entry.miss_bit = 1
        return False


class UnconstrainedTable(BasePredictionTable):
    """Unlimited fully-associative table (no capacity or conflict misses).

    Used for the section 3 experiments that measure intrinsic
    predictability; every distinct key gets its own entry forever.
    """

    def __init__(self, update_rule: str = "2bc", confidence_bits: int = 2) -> None:
        super().__init__(update_rule, confidence_bits)
        self._entries: Dict[int, Entry] = {}

    @property
    def capacity(self) -> Optional[int]:
        return None

    def probe(self, key: int) -> Optional[Entry]:
        return self._entries.get(key)

    def commit(self, key: int, actual_target: int) -> None:
        entry = self._entries.get(key)
        if entry is None:
            self._entries[key] = Entry(actual_target)
        else:
            self._apply_update(entry, actual_target)

    def __len__(self) -> int:
        return len(self._entries)

    def _items(self) -> Iterable[Tuple[int, Entry]]:
        return self._entries.items()

    def _load(self, entries: List[Tuple[int, Entry]]) -> None:
        self._entries = self._unique(entries)


class FullyAssociativeTable(BasePredictionTable):
    """Limited-size fully-associative table with LRU replacement (§5.1)."""

    def __init__(
        self,
        num_entries: int,
        update_rule: str = "2bc",
        confidence_bits: int = 2,
    ) -> None:
        super().__init__(update_rule, confidence_bits)
        if not _is_power_of_two(num_entries):
            raise ConfigError(f"table size must be a power of two, got {num_entries}")
        self.num_entries = num_entries
        self._entries: "OrderedDict[int, Entry]" = OrderedDict()

    @property
    def capacity(self) -> int:
        return self.num_entries

    def probe(self, key: int) -> Optional[Entry]:
        return self._entries.get(key)

    def commit(self, key: int, actual_target: int) -> None:
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
            self._apply_update(entry, actual_target)
            return
        if len(entries) >= self.num_entries:
            evicted_key, _ = entries.popitem(last=False)
            if self.observer is not None:
                self.observer.evicted(evicted_key, "capacity")
        entries[key] = Entry(actual_target)

    def __len__(self) -> int:
        return len(self._entries)

    def _items(self) -> Iterable[Tuple[int, Entry]]:
        return self._entries.items()

    def _load(self, entries: List[Tuple[int, Entry]]) -> None:
        if len(entries) > self.num_entries:
            raise StateError(f"{len(entries)} table rows exceed the "
                             f"{self.num_entries}-entry capacity")
        self._entries = OrderedDict(self._unique(entries))


class SetAssociativeTable(BasePredictionTable):
    """k-way set-associative table with per-set LRU replacement (§5.2).

    The low ``log2(num_sets)`` bits of the key select a set; the remaining
    bits form the tag.  ``associativity=1`` gives a direct-mapped (tagged)
    table.
    """

    def __init__(
        self,
        num_entries: int,
        associativity: int,
        update_rule: str = "2bc",
        confidence_bits: int = 2,
    ) -> None:
        super().__init__(update_rule, confidence_bits)
        if not _is_power_of_two(num_entries):
            raise ConfigError(f"table size must be a power of two, got {num_entries}")
        if not _is_power_of_two(associativity):
            raise ConfigError(f"associativity must be a power of two, got {associativity}")
        if associativity > num_entries:
            raise ConfigError(
                f"associativity {associativity} exceeds table size {num_entries}"
            )
        self.num_entries = num_entries
        self.associativity = associativity
        self.num_sets = num_entries // associativity
        self.index_bits = self.num_sets.bit_length() - 1
        self._index_mask = self.num_sets - 1
        # Each set is an insertion-ordered dict tag -> Entry; the first key
        # is the least recently used way.  A set's dict is created by its
        # first commit (``None`` until then), so building a table costs the
        # same whatever its size.
        self._sets: List[Optional[Dict[int, Entry]]] = [None] * self.num_sets

    @property
    def capacity(self) -> int:
        return self.num_entries

    def probe(self, key: int) -> Optional[Entry]:
        ways = self._sets[key & self._index_mask]
        return None if ways is None else ways.get(key >> self.index_bits)

    def commit(self, key: int, actual_target: int) -> None:
        tag = key >> self.index_bits
        index = key & self._index_mask
        ways = self._sets[index]
        if ways is None:
            self._sets[index] = {tag: Entry(actual_target)}
            return
        entry = ways.get(tag)
        if entry is not None:
            # Refresh recency by reinserting at the back of the dict.
            del ways[tag]
            ways[tag] = entry
            self._apply_update(entry, actual_target)
            return
        if len(ways) >= self.associativity:
            victim_tag = next(iter(ways))
            del ways[victim_tag]
            if self.observer is not None:
                self.observer.evicted(
                    (victim_tag << self.index_bits) | (key & self._index_mask),
                    "conflict",
                )
        ways[tag] = Entry(actual_target)

    def __len__(self) -> int:
        return sum(len(ways) for ways in self._sets if ways is not None)

    def utilization(self) -> float:
        """Fraction of entry slots in use (paper quotes this for §5.2.1)."""
        return len(self) / self.num_entries

    def _items(self) -> Iterator[Tuple[int, Entry]]:
        index_bits = self.index_bits
        for index, ways in enumerate(self._sets):
            if ways is not None:
                for tag, entry in ways.items():
                    yield (tag << index_bits) | index, entry

    def _load(self, entries: List[Tuple[int, Entry]]) -> None:
        sets: List[Optional[Dict[int, Entry]]] = [None] * self.num_sets
        index_bits, index_mask = self.index_bits, self._index_mask
        for key, entry in entries:
            index = key & index_mask
            ways = sets[index]
            if ways is None:
                ways = sets[index] = {}
            elif len(ways) >= self.associativity:
                raise StateError(f"set {index} holds more than "
                                 f"{self.associativity} ways")
            tag = key >> index_bits
            if tag in ways:
                raise StateError("table rows repeat a key")
            ways[tag] = entry
        self._sets = sets


class TaglessTable(BasePredictionTable):
    """Direct-mapped table without tags (§5.2.2).

    A probe returns whatever entry currently lives at the index, even if it
    was written by a different key — this aliasing is what produces the
    *positive interference* that lets tagless tables beat 4-way associative
    ones at long path lengths.
    """

    def __init__(
        self,
        num_entries: int,
        update_rule: str = "2bc",
        confidence_bits: int = 2,
    ) -> None:
        super().__init__(update_rule, confidence_bits)
        if not _is_power_of_two(num_entries):
            raise ConfigError(f"table size must be a power of two, got {num_entries}")
        self.num_entries = num_entries
        self.index_bits = num_entries.bit_length() - 1
        self._index_mask = num_entries - 1
        self._entries: List[Optional[Entry]] = [None] * num_entries

    @property
    def capacity(self) -> int:
        return self.num_entries

    def probe(self, key: int) -> Optional[Entry]:
        return self._entries[key & self._index_mask]

    def commit(self, key: int, actual_target: int) -> None:
        index = key & self._index_mask
        entry = self._entries[index]
        if entry is None:
            self._entries[index] = Entry(actual_target)
            if self.observer is not None:
                self.observer.wrote(index, key)
        elif self._apply_update(entry, actual_target):
            if self.observer is not None:
                self.observer.wrote(index, key)

    def __len__(self) -> int:
        return sum(1 for entry in self._entries if entry is not None)

    def utilization(self) -> float:
        return len(self) / self.num_entries

    def _items(self) -> Iterator[Tuple[int, Entry]]:
        for index, entry in enumerate(self._entries):
            if entry is not None:
                yield index, entry

    def _load(self, entries: List[Tuple[int, Entry]]) -> None:
        slots: List[Optional[Entry]] = [None] * self.num_entries
        for slot, entry in self._unique(entries).items():
            if slot >= self.num_entries:
                raise StateError(f"tagless slot {slot} is outside the "
                                 f"{self.num_entries}-entry table")
            slots[slot] = entry
        self._entries = slots


def make_table(
    num_entries: Optional[int],
    associativity: object,
    update_rule: str = "2bc",
    confidence_bits: int = 2,
) -> BasePredictionTable:
    """Build a table from the (size, associativity) naming used in the paper.

    ``associativity`` accepts an int (1, 2, 4, ...), the string ``"full"``
    for fully associative, or ``"tagless"``.  ``num_entries=None`` yields an
    :class:`UnconstrainedTable` regardless of associativity.
    """
    if num_entries is None:
        return UnconstrainedTable(update_rule, confidence_bits)
    if associativity == "tagless":
        return TaglessTable(num_entries, update_rule, confidence_bits)
    if associativity == "full":
        return FullyAssociativeTable(num_entries, update_rule, confidence_bits)
    if isinstance(associativity, int):
        if associativity == num_entries:
            return FullyAssociativeTable(num_entries, update_rule, confidence_bits)
        return SetAssociativeTable(num_entries, associativity, update_rule, confidence_bits)
    raise ConfigError(
        f"associativity must be an int, 'full', or 'tagless'; got {associativity!r}"
    )
