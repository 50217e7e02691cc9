"""Metapredictors: selecting among hybrid component predictions (section 6.1).

Two mechanisms are modelled:

* :class:`ConfidenceMetapredictor` — the paper's scheme.  Every history
  table entry carries an n-bit saturating confidence counter tracking how
  often that *pattern* predicted correctly.  The hybrid selects the
  component whose entry has the highest confidence; ties are broken by a
  fixed component priority; a component with no table entry can never win
  over one that has an entry.
* :class:`BPSTMetapredictor` — McFarling's branch predictor selection
  table: one saturating counter per *branch* steering between exactly two
  components.  Coarser than per-pattern confidence, included for the
  comparison the paper alludes to.
"""

from __future__ import annotations

from array import array
from typing import Dict, Optional, Sequence

from ..errors import ConfigError, StateError
from .columns import pairs_of, to_column
from .tables import Entry


class ConfidenceMetapredictor:
    """Per-entry confidence arbitration (stateless; state lives in entries)."""

    def select(self, entries: Sequence[Optional[Entry]]) -> Optional[int]:
        """Index of the winning component, or ``None`` if no entry exists.

        Earlier components win ties, implementing the paper's "fixed
        ordering" tie-break.
        """
        best_index: Optional[int] = None
        best_confidence = -1
        for index, entry in enumerate(entries):
            if entry is not None and entry.confidence > best_confidence:
                best_index = index
                best_confidence = entry.confidence
        return best_index

    def reset(self) -> None:
        """No internal state; present for interface symmetry."""


class BPSTMetapredictor:
    """A branch predictor selection table for two-component hybrids.

    The counter saturates in ``[0, 2**bits - 1]``; values in the upper half
    select component 1, the lower half component 0.  It moves toward the
    component that was correct when exactly one of the two was.
    """

    def __init__(self, bits: int = 2, num_entries: Optional[int] = None) -> None:
        if bits < 1:
            raise ConfigError(f"selector counter width must be >= 1, got {bits}")
        if num_entries is not None and (
            num_entries < 1 or num_entries & (num_entries - 1)
        ):
            raise ConfigError(f"selector size must be a power of two, got {num_entries}")
        self.bits = bits
        self.maximum = (1 << bits) - 1
        self.threshold = 1 << (bits - 1)
        self.num_entries = num_entries
        self._index_mask = None if num_entries is None else num_entries - 1
        self._counters: Dict[int, int] = {}

    def _slot(self, pc: int) -> int:
        slot = pc >> 2
        if self._index_mask is not None:
            slot &= self._index_mask
        return slot

    def select(self, pc: int) -> int:
        """Component index (0 or 1) chosen for the branch at ``pc``."""
        return 1 if self._counters.get(self._slot(pc), 0) >= self.threshold else 0

    def record(self, pc: int, component0_correct: bool, component1_correct: bool) -> None:
        """Shift the counter toward whichever component was (solely) correct."""
        if component0_correct == component1_correct:
            return
        slot = self._slot(pc)
        value = self._counters.get(slot, 0)
        if component1_correct:
            if value < self.maximum:
                self._counters[slot] = value + 1
        elif value > 0:
            self._counters[slot] = value - 1

    def reset(self) -> None:
        self._counters.clear()

    def export_rows(self) -> array:
        """Counters as flat ``(slot, counter)`` rows, in first-touch order."""
        return to_column(self._counters.items(), "selector")

    def import_rows(self, column: array) -> None:
        """Replace every counter with exported rows (see :meth:`export_rows`).

        Raises :class:`~repro.errors.StateError` — leaving the selector
        unchanged — on a bad row width, a repeated slot, a slot outside a
        sized selector, or a counter above ``2**bits - 1``.
        """
        counters = pairs_of(column, "selector", self.maximum)
        if self.num_entries is not None \
                and max(counters, default=0) >= self.num_entries:
            raise StateError(f"a selector slot is outside the "
                             f"{self.num_entries}-entry selector")
        self._counters = counters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        size = "inf" if self.num_entries is None else str(self.num_entries)
        return f"BPSTMetapredictor(bits={self.bits}, entries={size})"
