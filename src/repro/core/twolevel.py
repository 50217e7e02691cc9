"""The two-level indirect-branch predictor — the paper's core contribution.

Structure (Figure 3/8 of the paper):

1. **First level** — a file of history registers holding the compressed
   targets of the last ``p`` indirect branches
   (:class:`repro.core.history.HistoryRegisterFile`; sharing parameter
   ``s``).
2. **Key assembly** — the pattern is optionally interleaved and combined
   with the branch address (parameter ``h``, concat or XOR;
   :class:`repro.core.keys.KeyBuilder`).
3. **Second level** — a history table storing predicted targets with 2bc
   hysteresis and a confidence counter
   (:mod:`repro.core.tables`).

All of sections 3-5 of the paper are different parameterisations of this
one class, produced via :class:`repro.core.config.TwoLevelConfig`.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .columns import Columns, expect_columns
from .config import TwoLevelConfig
from .history import HistoryRegisterFile
from .keys import KeyBuilder
from .tables import BasePredictionTable, Entry, make_table


class TwoLevelPredictor:
    """A configurable two-level predictor for indirect branches."""

    def __init__(self, config: Optional[TwoLevelConfig] = None) -> None:
        self.config = config = config or TwoLevelConfig()
        bits = config.bits_per_target
        self.history = HistoryRegisterFile(
            path_length=config.path_length,
            sharing_shift=config.history_sharing,
            bits_per_target=bits,
            low_bit=config.effective_low_bit,
            compression=config.compression,
        )
        self.keys = KeyBuilder(
            path_length=config.path_length,
            bits_per_target=bits,
            address_mode=config.address_mode,
            table_sharing=config.table_sharing,
            interleave=config.interleave,
        )
        self.table: BasePredictionTable = self._empty_table()

    def _empty_table(self) -> BasePredictionTable:
        config = self.config
        return make_table(config.num_entries, config.associativity,
                          config.update_rule, config.confidence_bits)

    # -- single-branch interface -----------------------------------------

    def key_for(self, pc: int) -> int:
        """Current lookup key for the branch at ``pc`` (used by hybrids)."""
        return self.keys.key(pc, self.history.pattern_for(pc))

    def probe(self, pc: int) -> Optional[Entry]:
        """Current table entry for the branch at ``pc``, or ``None``."""
        return self.table.probe(self.key_for(pc))

    def predict(self, pc: int) -> Optional[int]:
        entry = self.probe(pc)
        return entry.target if entry is not None else None

    def update(self, pc: int, target: int) -> None:
        self.table.commit(self.key_for(pc), target)
        self.history.record(pc, target)

    # -- bulk simulation ----------------------------------------------------

    def keys_for(self, pcs: Sequence[int], targets: Sequence[int]) -> List[int]:
        """First level over a trace: the key each branch is looked up with.

        Records the trace in the history registers, as ``update`` would;
        the table is untouched.  Keys depend only on the first-level
        fields of the config (:attr:`TwoLevelConfig.first_level`).
        """
        return self.keys.keys_for(pcs, self.history.patterns_for(pcs, targets))

    def run_keys(self, keys: Sequence[int], targets: Sequence[int]) -> int:
        """Second level over a key column; return the misprediction count."""
        return self.table.run(keys, targets)

    def run_trace(self, pcs: Sequence[int], targets: Sequence[int]) -> int:
        """Simulate the whole trace; return the misprediction count.

        Keys depend on the history alone, never on the table, so building
        the whole key column first and then running the table over it is
        exactly the per-branch ``predict``/``update`` loop.
        """
        return self.run_keys(self.keys_for(pcs, targets), targets)

    # -- state columns ------------------------------------------------------

    def export_state(self) -> Columns:
        """Table + history registers as named ``int64`` columns.

        See :mod:`repro.core.columns` for the row layouts.
        """
        return {"table": self.table.export_rows(),
                "history": self.history.export_rows()}

    def import_state(self, columns: Mapping[str, object]) -> None:
        """Load :meth:`export_state` columns into this predictor.

        Raises :class:`~repro.errors.StateError` on any bad shape,
        leaving the predictor unchanged: both columns load into a fresh
        table and register file, which replace the live ones only once
        both have passed.
        """
        expect_columns(columns, ("table", "history"))
        fresh = TwoLevelPredictor(self.config)
        fresh.table.import_rows(columns["table"])
        fresh.history.import_rows(columns["history"])
        self.table, self.history = fresh.table, fresh.history

    def reset(self) -> None:
        # Only the history and the table hold state; the key builder is
        # kept.  Preserve any attribution observer across the new table —
        # the instrumented run attaches to ``self.table`` and must keep
        # receiving eviction/write callbacks after a reset.
        observer = self.table.observer
        self.history.reset()
        self.table = self._empty_table()
        self.table.observer = observer
        if observer is not None and hasattr(observer, "table"):
            observer.table = self.table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TwoLevelPredictor({self.config.label})"
