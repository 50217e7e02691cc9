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

from typing import Mapping, Optional, Sequence

from .columns import Columns, expect_columns
from .config import TwoLevelConfig
from .history import HistoryRegisterFile
from .keys import KeyBuilder
from .tables import BasePredictionTable, Entry, make_table


class TwoLevelPredictor:
    """A configurable two-level predictor for indirect branches."""

    def __init__(self, config: Optional[TwoLevelConfig] = None) -> None:
        self.config = config or TwoLevelConfig()
        self._build()

    def _build(self) -> None:
        config = self.config
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
        self.table: BasePredictionTable = make_table(
            config.num_entries,
            config.associativity,
            config.update_rule,
            config.confidence_bits,
        )

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

    def run_trace(self, pcs: Sequence[int], targets: Sequence[int]) -> int:
        """Simulate the whole trace; return the misprediction count."""
        misses = 0
        pattern_for = self.history.pattern_for
        record = self.history.record
        build_key = self.keys.key
        probe = self.table.probe
        commit = self.table.commit
        for pc, target in zip(pcs, targets):
            key = build_key(pc, pattern_for(pc))
            entry = probe(key)
            if entry is None or entry.target != target:
                misses += 1
            commit(key, target)
            record(pc, target)
        return misses

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
        # Preserve any attribution observer across the rebuild — the
        # instrumented run attaches to ``self.table`` and must keep
        # receiving eviction/write callbacks after a reset.
        observer = self.table.observer
        self._build()
        self.table.observer = observer
        if observer is not None and hasattr(observer, "table"):
            observer.table = self.table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TwoLevelPredictor({self.config.label})"
