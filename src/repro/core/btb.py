"""Branch target buffers — the paper's baseline predictors (section 3.1).

A BTB caches the most recent target of each indirect branch, keyed by the
branch address.  Two update variants are modelled:

* ``"always"`` — the standard BTB replaces the cached target after every
  misprediction;
* ``"2bc"``    — the Calder/Grunwald rule replaces it only after two
  consecutive mispredictions, which helps branches that are dominated by
  one frequent target with occasional excursions.

The paper's headline baseline is the *ideal* (unconstrained, fully
associative) BTB: 28.1% average misprediction updating always, 24.9% with
two-bit counters.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence

from .columns import Columns, expect_columns
from .config import BTBConfig
from .tables import BasePredictionTable, make_table


class BranchTargetBuffer:
    """A (possibly size/associativity-constrained) branch target buffer."""

    def __init__(self, config: Optional[BTBConfig] = None) -> None:
        self.config = config or BTBConfig()
        self._table: BasePredictionTable = make_table(
            self.config.num_entries,
            self.config.associativity,
            self.config.update_rule,
        )

    def predict(self, pc: int) -> Optional[int]:
        entry = self._table.probe(pc >> 2)
        return entry.target if entry is not None else None

    def update(self, pc: int, target: int) -> None:
        self._table.commit(pc >> 2, target)

    def run_trace(self, pcs: Sequence[int], targets: Sequence[int]) -> int:
        misses = 0
        probe = self._table.probe
        commit = self._table.commit
        for pc, target in zip(pcs, targets):
            key = pc >> 2
            entry = probe(key)
            if entry is None or entry.target != target:
                misses += 1
            commit(key, target)
        return misses

    def reset(self) -> None:
        # The attribution engine attaches an observer to the live table;
        # rebuilding must not silently drop it or the instrumented run
        # stops seeing evictions after a mid-run reset.
        observer = self._table.observer
        self._table = make_table(
            self.config.num_entries,
            self.config.associativity,
            self.config.update_rule,
        )
        self._table.observer = observer
        if observer is not None and hasattr(observer, "table"):
            observer.table = self._table

    def export_state(self) -> Columns:
        """The table as named ``int64`` columns (see :mod:`repro.core.columns`)."""
        return {"table": self._table.export_rows()}

    def import_state(self, columns: Mapping[str, object]) -> None:
        """Load :meth:`export_state` columns into this predictor.

        Raises :class:`~repro.errors.StateError` on any bad shape,
        leaving the predictor unchanged.
        """
        expect_columns(columns, ("table",))
        self._table.import_rows(columns["table"])

    @property
    def table(self) -> BasePredictionTable:
        """The underlying prediction table (read by the attribution engine)."""
        return self._table

    @property
    def stored_entries(self) -> int:
        """Number of branches currently cached (diagnostics)."""
        return len(self._table)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BranchTargetBuffer({self.config.label})"
