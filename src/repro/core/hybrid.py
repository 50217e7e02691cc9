"""Hybrid indirect-branch predictors (section 6).

A hybrid predictor runs two (or, as a §8.1 extension, more) component
two-level predictors in parallel — typically a *short* path length for fast
adaptation and a *long* one for deeper correlations — and arbitrates with a
metapredictor.  Every component sees every branch: all components update
their tables and histories on every resolution; only target *selection*
differs.

The paper's headline configuration is two same-geometry components with
2-bit per-entry confidence counters; e.g. p1=3/p2=1 at 1K entries 4-way
reaches 8.98% average misprediction vs 9.82% for the best non-hybrid.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

from .columns import Columns, expect_columns
from .config import HybridConfig
from .metapredictors import BPSTMetapredictor, ConfidenceMetapredictor
from .twolevel import TwoLevelPredictor


class HybridPredictor:
    """A multi-component hybrid with confidence or BPST metaprediction."""

    def __init__(self, config: HybridConfig) -> None:
        self.config = config
        self.components: List[TwoLevelPredictor] = [
            TwoLevelPredictor(component) for component in config.components
        ]
        if config.metapredictor == "bpst":
            self._bpst: Optional[BPSTMetapredictor] = BPSTMetapredictor(
                config.selector_bits, config.selector_entries
            )
        else:
            self._bpst = None
        self._confidence = ConfidenceMetapredictor()

    # -- single-branch interface -----------------------------------------

    def component_entries(self, pc: int) -> List[Optional[object]]:
        """Per-component table entries for the branch at ``pc`` (probes)."""
        return [component.probe(pc) for component in self.components]

    def select_component(
        self, pc: int, entries: Sequence[Optional[object]]
    ) -> tuple:
        """``(component index, predicted target)`` the hybrid follows.

        ``entries`` are the per-component probe results for ``pc`` (see
        :meth:`component_entries`).  The index names the component whose
        table entry supplies the prediction.  With BPST metaprediction and
        no entry in either component it is the selector's preferred
        component; with confidence arbitration it is ``None`` when no
        component has an entry.  Used by :meth:`predict` and by the
        attribution engine to pin a miss on a component.
        """
        if self._bpst is not None:
            chosen = self._bpst.select(pc)
            entry = entries[chosen]
            if entry is None and entries[1 - chosen] is not None:
                # The selected component has nothing; fall back to the other
                # so a BPST hybrid is never worse than "no prediction" when
                # one component does have an entry.
                chosen = 1 - chosen
                entry = entries[chosen]
            return chosen, entry.target if entry is not None else None
        index = self._confidence.select(entries)
        if index is None:
            return None, None
        return index, entries[index].target

    def train_selector(
        self, pc: int, entries: Sequence[Optional[object]], target: int
    ) -> None:
        """Record the per-component votes with the BPST selector.

        A no-op for confidence metaprediction (its state lives in the
        table entries and is maintained by ``commit``).  Exposed so the
        attribution engine can replay exactly the selector training the
        fast trace loop performs.
        """
        if self._bpst is not None:
            self._bpst.record(
                pc,
                entries[0] is not None and entries[0].target == target,
                entries[1] is not None and entries[1].target == target,
            )

    def predict(self, pc: int) -> Optional[int]:
        _, predicted = self.select_component(pc, self.component_entries(pc))
        return predicted

    def update(self, pc: int, target: int) -> None:
        if self._bpst is not None:
            self.train_selector(pc, self.component_entries(pc), target)
        for component in self.components:
            component.update(pc, target)

    # -- bulk simulation ----------------------------------------------------

    def run_trace(self, pcs: Sequence[int], targets: Sequence[int]) -> int:
        if self._bpst is not None:
            return self._run_trace_bpst(pcs, targets)
        return self._run_trace_confidence(pcs, targets)

    def _run_trace_confidence(self, pcs: Sequence[int], targets: Sequence[int]) -> int:
        misses = 0
        components = self.components
        key_fns = [component.key_for for component in components]
        probes = [component.table.probe for component in components]
        commits = [component.table.commit for component in components]
        records = [component.history.record for component in components]
        count = len(components)
        for pc, target in zip(pcs, targets):
            predicted: Optional[int] = None
            best_confidence = -1
            keys = [key_fns[index](pc) for index in range(count)]
            for index in range(count):
                entry = probes[index](keys[index])
                if entry is not None and entry.confidence > best_confidence:
                    predicted = entry.target
                    best_confidence = entry.confidence
            if predicted != target:
                misses += 1
            for index in range(count):
                commits[index](keys[index], target)
                records[index](pc, target)
        return misses

    def _run_trace_bpst(self, pcs: Sequence[int], targets: Sequence[int]) -> int:
        misses = 0
        bpst = self._bpst
        assert bpst is not None
        first, second = self.components[0], self.components[1]
        for pc, target in zip(pcs, targets):
            key0 = first.key_for(pc)
            key1 = second.key_for(pc)
            entry0 = first.table.probe(key0)
            entry1 = second.table.probe(key1)
            if bpst.select(pc) == 0:
                entry = entry0 if entry0 is not None else entry1
            else:
                entry = entry1 if entry1 is not None else entry0
            predicted = entry.target if entry is not None else None
            if predicted != target:
                misses += 1
            bpst.record(
                pc,
                entry0 is not None and entry0.target == target,
                entry1 is not None and entry1.target == target,
            )
            first.table.commit(key0, target)
            second.table.commit(key1, target)
            first.history.record(pc, target)
            second.history.record(pc, target)
        return misses

    # -- state columns ------------------------------------------------------

    def export_state(self) -> Columns:
        """Every component's columns, prefixed ``c<i>.``, plus the selector.

        See :mod:`repro.core.columns` for the row layouts; the
        confidence metapredictor keeps no state of its own (its counters
        live in the table rows).
        """
        columns = {}
        for index, component in enumerate(self.components):
            for name, column in component.export_state().items():
                columns[f"c{index}.{name}"] = column
        if self._bpst is not None:
            columns["selector"] = self._bpst.export_rows()
        return columns

    def import_state(self, columns: Mapping[str, object]) -> None:
        """Load :meth:`export_state` columns into this predictor.

        Raises :class:`~repro.errors.StateError` on any bad shape,
        leaving the predictor unchanged: the columns load into fresh
        components and selector, which replace the live ones only once
        every column has passed.
        """
        names = [f"c{index}.{kind}" for index in range(len(self.components))
                 for kind in ("table", "history")]
        if self._bpst is not None:
            names.append("selector")
        expect_columns(columns, names)
        fresh = HybridPredictor(self.config)
        for index, component in enumerate(fresh.components):
            component.table.import_rows(columns[f"c{index}.table"])
            component.history.import_rows(columns[f"c{index}.history"])
        if fresh._bpst is not None:
            fresh._bpst.import_rows(columns["selector"])
        self.components, self._bpst = fresh.components, fresh._bpst

    def reset(self) -> None:
        for component in self.components:
            component.reset()
        if self._bpst is not None:
            self._bpst.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HybridPredictor({self.config.label})"
