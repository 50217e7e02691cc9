"""Vectorized batch simulation kernel (``engine.simulate(kernel="batch")``).

The per-event loops in :mod:`repro.core` probe and commit one branch at a
time; this module simulates the same predictors as whole-column vector
operations over the ``int64`` trace columns, bit-exactly.  The reduction
(see :mod:`repro.core.batch` for the numerical layer):

1. **Keys.**  History patterns and lookup keys for every event are
   computed with sliding-window shift/XOR vector ops
   (:func:`repro.core.batch.history_patterns`,
   :func:`~repro.core.batch.assemble_keys`).
2. **Residency.**  For size-constrained tables, LRU residency is decided
   per *tag run* (consecutive same-tag events within a set): with one
   way every new tag run allocates, with two ways a tag run is resident
   exactly when it matches the tag two runs back, and for wider sets a
   short Python loop walks only the *fresh* tag runs (a run whose tag
   ping-pongs with the run two back is provably resident and only swaps
   the top two LRU positions, so it can be skipped exactly).
3. **Entries.**  Each table entry's stream of (value) runs drives a tiny
   finite automaton (:func:`repro.core.batch.entry_run_transition`);
   constant-symbol stretches collapse in O(1) via precomputed orbit
   tables and a segmented function-composition scan resolves every
   stretch's incoming state without a Python loop.
4. **Hybrids.**  Components simulate independently; per-event
   (exists, match, confidence) probes are reconstructed from run states
   with closed-form offset arithmetic, then combined with the
   confidence or BPST arbitration rule.

Chunked execution carries per-register history, per-entry automaton
states (with the last two run values), per-set LRU contents, and BPST
counters across chunk seams (entry, set and counter state as sorted
arrays, see :class:`_Carry`), so any ``chunk_events`` yields identical
results.  Configurations the kernel cannot simulate exactly (keys wider
than 63 bits on constrained tables, wide ``shift_xor``/XOR-folded
patterns) raise :class:`KernelUnsupported`; ``engine.simulate`` falls
back to the per-event oracle for those.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import batch
from ..core.bits import ADDRESS_BITS
from ..core.config import BTBConfig, HybridConfig, PredictorConfig, TwoLevelConfig
from ..errors import SimulationError

#: Default epoch size for chunked execution.  Large enough that carry
#: bookkeeping is negligible, small enough to bound peak memory: a
#: chunk's column temporaries and the Python ints of its LRU walk cost
#: up to ~70 MB at 1 << 18 events on a fully-associative table, ~11 MB
#: at 1 << 15.
DEFAULT_CHUNK_EVENTS = 1 << 15


class KernelUnsupported(SimulationError):
    """The batch kernel cannot simulate this configuration bit-exactly."""


# ---------------------------------------------------------------------------
# Capability probing
# ---------------------------------------------------------------------------


def _effective_address_mode(config: TwoLevelConfig) -> str:
    # KeyBuilder collapses the address component when the table is shared
    # program-wide; mirror that here so width checks see the real key.
    if config.table_sharing >= ADDRESS_BITS - 1:
        return "none"
    return config.address_mode


def _twolevel_reason(config: TwoLevelConfig) -> Optional[str]:
    pattern_bits = config.path_length * config.bits_per_target
    address_mode = _effective_address_mode(config)
    concat_bits = pattern_bits + (
        ADDRESS_BITS - config.table_sharing if address_mode == "concat" else 0
    )
    if pattern_bits <= 63 and concat_bits <= 63:
        return None
    # Wide keys: only the key's *identity* can be tracked, which is exact
    # solely for unconstrained tables and injective key constructions.
    if config.num_entries is not None:
        return "keys wider than 63 bits need a size-constrained table walk"
    if pattern_bits > 63 and config.compression == "shift_xor":
        return "shift_xor patterns wider than 63 bits are not separable"
    if pattern_bits > 63 and address_mode == "xor":
        return "xor-folded keys wider than 63 bits alias non-injectively"
    return None


def unsupported_reason(config: PredictorConfig) -> Optional[str]:
    """Why the batch kernel cannot run ``config``, or ``None`` if it can."""
    if isinstance(config, BTBConfig):
        return None
    if isinstance(config, TwoLevelConfig):
        return _twolevel_reason(config)
    if isinstance(config, HybridConfig):
        for component in config.components:
            reason = _twolevel_reason(component)
            if reason is not None:
                return reason
        return None
    return f"unsupported configuration type {type(config).__name__}"


def supports(config: PredictorConfig) -> bool:
    """Whether :func:`batch_run_trace` accepts ``config``."""
    return unsupported_reason(config) is None


# ---------------------------------------------------------------------------
# Table organisation
# ---------------------------------------------------------------------------


class _Geometry:
    """Resolved table organisation, mirroring ``tables.make_table``."""

    __slots__ = ("kind", "slot_mask", "index_bits", "set_mask", "ways")

    def __init__(self, kind: str, slot_mask: int = 0, index_bits: int = 0,
                 set_mask: int = 0, ways: int = 0) -> None:
        self.kind = kind  # "unconstrained" | "tagless" | "assoc"
        self.slot_mask = slot_mask
        self.index_bits = index_bits
        self.set_mask = set_mask
        self.ways = ways


def _geometry(num_entries: Optional[int], associativity: object) -> _Geometry:
    if num_entries is None:
        return _Geometry("unconstrained")
    if associativity == "tagless":
        return _Geometry("tagless", slot_mask=num_entries - 1)
    if associativity == "full" or associativity == num_entries:
        return _Geometry("assoc", index_bits=0, set_mask=0, ways=num_entries)
    ways = int(associativity)
    num_sets = num_entries // ways
    return _Geometry(
        "assoc",
        index_bits=num_sets.bit_length() - 1,
        set_mask=num_sets - 1,
        ways=ways,
    )


class _Carry:
    """Rows of ``int64`` state carried across chunk seams, keyed by id.

    Held as sorted id and row arrays, so a chunk reads and writes the
    rows of all its ids with a few vector operations and no per-id
    Python work; that keeps carrying cheap next to a chunk's column work
    even at small chunk sizes.
    """

    __slots__ = ("default", "ids", "rows")

    def __init__(self, default: Tuple[int, ...]) -> None:
        self.default = np.array(default, dtype=np.int64)
        self.ids = np.empty(0, dtype=np.int64)
        self.rows = np.empty((0, len(default)), dtype=np.int64)

    def get(self, ids: np.ndarray) -> np.ndarray:
        """The rows of ascending, distinct ``ids``; ``default`` if new."""
        rows = np.tile(self.default, (len(ids), 1))
        if len(self.ids):
            at = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
            found = self.ids[at] == ids
            rows[found] = self.rows[at[found]]
        return rows

    def put(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Set the rows of ascending, distinct ``ids``."""
        rows = rows.astype(np.int64, copy=False)
        if len(self.ids):
            at = np.minimum(np.searchsorted(ids, self.ids), len(ids) - 1)
            kept = ids[at] != self.ids
            ids = np.concatenate((self.ids[kept], ids))
            rows = np.concatenate((self.rows[kept], rows))
            order = np.argsort(ids)
            ids, rows = ids[order], rows[order]
        self.ids, self.rows = ids, rows


class _TableState:
    """Carried cross-chunk state for one prediction table."""

    __slots__ = ("entries", "set_tags", "lru")

    def __init__(self) -> None:
        # group id -> (automaton state, last run value, previous run value)
        self.entries = _Carry((batch.ENTRY_EMPTY_STATE, -1, -1))
        # set id -> (last tag-run tag, previous tag-run tag)
        self.set_tags = _Carry((-1, -1))
        # set id -> tags in LRU order, oldest first (general associativity
        # path only); an OrderedDict makes every touch and eviction O(1)
        # even for a fully-associative set of 32,768 ways
        self.lru: Dict[int, "OrderedDict[int, None]"] = {}


def _stable_order(values: np.ndarray) -> np.ndarray:
    """Indices sorting ``values`` ascending, ties in original order.

    numpy's stable argsort falls back to timsort for 64-bit ints (~5x
    slower than quicksort here); when the values leave headroom, packing
    the position into the low bits makes every key unique so the
    unstable sort yields the stable permutation.
    """
    count = len(values)
    index_bits = max(count - 1, 1).bit_length()
    maximum = int(values[np.argmax(values)]) if count else 0
    if maximum < (1 << (62 - index_bits)):
        composite = (values << index_bits) | np.arange(count, dtype=np.int64)
        return np.argsort(composite)
    return np.argsort(values, kind="stable")


# ---------------------------------------------------------------------------
# LRU residency (size-constrained tables)
# ---------------------------------------------------------------------------


def _alloc_flags(
    geometry: _Geometry,
    state: _TableState,
    keys: np.ndarray,
    update_carry: bool,
) -> np.ndarray:
    """Per-event (time order) flags marking entry (re-)allocations.

    An event allocates when it is the first event of a tag run whose tag
    is not resident in its set at probe time; every other event of a
    constrained table hits its tag (commits keep refreshing it).
    """
    count = len(keys)
    sets = keys & geometry.set_mask
    tags = keys >> geometry.index_bits
    order = _stable_order(sets)
    sorted_sets = sets[order]
    sorted_tags = tags[order]
    new_set = np.empty(count, dtype=bool)
    new_set[0] = True
    np.not_equal(sorted_sets[1:], sorted_sets[:-1], out=new_set[1:])
    run_start = new_set.copy()
    run_start[1:] |= sorted_tags[1:] != sorted_tags[:-1]
    run_positions = np.flatnonzero(run_start)
    run_set = sorted_sets[run_positions]
    run_tag = sorted_tags[run_positions]
    run_new_set = new_set[run_positions]
    rank = batch.group_ranks(run_new_set)

    set_starts = np.flatnonzero(run_new_set)
    set_ids = run_set[set_starts]
    tag1, tag2 = state.set_tags.get(set_ids).T
    set_index = np.cumsum(run_new_set) - 1
    tag1_run = tag1[set_index]
    tag2_run = tag2[set_index]

    first = rank == 0
    second = rank == 1
    continuation = first & (run_tag == tag1_run)
    # Whether each run's set began this chunk by continuing the previous
    # chunk's final tag run (shifts the "two runs back" reference).
    continuation_set = continuation[set_starts][set_index]

    prev2 = np.empty(len(run_tag), dtype=np.int64)
    deep = np.flatnonzero(rank >= 2)
    prev2[deep] = run_tag[deep - 2]
    prev2[second] = np.where(continuation_set[second], tag2_run[second], tag1_run[second])
    prev2[first] = tag2_run[first]

    pingpong = ~continuation & (run_tag == prev2)
    if geometry.ways == 1:
        resident = continuation.copy()
    elif geometry.ways == 2:
        # LRU with two ways holds exactly the tags of the last two runs.
        resident = continuation | pingpong
    else:
        resident = continuation | pingpong
        fresh = np.flatnonzero(~resident)
        if fresh.size:
            prev1 = np.where(
                rank >= 1,
                np.r_[np.int64(-1), run_tag[:-1]],
                tag1_run,
            )
            lru = state.lru
            ways = geometry.ways
            hits = []
            append = hits.append
            # Runs skipped since the previous fresh run form a strict
            # two-tag alternation of this run's prev1/prev2 (each
            # skipped run repeats the tag two runs back), so touching
            # prev2 then prev1 restores the exact oracle LRU order
            # before this run probes the set.
            for set_id, tag, newer, older in zip(
                run_set[fresh].tolist(),
                run_tag[fresh].tolist(),
                prev1[fresh].tolist(),
                prev2[fresh].tolist(),
            ):
                bucket = lru.get(set_id)
                if bucket is None:
                    bucket = lru[set_id] = OrderedDict()
                # -1 (no such run) is never a resident tag.
                if older in bucket:
                    bucket.move_to_end(older)
                if newer in bucket:
                    bucket.move_to_end(newer)
                if tag in bucket:
                    bucket.move_to_end(tag)
                    append(True)
                else:
                    if len(bucket) >= ways:
                        bucket.popitem(last=False)
                    bucket[tag] = None
                    append(False)
            resident[fresh] = hits

    alloc = np.zeros(count, dtype=bool)
    alloc[order[run_positions[~resident]]] = True

    if update_carry:
        set_ends = np.r_[set_starts[1:] - 1, len(run_positions) - 1]
        last_rank = rank[set_ends]
        last_tag = run_tag[set_ends]
        prev_tag = np.where(
            last_rank >= 1,
            run_tag[np.maximum(set_ends - 1, 0)],
            np.where(continuation[set_ends], tag2, tag1),
        )
        state.set_tags.put(set_ids, np.stack((last_tag, prev_tag), axis=1))
    return alloc


# ---------------------------------------------------------------------------
# Run streams: stretches, scan, incoming states
# ---------------------------------------------------------------------------


def _stretch_scan(
    automaton: batch.RunAutomaton,
    symbols: np.ndarray,
    run_new_group: np.ndarray,
    init_per_run: np.ndarray,
    need_run_states: bool,
):
    """Resolve incoming automaton states for every stretch (and run).

    ``symbols``/``run_new_group``/``init_per_run`` are run-level arrays in
    (group, time) order.  Returns ``(stretch_symbols, stretch_counts,
    stretch_new_group, stretch_incoming, run_incoming_or_None)``.
    """
    run_count = len(symbols)
    stretch_start = run_new_group.copy()
    stretch_start[1:] |= symbols[1:] != symbols[:-1]
    stretch_positions = np.flatnonzero(stretch_start)
    stretch_counts = np.diff(np.r_[stretch_positions, run_count])
    stretch_symbols = symbols[stretch_positions]
    stretch_new_group = run_new_group[stretch_positions]
    stretch_rank = batch.group_ranks(stretch_new_group)
    functions = automaton.stretch_functions(stretch_symbols, stretch_counts)
    scanned = batch.segmented_function_scan(functions, stretch_rank)
    stretch_init = init_per_run[stretch_positions]
    incoming = stretch_init.copy()
    later = np.flatnonzero(stretch_rank > 0)
    incoming[later] = scanned[later - 1, stretch_init[later]]
    run_incoming = None
    if need_run_states:
        stretch_of_run = np.cumsum(stretch_start) - 1
        offset = batch.group_ranks(stretch_start)
        run_incoming = automaton.states_within_stretch(
            stretch_symbols[stretch_of_run], incoming[stretch_of_run], offset
        )
    return stretch_symbols, stretch_counts, stretch_new_group, incoming, run_incoming


# ---------------------------------------------------------------------------
# Entry streams (one prediction table)
# ---------------------------------------------------------------------------


class _TableSim:
    """Batch simulation of one prediction table's event stream."""

    def __init__(
        self,
        num_entries: Optional[int],
        associativity: object,
        update_rule: str,
        confidence_bits: int,
    ) -> None:
        self.geometry = _geometry(num_entries, associativity)
        self.cmax = (1 << confidence_bits) - 1
        self.always = update_rule == "always"
        self.automaton = batch.entry_automaton(self.always, self.cmax)
        self.state = _TableState()

    def run_chunk(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        want_events: bool,
        update_carry: bool,
    ):
        geometry = self.geometry
        if geometry.kind == "assoc":
            alloc = _alloc_flags(geometry, self.state, keys, update_carry)
            groups = keys
        elif geometry.kind == "tagless":
            alloc = None
            groups = keys & geometry.slot_mask
        else:
            alloc = None
            groups = keys
        return self._entry_streams(groups, values, alloc, want_events, update_carry)

    def _entry_streams(
        self,
        groups: np.ndarray,
        values: np.ndarray,
        alloc: Optional[np.ndarray],
        want_events: bool,
        update_carry: bool,
    ):
        cmax = self.cmax
        automaton = self.automaton
        count = len(groups)
        order = _stable_order(groups)
        sorted_groups = groups[order]
        sorted_values = values[order]
        new_group = np.empty(count, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_groups[1:], sorted_groups[:-1], out=new_group[1:])
        run_start = new_group.copy()
        run_start[1:] |= sorted_values[1:] != sorted_values[:-1]
        if alloc is not None:
            sorted_alloc = alloc[order]
            run_start |= sorted_alloc
        run_positions = np.flatnonzero(run_start)
        run_count = len(run_positions)
        run_lengths = np.diff(np.r_[run_positions, count])
        run_values = sorted_values[run_positions]
        run_new_group = new_group[run_positions]
        run_alloc = (
            sorted_alloc[run_positions]
            if alloc is not None
            else np.zeros(run_count, dtype=bool)
        )
        rank = batch.group_ranks(run_new_group)

        group_starts = np.flatnonzero(run_new_group)
        group_ids = sorted_groups[run_positions[group_starts]]
        init_state, carry_value1, carry_value2 = self.state.entries.get(group_ids).T
        group_index = np.cumsum(run_new_group) - 1
        init_per_run = init_state[group_index]
        carry1_run = carry_value1[group_index]
        carry2_run = carry_value2[group_index]

        prev1 = np.where(rank >= 1, np.r_[np.int64(-1), run_values[:-1]], carry1_run)
        prev2 = np.empty(run_count, dtype=np.int64)
        deep = np.flatnonzero(rank >= 2)
        prev2[deep] = run_values[deep - 2]
        second = rank == 1
        prev2[second] = carry1_run[second]
        first = rank == 0
        prev2[first] = carry2_run[first]
        equals1 = prev1 == run_values
        equals2 = prev2 == run_values
        length_class = np.minimum(run_lengths, cmax + 2)
        symbols = np.where(
            run_alloc,
            4 * (cmax + 2) + length_class - 1,
            (equals1 * 1 + equals2 * 2) * (cmax + 2) + length_class - 1,
        ).astype(np.int64)

        (
            stretch_symbols,
            stretch_counts,
            stretch_new_group,
            stretch_incoming,
            run_incoming,
        ) = _stretch_scan(automaton, symbols, run_new_group, init_per_run, want_events)
        out_states, out_misses = automaton.apply_stretch(
            stretch_symbols, stretch_incoming, stretch_counts
        )
        misses = int(out_misses.sum())

        if update_carry:
            stretch_group_starts = np.flatnonzero(stretch_new_group)
            group_end_stretch = np.r_[
                stretch_group_starts[1:] - 1, len(stretch_symbols) - 1
            ]
            final_states = out_states[group_end_stretch]
            group_end_run = np.r_[group_starts[1:] - 1, run_count - 1]
            final_value1 = run_values[group_end_run]
            final_value2 = np.where(
                rank[group_end_run] >= 1,
                run_values[np.maximum(group_end_run - 1, 0)],
                carry_value1,
            )
            self.state.entries.put(
                group_ids, np.stack((final_states, final_value1, final_value2), axis=1)
            )

        if not want_events:
            return misses, None

        exists_run = run_incoming != batch.ENTRY_EMPTY_STATE
        unpacked = run_incoming - 1
        holds_previous = exists_run & (unpacked >= cmax + 1)
        confidence = np.where(
            holds_previous, unpacked - (cmax + 1), np.where(exists_run, unpacked, 0)
        )
        cold = run_alloc | ~exists_run
        matched = np.where(holds_previous, equals2, equals1) & ~cold
        replaced = ~cold & ~matched & (self.always | holds_previous)
        hysteresis = ~cold & ~matched & ~replaced

        offsets = batch.group_ranks(run_start)
        conf_e = np.repeat(confidence, run_lengths)
        cold_e = np.repeat(cold, run_lengths)
        match_e = np.repeat(matched, run_lengths)
        repl_e = np.repeat(replaced, run_lengths)
        hyst_e = np.repeat(hysteresis, run_lengths)
        dec1 = np.maximum(conf_e - 1, 0)
        dec2 = np.maximum(dec1 - 1, 0)

        exists_e = ~(cold_e & (offsets == 0))
        match_now = (
            match_e
            | ((cold_e | repl_e) & (offsets > 0))
            | (hyst_e & (offsets >= 2))
        )
        # The four run classes are mutually exclusive, and replace/hysteresis
        # runs leave the incoming confidence untouched until their first
        # mispredicted commit, so a where-chain covers every case.
        probe_conf = np.where(
            match_e,
            np.minimum(conf_e + offsets, cmax),
            np.where(
                cold_e,
                np.minimum(np.maximum(offsets - 1, 0), cmax),
                np.where(
                    offsets == 0,
                    conf_e,
                    np.where(
                        repl_e,
                        np.minimum(dec1 + offsets - 1, cmax),
                        np.where(
                            offsets == 1,
                            dec1,
                            np.minimum(dec2 + offsets - 2, cmax),
                        ),
                    ),
                ),
            ),
        )

        exists = np.empty(count, dtype=bool)
        matches = np.empty(count, dtype=bool)
        probe_confidence = np.empty(count, dtype=np.int64)
        exists[order] = exists_e
        matches[order] = match_now
        probe_confidence[order] = probe_conf
        return misses, (exists, matches, probe_confidence)


# ---------------------------------------------------------------------------
# Predictor families
# ---------------------------------------------------------------------------


class _BTBSim:
    single_chunk = False

    def __init__(self, config: BTBConfig) -> None:
        self.table = _TableSim(config.num_entries, config.associativity,
                               config.update_rule, 2)

    def run_chunk(self, pcs, targets, want_events, update_carry):
        return self.table.run_chunk(pcs >> 2, targets, want_events, update_carry)


def _dense_ids(columns: List[np.ndarray]) -> np.ndarray:
    """Stable dense group ids for tuples formed by the given columns."""
    ids = np.zeros(len(columns[0]), dtype=np.int64)
    for column in columns:
        uniques, column_ids = np.unique(column, return_inverse=True)
        ids = ids * len(uniques) + column_ids.astype(np.int64)
        _, ids = np.unique(ids, return_inverse=True)
        ids = ids.astype(np.int64)
    return ids


class _TwoLevelSim:
    def __init__(self, config: TwoLevelConfig) -> None:
        self.config = config
        self.bits = config.bits_per_target
        self.path_length = config.path_length
        self.pattern_bits = self.path_length * self.bits
        self.low_bit = config.effective_low_bit
        self.compression = config.compression
        self.history_sharing = config.history_sharing
        self.table_sharing = config.table_sharing
        self.address_mode = _effective_address_mode(config)
        concat_bits = self.pattern_bits + (
            ADDRESS_BITS - self.table_sharing if self.address_mode == "concat" else 0
        )
        # Wide keys cannot be packed into int64; track their identity
        # instead (exact for unconstrained tables — enforced by supports()).
        self.identity = self.pattern_bits > 63 or concat_bits > 63
        self.single_chunk = self.identity
        self.interleave = None
        if not self.identity and config.interleave != "none" and self.path_length > 1:
            self.interleave = batch.interleave_tables(
                self.path_length, self.bits, config.interleave
            )
        self.history_carry: Dict[int, int] = {}
        self.table = _TableSim(
            config.num_entries,
            config.associativity,
            config.update_rule,
            config.confidence_bits,
        )

    def run_chunk(self, pcs, targets, want_events, update_carry):
        elements = batch.compress_targets(
            targets, self.compression, self.bits, self.low_bit
        )
        if self.identity:
            groups = self._identity_groups(pcs, elements)
            return self.table._entry_streams(
                groups, targets, None, want_events, update_carry
            )
        patterns = batch.history_patterns(
            pcs,
            elements,
            self.path_length,
            self.history_sharing,
            self.bits,
            self.compression,
            self.history_carry,
        )
        if self.interleave is not None:
            patterns = batch.apply_interleave(patterns, self.interleave)
        keys = batch.assemble_keys(
            pcs, patterns, self.address_mode, self.table_sharing, self.pattern_bits
        )
        return self.table.run_chunk(keys, targets, want_events, update_carry)

    def _identity_groups(self, pcs: np.ndarray, elements: np.ndarray) -> np.ndarray:
        if self.pattern_bits <= 63:
            columns = [
                batch.history_patterns(
                    pcs,
                    elements,
                    self.path_length,
                    self.history_sharing,
                    self.bits,
                    self.compression,
                    self.history_carry,
                )
            ]
        else:
            # The packed pattern is a bijection of the per-slot element
            # tuple for select/fold (supports() rejects wide shift_xor),
            # with 0 for missing history exactly like the scalar register
            # file's zero initial state.
            columns = batch.history_element_columns(
                pcs, elements, self.path_length, self.history_sharing
            )
        if self.address_mode == "concat":
            columns = [pcs >> self.table_sharing] + columns
        return _dense_ids(columns)


_SELECTOR_AUTOMATON_CACHE: Dict[int, batch.RunAutomaton] = {}


def _selector_automaton(bits: int) -> batch.RunAutomaton:
    automaton = _SELECTOR_AUTOMATON_CACHE.get(bits)
    if automaton is None:
        automaton = _SELECTOR_AUTOMATON_CACHE[bits] = batch.make_selector_automaton(bits)
    return automaton


class _HybridSim:
    def __init__(self, config: HybridConfig) -> None:
        self.components = [_TwoLevelSim(component) for component in config.components]
        self.single_chunk = any(c.single_chunk for c in self.components)
        self.metapredictor = config.metapredictor
        if config.metapredictor == "bpst":
            self.selector_bits = config.selector_bits
            self.selector_max = (1 << config.selector_bits) - 1
            self.selector_threshold = 1 << (config.selector_bits - 1)
            self.selector_mask = (
                None if config.selector_entries is None else config.selector_entries - 1
            )
            self.selector_automaton = _selector_automaton(config.selector_bits)
            self.selector_state = _Carry((0,))

    def run_chunk(self, pcs, targets, want_events, update_carry):
        count = len(pcs)
        probes = [
            component.run_chunk(pcs, targets, True, update_carry)[1]
            for component in self.components
        ]
        if self.metapredictor == "confidence":
            best = np.full(count, -1, dtype=np.int64)
            correct = np.zeros(count, dtype=bool)
            for exists, matches, confidence in probes:
                take = exists & (confidence > best)
                best = np.where(take, confidence, best)
                correct = np.where(take, matches, correct)
            return count - int(correct.sum()), None
        (exists0, match0, _), (exists1, match1, _) = probes
        correct0 = exists0 & match0
        correct1 = exists1 & match1
        counters = self._selector_counters(pcs, correct0, correct1, update_carry)
        prefer1 = counters >= self.selector_threshold
        chosen_exists = np.where(prefer1, exists1, exists0)
        chosen_correct = np.where(prefer1, correct1, correct0)
        other_correct = np.where(prefer1, correct0, correct1)
        final_correct = np.where(chosen_exists, chosen_correct, other_correct)
        return count - int(final_correct.sum()), None

    def _selector_counters(self, pcs, correct0, correct1, update_carry):
        """Per-event BPST counter values at probe time (before record)."""
        count = len(pcs)
        slots = pcs >> 2
        if self.selector_mask is not None:
            slots = slots & self.selector_mask
        direction = np.zeros(count, dtype=np.int64)
        direction[correct1 & ~correct0] = 1
        direction[correct0 & ~correct1] = 2

        order = _stable_order(slots)
        sorted_slots = slots[order]
        sorted_direction = direction[order]
        new_group = np.empty(count, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_slots[1:], sorted_slots[:-1], out=new_group[1:])
        run_start = new_group.copy()
        run_start[1:] |= sorted_direction[1:] != sorted_direction[:-1]
        run_positions = np.flatnonzero(run_start)
        run_lengths = np.diff(np.r_[run_positions, count])
        run_direction = sorted_direction[run_positions]
        run_new_group = new_group[run_positions]

        group_starts = np.flatnonzero(run_new_group)
        group_ids = sorted_slots[run_positions[group_starts]]
        init_state = self.selector_state.get(group_ids)[:, 0]
        init_per_run = init_state[np.cumsum(run_new_group) - 1]

        classes = self.selector_max + 1
        length_class = np.minimum(run_lengths, classes)
        symbols = run_direction * classes + length_class - 1
        automaton = self.selector_automaton
        (
            stretch_symbols,
            stretch_counts,
            stretch_new_group,
            stretch_incoming,
            run_incoming,
        ) = _stretch_scan(automaton, symbols, run_new_group, init_per_run, True)

        if update_carry:
            out_states, _ = automaton.apply_stretch(
                stretch_symbols, stretch_incoming, stretch_counts
            )
            stretch_group_starts = np.flatnonzero(stretch_new_group)
            group_end = np.r_[stretch_group_starts[1:] - 1, len(stretch_symbols) - 1]
            self.selector_state.put(group_ids, out_states[group_end][:, None])

        offsets = batch.group_ranks(run_start)
        state_e = np.repeat(run_incoming, run_lengths)
        direction_e = np.repeat(run_direction, run_lengths)
        counter = np.where(
            direction_e == 1,
            np.minimum(state_e + offsets, self.selector_max),
            np.where(direction_e == 2, np.maximum(state_e - offsets, 0), state_e),
        )
        counters = np.empty(count, dtype=np.int64)
        counters[order] = counter
        return counters


def _make_sim(config: PredictorConfig):
    if isinstance(config, BTBConfig):
        return _BTBSim(config)
    if isinstance(config, TwoLevelConfig):
        return _TwoLevelSim(config)
    if isinstance(config, HybridConfig):
        return _HybridSim(config)
    raise KernelUnsupported(f"unsupported configuration type {type(config).__name__}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def batch_run_trace(
    config: PredictorConfig,
    pcs,
    targets,
    chunk_events: Optional[int] = None,
) -> int:
    """Simulate a whole trace as vector operations; return the miss count.

    Bit-exact against the per-event oracle for every supported
    configuration (raises :class:`KernelUnsupported` otherwise).  The
    trace is processed in epochs of ``chunk_events`` with carried state;
    results are independent of the chunk size.
    """
    reason = unsupported_reason(config)
    if reason is not None:
        label = getattr(config, "label", str(config))
        raise KernelUnsupported(f"{label}: {reason}")
    pc_column, target_column = batch.as_int64_columns(pcs, targets)
    if len(pc_column) != len(target_column):
        raise SimulationError(
            f"pc/target column length mismatch: {len(pc_column)} != {len(target_column)}"
        )
    count = len(pc_column)
    if count == 0:
        return 0
    if chunk_events is None:
        chunk = DEFAULT_CHUNK_EVENTS
    else:
        chunk = int(chunk_events)
        if chunk < 1:
            raise SimulationError(f"chunk_events must be >= 1, got {chunk_events}")
    simulator = _make_sim(config)
    if simulator.single_chunk:
        chunk = count
    misses = 0
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        chunk_misses, _ = simulator.run_chunk(
            pc_column[start:stop],
            target_column[start:stop],
            False,
            stop < count,
        )
        misses += chunk_misses
    return misses


__all__ = [
    "DEFAULT_CHUNK_EVENTS",
    "KernelUnsupported",
    "batch_run_trace",
    "supports",
    "unsupported_reason",
]
