"""Pure, batchable predictor state transitions over integer arrays.

This module is the numerical core of the vectorized batch simulation
kernel (:mod:`repro.sim.kernel`).  It factors every per-event state
transition the scalar predictor classes perform — history-register
shifts, key assembly, and the 2bc/always table update rule — into pure
functions over numpy ``int64`` columns, so whole traces (or chunked
epochs with carried state) can be simulated as vector operations.

The central reduction: after run-length encoding a per-entry event
stream into *runs* of identical (entry, resolved target) pairs, the
entry's evolution across runs is a finite automaton.

* The automaton **state** encodes whether the entry exists, which of the
  two most recent run values it currently stores (``t`` always equals
  the value of the current or the previous run — see
  :func:`entry_run_transition`), and the saturating confidence counter.
  The 2bc ``miss_bit`` is implied: it is 1 exactly when the entry still
  stores the previous run's value.
* The automaton **symbol** encodes whether the run's value equals the
  value of the one or two preceding runs (``e1``/``e2``) and the run
  length, capped at ``confidence_max + 2`` beyond which longer runs are
  indistinguishable (the confidence counter saturates and the outcome of
  every extra event is a hit).

Because states and symbols are both tiny finite sets, per-entry run
streams can be advanced with precomputed tables: a transition table for
single steps, and orbit/cycle tables (:class:`RunAutomaton`) that apply
``k`` repetitions of one symbol in O(1) — the *stretch* compression the
kernel uses to collapse pathological ping-pong streams.  A segmented
parallel scan (:func:`segmented_function_scan`) then resolves every
run's incoming state without a Python-level loop.

Everything here is deterministic and bit-exact against the scalar
classes in :mod:`repro.core.tables`; the equivalence is enforced by the
oracle tests in ``tests/test_kernel_equivalence.py``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from .bits import ADDRESS_BITS, InterleavePermutation, mask

#: Values a trace column may hold for the batch kernel: the v2 trace
#: format stores unsigned 32-bit columns, and every shift/XOR in key
#: assembly is performed after upcasting to ``int64`` so that mixing a
#: 30-bit address component with a 24-bit (or wider) history pattern can
#: never wrap around.  See :func:`as_int64_columns`.
COLUMN_LIMIT = 1 << ADDRESS_BITS


class BatchDtypeError(ConfigError):
    """A trace column violates the batch kernel's dtype contract."""


def as_int64_columns(pcs, targets) -> Tuple[np.ndarray, np.ndarray]:
    """Upcast trace columns to ``int64`` at kernel ingress.

    The on-disk trace format stores ``uint32`` columns and the in-memory
    :class:`~repro.workloads.trace.Trace` uses unsigned stdlib arrays.
    Key assembly mixes the PC and the history pattern with shifts and
    XORs whose intermediate values exceed 32 bits (a concatenated key is
    up to ``(32 - h) + p*b`` bits wide), so all arithmetic happens in
    signed 64-bit space.  Columns with values outside ``[0, 2**32)``
    are rejected: they cannot have come from a v2 trace file and the
    scalar oracle's unbounded Python integers would diverge from any
    fixed-width vector computation.
    """
    # A view, not a copy: every in-range value means the same in both
    # dtypes, and a value >= 2**63 turns negative and fails the check.
    pc_col = np.asarray(pcs, dtype=np.uint64).view(np.int64)
    target_col = np.asarray(targets, dtype=np.uint64).view(np.int64)
    for name, col in (("pc", pc_col), ("target", target_col)):
        if col.size and (col.min() < 0 or col.max() >= COLUMN_LIMIT):
            raise BatchDtypeError(
                f"{name} column holds values outside the 32-bit address "
                f"space; the batch kernel's int64 key assembly is only "
                f"exact for 32-bit traces"
            )
    return pc_col, target_col


# ---------------------------------------------------------------------------
# History-pattern construction (first level)
# ---------------------------------------------------------------------------


def compress_targets(
    targets: np.ndarray, compression: str, bits: int, low_bit: int
) -> np.ndarray:
    """Vectorized pattern-element compression (section 4.1 schemes)."""
    if compression == "select":
        return (targets >> low_bit) & mask(bits)
    if compression == "fold":
        folded = np.zeros_like(targets)
        value = targets & mask(ADDRESS_BITS)
        element_mask = mask(bits)
        for chunk in range(0, ADDRESS_BITS, bits):
            folded ^= (value >> chunk) & element_mask
        return folded
    if compression == "shift_xor":
        return targets & mask(ADDRESS_BITS)
    raise ConfigError(f"unknown compression {compression!r}")


def _combine(accumulator: np.ndarray, contribution, xor_mode: bool) -> None:
    """In-place OR/XOR into a *view* (basic slice) of the pattern column."""
    if xor_mode:
        accumulator ^= contribution
    else:
        accumulator |= contribution


def _combine_at(array: np.ndarray, where: np.ndarray, contribution, xor_mode: bool) -> None:
    """OR/XOR into fancy-indexed positions (which yield copies, not views)."""
    if xor_mode:
        array[where] = array[where] ^ contribution
    else:
        array[where] = array[where] | contribution


def history_patterns(
    pcs: np.ndarray,
    elements: np.ndarray,
    path_length: int,
    sharing_shift: int,
    bits: int,
    compression: str,
    carry: Dict[int, int],
) -> np.ndarray:
    """Per-event packed history pattern *before* each event.

    Implements the register file of :class:`repro.core.history.
    HistoryRegisterFile` as a sliding-window shift-OR (XOR for the
    ``shift_xor`` scheme): the pattern seen by event ``i`` combines the
    compressed targets of the ``p`` preceding events of the same
    register, each shifted to its slot.  ``carry`` maps register id to
    the packed pattern carried in from earlier chunks (key ``-1`` for
    the global register) and is updated in place with the state after
    the last event, so chunked execution is bit-exact.

    Only valid when the packed pattern fits 63 bits; wider patterns go
    through the column-identity path in the kernel.
    """
    n = len(pcs)
    pattern_bits = path_length * bits
    if path_length == 0 or n == 0:
        return np.zeros(n, dtype=np.int64)
    if pattern_bits > 63:
        raise ConfigError("packed patterns wider than 63 bits cannot be vectorized")
    pattern_mask = mask(pattern_bits)
    xor_mode = compression == "shift_xor"
    global_mode = sharing_shift >= ADDRESS_BITS - 1

    if global_mode:
        patterns = np.zeros(n, dtype=np.int64)
        for distance in range(1, path_length + 1):
            shift = (distance - 1) * bits
            if distance > n:
                break
            keep = mask(pattern_bits - shift)
            contribution = (elements[:-distance] & keep) << shift
            _combine(patterns[distance:], contribution, xor_mode)
        carried = carry.get(-1, 0)
        if carried:
            for position in range(min(path_length, n)):
                part = (carried << (position * bits)) & pattern_mask
                if xor_mode:
                    patterns[position] ^= part
                else:
                    patterns[position] |= part
        last = ((int(patterns[-1]) << bits) & pattern_mask)
        last = (last ^ int(elements[-1] & pattern_mask)) if xor_mode else (
            last | int(elements[-1]) & pattern_mask
        )
        carry[-1] = last
        return patterns

    registers = pcs >> sharing_shift
    order = np.argsort(registers, kind="stable")
    sorted_registers = registers[order]
    sorted_elements = elements[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_registers[1:], sorted_registers[:-1], out=new_group[1:])
    group_starts = np.flatnonzero(new_group)
    indices = np.arange(n, dtype=np.int64)
    start_of = np.maximum.accumulate(np.where(new_group, indices, -1))
    rank = indices - start_of

    patterns = np.zeros(n, dtype=np.int64)
    for distance in range(1, path_length + 1):
        shift = (distance - 1) * bits
        valid = rank >= distance
        if not valid.any():
            break
        keep = mask(pattern_bits - shift)
        where = np.flatnonzero(valid)
        contribution = (sorted_elements[where - distance] & keep) << shift
        _combine_at(patterns, where, contribution, xor_mode)

    group_ids = sorted_registers[group_starts]
    carried = np.array(
        [carry.get(int(gid), 0) for gid in group_ids], dtype=np.int64
    )
    if carried.any():
        per_event_carry = carried[np.cumsum(new_group) - 1]
        shallow = rank < path_length
        where = np.flatnonzero(shallow)
        part = (per_event_carry[where] << (rank[where] * bits)) & pattern_mask
        _combine_at(patterns, where, part, xor_mode)

    group_ends = np.r_[group_starts[1:] - 1, n - 1]
    end_patterns = patterns[group_ends]
    end_elements = sorted_elements[group_ends]
    for gid, pattern, element in zip(
        group_ids.tolist(), end_patterns.tolist(), end_elements.tolist()
    ):
        shifted = (pattern << bits) & pattern_mask
        carry[int(gid)] = (
            (shifted ^ (element & pattern_mask)) if xor_mode else (shifted | (element & pattern_mask))
        )

    unsorted = np.empty(n, dtype=np.int64)
    unsorted[order] = patterns
    return unsorted


def history_element_columns(
    pcs: np.ndarray,
    elements: np.ndarray,
    path_length: int,
    sharing_shift: int,
) -> List[np.ndarray]:
    """Per-event windows of the last ``p`` elements (identity form).

    Used for unconstrained tables whose packed pattern exceeds 63 bits:
    the key's *identity* is all that matters there, and for the
    ``select``/``fold`` schemes the packed pattern is a bijection of the
    element tuple (with missing history encoded as 0, exactly like the
    scalar register file's all-zero initial state).
    """
    n = len(pcs)
    columns = [np.zeros(n, dtype=np.int64) for _ in range(path_length)]
    if n == 0 or path_length == 0:
        return columns
    if sharing_shift >= ADDRESS_BITS - 1:
        for distance in range(1, path_length + 1):
            if distance > n:
                break
            columns[distance - 1][distance:] = elements[:-distance]
        return columns
    registers = pcs >> sharing_shift
    order = np.argsort(registers, kind="stable")
    sorted_registers = registers[order]
    sorted_elements = elements[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_registers[1:], sorted_registers[:-1], out=new_group[1:])
    indices = np.arange(n, dtype=np.int64)
    rank = indices - np.maximum.accumulate(np.where(new_group, indices, -1))
    for distance in range(1, path_length + 1):
        valid = np.flatnonzero(rank >= distance)
        if valid.size == 0:
            break
        column = np.zeros(n, dtype=np.int64)
        column[valid] = sorted_elements[valid - distance]
        columns[distance - 1][order] = column
    return columns


# ---------------------------------------------------------------------------
# Key assembly (second level input)
# ---------------------------------------------------------------------------

_INTERLEAVE_TABLE_CACHE: Dict[Tuple[int, int, str], List[Tuple[int, np.ndarray]]] = {}


def interleave_tables(
    path_length: int, bits: int, scheme: str
) -> List[Tuple[int, np.ndarray]]:
    """Per-byte lookup tables applying an interleave permutation.

    The permutation moves each source bit independently, so it can be
    applied to a whole column as ``OR`` of eight 256-entry gathers.
    """
    cache_key = (path_length, bits, scheme)
    cached = _INTERLEAVE_TABLE_CACHE.get(cache_key)
    if cached is not None:
        return cached
    permutation = InterleavePermutation(path_length, bits, scheme)
    pattern_bits = path_length * bits
    tables: List[Tuple[int, np.ndarray]] = []
    for byte_index in range((pattern_bits + 7) // 8):
        low = byte_index * 8
        table = np.empty(256, dtype=np.int64)
        for value in range(256):
            table[value] = permutation.apply((value << low) & mask(pattern_bits))
        tables.append((low, table))
    _INTERLEAVE_TABLE_CACHE[cache_key] = tables
    return tables


def apply_interleave(
    patterns: np.ndarray, tables: List[Tuple[int, np.ndarray]]
) -> np.ndarray:
    """Apply a precomputed interleave permutation to a pattern column."""
    result = np.zeros_like(patterns)
    for low, table in tables:
        result |= table[(patterns >> low) & 0xFF]
    return result


def assemble_keys(
    pcs: np.ndarray,
    patterns: np.ndarray,
    address_mode: str,
    table_sharing: int,
    pattern_bits: int,
) -> np.ndarray:
    """Vectorized :meth:`repro.core.keys.KeyBuilder.key`."""
    if address_mode == "none":
        return patterns
    address = pcs >> table_sharing
    if address_mode == "xor":
        return patterns ^ address
    if address_mode == "concat":
        return (address << pattern_bits) | patterns
    raise ConfigError(f"unknown address mode {address_mode!r}")


# ---------------------------------------------------------------------------
# The entry-run automaton (second level update rule)
# ---------------------------------------------------------------------------

#: Symbol layout for the entry automaton: ``e`` is 2 bits (bit 0: run
#: value equals previous run's value, bit 1: equals the value two runs
#: back) and the run-length class occupies the remaining bits.
ENTRY_EMPTY_STATE = 0


def entry_state_encode(exists: bool, holds_previous: bool, confidence: int, cmax: int) -> int:
    """Pack an entry's automaton state (see :func:`entry_run_transition`)."""
    if not exists:
        return ENTRY_EMPTY_STATE
    return 1 + (1 if holds_previous else 0) * (cmax + 1) + confidence


def entry_state_decode(state: int, cmax: int) -> Tuple[bool, bool, int]:
    """Unpack ``(exists, holds_previous, confidence)``."""
    if state == ENTRY_EMPTY_STATE:
        return False, False, 0
    state -= 1
    return True, state >= cmax + 1, state % (cmax + 1)


def entry_run_transition(
    state: int,
    e1: bool,
    e2: bool,
    length: int,
    always_rule: bool,
    cmax: int,
) -> Tuple[int, int]:
    """Advance one entry across a run of ``length`` identical events.

    A *run* is a maximal stretch of consecutive events, within one
    entry's stream, that all resolve to the same target ``A``.  The
    automaton state tracks (exists, which recent value the entry holds,
    confidence); the stored target is never materialized because it can
    only be the value of the current run (``holds_previous=False``) or
    of the immediately preceding run (``holds_previous=True`` — the 2bc
    hysteresis holdover, which also implies ``miss_bit == 1``).

    ``e1``/``e2`` say whether ``A`` equals the value of the previous /
    second-previous run of the same entry, which decides the probe
    outcome without knowing the values themselves.  Returns the packed
    outgoing state and the number of mispredictions in the run.  The
    probe/commit semantics mirror ``tables.BasePredictionTable`` —
    probe first (miss when absent or target differs), then commit.
    """
    exists, holds_previous, confidence = entry_state_decode(state, cmax)
    if not exists:
        # First event allocates Entry(A); the rest of the run hits and
        # ramps confidence (no increment on the allocating commit).
        out = entry_state_encode(True, False, min(length - 1, cmax), cmax)
        return out, 1
    matches = e2 if holds_previous else e1
    if matches:
        # Every event hits; confidence saturates upward.  The stored value
        # now coincides with the current run's value, and the miss bit is
        # cleared, so the holdover flag drops either way.
        out = entry_state_encode(True, False, min(confidence + length, cmax), cmax)
        return out, 0
    if always_rule or holds_previous:
        # First event replaces the target immediately (always-rule, or the
        # 2bc miss bit is already set); the tail of the run hits.
        adjusted = max(confidence - 1, 0)
        out = entry_state_encode(True, False, min(adjusted + length - 1, cmax), cmax)
        return out, 1
    # 2bc hysteresis with a clean miss bit: the first event only sets the
    # miss bit.  A length-1 run leaves the old target in place (holding the
    # previous run's value, relative to this run); longer runs replace on
    # the second event and then hit.
    adjusted = max(confidence - 1, 0)
    if length == 1:
        out = entry_state_encode(True, True, adjusted, cmax)
        return out, 1
    adjusted = max(adjusted - 1, 0)
    out = entry_state_encode(True, False, min(adjusted + length - 2, cmax), cmax)
    return out, 2


def entry_symbol_count(cmax: int) -> int:
    """Number of distinct (e1, e2, length-class) symbols.

    One extra bank of *allocation* symbols follows the base symbols: an
    allocation run behaves as if the incoming state were empty (the
    constrained tables evict an entry and re-allocate it fresh), so its
    transition is a constant function of the incoming state.
    """
    return 5 * (cmax + 2)


def entry_alloc_symbol(length_class, cmax: int):
    """Symbol id for a run that re-allocates the entry (forced empty state)."""
    return 4 * (cmax + 2) + (length_class - 1)


def entry_symbol(e1, e2, length_class, cmax: int):
    """Symbol id; works on scalars and numpy arrays alike."""
    return (e1 * 1 + e2 * 2) * (cmax + 2) + (length_class - 1)


def entry_length_class(length, cmax: int):
    """Run-length class: lengths beyond ``cmax + 2`` behave identically."""
    return np.minimum(length, cmax + 2)


class RunAutomaton:
    """Precomputed single-step and repeated-step (orbit) tables.

    Built from any scalar ``step(state, symbol) -> (state', misses)``
    over finite state/symbol sets.  ``apply_stretch`` advances ``k``
    consecutive applications of one symbol in O(1) by walking the
    precomputed orbit: every trajectory from a fixed (state, symbol)
    enters a cycle within ``n_states`` steps, so the state and the
    cumulative miss count after ``k`` steps come from a prefix table
    plus whole-cycle arithmetic.
    """

    def __init__(self, n_states: int, n_symbols: int, step) -> None:
        self.n_states = n_states
        self.n_symbols = n_symbols
        transition = np.empty((n_symbols, n_states), dtype=np.uint8)
        misses = np.empty((n_symbols, n_states), dtype=np.int64)
        for symbol in range(n_symbols):
            for state in range(n_states):
                nxt, miss = step(state, symbol)
                transition[symbol, state] = nxt
                misses[symbol, state] = miss
        self.transition = transition
        self.misses = misses

        # Orbit tables: for each (symbol, state) the state/cumulative-miss
        # trajectory until the first repeated state, plus cycle metadata.
        max_track = 2 * n_states + 2
        self.orbit_state = np.zeros((n_symbols, n_states, max_track), dtype=np.uint8)
        self.orbit_misses = np.zeros((n_symbols, n_states, max_track), dtype=np.int64)
        self.prefix_len = np.zeros((n_symbols, n_states), dtype=np.int32)
        self.cycle_len = np.ones((n_symbols, n_states), dtype=np.int32)
        self.cycle_misses = np.zeros((n_symbols, n_states), dtype=np.int64)
        for symbol in range(n_symbols):
            for start in range(n_states):
                seen: Dict[int, int] = {}
                states = [start]
                cum = [0]
                state = start
                while state not in seen:
                    seen[state] = len(states) - 1
                    nxt = int(transition[symbol, state])
                    cum.append(cum[-1] + int(misses[symbol, state]))
                    states.append(nxt)
                    state = nxt
                cycle_start = seen[state]
                cycle_length = len(states) - 1 - cycle_start
                self.prefix_len[symbol, start] = cycle_start
                self.cycle_len[symbol, start] = cycle_length
                self.cycle_misses[symbol, start] = cum[cycle_start + cycle_length] - cum[cycle_start]
                track = min(len(states), self.orbit_state.shape[2])
                self.orbit_state[symbol, start, :track] = states[:track]
                self.orbit_misses[symbol, start, :track] = cum[:track]

    def _wrapped_steps(self, symbols: np.ndarray, states: np.ndarray, steps: np.ndarray):
        """Map raw step counts onto orbit-table indices (cycle folding)."""
        prefix = self.prefix_len[symbols, states]
        cycle = self.cycle_len[symbols, states]
        beyond = steps > prefix
        folded = np.where(beyond, prefix + (steps - prefix) % np.maximum(cycle, 1), steps)
        turns = np.where(beyond, (steps - prefix) // np.maximum(cycle, 1), 0)
        # Land exactly on the cycle start (not past it) so a whole number
        # of turns keeps the index inside the tracked trajectory.
        on_start = beyond & (folded == prefix) & (turns > 0)
        folded = np.where(on_start, prefix + cycle, folded)
        turns = np.where(on_start, turns - 1, turns)
        return folded, turns

    def apply_stretch(self, symbols: np.ndarray, states: np.ndarray, counts: np.ndarray):
        """States and miss totals after ``counts`` repeats of ``symbols``."""
        folded, turns = self._wrapped_steps(symbols, states, counts)
        out_states = self.orbit_state[symbols, states, folded]
        out_misses = (
            self.orbit_misses[symbols, states, folded]
            + turns * self.cycle_misses[symbols, states]
        )
        return out_states.astype(np.int64), out_misses

    def states_within_stretch(
        self, symbols: np.ndarray, states: np.ndarray, offsets: np.ndarray
    ) -> np.ndarray:
        """State immediately before the ``offsets``-th repeat (0-based)."""
        folded, _ = self._wrapped_steps(symbols, states, offsets)
        return self.orbit_state[symbols, states, folded].astype(np.int64)

    def stretch_functions(self, symbols: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Whole-stretch state maps as ``(len, n_states)`` uint8 rows."""
        single = counts == 1
        if single.all():
            # Single-repeat stretches are plain transition-table rows;
            # they usually dominate, so skip the orbit folding.
            return self.transition[symbols]
        out = np.empty((len(symbols), self.n_states), dtype=np.uint8)
        ones = np.flatnonzero(single)
        out[ones] = self.transition[symbols[ones]]
        rest = np.flatnonzero(~single)
        sym = symbols[rest]
        prefix = self.prefix_len[sym]  # (len, n_states)
        cycle = np.maximum(self.cycle_len[sym], 1)
        steps = counts[rest].astype(np.int32, copy=False)[:, None]
        beyond = steps > prefix
        folded = np.where(beyond, prefix + (steps - prefix) % cycle, steps)
        turns_positive = beyond & ((steps - prefix) >= cycle)
        on_start = turns_positive & (folded == prefix)
        folded = np.where(on_start, prefix + cycle, folded)
        track = self.orbit_state.shape[2]
        flat_index = (
            (sym[:, None] * self.n_states + np.arange(self.n_states)[None, :])
            * track
            + folded
        )
        out[rest] = self.orbit_state.reshape(-1)[flat_index]
        return out


def make_entry_automaton(always_rule: bool, cmax: int) -> RunAutomaton:
    """The entry automaton for one (update rule, confidence width)."""
    length_classes = cmax + 2

    def step(state: int, symbol: int) -> Tuple[int, int]:
        eq = symbol // length_classes
        length = (symbol % length_classes) + 1
        if eq == 4:
            # Allocation bank: the entry was evicted before this run, so
            # the transition ignores the stale incoming state.
            state = ENTRY_EMPTY_STATE
            eq = 0
        return entry_run_transition(
            state, bool(eq & 1), bool(eq & 2), length, always_rule, cmax
        )

    return RunAutomaton(2 * (cmax + 1) + 1, entry_symbol_count(cmax), step)


_ENTRY_AUTOMATON_CACHE: Dict[Tuple[bool, int], RunAutomaton] = {}


def entry_automaton(always_rule: bool, cmax: int) -> RunAutomaton:
    key = (always_rule, cmax)
    automaton = _ENTRY_AUTOMATON_CACHE.get(key)
    if automaton is None:
        automaton = _ENTRY_AUTOMATON_CACHE[key] = make_entry_automaton(always_rule, cmax)
    return automaton


def make_selector_automaton(bits: int) -> RunAutomaton:
    """The BPST saturating-counter automaton (symbols: hold/up/down)."""
    maximum = (1 << bits) - 1
    classes = maximum + 1

    def step(state: int, symbol: int) -> Tuple[int, int]:
        direction = symbol // classes
        length = (symbol % classes) + 1
        if direction == 1:
            return min(state + length, maximum), 0
        if direction == 2:
            return max(state - length, 0), 0
        return state, 0

    return RunAutomaton(maximum + 1, 3 * classes, step)


# ---------------------------------------------------------------------------
# Segmented parallel scan over run/stretch functions
# ---------------------------------------------------------------------------


def segmented_function_scan(functions: np.ndarray, rank: np.ndarray) -> np.ndarray:
    """Inclusive segmented composition scan over state-map rows.

    ``functions[i]`` maps an incoming state to the state after item
    ``i``; items with ``rank == 0`` begin a new segment.  On return,
    row ``i`` maps a segment's initial state to the state after item
    ``i`` (Hillis-Steele doubling, composing only within segments, so
    the cost is ``O(n * n_states * log(max rank))``).
    """
    count = len(functions)
    if count == 0:
        return functions
    result = functions.copy()
    n_states = result.shape[1]
    # A constant row (every incoming state mapped to one value) can never
    # change under further left-composition, so it drops out of the
    # doubling loop; with contracting automata most rows go constant
    # after a step or two, which keeps the scan near-linear.
    active = np.any(result != result[:, :1], axis=1)
    distance = 1
    max_rank = int(rank.max()) if count else 0
    while distance <= max_rank:
        valid = np.flatnonzero(active & (rank >= distance))
        if valid.size == 0:
            break
        current = result[valid]
        earlier = result[valid - distance]
        base = (np.arange(valid.size, dtype=np.intp) * n_states)[:, None]
        composed = current.reshape(-1)[base + earlier]
        result[valid] = composed
        active[valid] = np.any(composed != composed[:, :1], axis=1)
        distance *= 2
    return result


def group_ranks(new_group: np.ndarray) -> np.ndarray:
    """Position of each item within its (contiguous) group."""
    count = len(new_group)
    indices = np.arange(count, dtype=np.int64)
    if count == 0:
        return indices
    return indices - np.maximum.accumulate(np.where(new_group, indices, -1))
