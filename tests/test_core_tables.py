"""Unit tests for repro.core.tables — all four table organisations."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tables import (
    UPDATE_RULES,
    Entry,
    FullyAssociativeTable,
    SetAssociativeTable,
    TaglessTable,
    UnconstrainedTable,
    make_table,
)
from repro.errors import ConfigError


class TestUpdateSemantics:
    """The shared entry-update rules (2bc hysteresis and confidence)."""

    def test_first_commit_allocates(self):
        table = UnconstrainedTable()
        table.commit(1, 0x100)
        entry = table.probe(1)
        assert entry is not None
        assert entry.target == 0x100
        assert entry.miss_bit == 0
        assert entry.confidence == 0

    def test_correct_outcome_raises_confidence(self):
        table = UnconstrainedTable()
        table.commit(1, 0x100)
        for _ in range(5):
            table.commit(1, 0x100)
        assert table.probe(1).confidence == 3  # 2-bit saturating

    def test_2bc_requires_two_consecutive_misses(self):
        table = UnconstrainedTable(update_rule="2bc")
        table.commit(1, 0xA)
        table.commit(1, 0xB)          # first miss: keep target, set miss bit
        assert table.probe(1).target == 0xA
        assert table.probe(1).miss_bit == 1
        table.commit(1, 0xB)          # second consecutive miss: replace
        assert table.probe(1).target == 0xB
        assert table.probe(1).miss_bit == 0

    def test_2bc_miss_bit_cleared_by_hit(self):
        table = UnconstrainedTable(update_rule="2bc")
        table.commit(1, 0xA)
        table.commit(1, 0xB)          # excursion
        table.commit(1, 0xA)          # return: hit, clears the miss bit
        assert table.probe(1).miss_bit == 0
        table.commit(1, 0xB)          # another single miss does not replace
        assert table.probe(1).target == 0xA

    def test_always_rule_replaces_immediately(self):
        table = UnconstrainedTable(update_rule="always")
        table.commit(1, 0xA)
        table.commit(1, 0xB)
        assert table.probe(1).target == 0xB

    def test_wrong_outcome_lowers_confidence(self):
        table = UnconstrainedTable()
        table.commit(1, 0xA)
        table.commit(1, 0xA)
        table.commit(1, 0xA)
        confidence_before = table.probe(1).confidence
        table.commit(1, 0xB)
        assert table.probe(1).confidence == confidence_before - 1

    def test_unknown_update_rule_rejected(self):
        with pytest.raises(ConfigError):
            UnconstrainedTable(update_rule="sometimes")

    def test_bad_confidence_bits_rejected(self):
        with pytest.raises(ConfigError):
            UnconstrainedTable(confidence_bits=0)


class TestUnconstrainedTable:
    def test_never_evicts(self):
        table = UnconstrainedTable()
        for key in range(10_000):
            table.commit(key, key * 4)
        assert len(table) == 10_000
        assert table.probe(0).target == 0
        assert table.capacity is None

    def test_probe_misses_unknown_key(self):
        assert UnconstrainedTable().probe(42) is None


class TestFullyAssociativeTable:
    def test_capacity_enforced(self):
        table = FullyAssociativeTable(8)
        for key in range(20):
            table.commit(key, key)
        assert len(table) == 8

    def test_lru_eviction_order(self):
        table = FullyAssociativeTable(4)
        for key in range(4):
            table.commit(key, key)
        table.commit(0, 0)            # refresh key 0
        table.commit(99, 99)          # evicts key 1, the least recent
        assert table.probe(1) is None
        assert table.probe(0) is not None

    def test_replacement_resets_entry_state(self):
        table = FullyAssociativeTable(1)
        table.commit(1, 0xA)
        table.commit(1, 0xA)
        table.commit(2, 0xB)          # evicts key 1
        entry = table.probe(2)
        assert entry.confidence == 0 and entry.miss_bit == 0

    def test_size_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            FullyAssociativeTable(24)


class TestSetAssociativeTable:
    def test_index_and_tag_split(self):
        table = SetAssociativeTable(8, 2)  # 4 sets, 2 ways
        assert table.num_sets == 4
        assert table.index_bits == 2

    def test_conflicting_keys_evict_within_set(self):
        table = SetAssociativeTable(8, 2)
        # Keys 0, 4, 8 share set 0 (low 2 bits equal); 2 ways hold 2 of them.
        table.commit(0, 0xA)
        table.commit(4, 0xB)
        table.commit(8, 0xC)
        assert table.probe(0) is None      # LRU victim
        assert table.probe(4).target == 0xB
        assert table.probe(8).target == 0xC

    def test_hit_refreshes_recency(self):
        table = SetAssociativeTable(8, 2)
        table.commit(0, 0xA)
        table.commit(4, 0xB)
        table.commit(0, 0xA)               # refresh key 0
        table.commit(8, 0xC)               # now key 4 is the victim
        assert table.probe(0) is not None
        assert table.probe(4) is None

    def test_different_sets_do_not_conflict(self):
        table = SetAssociativeTable(8, 1)
        for key in range(8):
            table.commit(key, key)
        assert len(table) == 8
        for key in range(8):
            assert table.probe(key).target == key

    def test_one_way_is_direct_mapped_with_tags(self):
        table = SetAssociativeTable(4, 1)
        table.commit(0, 0xA)
        assert table.probe(4) is None      # same index, different tag: miss

    def test_utilization(self):
        table = SetAssociativeTable(8, 2)
        table.commit(0, 1)
        table.commit(1, 2)
        assert table.utilization() == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SetAssociativeTable(8, 3)      # non power-of-two ways
        with pytest.raises(ConfigError):
            SetAssociativeTable(9, 1)      # non power-of-two entries
        with pytest.raises(ConfigError):
            SetAssociativeTable(4, 8)      # more ways than entries


class TestTaglessTable:
    def test_aliasing_returns_other_keys_entry(self):
        table = TaglessTable(4)
        table.commit(0, 0xA)
        aliased = table.probe(4)           # same index 0, no tag check
        assert aliased is not None
        assert aliased.target == 0xA

    def test_positive_interference_possible(self):
        # Two keys mapping to one slot, same target: both "hit".
        table = TaglessTable(4)
        table.commit(0, 0xA)
        table.commit(4, 0xA)
        assert table.probe(0).target == 0xA
        assert table.probe(4).target == 0xA

    def test_negative_interference_with_2bc(self):
        table = TaglessTable(4)
        table.commit(0, 0xA)
        table.commit(4, 0xB)               # single miss: hysteresis keeps A
        assert table.probe(0).target == 0xA
        table.commit(4, 0xB)               # second miss: replaced
        assert table.probe(0).target == 0xB

    def test_len_counts_written_slots(self):
        table = TaglessTable(8)
        table.commit(0, 1)
        table.commit(1, 2)
        table.commit(8, 3)                 # aliases slot 0
        assert len(table) == 2
        assert table.utilization() == pytest.approx(0.25)


class TestMakeTable:
    def test_dispatch(self):
        assert isinstance(make_table(None, "full"), UnconstrainedTable)
        assert isinstance(make_table(64, "tagless"), TaglessTable)
        assert isinstance(make_table(64, "full"), FullyAssociativeTable)
        assert isinstance(make_table(64, 4), SetAssociativeTable)

    def test_full_way_count_is_fully_associative(self):
        assert isinstance(make_table(64, 64), FullyAssociativeTable)

    def test_bad_associativity_rejected(self):
        with pytest.raises(ConfigError):
            make_table(64, "lru")


def test_entry_repr_mentions_target():
    assert "0x40" in repr(Entry(0x40))


#: Every organisation, small enough that a stream of 16 keys evicts.
ORGANISATIONS = {
    "unconstrained": lambda rule, bits: UnconstrainedTable(rule, bits),
    "full": lambda rule, bits: FullyAssociativeTable(4, rule, bits),
    "1-way": lambda rule, bits: SetAssociativeTable(8, 1, rule, bits),
    "2-way": lambda rule, bits: SetAssociativeTable(8, 2, rule, bits),
    "4-way": lambda rule, bits: SetAssociativeTable(8, 4, rule, bits),
    "tagless": lambda rule, bits: TaglessTable(4, rule, bits),
}

streams = st.lists(
    st.tuples(st.integers(0, 15), st.sampled_from((0xA0, 0xB0, 0xC0))),
    max_size=150,
)


def every_table(test):
    """Parametrise ``test`` over organisation, update rule and width."""
    for name, values in (("organisation", sorted(ORGANISATIONS)),
                         ("rule", UPDATE_RULES), ("bits", (1, 2, 3))):
        test = pytest.mark.parametrize(name, values)(test)
    return test


def probe_code(table, key, target):
    """``commit``'s documented code, read from a probe."""
    entry = table.probe(key)
    if entry is None:
        return 0
    return 2 * (entry.confidence + 1) + (entry.target == target)


def stored_keys(table):
    return set(table.export_rows()[::4])


class Recorder:
    def __init__(self):
        self.calls = []

    def evicted(self, key, cause):
        self.calls.append(("evicted", key, cause))

    def wrote(self, index, key):
        self.calls.append(("wrote", index, key))


def expected_calls(table, before, key, target):
    """The observer calls a commit makes, read off the table's state change.

    Replacement evicts exactly the keys that left the table; a tagless
    slot is written when it ends up holding the branch's target.
    """
    if isinstance(table, TaglessTable):
        index = key & (table.num_entries - 1)
        return ([("wrote", index, key)]
                if table.probe(key).target == target else [])
    cause = "conflict" if isinstance(table, SetAssociativeTable) else "capacity"
    return [("evicted", gone, cause)
            for gone in sorted(before - stored_keys(table))]


class TestCommitCodesAndRun:
    """``commit``'s code and ``run`` against ``probe`` and the commit loop.

    Hypothesis key/target streams over every organisation, update rule
    and confidence width; 16 keys over 4-8 entries keep evicting.
    """

    @every_table
    @settings(max_examples=25, deadline=None)
    @given(events=streams)
    def test_commit_returns_the_probe_code(self, organisation, rule, bits,
                                           events):
        table = ORGANISATIONS[organisation](rule, bits)
        for key, target in events:
            expected = probe_code(table, key, target)
            assert table.commit(key, target) == expected

    @every_table
    @settings(max_examples=25, deadline=None)
    @given(events=streams, split=st.integers(0, 150))
    def test_run_is_the_commit_loop(self, organisation, rule, bits, events,
                                    split):
        table, looped = (ORGANISATIONS[organisation](rule, bits)
                         for _ in range(2))
        # Both take the same prefix one commit at a time, so ``run``
        # also starts from a partly filled table.
        for key, target in events[:split]:
            table.commit(key, target)
            looped.commit(key, target)
        rest = events[split:]
        misses = sum(not looped.commit(key, target) & 1 for key, target in rest)
        assert table.run([key for key, _ in rest],
                         [target for _, target in rest]) == misses
        assert table.export_rows() == looped.export_rows()
        assert len(table) == len(looped) == len(table.export_rows()) // 4

    @every_table
    @settings(max_examples=25, deadline=None)
    @given(events=streams)
    def test_observer_sees_every_replacement(self, organisation, rule, bits,
                                             events):
        table = ORGANISATIONS[organisation](rule, bits)
        table.observer = recorder = Recorder()
        for key, target in events:
            before = stored_keys(table)
            recorder.calls.clear()
            table.commit(key, target)
            assert recorder.calls == expected_calls(table, before, key, target)

    def test_codes_rank_confidence_and_flag_hits(self):
        table = UnconstrainedTable()
        assert table.commit(1, 0xA) == 0           # no entry
        assert table.commit(1, 0xA) == 2 * 1 + 1  # confidence 0, hit
        assert table.commit(1, 0xB) == 2 * 2 + 0  # confidence 1, miss
        assert table.commit(1, 0xA) == 2 * 1 + 1  # confidence 0 again
