"""Key columns: the two-level predictor split at its first/second-level seam.

``keys_for`` runs the first level (history registers + key assembly) over
a whole trace; ``run_keys`` runs the tables over the column.  Their
composition must be the per-branch ``predict``/``update`` oracle, and
the runner's :class:`~repro.sim.engine.KeyColumnMemo` must hand every
table config the column (and final history) it would have built itself.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import default_run_trace
from repro.core.config import HybridConfig, TwoLevelConfig
from repro.core.factory import build_predictor, config_from_spec
from repro.ingest import ExternalTraceSource
from repro.sim.engine import KEY_MEMO_BYTES, KeyColumnMemo, simulate
from repro.sim.suite_runner import SuiteRunner
from repro.workloads.trace import Trace, TraceMetadata

from .test_attribution import FAMILY_SPECS
from .test_ingest import write_sample

#: Every two-level and hybrid family spec, plus first-level variants the
#: family list does not reach: per-address and shared history, fold and
#: shift-xor compression, concatenated keys, ping-pong interleave; and
#: hybrids arbitrating on commit codes: three components, 1- and 3-bit
#: confidence, BPST over every organisation.
KEYED_SPECS = tuple(
    spec for spec in FAMILY_SPECS if not spec.startswith("btb")
) + (
    "twolevel:p=3,s=2,entries=64,assoc=2",
    "twolevel:p=2,s=9,compression=fold,interleave=pingpong",
    "twolevel:p=4,compression=shift_xor,entries=32,assoc=tagless",
    "twolevel:p=2,address=concat,interleave=straight,entries=64,assoc=4",
    "twolevel:p=0,entries=16,assoc=full",
    "hybrid:p1=4,p2=1,s=4,entries=64,assoc=2,update=always",
    "hybrid:p1=4,p2=2,p3=0,entries=16,assoc=2,confidence=1",
    "hybrid:p1=3,p2=1,p3=6,entries=8,assoc=full,confidence=3,update=always",
    "hybrid:p1=2,p2=1,p3=4,entries=8,assoc=tagless,confidence=3",
    "hybrid:p1=2,p2=0,meta=bpst,confidence=1",
    "hybrid:p1=3,p2=1,entries=8,assoc=full,meta=bpst,update=always",
    "hybrid:p1=4,p2=1,entries=16,assoc=1,meta=bpst,confidence=3",
    "hybrid:p1=2,p2=1,entries=8,assoc=tagless,meta=bpst",
)

PCS = (0x1000, 0x1044, 0x2080, 0x30C0, 0x4104)
TARGETS = (0x8000, 0x8124, 0x9048, 0xA0FC, 0xFFFFFFFC)

traces = st.lists(
    st.tuples(st.sampled_from(PCS), st.sampled_from(TARGETS)),
    max_size=120,
)


def make_trace(events, name="unit"):
    pcs = [pc for pc, _ in events]
    targets = [target for _, target in events]
    return Trace(pcs, targets, TraceMetadata(name=name))


def oracle(config, trace):
    predictor = build_predictor(config)
    misses = default_run_trace(predictor, trace.pcs, trace.targets)
    return misses, predictor.export_state()


def run_keys(predictor, trace):
    columns = predictor.keys_for(trace.pcs, trace.targets)
    if isinstance(predictor.config, HybridConfig):
        return predictor.run_keys(columns, trace.pcs, trace.targets)
    return predictor.run_keys(columns, trace.targets)


class TestSplitIsTheOracle:
    @pytest.mark.parametrize("spec", KEYED_SPECS)
    @settings(max_examples=25, deadline=None)
    @given(events=traces)
    def test_split_and_run_trace_match_default_loop(self, spec, events):
        config = config_from_spec(spec)
        trace = make_trace(events)
        expected = oracle(config, trace)
        split = build_predictor(config)
        assert (run_keys(split, trace), split.export_state()) == expected
        fused = build_predictor(config)
        assert (fused.run_trace(trace.pcs, trace.targets),
                fused.export_state()) == expected

    @pytest.mark.parametrize("spec", KEYED_SPECS)
    def test_generated_trace(self, spec, small_trace):
        config = config_from_spec(spec)
        predictor = build_predictor(config)
        assert (run_keys(predictor, small_trace), predictor.export_state()) \
            == oracle(config, small_trace)

    def test_keys_for_leaves_the_table_alone(self, small_trace):
        predictor = build_predictor(config_from_spec("twolevel:p=3,entries=64,assoc=2"))
        predictor.keys_for(small_trace.pcs, small_trace.targets)
        assert len(predictor.table) == 0


class TestMemoHitIsAMiss:
    @pytest.mark.parametrize("spec", KEYED_SPECS)
    @settings(max_examples=15, deadline=None)
    @given(events=traces)
    def test_hit_matches_miss_in_result_and_state(self, spec, events):
        trace = make_trace(events)
        memo = KeyColumnMemo()
        for config in (config_from_spec(spec), _resized(config_from_spec(spec))):
            built = len(memo)
            expected = oracle(config, trace)
            predictor = build_predictor(config)
            result = simulate(predictor, trace, key_memo=memo)
            assert (result.mispredictions, predictor.export_state()) == expected
            if built:  # the second config read the first one's columns
                assert len(memo) == built

    def test_hit_skips_the_first_level(self, small_trace, monkeypatch):
        memo = KeyColumnMemo()
        first = TwoLevelConfig.practical(3, 256, 4)
        simulate(build_predictor(first), small_trace, key_memo=memo)

        def rebuilt(*args):
            raise AssertionError("a memo hit rebuilt the key column")

        predictor = build_predictor(replace(first, num_entries=64))
        monkeypatch.setattr(predictor, "keys_for", rebuilt)
        expected = oracle(predictor.config, small_trace)
        result = simulate(predictor, small_trace, key_memo=memo)
        assert (result.mispredictions, predictor.export_state()) == expected

    def test_attribution_and_chained_runs_bypass_the_memo(self, small_trace):
        from repro.sim.attribution import AttributionCollector

        memo = KeyColumnMemo()
        config = config_from_spec("twolevel:p=3,entries=64,assoc=2")
        simulate(build_predictor(config), small_trace, key_memo=memo,
                 attribution=AttributionCollector())
        simulate(build_predictor(config), small_trace, key_memo=memo,
                 reset=False)
        assert len(memo) == 0


def _resized(config):
    """The same first level over a different table."""
    if isinstance(config, HybridConfig):
        return replace(config, components=tuple(
            _resized(component) for component in config.components))
    entries = 32 if config.num_entries != 32 else 16
    return replace(config, num_entries=entries, associativity="full",
                   update_rule="always", confidence_bits=3)


#: One value per first-level field, each different from the base config's.
FIRST_LEVEL_CHANGES = {
    "path_length": 4,
    "history_sharing": 4,
    "precision": 6,
    "low_bit": 3,
    "compression": "fold",
    "address_mode": "concat",
    "table_sharing": 5,
    "interleave": "straight",
}


class TestFirstLevelKeys:
    BASE = TwoLevelConfig.practical(3, 256, 4)

    @pytest.mark.parametrize("field", sorted(FIRST_LEVEL_CHANGES))
    def test_single_field_change_never_shares_a_column(self, field, small_trace):
        changed = replace(self.BASE, **{field: FIRST_LEVEL_CHANGES[field]})
        assert changed.first_level != self.BASE.first_level
        memo = KeyColumnMemo()
        for config in (self.BASE, changed):
            expected = oracle(config, small_trace)
            predictor = build_predictor(config)
            result = simulate(predictor, small_trace, key_memo=memo)
            assert (result.mispredictions, predictor.export_state()) == expected
        assert len(memo) == 2

    @pytest.mark.parametrize("field, value", [
        ("num_entries", 1024), ("associativity", "tagless"),
        ("update_rule", "always"), ("confidence_bits", 3)])
    def test_table_fields_share_the_column(self, field, value):
        changed = replace(self.BASE, **{field: value})
        assert changed.first_level == self.BASE.first_level

    def test_resolved_precision_shares_the_column(self):
        # auto precision under the 24-bit budget resolves to b = 8 at p = 3
        assert replace(self.BASE, precision=8).first_level \
            == self.BASE.first_level


def _long_trace(name, events):
    pcs = [PCS[(step * 7) % len(PCS)] for step in range(events)]
    targets = [TARGETS[(step * step) % len(TARGETS)] for step in range(events)]
    return Trace(pcs, targets, TraceMetadata(name=name))


class TestMemoBound:
    def test_held_bytes_never_exceed_the_bound(self):
        # Each column is ~320 KB: the fourth path length evicts the first.
        trace = _long_trace("long", 40_000)
        memo = KeyColumnMemo()
        for path in range(1, 7):
            simulate(build_predictor(TwoLevelConfig.practical(path, 64, 4)),
                     trace, key_memo=memo)
            assert 0 < memo.held_bytes <= KEY_MEMO_BYTES
        assert len(memo) < 6

    def test_least_recently_used_column_goes_first(self):
        trace = _long_trace("long", 40_000)
        memo = KeyColumnMemo()
        configs = [TwoLevelConfig.practical(path, 64, 4) for path in (1, 2, 3)]
        for config in configs + configs[:1]:  # touch p=1 again
            simulate(build_predictor(config), trace, key_memo=memo)
        simulate(build_predictor(TwoLevelConfig.practical(4, 64, 4)), trace,
                 key_memo=memo)
        held = {key[1][0] for key in memo._entries}
        assert held == {1, 3, 4}

    def test_column_wider_than_int64_is_not_held(self, small_trace):
        # Full-precision concatenation puts pc >> 2 above a 64-bit pattern.
        config = TwoLevelConfig.unconstrained(2)
        memo = KeyColumnMemo()
        misses = default_run_trace(build_predictor(config), small_trace.pcs,
                                   small_trace.targets)
        for _ in range(2):
            result = simulate(build_predictor(config), small_trace,
                              key_memo=memo)
            assert result.mispredictions == misses
            assert len(memo) == 0 and memo.held_bytes == 0

    def test_reregistered_external_drops_its_columns(self, tmp_path):
        path = tmp_path / "t.ndjson"
        write_sample(path, events=[(0, 1), (1, 0)] * 200)
        runner = SuiteRunner(benchmarks=(), scale=1.0, progress=False)
        name = runner.register_external(ExternalTraceSource.open(path))
        first = TwoLevelConfig.practical(2, 64, 4)
        expected = oracle(first, runner.trace(name))[0]
        assert runner.result(first, name).mispredictions == expected
        assert len(runner._key_columns) == 1

        # Same name, new bytes: a stale column would give wrong rates.
        write_sample(path, events=[(0, 0), (0, 1), (1, 1), (1, 0)] * 150)
        runner.register_external(ExternalTraceSource.open(path))
        assert len(runner._key_columns) == 0
        second = replace(first, num_entries=32)
        expected = oracle(second, runner.trace(name))[0]
        assert runner.result(second, name).mispredictions == expected
