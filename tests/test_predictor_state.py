"""Predictor state as int64 columns: export/import round trips and shapes.

The property under test: running a predictor to any point, exporting
its state and importing it into a fresh predictor of the same spec is
indistinguishable from never stopping — same total mispredictions, same
final state.  Every malformed column is rejected without touching the
importing predictor.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.columns import decode_columns, encode_columns, row_width
from repro.core.factory import predictor_from_spec
from repro.errors import StateError

from .test_attribution import FAMILY_SPECS

#: Small address pools, so short traces hit, miss, evict and alias.
_PCS = st.sampled_from([0x1000 + 4 * i for i in range(24)])
_TARGETS = st.sampled_from([0x8000 + 4 * i for i in range(6)])


def _warm(spec, pairs):
    predictor = predictor_from_spec(spec)
    predictor.run_trace([pc for pc, _ in pairs], [t for _, t in pairs])
    return predictor


@pytest.fixture(scope="module")
def warm_pairs():
    pairs = [(0x1000 + 4 * ((i * 7) % 40), 0x8000 + 4 * ((i * 5) % 9))
             for i in range(900)]
    return pairs


class TestRoundTrip:
    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    @settings(max_examples=20, deadline=None)
    @given(pairs=st.lists(st.tuples(_PCS, _TARGETS), max_size=300),
           data=st.data())
    def test_export_import_mid_trace_equals_oracle(self, spec, pairs, data):
        k = data.draw(st.integers(0, len(pairs)), label="k")
        pcs = [pc for pc, _ in pairs]
        targets = [target for _, target in pairs]
        oracle = predictor_from_spec(spec)
        total = oracle.run_trace(pcs, targets)

        first = predictor_from_spec(spec)
        misses = first.run_trace(pcs[:k], targets[:k])
        columns = decode_columns(encode_columns(first.export_state()))
        second = predictor_from_spec(spec)
        second.import_state(columns)
        misses += second.run_trace(pcs[k:], targets[k:])

        assert misses == total
        assert second.export_state() == oracle.export_state()

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_columns_are_named_int64_rows(self, spec, warm_pairs):
        columns = _warm(spec, warm_pairs).export_state()
        for name, column in columns.items():
            assert column.typecode == "q"
            assert len(column) % row_width(name) == 0
        assert any(len(column) for column in columns.values())

    def test_state_is_bounded_by_the_table_not_the_history(self, warm_pairs):
        spec = "hybrid:p1=3,p2=1,entries=128,assoc=4"
        short = _warm(spec, warm_pairs).export_state()
        long = _warm(spec, warm_pairs * 8).export_state()
        size = sum(len(column) for column in long.values())
        assert size == sum(len(column) for column in short.values())
        assert len(long["c0.table"]) <= 128 * 4

    def test_wide_keys_do_not_export(self):
        spec = "twolevel:p=3,precision=full,address=concat,entries=none"
        predictor = _warm(spec, [(0x1000, 0x8000)] * 4)
        with pytest.raises(StateError, match="int64"):
            predictor.export_state()


def _bad(columns, name, column):
    broken = dict(columns)
    broken[name] = array("q", column)
    return broken


class TestMalformedColumns:
    def _reject(self, spec, columns, warm_pairs, match):
        predictor = _warm(spec, warm_pairs)
        before = predictor.export_state()
        with pytest.raises(StateError, match=match):
            predictor.import_state(columns)
        assert predictor.export_state() == before  # untouched

    def test_missing_and_extra_names(self, warm_pairs):
        spec = "twolevel:p=4,entries=128,assoc=2"
        columns = _warm(spec, warm_pairs).export_state()
        self._reject(spec, {"table": columns["table"]}, warm_pairs,
                     "do not match")
        extra = dict(columns, selector=array("q"))
        self._reject(spec, extra, warm_pairs, "do not match")
        self._reject(spec, "table", warm_pairs, "not a mapping")

    def test_wrong_typecode(self, warm_pairs):
        for column in (array("i", [4, 1, 0, 0]), [4, 1, 0, 0]):
            self._reject("btb", {"table": column}, warm_pairs,
                         "not an int64 array")

    def test_partial_row(self, warm_pairs):
        columns = _warm("btb", warm_pairs).export_state()
        columns = _bad(columns, "table", list(columns["table"])[:-1])
        self._reject("btb", columns, warm_pairs, "not whole rows of 4")

    def test_negative_value(self, warm_pairs):
        self._reject("btb", {"table": array("q", [-4, 1, 0, 0])},
                     warm_pairs, "negative")

    def test_miss_bit_and_confidence_range(self, warm_pairs):
        self._reject("btb", {"table": array("q", [4, 1, 2, 0])},
                     warm_pairs, "miss bit")
        self._reject("btb", {"table": array("q", [4, 1, 0, 4])},
                     warm_pairs, "confidence exceeds 3")

    def test_repeated_key(self, warm_pairs):
        for spec in ("btb", "btb:entries=64,assoc=full",
                     "btb:entries=64,assoc=4", "btb:entries=64,assoc=tagless"):
            self._reject(spec, {"table": array("q", [4, 1, 0, 0] * 2)},
                         warm_pairs, "repeat a key")

    def test_capacity(self, warm_pairs):
        rows = [value for key in range(9) for value in (key, 1, 0, 0)]
        self._reject("btb:entries=8,assoc=full",
                     {"table": array("q", rows)}, warm_pairs, "capacity")

    def test_ways_per_set(self, warm_pairs):
        # 64 entries, 4 ways = 16 sets: keys 0, 16, 32, ... share set 0.
        rows = [value for way in range(5) for value in (16 * way, 1, 0, 0)]
        self._reject("btb:entries=64,assoc=4",
                     {"table": array("q", rows)}, warm_pairs,
                     "more than 4 ways")

    def test_tagless_slot_range(self, warm_pairs):
        self._reject("btb:entries=64,assoc=tagless",
                     {"table": array("q", [64, 1, 0, 0])}, warm_pairs,
                     "outside the 64-entry table")

    def test_history_shapes(self, warm_pairs):
        spec = "twolevel:p=4,entries=128,assoc=2"
        table = _warm(spec, warm_pairs).export_state()["table"]
        for history, match in (([1, 5], "id 0"),
                               ([0, 5, 0, 6], "history rows repeat an id"),
                               ([0, 1 << 40], "history value exceeds 16777215"),
                               ([], "id 0")):
            self._reject(spec, {"table": table,
                                "history": array("q", history)},
                         warm_pairs, match)

    def test_selector_shapes(self, warm_pairs):
        spec = "hybrid:p1=3,p2=1,entries=128,assoc=4,meta=bpst"
        columns = _warm(spec, warm_pairs).export_state()
        self._reject(spec, _bad(columns, "selector", [5, 4]), warm_pairs,
                     "selector value exceeds 3")
        self._reject(spec, _bad(columns, "selector", [5, 1, 5, 2]),
                     warm_pairs, "selector rows repeat an id")

    def test_hybrid_failure_in_a_late_column_changes_nothing(self,
                                                             warm_pairs):
        spec = "hybrid:p1=3,p2=1,entries=128,assoc=4"
        columns = _warm(spec, warm_pairs[:200]).export_state()
        columns["c1.history"] = array("q", [0, 1 << 40])
        self._reject(spec, columns, warm_pairs, "value exceeds")


class TestEncoding:
    def test_decode_rejects_bad_input(self):
        with pytest.raises(StateError, match="not an object"):
            decode_columns(["table"])
        with pytest.raises(StateError, match="unknown state column"):
            decode_columns({"os.system": ""})
        with pytest.raises(StateError, match="not base64"):
            decode_columns({"table": "!!!"})
        with pytest.raises(StateError, match="not whole rows"):
            decode_columns({"history": "AAAAAAAAAAA="})  # 8 bytes
        with pytest.raises(StateError, match="not a string"):
            decode_columns({"table": 7})

    def test_round_trip_is_exact(self, warm_pairs):
        columns = _warm("hybrid:p1=3,p2=1,entries=128,assoc=4,meta=bpst",
                        warm_pairs).export_state()
        assert decode_columns(encode_columns(columns)) == columns
