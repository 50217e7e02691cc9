"""Predictor construction cost and the pickled layout of built predictors.

Most of a quick-grid ``repro experiments`` run is short simulations, so
building a predictor has to cost the same whatever its pattern width or
table size.  These tests pin that down by counting work rather than timing
it: interleave lookup tables are built once per ``(p, b, scheme)``, and a
set-associative table allocates a set only when a commit first touches it.
They also check that predictors pickled in the earlier layout (a copy of
the lookup tables in every permutation, one dict per set) still load and
behave the same.
"""

import pickle
import random

import pytest

from repro.core import bits
from repro.core.bits import InterleavePermutation, mask
from repro.core.factory import build_predictor, predictor_from_spec
from repro.core.tables import SetAssociativeTable
from repro.experiments import fig12_14, fig15

SCHEMES = ("straight", "reverse", "pingpong")
LIMIT = InterleavePermutation._TABLE_WIDTH_LIMIT


def _reference_tables(path_length, width, scheme):
    """The lookup tables as they were built before caching: bit by bit."""
    rank = [0] * path_length
    for position, element in enumerate(bits.rotation_order(path_length, scheme)):
        rank[element] = position
    tables = []
    for element_index in range(path_length):
        table = []
        for value in range(1 << width):
            contribution = 0
            for bit in range(width):
                if (value >> bit) & 1:
                    contribution |= 1 << (bit * path_length + rank[element_index])
            table.append(contribution)
        tables.append(table)
    return rank, tables


def _old_layout_permutation(path_length, width, scheme):
    """A permutation whose ``__dict__`` matches the earlier pickled layout."""
    rank, tables = _reference_tables(path_length, width, scheme)
    permutation = object.__new__(InterleavePermutation)
    permutation.__dict__.update(
        path_length=path_length, width=width, scheme=scheme,
        _rank=rank, _tables=tables,
    )
    return permutation


def _trace(seed, length=3000):
    rng = random.Random(seed)
    pcs = [rng.choice((0x1000, 0x2040, 0x30A8, 0x4FFC)) for _ in range(length)]
    targets = [rng.choice((0x8000, 0x8A44, 0x9F10, 0xC0DC, 0xE004)) for _ in range(length)]
    return pcs, targets


def _grid_configs():
    for module in (fig15, fig12_14):
        for paths in (module.QUICK_PATHS, module.FULL_PATHS):
            for path in paths:
                if module is fig15:
                    for scheme in fig15.SCHEMES:
                        yield fig15._config(path, scheme)
                    continue
                for associativity in fig12_14.ASSOCIATIVITIES:
                    for interleave in ("none", "reverse"):
                        yield fig12_14._config(path, associativity, interleave)


class TestInterleaveTableCache:
    def test_tables_match_bit_by_bit_reference(self):
        for width in range(1, LIMIT + 1):
            for path in sorted({2, 3, max(2, 24 // width)}):
                for scheme in SCHEMES:
                    _, expected = _reference_tables(path, width, scheme)
                    permutation = InterleavePermutation(path, width, scheme)
                    assert [list(t) for t in permutation._tables] == expected

    def test_same_shape_shares_immutable_tables(self):
        first = InterleavePermutation(2, 12, "reverse")
        second = InterleavePermutation(2, 12, "reverse")
        assert first._tables is second._tables
        assert isinstance(first._tables, tuple)
        assert all(isinstance(table, tuple) for table in first._tables)
        assert InterleavePermutation(2, 12, "straight")._tables is not first._tables

    def test_grids_build_each_table_set_at_most_once(self, monkeypatch):
        monkeypatch.setattr(bits, "_TABLE_CACHE", {})
        built = []
        original = InterleavePermutation._build_tables

        def counting(self):
            built.append((self.path_length, self.width, self.scheme))
            return original(self)

        monkeypatch.setattr(InterleavePermutation, "_build_tables", counting)
        shapes = set()
        for config in _grid_configs():
            predictor = build_predictor(config)
            predictor.reset()
            if config.interleave != "none" and config.path_length > 1:
                shapes.add((config.path_length, config.bits_per_target, config.interleave))
        assert len(built) == len(set(built))
        assert set(built) == {shape for shape in shapes if shape[1] <= LIMIT}


class TestPickledLayout:
    def test_round_trip_applies_identically_for_every_width(self):
        rng = random.Random(7)
        for width in range(1, LIMIT + 1):
            for path in sorted({2, max(2, 24 // width)}):
                for scheme in SCHEMES:
                    original = InterleavePermutation(path, width, scheme)
                    copy = pickle.loads(pickle.dumps(original, protocol=4))
                    assert copy._tables is original._tables
                    values = [rng.getrandbits(path * width) for _ in range(64)]
                    values += [0, mask(path * width)]
                    for value in values:
                        assert copy.apply(value) == original.apply(value)
                        assert copy.invert(copy.apply(value)) == value

    @pytest.mark.parametrize(
        "spec, old_size",
        [
            ("twolevel:p=2,entries=1024,assoc=4", 41_370),
            ("hybrid:p1=3,p2=1,entries=1024,assoc=4", 6_009),
        ],
    )
    def test_empty_predictor_blobs_shrink(self, spec, old_size):
        size = len(pickle.dumps(predictor_from_spec(spec), protocol=4))
        assert size < old_size // 3

    @pytest.mark.parametrize(
        "spec",
        [
            "twolevel:p=2,entries=1024,assoc=4",
            "twolevel:p=3,entries=256,assoc=1,interleave=pingpong",
            "hybrid:p1=3,p2=1,entries=1024,assoc=4",
        ],
    )
    def test_old_layout_blob_loads_and_behaves_the_same(self, spec, monkeypatch):
        pcs, targets = _trace(seed=11)
        half = len(pcs) // 2
        expected = predictor_from_spec(spec).run_trace(pcs, targets)

        # A warm predictor rewritten into the earlier layout: permutations
        # holding their own list tables, every set a dict.
        warm = predictor_from_spec(spec)
        first = warm.run_trace(pcs[:half], targets[:half])
        for component in getattr(warm, "components", [warm]):
            current = component.keys._permutation
            if current is not None:
                component.keys._permutation = _old_layout_permutation(
                    current.path_length, current.width, current.scheme
                )
            table = component.table
            table._sets = [{} if ways is None else ways for ways in table._sets]
        with monkeypatch.context() as patch:
            # Pickle with the default reduction, as before ``__reduce__``.
            patch.delattr(InterleavePermutation, "__reduce__")
            blob = pickle.dumps(warm, protocol=4)
        assert b"_tables" in blob

        loaded = pickle.loads(blob)
        for component in getattr(loaded, "components", [loaded]):
            permutation = component.keys._permutation
            if permutation is not None:
                assert permutation._tables is InterleavePermutation(
                    permutation.path_length, permutation.width, permutation.scheme
                )._tables
            assert all(isinstance(ways, dict) for ways in component.table._sets)
        second = loaded.run_trace(pcs[half:], targets[half:])
        assert first + second == expected


class EagerSetAssociativeTable(SetAssociativeTable):
    """Reference that allocates every set up front, as tables once did."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sets = [dict() for _ in range(self.num_sets)]


class TestLazySets:
    def test_no_set_exists_before_a_commit(self):
        table = SetAssociativeTable(32768, 1)
        assert all(ways is None for ways in table._sets)
        assert len(table) == 0
        assert table.probe(0x1234) is None
        table.commit(0x1234, 0x40)
        assert sum(ways is not None for ways in table._sets) == 1
        assert table.probe(0x1234).target == 0x40

    @pytest.mark.parametrize("entries, assoc", [(64, 1), (64, 2), (256, 4), (32768, 1)])
    def test_matches_eager_reference(self, entries, assoc):
        rng = random.Random(entries * 10 + assoc)
        lazy = SetAssociativeTable(entries, assoc)
        eager = EagerSetAssociativeTable(entries, assoc)
        keys = [rng.getrandbits(16) for _ in range(entries // 2 + 8)]
        for step in range(min(4 * entries, 4096)):
            key = rng.choice(keys)
            target = rng.choice((0x100, 0x200, 0x300))
            lazy_entry, eager_entry = lazy.probe(key), eager.probe(key)
            assert (lazy_entry is None) == (eager_entry is None)
            if lazy_entry is not None:
                assert lazy_entry.target == eager_entry.target
            lazy.commit(key, target)
            eager.commit(key, target)
            if step % 97 == 0:
                assert len(lazy) == len(eager)
                assert lazy.utilization() == eager.utilization()
        assert len(lazy) == len(eager)
        assert lazy.utilization() == eager.utilization()
