"""Tests for the one unit body, :meth:`SuiteRunner.run_unit`, and the
shared memo + journal lookup that :meth:`SuiteRunner.result` and
:meth:`SuiteRunner.compute_many` both consult before running a unit."""

from __future__ import annotations

import pytest

from repro.core.config import BTBConfig
from repro.errors import SimulationError
from repro.runtime import CheckpointJournal
from repro.sim import suite_runner
from repro.sim.engine import simulate
from repro.sim.suite_runner import SuiteRunner, UnitRun

CONFIG = BTBConfig(num_entries=64, associativity=4)


def small_runner(**kwargs) -> SuiteRunner:
    kwargs.setdefault("benchmarks", ("perl", "ixx"))
    kwargs.setdefault("scale", 0.05)
    return SuiteRunner(progress=False, **kwargs)


class TestRunUnit:
    def test_returns_unit_run_matching_result(self):
        runner = small_runner()
        unit = runner.run_unit(CONFIG, "perl")
        assert isinstance(unit, UnitRun)
        assert unit.result == small_runner().result(CONFIG, "perl")
        assert unit.load_seconds >= 0.0

    def test_trace_source_moves_from_generated_to_memo(self):
        runner = small_runner()
        assert runner.run_unit(CONFIG, "perl").trace_source == "generated"
        assert runner.run_unit(CONFIG, "perl").trace_source == "memo"

    def test_trace_source_reads_cache_on_a_fresh_runner(self, tmp_path):
        small_runner(cache_dir=tmp_path).run_unit(CONFIG, "perl")
        unit = small_runner(cache_dir=tmp_path).run_unit(CONFIG, "perl")
        assert unit.trace_source == "cache"

    def test_neither_memoises_nor_journals(self, tmp_path):
        journal = CheckpointJournal(tmp_path / "results.jsonl")
        runner = small_runner(checkpoint=journal)
        runner.run_unit(CONFIG, "perl")
        assert runner._known(CONFIG, "perl") is None
        assert len(journal) == 0
        assert runner.metrics.units_total == 0
        journal.close()

    def test_default_simulate_names_the_kernel(self):
        unit = small_runner().run_unit(CONFIG, "perl")
        assert unit.kernel is not None
        assert unit.attribution is None

    def test_custom_simulate_has_no_kernel(self):
        calls = []

        def fake_simulate(predictor, trace):
            calls.append(trace)
            return simulate(predictor, trace)

        runner = small_runner(simulate_fn=fake_simulate)
        unit = runner.run_unit(CONFIG, "perl")
        assert len(calls) == 1
        assert unit.kernel is None and unit.fallback is None
        assert unit.result == small_runner().run_unit(CONFIG, "perl").result

    def test_attribution_record_returned_not_merged(self):
        runner = small_runner(attribution=True)
        unit = runner.run_unit(CONFIG, "perl")
        assert unit.attribution["mispredictions"] == unit.result.mispredictions
        assert runner.attribution.records() == []

    def test_serial_result_merges_the_unit_record(self):
        runner = small_runner(attribution=True)
        result = runner.result(CONFIG, "perl")
        [record] = runner.attribution.records()
        assert record["mispredictions"] == result.mispredictions

    def test_trace_is_obtained_before_the_predictor_is_built(self, monkeypatch):
        order = []
        real_build = suite_runner.build_predictor
        real_generate = suite_runner.generate_trace

        def build(config):
            order.append("build")
            return real_build(config)

        def generate(config):
            order.append("generate")
            return real_generate(config)

        monkeypatch.setattr(suite_runner, "build_predictor", build)
        monkeypatch.setattr(suite_runner, "generate_trace", generate)
        small_runner().run_unit(CONFIG, "perl")
        assert order == ["generate", "build"]

    def test_unit_errors_propagate(self):
        def broken(predictor, trace):
            raise SimulationError("boom")

        runner = small_runner(simulate_fn=broken)
        with pytest.raises(SimulationError, match="boom"):
            runner.run_unit(CONFIG, "perl")


class TestKnownLookup:
    def test_unknown_pair_is_none(self):
        assert small_runner()._known(CONFIG, "perl") is None

    def test_memoised_result_is_known(self):
        runner = small_runner()
        result = runner.result(CONFIG, "perl")
        assert runner._known(CONFIG, "perl") is result

    def test_journalled_result_is_replayed_and_counted_once(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with CheckpointJournal(path) as journal:
            expected = small_runner(checkpoint=journal).result(CONFIG, "perl")
        with CheckpointJournal(path) as journal:
            runner = small_runner(checkpoint=journal)
            assert runner._known(CONFIG, "perl") == expected
            assert runner._known(CONFIG, "perl") == expected
            assert runner.metrics.units_from_checkpoint == 1
            assert runner.metrics.units_total == 0

    def test_compute_many_skips_journalled_pairs(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with CheckpointJournal(path) as journal:
            small_runner(checkpoint=journal).result(CONFIG, "perl")
        with CheckpointJournal(path) as journal:
            runner = small_runner(checkpoint=journal)
            runner.compute_many([(CONFIG, "perl"), (CONFIG, "ixx")])
            assert runner.metrics.units_from_checkpoint == 1
            assert runner.metrics.units_total == 1
            assert len(journal) == 2
