"""Integration tests for the parallel sweep executor.

Covers the headline guarantees: parallel results are bit-identical to
serial ones (rates *and* checkpoint journal, modulo completion order), a
SIGKILLed worker's unit is requeued and the sweep completes, a unit that
fails every attempt is reported with structured context instead of
wedging the pool, and a pool that runs out of respawns leaves the rest
to the runner's serial path.
"""

import json

import pytest

from repro.core.config import BTBConfig, TwoLevelConfig
from repro.errors import SimulationError
from repro.runtime import chaos, parallel
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.chaos import ChaosPlan, FaultSpec
from repro.sim.suite_runner import SuiteRunner
from repro.sim.sweep import sweep

#: Small, behaviourally distinct benchmarks; heavily scaled-down traces.
BENCHMARKS = ("perl", "ixx")
SCALE = 0.1

CONFIGS = {
    "btb": BTBConfig(),
    "btb-always": BTBConfig(update_rule="always"),
    "twolevel": TwoLevelConfig.practical(2, 256, 2),
}


def make_runner(tmp_path, name, **kwargs):
    directory = tmp_path / name
    return SuiteRunner(
        benchmarks=BENCHMARKS,
        scale=SCALE,
        cache_dir=directory / "traces",
        checkpoint=CheckpointJournal(directory / "results.jsonl"),
        progress=False,
        **kwargs,
    )


def arm_chaos(tmp_path, name, *faults):
    """Install a journalled plan (on-disk tickets: shared with workers)."""
    plan = ChaosPlan(faults)
    plan.save(tmp_path / f"{name}-chaos.json")
    chaos.install(plan)
    return plan


def journal_body(path):
    """Data lines of a journal in canonical (sorted) order."""
    lines = path.read_text().splitlines()
    assert "repro-checkpoint" in lines[0]
    return sorted(lines[1:])


class TestSerialParallelEquivalence:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_rates_and_journal_identical(self, tmp_path, workers):
        serial = make_runner(tmp_path, "serial")
        parallel = make_runner(tmp_path, f"par{workers}", workers=workers)
        serial_rates = {name: serial.rates(config)
                        for name, config in CONFIGS.items()}
        parallel_rates = {name: parallel.rates(config)
                          for name, config in CONFIGS.items()}
        # Byte-identical: exact float equality, not approx.
        assert parallel_rates == serial_rates
        assert journal_body(parallel.checkpoint.path) \
            == journal_body(serial.checkpoint.path)

    def test_sweep_parallel_matches_serial(self, tmp_path):
        configs = {p: TwoLevelConfig.practical(p, 256, 2) for p in (0, 1, 2)}
        serial = make_runner(tmp_path, "serial")
        parallel = make_runner(tmp_path, "parallel", workers=2)
        swept_serial = sweep(configs, runner=serial, benchmarks=BENCHMARKS)
        swept_parallel = sweep(configs, runner=parallel, benchmarks=BENCHMARKS)
        assert swept_parallel.points == swept_serial.points
        # The whole grid went through the pool, not one point at a time.
        assert parallel.metrics.units_total == len(configs) * len(BENCHMARKS)

    def test_traces_generated_once_in_parent(self, tmp_path):
        runner = make_runner(tmp_path, "warm", workers=2)
        runner.rates(CONFIGS["btb"])
        # One store per benchmark: workers only load, never regenerate.
        assert runner.trace_cache.stats.stores == len(BENCHMARKS)
        assert runner.metrics.trace_loads.get("generated", 0) == 0


class TestCrashRecovery:
    def test_sigkilled_worker_unit_requeued_and_completes(self, tmp_path):
        arm_chaos(tmp_path, "crash",
                  FaultSpec("worker.unit", "crash", match="perl"))
        runner = make_runner(tmp_path, "crash", workers=2)
        rates = runner.rates(CONFIGS["btb"])
        chaos.uninstall()
        reference = make_runner(tmp_path, "ref").rates(CONFIGS["btb"])
        assert rates == reference
        metrics = runner.metrics_summary()
        assert metrics["units"]["requeued"] >= 1
        assert metrics["worker_crashes"] >= 1
        assert metrics["units"]["completed"] == len(BENCHMARKS)
        # The requeued unit landed in the journal exactly once.
        body = journal_body(runner.checkpoint.path)
        assert len(body) == len(BENCHMARKS)
        assert len(set(body)) == len(body)

    def test_pool_survives_worker_crash_without_opt_in(self, tmp_path):
        # The pool must survive a lost worker with no setting at all:
        # environmental deaths (OOM kill, preemption) say nothing about
        # the unit, so the fixed attempt budget allows requeues.
        arm_chaos(tmp_path, "default",
                  FaultSpec("worker.unit", "crash", match="perl"))
        runner = make_runner(tmp_path, "default-crash", workers=2)
        rates = runner.rates(CONFIGS["btb"])
        chaos.uninstall()
        assert rates == make_runner(tmp_path, "default-ref").rates(CONFIGS["btb"])
        assert runner.metrics.worker_crashes >= 1

    def test_poisoned_unit_reports_structured_context(self, tmp_path):
        # Error out on *every* attempt: the unit exhausts its retry
        # budget (an in-worker error, so only the unit fails — the
        # worker survives and the respawn budget is untouched).
        assert parallel.DEFAULT_PARALLEL_ATTEMPTS < 5
        arm_chaos(tmp_path, "poison",
                  FaultSpec("worker.unit", "error", match="perl", times=5))
        runner = make_runner(tmp_path, "poison", workers=2)
        with pytest.raises(SimulationError) as excinfo:
            runner.rates(CONFIGS["btb"])
        attempts = parallel.DEFAULT_PARALLEL_ATTEMPTS
        context = excinfo.value.context
        assert context["poisoned_units"] == ["btb-2bc(inf)/perl"]
        assert context["max_attempts"] == attempts
        assert len(context["unit_errors"]["btb-2bc(inf)/perl"]) == attempts
        # The pool drained the healthy unit before reporting the poison.
        assert context["completed"] == 1
        assert runner.checkpoint.get(CONFIGS["btb"], "ixx") is not None

    def test_respawn_budget_exhaustion_degrades_to_serial(
            self, tmp_path, monkeypatch):
        # Every unit crashes its worker once per attempt; with a respawn
        # budget of 2*workers + units = 6 the pool gives up (an attempt
        # budget of 10 keeps any unit from being poisoned first) and the
        # runner finishes the remaining units serially, bit-identically.
        monkeypatch.setattr(parallel, "DEFAULT_PARALLEL_ATTEMPTS", 10)
        arm_chaos(tmp_path, "unstable",
                  FaultSpec("worker.unit", "crash", times=20))
        runner = make_runner(tmp_path, "unstable", workers=2)
        rates = {name: runner.rates(config)
                 for name, config in CONFIGS.items()}
        chaos.uninstall()
        reference = make_runner(tmp_path, "stable-ref")
        assert rates == {name: reference.rates(config)
                         for name, config in CONFIGS.items()}
        assert journal_body(runner.checkpoint.path) \
            == journal_body(reference.checkpoint.path)
        assert runner.degradations().get("serial_fallback", 0) >= 1
        assert runner.metrics_summary()["degradations"]["serial_fallback"] >= 1
        # At least one unit really ran in the parent, on the serial path.
        assert any(t.worker == "serial"
                   for t in runner.metrics.unit_timings)

    def test_serial_fallback_keeps_poison_and_finishes_the_rest(
            self, tmp_path, monkeypatch):
        # perl errors on every attempt and is poisoned while ixx's first
        # attempt hangs for a second (then errors in `simulate`).  ixx
        # then crashes its worker five times, exhausting the respawn
        # budget (6) but not its 7 attempts.  The runner finishes ixx
        # serially (every ixx fault is spent by then), journals it, and
        # only then raises perl's poison -- perl is not re-run.
        monkeypatch.setattr(parallel, "DEFAULT_PARALLEL_ATTEMPTS", 7)
        arm_chaos(tmp_path, "poison-fallback",
                  FaultSpec("worker.unit", "error", match="perl", times=50),
                  FaultSpec("worker.unit", "hang", match="ixx", arg=1.0),
                  FaultSpec("simulate", "error", match="ixx"),
                  FaultSpec("worker.unit", "crash", match="ixx", times=5))
        runner = make_runner(tmp_path, "poison-fallback", workers=2)
        with pytest.raises(SimulationError) as excinfo:
            runner.rates(CONFIGS["btb"])
        chaos.uninstall()
        context = excinfo.value.context
        assert context["poisoned_units"] == ["btb-2bc(inf)/perl"]
        assert context["max_attempts"] == 7
        assert len(context["unit_errors"]["btb-2bc(inf)/perl"]) == 7
        assert (context["completed"], context["total"]) == (1, 2)
        assert runner.degradations()["serial_fallback"] == 1
        assert [(t.benchmark, t.worker) for t in runner.metrics.unit_timings] \
            == [("ixx", "serial")]
        assert runner.checkpoint.get(CONFIGS["btb"], "perl") is None
        reference = make_runner(tmp_path, "poison-ref")
        assert runner.checkpoint.get(CONFIGS["btb"], "ixx") \
            == reference.result(CONFIGS["btb"], "ixx")
        assert runner.metrics_summary()["units"] == {
            "total": 2, "completed": 1, "from_checkpoint": 0,
            "requeued": 12, "poisoned": 1}


class TestParallelCheckpointResume:
    def test_resume_skips_parallel_journalled_units(self, tmp_path):
        directory = tmp_path / "run"
        first = SuiteRunner(
            benchmarks=BENCHMARKS, scale=SCALE, workers=2, progress=False,
            cache_dir=directory / "traces",
            checkpoint=CheckpointJournal(directory / "results.jsonl"),
        )
        first.rates(CONFIGS["btb"])
        first.checkpoint.close()

        def boom(*args, **kwargs):
            raise AssertionError("resume re-ran a journalled simulation")

        resumed = SuiteRunner(
            benchmarks=BENCHMARKS, scale=SCALE, workers=2, progress=False,
            cache_dir=directory / "traces",
            checkpoint=CheckpointJournal(directory / "results.jsonl", resume=True),
            simulate_fn=boom,
        )
        rates = resumed.rates(CONFIGS["btb"])
        assert rates == first.rates(CONFIGS["btb"])
        assert resumed.metrics.units_from_checkpoint == len(BENCHMARKS)

    def test_metrics_summary_is_json_ready(self, tmp_path):
        runner = make_runner(tmp_path, "metrics", workers=2)
        runner.rates(CONFIGS["btb"])
        data = json.loads(json.dumps(runner.metrics_summary()))
        assert data["schema"] == "repro-run-metrics/2"
        assert data["phases"]["simulate"]["count"] >= len(BENCHMARKS)
        assert data["workers"] == 2
        assert data["units"]["completed"] == len(BENCHMARKS)
        assert data["checkpoint_entries"] == len(BENCHMARKS)
        assert data["parent_trace_cache"]["stores"] == len(BENCHMARKS)
        assert len(data["per_unit"]) == len(BENCHMARKS)


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SuiteRunner(workers=0)

    def test_executor_rejects_zero_workers(self, tmp_path):
        from repro.runtime.parallel import ParallelExecutor

        with pytest.raises(ValueError):
            ParallelExecutor(0, tmp_path / "cache")

    def test_executor_empty_units(self, tmp_path):
        from repro.runtime.parallel import ParallelExecutor

        executor = ParallelExecutor(2, tmp_path / "cache", progress=False)
        assert executor.run([]) == {}
