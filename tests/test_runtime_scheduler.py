"""Tests for the pure work-unit scheduler and the run-metrics record."""

import pytest

from repro.runtime.scheduler import (
    METRICS_SCHEMA,
    POISONED,
    REQUEUED,
    RunMetrics,
    Scheduler,
    WorkUnit,
)


def units(n):
    return [WorkUnit(i, f"cfg{i}", f"bench{i}") for i in range(n)]


class TestDispatch:
    def test_acquire_is_fifo(self):
        scheduler = Scheduler(units(3))
        assert [scheduler.acquire("w").unit_id for _ in range(3)] == [0, 1, 2]
        assert scheduler.acquire("w") is None

    def test_acquire_tracks_in_flight_and_attempts(self):
        scheduler = Scheduler(units(2))
        unit = scheduler.acquire("w0")
        assert scheduler.in_flight_count == 1
        assert scheduler.attempts(unit.unit_id) == 1
        assert scheduler.pending_depth == 1

    def test_duplicate_unit_ids_rejected(self):
        with pytest.raises(ValueError):
            Scheduler([WorkUnit(1, "a", "b"), WorkUnit(1, "c", "d")])

    def test_label(self):
        assert WorkUnit(0, "cfg", "perl").label == "cfg/perl"


class TestOutcomes:
    def test_complete_marks_done(self):
        scheduler = Scheduler(units(1))
        unit = scheduler.acquire("w")
        assert scheduler.complete(unit.unit_id) is True
        assert scheduler.done
        assert scheduler.completed_count == 1
        assert scheduler.in_flight_count == 0

    def test_duplicate_complete_is_rejected(self):
        scheduler = Scheduler(units(1))
        unit = scheduler.acquire("w")
        assert scheduler.complete(unit.unit_id) is True
        assert scheduler.complete(unit.unit_id) is False

    def test_fail_below_budget_requeues_at_back(self):
        scheduler = Scheduler(units(2), max_attempts=2)
        first = scheduler.acquire("w")
        assert scheduler.fail(first.unit_id, "boom") == REQUEUED
        assert scheduler.requeues == 1
        # The requeued unit goes to the back of the queue.
        assert scheduler.acquire("w").unit_id == 1
        retry = scheduler.acquire("w")
        assert retry.unit_id == first.unit_id
        assert scheduler.attempts(first.unit_id) == 2

    def test_fail_at_budget_poisons_with_error_log(self):
        scheduler = Scheduler(units(1), max_attempts=2)
        unit = scheduler.acquire("w")
        assert scheduler.fail(unit.unit_id, "first") == REQUEUED
        unit = scheduler.acquire("w")
        assert scheduler.fail(unit.unit_id, "second") == POISONED
        assert scheduler.done
        assert unit.unit_id in scheduler.poisoned
        assert scheduler.errors[unit.unit_id] == ["first", "second"]

    def test_poisoned_unit_never_redispatched(self):
        scheduler = Scheduler(units(2), max_attempts=1)
        unit = scheduler.acquire("w")
        assert scheduler.fail(unit.unit_id, "boom") == POISONED
        assert scheduler.acquire("w").unit_id == 1
        assert scheduler.acquire("w") is None

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            Scheduler(units(1), max_attempts=0)


class TestUnfinished:
    def test_fresh_scheduler_lists_every_unit_in_order(self):
        scheduler = Scheduler(units(3))
        assert [unit.unit_id for unit in scheduler.unfinished()] == [0, 1, 2]

    def test_completed_and_poisoned_units_are_excluded(self):
        scheduler = Scheduler(units(4), max_attempts=1)
        done = scheduler.acquire("w")
        scheduler.complete(done.unit_id)
        bad = scheduler.acquire("w")
        assert scheduler.fail(bad.unit_id, "boom") == POISONED
        in_flight = scheduler.acquire("w")
        # In-flight and still-queued units are both left to the caller.
        assert [unit.unit_id for unit in scheduler.unfinished()] \
            == [in_flight.unit_id, 3]

    def test_empty_once_done(self):
        scheduler = Scheduler(units(2))
        for _ in range(2):
            scheduler.complete(scheduler.acquire("w").unit_id)
        assert scheduler.done
        assert scheduler.unfinished() == []


class TestWorkerLoss:
    def test_worker_lost_requeues_only_its_units(self):
        scheduler = Scheduler(units(3), max_attempts=2)
        held = scheduler.acquire("w0")
        scheduler.acquire("w1")
        lost = scheduler.worker_lost("w0", "worker died")
        assert [(unit.unit_id, outcome) for unit, outcome in lost] \
            == [(held.unit_id, REQUEUED)]
        assert scheduler.in_flight_count == 1  # w1's unit untouched
        assert scheduler.requeues == 1

    def test_idle_worker_lost_is_a_noop(self):
        scheduler = Scheduler(units(1))
        assert scheduler.worker_lost("ghost", "died") == []

    def test_stale_completion_after_requeue_is_honoured_once(self):
        # A worker can die *after* pushing its result: the unit is
        # requeued on worker loss, then the result arrives.  The late
        # completion must win and the queued duplicate must be skipped.
        scheduler = Scheduler(units(1), max_attempts=3)
        unit = scheduler.acquire("w0")
        scheduler.worker_lost("w0", "presumed dead")
        assert scheduler.complete(unit.unit_id) is True
        assert scheduler.acquire("w1") is None  # duplicate skipped
        assert scheduler.done

    def test_stale_failure_after_completion_ignored(self):
        scheduler = Scheduler(units(1), max_attempts=1)
        unit = scheduler.acquire("w0")
        assert scheduler.complete(unit.unit_id)
        assert scheduler.fail(unit.unit_id, "late error") == REQUEUED
        assert not scheduler.poisoned
        assert scheduler.done


class TestRunMetrics:
    def test_record_unit_accumulates(self):
        metrics = RunMetrics(workers=2)
        metrics.record_unit("c/a", "a", "c", 0.5, worker=0, attempt=1,
                            trace_source="cache")
        metrics.record_unit("c/b", "b", "c", 1.5, worker=1, attempt=2,
                            trace_source="generated")
        assert metrics.units_completed == 2
        assert metrics.worker_busy == {0: 0.5, 1: 1.5}
        assert metrics.trace_loads == {"cache": 1, "generated": 1}

    def test_utilization_bounded_by_one(self):
        metrics = RunMetrics()
        metrics.record_unit("u", "b", "c", 5.0, worker=0, attempt=1,
                            trace_source="memo")
        metrics.wall_time = 2.0  # busy time can exceed wall on reuse
        assert metrics.utilization() == {"0": 1.0}

    def test_to_dict_schema(self):
        metrics = RunMetrics(workers=3)
        metrics.units_total = 2
        metrics.record_unit("c/a", "a", "c", 0.25, worker=0, attempt=1,
                            trace_source="cache")
        metrics.sample_queue_depth(4)
        metrics.sample_queue_depth(2)
        metrics.wall_time = 1.0
        data = metrics.to_dict()
        assert data["schema"] == METRICS_SCHEMA
        assert data["workers"] == 3
        assert data["units"]["total"] == 2
        assert data["units"]["completed"] == 1
        assert data["queue_depth"] == {"max": 4, "mean": 3.0}
        assert data["unit_wall_time_s"]["max"] == 0.25
        assert data["per_unit"][0]["benchmark"] == "a"
        import json

        json.dumps(data)  # JSON-serialisable end to end

    def test_empty_metrics_to_dict(self):
        data = RunMetrics().to_dict()
        assert data["units"]["completed"] == 0
        assert data["unit_wall_time_s"]["mean"] == 0.0
        assert data["worker_utilization"] == {}
