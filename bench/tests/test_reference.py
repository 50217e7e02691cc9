import offline
from common import Result


def reference_for(renderings):
    return {"digests": {name: offline.digest(data)
                        for name, data in renderings.items()}}


def test_matching_renderings_pass():
    renderings = {"fig2": b"table\n", "fig5": b"other\n"}
    assert offline.check_renderings(renderings,
                                    reference_for(renderings)) == []


def test_changed_missing_and_unexpected_renderings_fail():
    reference = reference_for({"fig2": b"table\n", "fig5": b"other\n"})
    renderings = {"fig2": b"table!\n", "fig9": b"new\n"}
    assert offline.check_renderings(renderings, reference) == [
        "fig2", "fig5", "fig9"]


def test_a_reference_mismatch_fails_the_run(monkeypatch, tmp_path):
    good = {"fig2": b"table\n", "fig5": b"other\n"}

    def fake_pass(work, traced, extra=()):
        done = offline.Pass()
        done.wall = 1.0
        done.renderings = {**good, "fig5": b"drifted\n"}
        done.records["experiments"] = {
            "per_unit": [{"seconds": 0.001 * i} for i in range(1, 201)]}
        return done

    monkeypatch.setattr(offline, "cli_setup_seconds",
                        lambda work, workload: [(0.1, 0.12)] * 3)
    monkeypatch.setattr(offline, "load_reference",
                        lambda workload: reference_for(good))
    monkeypatch.setitem(offline.PASSES, "reproduce", fake_pass)
    result = offline.run("reproduce", 1, 0.0, False, tmp_path)
    assert isinstance(result, Result)
    assert (result.attempted, result.failed) == (2, 1)
    assert not result.correct
    assert "fig5" in result.problems[0]
