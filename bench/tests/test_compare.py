import json

import compare

PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]


def test_within_the_bound_is_ok_and_beyond_it_regressed():
    assert compare.verdict(PARENT, [x * 1.05 for x in PARENT], 0.1,
                           "lower") == "ok"
    assert compare.verdict(PARENT, [x * 1.2 for x in PARENT], 0.1,
                           "lower") == "regressed"
    assert compare.verdict(PARENT, [x * 0.8 for x in PARENT], 0.1,
                           "higher") == "regressed"


def test_a_parent_noisier_than_the_bound_leaves_it_unresolved():
    noisy = [8.0, 9.0, 10.0, 11.0, 12.0, 8.5, 9.5, 10.5, 11.5, 12.5]
    assert compare.verdict(noisy, noisy, 0.1, "lower") == "unresolved"
    # ... unless every run of the change beats every run of the parent.
    assert compare.verdict(noisy, [x / 2 for x in noisy], 0.1,
                           "lower") == "ok"


def test_a_raw_slowdown_the_scaled_clock_hides_is_unresolved():
    assert compare.verdict(PARENT, PARENT, 0.1, "lower", PARENT,
                           [x * 1.3 for x in PARENT]) == "unresolved"
    assert compare.verdict(PARENT, PARENT, 0.1, "lower", PARENT,
                           [x * 1.05 for x in PARENT]) == "ok"


def test_a_raw_move_within_the_raw_spread_is_not_flagged():
    noisy = [8.0, 9.0, 10.0, 11.0, 12.0, 8.5, 9.5, 10.5, 11.5, 12.5]
    assert compare.verdict(PARENT, PARENT, 0.1, "lower", noisy,
                           [x * 1.2 for x in noisy]) == "ok"
    assert compare.verdict(PARENT, PARENT, 0.1, "lower", noisy,
                           [x * 1.5 for x in noisy]) == "unresolved"


def _write(directory, workload, seed, wall, raw_wall, seconds=15):
    directory.mkdir(exist_ok=True)
    record = {"workload": workload, "seed": seed, "trace": False,
              "seconds": seconds, "correct": True, "problems": [],
              "metrics": {"wall_s": {"value": wall, "unit": "s"}},
              "raw": {"wall_s": raw_wall}}
    (directory / f"{workload}-{seed}.json").write_text(json.dumps(record))


def test_main_reads_raw_values_and_exits_1_on_a_hidden_regression(
        tmp_path, capsys):
    for seed, wall in enumerate(PARENT):
        _write(tmp_path / "a", "reproduce", seed, wall, wall * 1.3)
        _write(tmp_path / "b", "reproduce", seed, wall, wall * 1.8)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    row = [line for line in capsys.readouterr().out.splitlines()
           if line.startswith("reproduce")]
    assert len(row) == 1 and row[0].endswith("unresolved")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0


def test_runs_of_different_windows_are_not_compared(tmp_path):
    for seed, wall in enumerate(PARENT):
        _write(tmp_path / "a", "reproduce", seed, wall, wall)
        _write(tmp_path / "b", "reproduce", seed, wall, wall, seconds=30)
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 2
