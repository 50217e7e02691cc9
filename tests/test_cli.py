"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.workloads import load_trace, load_trace_text


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(["simulate", "btb", "perl"])
        assert args.spec == "btb"
        assert args.benchmarks == ["perl"]

    def test_trace_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "doom", "x.bin"])

    def test_workers_flag_default_serial(self):
        assert build_parser().parse_args(["experiments"]).workers == 1
        assert build_parser().parse_args(["simulate", "btb"]).workers == 1

    def test_workers_must_be_positive(self, capsys):
        # A one-line usage error (exit 2), not an argparse usage dump.
        assert main(["experiments", "--workers", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: --workers must be >= 1, got 0\n"

    def test_chaos_flags_mutually_exclusive(self, capsys):
        code = main(["simulate", "btb", "--chaos-seed", "1",
                     "--chaos-plan", "plan.json"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_simulate_accepts_runtime_flags(self):
        args = build_parser().parse_args([
            "simulate", "btb", "--scale", "0.1", "--workers", "2",
            "--checkpoint-dir", "ckpt", "--metrics-out", "m.json",
        ])
        assert args.scale == 0.1
        assert args.workers == 2
        assert args.checkpoint_dir == "ckpt"

    def test_simulate_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["simulate", "btb", "--resume"])


class TestCommands:
    def test_simulate_prints_rates(self, capsys):
        assert main(["simulate", "btb", "perl"]) == 0
        output = capsys.readouterr().out
        assert "perl" in output
        assert "miss %" in output

    def test_trace_writes_binary(self, tmp_path, capsys):
        path = tmp_path / "t.bin"
        assert main(["trace", "xlisp", str(path), "--scale", "0.01"]) == 0
        trace = load_trace(path)
        assert trace.name == "xlisp"
        assert len(trace) > 0

    def test_trace_writes_text(self, tmp_path):
        path = tmp_path / "t.txt"
        assert main(["trace", "xlisp", str(path), "--scale", "0.01"]) == 0
        assert len(load_trace_text(path)) > 0

    def test_bad_spec_raises_config_error(self, capsys):
        # A ConfigError is a usage error: exit 2, one ``error:`` line.
        assert main(["simulate", "nonsense:spec"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["simulate", "twolevel:p=zz"],
        ["simulate", "hybrid:p1=3,p2=none"],
        ["simulate", "btb:entries=big"],
        ["simulate", "btb", "perlx"],
    ])
    def test_config_errors_are_one_line_usage_errors(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.splitlines()) == 1

    def test_trace_creates_parent_directories(self, tmp_path, capsys):
        path = tmp_path / "deep" / "nested" / "t.bin"
        assert main(["trace", "xlisp", str(path), "--scale", "0.01"]) == 0
        assert len(load_trace(path)) > 0

    def test_trace_unwritable_path_exits_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        target = blocker / "sub" / "t.bin"
        assert main(["trace", "xlisp", str(target), "--scale", "0.01"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err

    def test_experiments_out_unwritable_exits_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        assert main(["experiments", "fig2", "--out", str(blocker / "sub")]) == 1
        assert "error:" in capsys.readouterr().err


class TestCheckpointedExperiments:
    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["experiments", "--resume"])

    def test_checkpoint_then_resume_skips_simulation(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.01")
        checkpoint = tmp_path / "ckpt"
        assert main(["experiments", "fig2",
                     "--checkpoint-dir", str(checkpoint)]) == 0
        first_output = capsys.readouterr().out
        assert "fig2" in first_output
        journal = checkpoint / "results.jsonl"
        assert journal.exists()
        journal_size = journal.stat().st_size
        assert (checkpoint / "traces").is_dir()

        # "New process", every simulation booby-trapped: --resume must
        # complete fig2 purely from the journal.
        def boom(*args, **kwargs):
            raise AssertionError("resume re-ran a completed simulation")

        monkeypatch.setattr("repro.sim.suite_runner.simulate", boom)
        assert main(["experiments", "fig2",
                     "--checkpoint-dir", str(checkpoint), "--resume"]) == 0
        captured = capsys.readouterr()
        assert "resuming" in captured.err
        assert "fig2" in captured.out
        assert journal.stat().st_size == journal_size  # nothing re-journalled


class TestSimulateCheckpointed:
    def test_scale_and_checkpoint_then_resume(self, tmp_path, capsys, monkeypatch):
        checkpoint = tmp_path / "ckpt"
        argv = ["simulate", "btb", "perl", "ixx", "--scale", "0.05",
                "--checkpoint-dir", str(checkpoint)]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "perl" in first
        journal = checkpoint / "results.jsonl"
        assert journal.exists()
        journal_size = journal.stat().st_size
        assert (checkpoint / "traces").is_dir()

        # Resume must answer purely from the journal: booby-trap simulate.
        def boom(*args, **kwargs):
            raise AssertionError("resume re-ran a completed simulation")

        monkeypatch.setattr("repro.sim.suite_runner.simulate", boom)
        assert main(argv + ["--resume"]) == 0
        captured = capsys.readouterr()
        assert "resuming" in captured.err
        assert captured.out == first  # bit-identical rendering
        assert journal.stat().st_size == journal_size

    def test_simulate_scale_shrinks_traces(self, tmp_path, capsys):
        # --scale reaches trace generation: the cached trace is tiny.
        checkpoint = tmp_path / "ckpt"
        assert main(["simulate", "btb", "perl", "--scale", "0.05",
                     "--checkpoint-dir", str(checkpoint)]) == 0
        trace = load_trace(checkpoint / "traces" / "perl@x0.05.trace")
        assert 0 < len(trace) <= 2000


class TestParallelCli:
    def test_experiments_workers_metrics_out(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.01")
        metrics_path = tmp_path / "metrics" / "run.json"
        assert main(["experiments", "fig2",
                     "--checkpoint-dir", str(tmp_path / "ckpt"),
                     "--workers", "2",
                     "--metrics-out", str(metrics_path)]) == 0
        assert "fig2" in capsys.readouterr().out
        data = json.loads(metrics_path.read_text())
        assert data["schema"] == "repro-run-metrics/2"
        assert data["workers"] == 2
        assert data["units"]["completed"] > 0
        assert data["units"]["poisoned"] == 0
        assert data["checkpoint_entries"] == data["units"]["completed"]

    def test_simulate_workers_matches_serial_output(self, tmp_path, capsys):
        serial_argv = ["simulate", "btb", "perl", "ixx", "--scale", "0.05"]
        assert main(serial_argv) == 0
        serial_out = capsys.readouterr().out
        assert main(serial_argv + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out


class TestTraceLogCli:
    def test_simulate_trace_log_and_output_unchanged(self, tmp_path, capsys):
        from repro.runtime.telemetry import read_trace_log

        argv = ["simulate", "btb", "perl", "ixx", "--scale", "0.05"]
        assert main(argv) == 0
        plain_out = capsys.readouterr().out
        log_path = tmp_path / "logs" / "trace.jsonl"
        assert main(argv + ["--trace-log", str(log_path)]) == 0
        # Telemetry must not perturb results: rendering is bit-identical.
        assert capsys.readouterr().out == plain_out
        records = read_trace_log(log_path)
        spans = {r["name"] for r in records if r["kind"] == "span"}
        assert "simulate" in spans

    def test_experiments_trace_log_with_workers(self, tmp_path, monkeypatch):
        from repro.runtime.telemetry import read_trace_log

        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.01")
        log_path = tmp_path / "trace.jsonl"
        assert main(["experiments", "fig2",
                     "--checkpoint-dir", str(tmp_path / "ckpt"),
                     "--workers", "2",
                     "--trace-log", str(log_path)]) == 0
        records = read_trace_log(log_path)
        events = {r["name"] for r in records if r["kind"] == "event"}
        assert {"journal_replay", "pool_start", "dispatch"} <= events


class TestExitCodeEdges:
    """The 0/1/2/3/4 contract must hold on the ugly paths too."""

    def test_sigint_mid_run_exits_4_without_manifest(
            self, tmp_path, capsys, monkeypatch):
        # Interrupt inside the sweep itself: the CLI must classify it
        # (exit 4, one-line diagnosis) and must NOT write a manifest —
        # an interrupted run may not masquerade as a verifiable one.
        from repro.sim.suite_runner import SuiteRunner

        def interrupted(self, config, benchmarks=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(SuiteRunner, "rates", interrupted)
        ckpt = tmp_path / "ckpt"
        code = main(["simulate", "btb", "perl", "--scale", "0.02",
                     "--checkpoint-dir", str(ckpt)])
        assert code == 4
        assert "error: interrupted" in capsys.readouterr().err
        assert not (ckpt / "manifest.json").exists()
        # And without its manifest the run directory fails verification.
        assert main(["verify", str(ckpt)]) == 4

    def test_oserror_during_manifest_write_exits_1(
            self, tmp_path, capsys, monkeypatch):
        # The manifest write is the run's last I/O; a disk that fills up
        # right there must still produce a clean exit-1 diagnosis, never
        # a traceback, and never a half-written "verified" run.
        from repro.runtime import verify as verify_module

        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(verify_module, "write_manifest", disk_full)
        ckpt = tmp_path / "ckpt"
        code = main(["simulate", "btb", "perl", "--scale", "0.02",
                     "--checkpoint-dir", str(ckpt)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "No space left on device" in err
        assert not (ckpt / "manifest.json").exists()
