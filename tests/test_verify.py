"""Tests for run manifests and ``repro verify``.

End-to-end through the CLI: a completed checkpointed run writes a
``repro-manifest/1``; ``repro verify`` passes on it, fails on tampering,
fails on a run that never completed, proves cross-run bit-identity with
``--against``, and accepts degraded-but-correct chaos runs (exit 3 at run
time, manifest recording the degradations).
"""

import json

import pytest

from repro.__main__ import main
from repro.runtime.chaos import ChaosPlan, FaultSpec
from repro.runtime.checkpoint import read_journal
from repro.runtime.verify import (
    MANIFEST_SCHEMA,
    journal_body,
    verify_run,
    write_manifest,
)

SCALE = "0.05"


def run_cli(*argv):
    return main(list(argv))


def simulate_run(tmp_path, name, *extra, spec="btb", benchmarks=("perl",)):
    """One checkpointed CLI run; returns (exit_code, run_dir)."""
    run_dir = tmp_path / name
    code = run_cli(
        "simulate", spec, *benchmarks, "--scale", SCALE,
        "--checkpoint-dir", str(run_dir),
        "--metrics-out", str(run_dir / "metrics.json"),
        *extra,
    )
    return code, run_dir


class TestManifest:
    def test_completed_run_writes_manifest(self, tmp_path, capsys):
        code, run_dir = simulate_run(tmp_path, "clean")
        assert code == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["degradations"] == {}
        assert set(manifest["artifacts"]) == {"journal", "metrics"}
        journal = manifest["artifacts"]["journal"]
        assert journal["path"] == "results.jsonl"  # relative: relocatable
        assert journal["schema"] == "repro-checkpoint/1"
        assert len(journal["sha256"]) == 64

    def test_write_manifest_rejects_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown artifact kind"):
            write_manifest(tmp_path, {"notes": tmp_path / "x"})

    def test_read_journal_tolerates_torn_tail_readonly(self, tmp_path):
        code, run_dir = simulate_run(tmp_path, "torn")
        assert code == 0
        path = run_dir / "results.jsonl"
        pristine = path.read_bytes()
        path.write_bytes(pristine + b'{"config": "torn')
        entries, dropped = read_journal(path)
        assert dropped
        assert len(entries) == 1
        assert path.read_bytes() != pristine  # read-only: not repaired


class TestVerifyCommand:
    def test_clean_run_verifies(self, tmp_path, capsys):
        _, run_dir = simulate_run(tmp_path, "clean")
        assert run_cli("verify", str(run_dir)) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "journal == metrics" in out

    def test_missing_manifest_fails(self, tmp_path, capsys):
        _, run_dir = simulate_run(tmp_path, "gone")
        (run_dir / "manifest.json").unlink()
        assert run_cli("verify", str(run_dir)) == 4
        assert "did not complete" in capsys.readouterr().out

    def test_tampered_journal_fails_hash_check(self, tmp_path, capsys):
        _, run_dir = simulate_run(tmp_path, "tamper")
        path = run_dir / "results.jsonl"
        body = path.read_text().replace('"mispredictions": ', '"mispredictions":  ')
        path.write_text(body)
        assert run_cli("verify", str(run_dir)) == 4
        out = capsys.readouterr().out
        assert "FAILED" in out

    def test_count_mismatch_fails(self, tmp_path, capsys):
        _, run_dir = simulate_run(tmp_path, "counts")
        # Rewrite metrics to claim a different unit count, manifest too
        # (so the hash check passes and the cross-check does the work).
        # A bumped ``completed`` would fail the metrics' own kernel
        # count first; ``from_checkpoint`` only shows against the journal.
        metrics_path = run_dir / "metrics.json"
        metrics = json.loads(metrics_path.read_text())
        metrics["units"]["from_checkpoint"] += 1
        metrics_path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        write_manifest(run_dir,
                       {"journal": run_dir / "results.jsonl",
                        "metrics": metrics_path})
        assert run_cli("verify", str(run_dir)) == 4
        assert "metrics report" in capsys.readouterr().out

    def test_duplicate_journal_entry_fails(self, tmp_path, capsys):
        """``record`` is idempotent per pair: a pair journalled twice is a
        bug, even when the manifest is re-hashed over it."""
        _, run_dir = simulate_run(tmp_path, "dup")
        path = run_dir / "results.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines + lines[-1:]))
        write_manifest(run_dir, {"journal": path,
                                 "metrics": run_dir / "metrics.json"})
        assert run_cli("verify", str(run_dir)) == 4
        assert "journalled twice" in capsys.readouterr().out

    def test_kernel_counts_must_cover_completed_units(self, tmp_path, capsys):
        _, run_dir = simulate_run(tmp_path, "kernels",
                                  benchmarks=("perl", "ixx"))
        metrics_path = run_dir / "metrics.json"
        metrics = json.loads(metrics_path.read_text())
        assert sum(metrics["kernels"].values()) \
            == metrics["units"]["completed"] == 2
        assert run_cli("verify", str(run_dir)) == 0
        assert "[ok ] format:metrics: 2 unit(s)" in capsys.readouterr().out
        # One of the two completed units ran on no kernel.
        metrics["kernels"] = {"event": 1}
        metrics["kernel_fallbacks"] = {}
        metrics_path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        write_manifest(run_dir,
                       {"journal": run_dir / "results.jsonl",
                        "metrics": metrics_path})
        assert run_cli("verify", str(run_dir)) == 4
        assert "[FAIL] format:metrics: ValueError: kernels count 1 unit(s), " \
            "2 completed" in capsys.readouterr().out

    def test_against_baseline_bit_identity(self, tmp_path, capsys):
        _, baseline = simulate_run(tmp_path, "serial")
        _, parallel = simulate_run(tmp_path, "parallel", "--workers", "2",
                                   benchmarks=("perl", "ixx"))
        _, serial2 = simulate_run(tmp_path, "serial2",
                                  benchmarks=("perl", "ixx"))
        assert run_cli("verify", str(parallel),
                       "--against", str(serial2)) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_against_detects_divergence(self, tmp_path, capsys):
        _, one = simulate_run(tmp_path, "one", spec="btb")
        _, other = simulate_run(tmp_path, "other", spec="btb:entries=64")
        assert run_cli("verify", str(one), "--against", str(other)) == 4
        assert "determinism violation" in capsys.readouterr().out


class TestAttributionCrossCheck:
    def test_attribution_consistency_verified(self, tmp_path):
        run_dir = tmp_path / "attr"
        code = run_cli(
            "simulate", "btb", "perl", "--scale", SCALE,
            "--checkpoint-dir", str(run_dir),
            "--metrics-out", str(run_dir / "metrics.json"),
            "--attribution", str(run_dir / "attribution.jsonl"),
        )
        assert code == 0
        report = verify_run(run_dir)
        assert report.ok
        checks = {finding.check for finding in report.findings}
        assert "attribution" in checks

    def test_attribution_mismatch_detected(self, tmp_path):
        run_dir = tmp_path / "attr-bad"
        run_cli(
            "simulate", "btb", "perl", "--scale", SCALE,
            "--checkpoint-dir", str(run_dir),
            "--attribution", str(run_dir / "attribution.jsonl"),
        )
        path = run_dir / "attribution.jsonl"
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["mispredictions"] += 1  # no longer equals the cause sum
        lines[1] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        write_manifest(run_dir, {"journal": run_dir / "results.jsonl",
                                 "attribution": path})
        report = verify_run(run_dir)
        assert not report.ok
        assert any("causes sum" in finding.detail
                   for finding in report.failures)


class TestChaosRunsEndToEnd:
    def test_degraded_run_exits_3_and_verifies(self, tmp_path, capsys):
        plan = ChaosPlan([FaultSpec("cache.store", "disk_full", times=1)])
        plan.save(tmp_path / "plan.json")
        code, run_dir = simulate_run(
            tmp_path, "degraded", "--chaos-plan", str(tmp_path / "plan.json"))
        assert code == 3
        assert "cache_fallback" in capsys.readouterr().err
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["degradations"] == {"cache_fallback": 1}
        assert run_cli("verify", str(run_dir)) == 0
        # Degraded, but still bit-identical to a clean run.
        _, clean = simulate_run(tmp_path, "clean-ref")
        assert journal_body(run_dir / "results.jsonl") \
            == journal_body(clean / "results.jsonl")

    def test_checkpoint_off_run_verifies_as_subset(self, tmp_path, capsys):
        # Journal appends die mid-run: the journal is legitimately
        # short, but what it holds must still match the baseline.
        plan = ChaosPlan([FaultSpec("journal.append", "io_error", times=1)])
        plan.save(tmp_path / "plan.json")
        code, run_dir = simulate_run(
            tmp_path, "ckoff", "--chaos-plan", str(tmp_path / "plan.json"),
            benchmarks=("perl", "ixx"))
        assert code == 3
        assert "checkpoint_off" in capsys.readouterr().err
        _, baseline = simulate_run(tmp_path, "ckoff-base",
                                   benchmarks=("perl", "ixx"))
        assert run_cli("verify", str(run_dir),
                       "--against", str(baseline)) == 0
        out = capsys.readouterr().out
        assert "truncated by checkpoint_off" in out

    def test_chaos_seed_journals_the_plan(self, tmp_path, capsys):
        code, run_dir = simulate_run(tmp_path, "seeded", "--chaos-seed", "3")
        assert code in (0, 1, 3, 4)  # survivable by construction, any verdict
        if code in (0, 3):
            manifest = json.loads((run_dir / "manifest.json").read_text())
            assert "chaos_plan" in manifest["artifacts"]
            assert (run_dir / "chaos-plan.json").exists()
            assert run_cli("verify", str(run_dir)) == 0

    def test_resumed_chaos_run_does_not_refire_faults(self, tmp_path, capsys):
        # An error fault poisons the unit (serial policy: fail fast) ...
        plan = ChaosPlan([FaultSpec("simulate", "error", times=1)])
        plan.save(tmp_path / "plan.json")
        code, run_dir = simulate_run(
            tmp_path, "resumable", "--chaos-plan", str(tmp_path / "plan.json"))
        assert code == 4  # classified failure, no manifest
        assert "error:" in capsys.readouterr().err
        assert not (run_dir / "manifest.json").exists()
        # ... and the resumed run skips the fired ticket and completes.
        code = run_cli(
            "simulate", "btb", "perl", "--scale", SCALE,
            "--checkpoint-dir", str(run_dir), "--resume",
            "--metrics-out", str(run_dir / "metrics.json"),
            "--chaos-plan", str(tmp_path / "plan.json"),
        )
        assert code == 0
        assert run_cli("verify", str(run_dir)) == 0
