"""Shared pieces of the benchmark: paths, child processes, statistics, results.

Everything the benchmark writes lives under ``<checkout>/.bench_run``;
child processes get ``TMPDIR`` pointed there too, so a run reads and
writes nothing outside its checkout.
"""

from __future__ import annotations

import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles recorded in a result's details, where enough samples
#: allow; the highest of them with enough samples beyond is the tail.
REPORTED_PERCENTILES = (50, 75, 90, 95, 98, 99, 99.5, 99.8, 99.9)


def require_source() -> None:
    """Exit 1 when the checkout does not hold the program under test."""
    if not (SRC / "repro" / "__main__.py").is_file():
        raise SystemExit(f"error: {SRC / 'repro'} is missing; run the "
                         f"benchmark from a full checkout of the repository")


def declared_metrics() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return json.loads(BENCHMARK_FILE.read_text())


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for ``python -m repro`` children of this checkout."""
    env = dict(os.environ)
    env.pop("REPRO_TRACE_SCALE", None)
    env["PYTHONPATH"] = str(SRC)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    env.update(extra)
    return env


def repro_cmd(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def launch_cmd(args: Sequence[str], probes: Path, hooks: bool = False,
               spans: Optional[Path] = None) -> List[str]:
    """``repro ARGS`` run through ``bench/launch.py`` (which see)."""
    cmd = [sys.executable, str(ROOT / "bench" / "launch.py"),
           "--probes", str(probes)]
    if hooks:
        cmd.append("--hooks")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    return [*cmd, "--", *args]


def kill_group(pgid: int, leader: Optional[subprocess.Popen] = None) -> None:
    """SIGKILL a process group, then wait (bounded) until it is empty.

    ``leader``, this process's child that leads the group, is reaped
    here: until it is, its zombie keeps the group alive.  Orphaned
    members are reaped by init; a member that stays a zombie can no
    longer run, so the wait gives up after a few seconds.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    if leader is not None:
        leader.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


@dataclass
class Finished:
    """A child process that ran to completion."""

    returncode: int
    #: ``time.perf_counter`` at start and at exit
    started: float
    ended: float
    maxrss_mb: float
    stdout: str
    stderr: str

    @property
    def wall(self) -> float:
        return self.ended - self.started


def run_measured(cmd: Sequence[str], env: Dict[str, str], log_dir: Path,
                 name: str, timeout: float = 170.0) -> Finished:
    """Run ``cmd`` in its own process group; time it and read its peak RSS.

    The peak comes from ``wait4``: the largest resident set of the child
    or of any descendant it waited for (such as a worker pool).  Output
    goes to files, so a chatty child can never block on a full pipe.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    out_path, err_path = log_dir / f"{name}.out", log_dir / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env,
                                cwd=str(ROOT), start_new_session=True)
        watchdog = threading.Timer(timeout, kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the child down with us
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        ended = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    kill_group(proc.pid)  # anything the child left running
    return Finished(proc.returncode, started, ended, usage.ru_maxrss / 1024.0,
                    out_path.read_text(errors="replace"),
                    err_path.read_text(errors="replace"))


# -- statistics ---------------------------------------------------------------


def _rank(count: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``count`` samples."""
    # The tolerance keeps float error (99.8 * 6000 / 100) from adding a rank.
    return max(1, math.ceil(q * count / 100.0 - 1e-9))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), q) - 1]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of a set of runs.

    ``statistics.quantiles(values, n=4)``: the method bounds are derived
    with and runs are compared by.
    """
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Quartile distance over median: the run-to-run spread of a metric."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def beyond(count: int, q: float) -> int:
    """Samples ranked above the nearest-rank ``q``-th percentile."""
    return count - _rank(count, q)


def tail_percentile(count: int) -> float:
    """The highest of :data:`REPORTED_PERCENTILES` above the median that
    has at least :data:`MIN_BEYOND` of ``count`` samples beyond it."""
    fitting = [q for q in REPORTED_PERCENTILES
               if q > 50 and beyond(count, q) >= MIN_BEYOND]
    if not fitting:
        raise ValueError(f"{count} samples leave fewer than {MIN_BEYOND} "
                         f"beyond p{REPORTED_PERCENTILES[1]}; measure more")
    return fitting[-1]


def latency_metrics(seconds: Sequence[float]) -> Dict[str, object]:
    """``p50_ms`` and ``tail_ms`` of latencies, with the sample count.

    The tail is :func:`tail_percentile` of the sample count, so it has
    at least :data:`MIN_BEYOND` samples beyond it.  A workload's sample
    count is fixed, and with it the tail's percentile.
    """
    tail = tail_percentile(len(seconds))
    return {
        "p50_ms": percentile(seconds, 50) * 1000.0,
        "tail_ms": percentile(seconds, tail) * 1000.0,
        "tail_percentile": tail,
        "samples": len(seconds),
        "percentiles_ms": {str(q): percentile(seconds, q) * 1000.0
                           for q in REPORTED_PERCENTILES
                           if beyond(len(seconds), q) >= MIN_BEYOND},
    }


# -- results --------------------------------------------------------------------


@dataclass
class Result:
    """Outcome of one workload run: checks, counts and measured metrics."""

    workload: str
    seed: int
    trace: bool
    #: the measuring window the load was sized for
    seconds: float
    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: the end-to-end times of ``metrics`` as measured, before scaling
    #: to the machine's speed (:mod:`pace`)
    raw: Dict[str, float] = field(default_factory=dict)
    #: failed correctness checks, one line each
    problems: List[str] = field(default_factory=list)
    #: context that is not a metric (sample counts, percentile ranks)
    details: Dict[str, object] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.problems.append(problem)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0 and self.attempted > 0

    def line(self, declared: dict) -> dict:
        """The result line ``run.py`` prints: exactly the declared metrics.

        A run that failed a check may have measured only some of them.
        """
        kind = "per_layer" if self.trace else "end_to_end"
        metrics = {}
        for entry in declared[kind]:
            name = entry["name"]
            if name not in self.metrics:
                if self.correct:
                    raise KeyError(f"{self.workload} did not measure {name}")
                continue
            metrics[name] = {"value": self.metrics[name],
                             "unit": entry["unit"]}
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def record(self, declared: dict) -> dict:
        """The full result file: the line plus provenance and details."""
        return {
            "schema": "repro-bench-result/1",
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "seconds": self.seconds,
            **self.line(declared),
            "raw": self.raw,
            "problems": self.problems,
            "details": self.details,
            "machine": fingerprint(),
        }


def fingerprint() -> Dict[str, object]:
    """Git sha (when the checkout is a repository), CPUs and versions."""
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                env={**os.environ, "GIT_DIR": str(ROOT / ".git")},
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }
