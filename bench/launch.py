"""Run the ``repro`` command line with the benchmark's hooks installed.

Usage::

    python bench/launch.py --probes DIR [--hooks] [--spans FILE] -- REPRO_ARGS...

Runs ``repro.__main__.main`` on ``REPRO_ARGS`` in this process, the same
code ``python -m repro`` runs, after replacing the names the program's
layers call each other through with wrappers:

``--probes DIR``
    samples the speed probe (:mod:`pace`) into ``DIR`` when this process
    starts and when it exits.
``--hooks``
    also samples it after each simulation, trace
    generation and request, in this process and in every worker or
    shard it forks, and records each simulation unit (predictor
    construction to result) as an interval.
``--spans FILE``
    records one span per call into each layer (:class:`spans.SpanRecorder`)
    under one ``cli`` span, and writes them to ``FILE`` at exit.
    Simulations that a worker pool runs in other processes are not seen;
    the pool's parent-side wait is (``runtime.pool``).

Exits with the command line's exit code.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from pace import ProbeLog
from spans import SpanRecorder, patch

#: Where a simulation unit starts: the serial runner and the pool
#: workers each build the unit's predictor through one of these names.
UNIT_STARTS = ("repro.sim.suite_runner:build_predictor",
               "repro.core.factory:build_predictor")

#: Where a unit ends: the same paths' ``simulate``.
UNIT_ENDS = ("repro.sim.suite_runner:simulate", "repro.sim.engine:simulate")

#: Other work after which a process samples the probe, per subcommand.
#: Only modules the subcommand imports anyway are touched, so the hooks
#: add nothing to its memory.
SAMPLE_AFTER = {
    "experiments": ("repro.sim.suite_runner:generate_trace",),
    "simulate": ("repro.sim.suite_runner:generate_trace",),
    "serve": ("repro.service.shard:ShardCore.handle",
              "repro.service.server:PredictionServer._handle_shard_message"),
}


def table_class(config) -> str:
    """The paper's table classes: BTB, unconstrained, full/set/tagless, hybrid."""
    kind = type(config).__name__
    if kind == "BTBConfig":
        return "btb"
    if kind == "HybridConfig":
        return "hybrid"
    if config.num_entries is None:
        return "unconstrained"
    if config.associativity == "full":
        return "fullassoc"
    if config.associativity == "tagless":
        return "tagless"
    return "setassoc"


def install_probes(log: ProbeLog, command: str) -> None:
    """Sample the probe between pieces of work, in every process."""

    def unit_start(original):
        def wrapper(*args, **kwargs):
            log.unit_start = time.perf_counter()
            return original(*args, **kwargs)
        return wrapper

    def unit_end(original):
        def wrapper(*args, **kwargs):
            start = log.unit_start or time.perf_counter()
            result = original(*args, **kwargs)
            log.unit(start, time.perf_counter())
            log.unit_start = None
            log.sample()
            return result
        return wrapper

    def then_sample(original):
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            log.sample()
            return result
        return wrapper

    if command in ("experiments", "simulate"):
        for target in UNIT_STARTS:
            patch(target, unit_start)
        for target in UNIT_ENDS:
            patch(target, unit_end)
    for target in SAMPLE_AFTER.get(command, ()):
        patch(target, then_sample)


def _sim_attrs(result, predictor, trace, *args, **kwargs) -> dict:
    from repro.sim.engine import resolve_kernel

    kernel, _ = resolve_kernel(
        predictor, kernel=kwargs.get("kernel", "event"),
        reset=kwargs.get("reset", True),
        attribution=kwargs.get("attribution"))
    return {"events": len(trace), "kernel": kernel}


def install_spans(recorder: SpanRecorder) -> None:
    """Wrap each layer boundary the offline paths cross."""
    recorder.wrap("repro.__main__:run_experiment",
                  lambda experiment_id, *a, **k: f"experiments.{experiment_id}",
                  shared_id=lambda experiment_id, *a, **k: experiment_id)
    recorder.wrap("repro.sim.suite_runner:simulate",
                  lambda predictor, *a, **k:
                  f"sim.{table_class(predictor.config)}",
                  attrs=_sim_attrs)
    for module in ("repro.sim.suite_runner",
                   "repro.experiments.context_switch"):
        recorder.wrap(f"{module}:build_predictor", "core.build")
    recorder.wrap("repro.sim.suite_runner:generate_trace",
                  "workloads.generate",
                  attrs=lambda trace, *a, **k: {"events": len(trace)})
    for target in ("repro.core.btb:BranchTargetBuffer.run_trace",
                   "repro.core.twolevel:TwoLevelPredictor.run_trace",
                   "repro.core.hybrid:HybridPredictor.run_trace"):
        # Direct predictor calls only; under simulate they are sim time.
        recorder.wrap(target, "core.run_trace", unless_inside="sim.")
    recorder.wrap("repro.runtime.parallel:ParallelExecutor.run",
                  "runtime.pool")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--probes", type=Path, required=True)
    parser.add_argument("--hooks", action="store_true")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("repro_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    repro_args = args.repro_args
    if repro_args[:1] == ["--"]:
        repro_args = repro_args[1:]
    log = ProbeLog(args.probes)
    log.sample(force=True)
    recorder = None
    if args.spans is not None:
        recorder = SpanRecorder()
        install_spans(recorder)
    if args.hooks:
        # Outermost, so the probe's own time falls outside the spans.
        install_probes(log, repro_args[0] if repro_args else "")
    from repro.__main__ import main as repro_main

    index = recorder.open("cli") if recorder is not None else None
    try:
        return repro_main(repro_args)
    finally:
        if recorder is not None:
            recorder.close(index)
            recorder.write_jsonl(args.spans)
        log.sample(force=True)
        log.close()


if __name__ == "__main__":
    sys.exit(main())
