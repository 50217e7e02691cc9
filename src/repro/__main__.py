"""Command-line interface: ``python -m repro``.

Subcommands:

``experiments [IDS...]``
    Run reproduction experiments (all by default) and print the
    paper-style comparisons.  ``--full`` uses the paper's complete
    parameter grids; ``--out DIR`` also writes each rendering to a file.
    ``--checkpoint-dir DIR`` makes the run crash-safe: traces are cached
    on disk (checksummed) and every completed (config, benchmark)
    simulation is journalled, so a killed run continues from where it
    stopped with ``--resume`` instead of starting over.

``simulate SPEC [BENCHMARKS...]``
    Simulate one predictor spec (see :mod:`repro.core.factory`) over the
    suite and print per-benchmark and group misprediction rates.
    Supports the same ``--scale``, ``--checkpoint-dir``/``--resume``,
    ``--workers`` and ``--metrics-out`` options as ``experiments``.

Both simulation subcommands accept ``--workers N`` (default 1) to run
the (config, benchmark) work units on a crash-recovering worker pool —
results are bit-identical to serial runs — ``--metrics-out FILE`` to
write the run's JSON metrics record (``repro-run-metrics/2``: per-phase
breakdown, unit wall times, queue depth, worker utilisation, trace-cache
hits/misses), ``--trace-log FILE`` to stream the structured telemetry
log (``repro-trace-log/1``, one fsync'd JSON line per span/event), and
``--attribution FILE`` to run the instrumented misprediction-attribution
loop and write its per-cause / per-site / per-component artifact
(``repro-attribution/1``, rendered by ``tools/attribution_report.py``);
``tools/summarize_metrics.py`` renders the first two as a phase table.

``trace BENCHMARK FILE``
    Generate a benchmark trace and write it to ``FILE`` (binary format, or
    text if the name ends in ``.txt``).

``ingest python|bril|validate``
    Produce (or check) external ``repro-ext-trace/1`` files — real
    indirect-branch streams.  ``ingest python --out F -- CMD...``
    records every dynamic dispatch of a live Python run (including the
    repo's own test suite); ``ingest bril SOURCE --out F`` imports a
    Bril-style linear trace.  Both simulation subcommands then accept
    ``--ingest F`` (repeatable) to register the files: each becomes a
    ``real-<name>`` benchmark that flows through sweeps (serial and
    ``--workers N``), the attribution engine, and manifests, and all
    registered externals average into the ``AVG-real`` group next to
    the paper's AVG/AVG-OO/AVG-C.  Malformed ingest input exits 1 with
    a one-line ``error:`` diagnosis carrying the record index and byte
    offset, and leaves a ``<source>.quarantine.json`` sidecar.  See
    DESIGN.md §3.11.

``verify PATH... [--against BASELINE_DIR]``
    Check a completed run directory's ``repro-manifest/1`` (per-artifact
    SHA-256 + schema), re-validate every artifact, and cross-check them
    against each other; ``--against`` additionally proves the run
    bit-identical to a reference run.  Serving runs verify too: shard
    journals are replayed and the snapshot digests must match
    (``--against`` a ``repro replay`` directory).  A PATH that is a file
    is validated alone, dispatched on its embedded schema id.  See
    DESIGN.md §3.9 and §3.10.

``serve SPEC --run-dir DIR``
    Prediction-as-a-service: an asyncio server speaking the
    length-prefixed JSON batch protocol, per-tenant predictor state
    sharded over worker processes, bounded queues with back-pressure
    and load shedding, crash-respawned shards, journalled accepted
    batches, and a verifiable artifact set on shutdown.  ``--chaos-seed``
    arms the service fault points (shard crashes/stalls, connection
    faults, tenant churn).  See DESIGN.md §3.10.

``loadgen --port N`` / ``loadgen --endpoint RUN_DIR/endpoint.json``
    Drive a running server with deterministic synthetic tenant streams
    (per-request deadlines, retry with backoff, per-shard circuit
    breaker) and print/write the outcome summary; ``--shutdown`` drains
    the server afterwards.

``stats --endpoint RUN_DIR/endpoint.json`` (or ``--host/--port``)
    One-shot query of a live server's metrics: aligned tables by
    default, ``--json`` for the raw merged ``repro-metrics-snapshot/1``
    (counters, gauges, bounded log-bucketed histograms — exactly merged
    across shards; percentiles carry a 5% relative-error bound).  The
    same snapshots are streamed to ``metrics-stream.jsonl`` every
    ``serve --stats-interval`` seconds.  See DESIGN.md §3.13.

``top --endpoint RUN_DIR/endpoint.json``
    Live ANSI dashboard over a running server: per-shard event rate,
    queue depth, batch p50/p99, tenant residency, sheds, degradations.
    ``--iterations N --plain`` renders N frames without ANSI clears
    (transcripts, CI).

``replay RUN_DIR --out DIR``
    Offline replay of a serving run's shard journals into a reference
    ``tenants.json`` — the oracle ``repro verify --against`` compares a
    serving run to.

**Chaos.**  The simulation subcommands accept ``--chaos-seed N`` (generate
a deterministic fault plan from a seed, journalled next to the checkpoint)
or ``--chaos-plan FILE`` (install a previously journalled plan — how
resumed chaos runs avoid re-suffering already-fired faults).

**Exit codes.**  0 — clean success.  1 — I/O failure (unwritable output,
disk error — including one while writing the end-of-run manifest).
2 — usage error.  3 — the run *completed with correct results* but
degraded along the way (cache fell back to memory, checkpointing turned
off, the pool drained serially, a shard was respawned); artifacts are
written and the manifest records the degradations.  4 — classified run
failure (poisoned units, corrupt journal), failed verification, or an
interrupt (SIGINT): an interrupted run wrote no manifest, so its
directory must fail verification until resumed — the same
absence-of-proof rule a crash gets.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from .core.factory import config_from_spec
from .errors import CheckpointError, IngestError, ServiceError, SimulationError
from .experiments import experiment_ids, run_experiment
from .experiments.base import checkpointed_runner
from .sim.engine import AUTO_MIN_EVENTS
from .sim.groups import REAL_GROUP
from .sim.reporting import format_table
from .sim.suite_runner import SuiteRunner, shared_runner
from .workloads import generate_trace, save_trace, save_trace_text, workload_config
from .workloads.suite import GROUPS, benchmark_names


def _prepare_output(path: Optional[str]) -> None:
    """Create an output file's parent directories up front.

    Called at runner construction for every ``--*-out``-style flag, so a
    bad path (unwritable parent, a file where a directory is needed)
    fails before any simulation time is spent; the ``OSError`` reaches
    :func:`main` and exits 1 cleanly.
    """
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)


def _make_runner(args: argparse.Namespace) -> SuiteRunner:
    """The runner implied by the shared simulation flags.

    ``--checkpoint-dir`` always builds a durable runner; ``--workers`` /
    ``--scale`` / ``--trace-log`` / ``--attribution`` need a dedicated
    runner too (the process-wide shared one is serial, unscaled, and
    uninstrumented); otherwise the shared runner is reused so repeated
    CLI calls in one process share traces.
    """
    scale = getattr(args, "scale", None)
    workers = getattr(args, "workers", 1)
    trace_log = getattr(args, "trace_log", None)
    attribution = getattr(args, "attribution", None)
    kernel = getattr(args, "kernel", "auto")
    ingest = getattr(args, "ingest", None) or []
    _prepare_output(trace_log)
    _prepare_output(attribution)
    _prepare_output(getattr(args, "metrics_out", None))
    if args.checkpoint_dir:
        runner = checkpointed_runner(
            args.checkpoint_dir, resume=args.resume, scale=scale,
            workers=workers, trace_log=trace_log,
            attribution=bool(attribution), kernel=kernel,
        )
        if args.resume and len(runner.checkpoint):
            print(f"resuming: {len(runner.checkpoint)} checkpointed "
                  f"simulation(s) will not be re-run", file=sys.stderr)
    elif workers > 1 or scale is not None or trace_log or attribution \
            or ingest or kernel != "auto":
        runner = SuiteRunner(scale=scale, workers=workers,
                             trace_log=trace_log,
                             attribution=bool(attribution),
                             kernel=kernel)
    else:
        return shared_runner()
    _register_ingest(runner, ingest)
    return runner


def _register_ingest(runner: SuiteRunner, paths: List[str]) -> None:
    """Register ``--ingest`` files; a bad one exits 1 with offset context."""
    if not paths:
        return
    from .ingest import ExternalTraceSource

    for path in paths:
        name = runner.register_external(ExternalTraceSource.open(path))
        print(f"ingest: registered {path} as benchmark {name!r}",
              file=sys.stderr)


def _write_metrics(runner: SuiteRunner, path: Optional[str]) -> None:
    if not path:
        return
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        json.dumps(runner.metrics_summary(), indent=2, sort_keys=True) + "\n"
    )


def _write_attribution(runner: SuiteRunner, path: Optional[str]) -> None:
    if path:
        runner.write_attribution(path)


def _finish_run(runner: SuiteRunner, args: argparse.Namespace) -> int:
    """End-of-run bookkeeping: manifest + the degradation exit code.

    Called only when the handler's work *succeeded* — a run that raised
    never writes a manifest, so its directory fails ``repro verify``
    until it is resumed to completion.
    """
    degradations = runner.degradations()
    if getattr(args, "checkpoint_dir", None):
        from .runtime.chaos import active as active_chaos
        from .runtime.verify import write_manifest

        run_dir = Path(args.checkpoint_dir)
        artifacts = {"journal": run_dir / "results.jsonl"}
        for kind, flag in (("metrics", "metrics_out"),
                           ("trace_log", "trace_log"),
                           ("attribution", "attribution")):
            if getattr(args, flag, None):
                artifacts[kind] = getattr(args, flag)
        plan_path = getattr(active_chaos(), "path", None)
        if plan_path:
            artifacts["chaos_plan"] = plan_path
        # Ingested source files are run inputs: manifest them (numbered,
        # like shard journals) so `repro verify` re-hashes the exact
        # bytes the run's real-* results came from.
        for index, path in enumerate(getattr(args, "ingest", None) or []):
            artifacts[f"ext_trace.{index}"] = path
        write_manifest(run_dir, artifacts, degradations=degradations,
                       workers=runner.workers)
    if degradations:
        survived = ", ".join(f"{name} x{count}"
                             for name, count in sorted(degradations.items()))
        print(f"run completed degraded: {survived}", file=sys.stderr)
        return 3
    return 0


def _add_runner_options(parser: argparse.ArgumentParser) -> None:
    """Flags shared by every subcommand that simulates over the suite."""
    parser.add_argument("--checkpoint-dir",
                        help="directory for the crash-safe trace cache "
                             "and result journal")
    parser.add_argument("--resume", action="store_true",
                        help="replay the journal in --checkpoint-dir and "
                             "skip completed simulations")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for (config, benchmark) "
                             "work units (default: 1 = serial; results "
                             "are bit-identical either way)")
    parser.add_argument("--kernel", choices=("event", "batch", "auto"),
                        default="auto",
                        help="simulation kernel: 'auto' (default: the "
                             "vectorized column kernel on traces of at "
                             f"least {AUTO_MIN_EVENTS} events when it "
                             "supports the config, the per-event loop "
                             "otherwise), "
                             "'event' (always the per-event oracle "
                             "loop), or 'batch' (always the kernel, "
                             "errors on unsupported configs); results "
                             "are bit-identical; --attribution always "
                             "uses the per-event engine")
    parser.add_argument("--metrics-out", metavar="FILE",
                        help="write the run's JSON metrics record "
                             "(repro-run-metrics/2: per-phase breakdown, "
                             "unit wall times, queue depth, worker "
                             "utilisation, cache hits/misses)")
    parser.add_argument("--trace-log", metavar="FILE",
                        help="write the structured telemetry log "
                             "(repro-trace-log/1: one fsync'd JSON line "
                             "per span/event)")
    parser.add_argument("--attribution", metavar="FILE",
                        help="classify every misprediction (cold, "
                             "capacity, conflict, training, "
                             "metapredictor) and write the per-cause / "
                             "per-site / per-component artifact "
                             "(repro-attribution/1; render with "
                             "tools/attribution_report.py)")
    parser.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                        help="generate a deterministic chaos (fault) plan "
                             "from this seed and run under it; the plan "
                             "is journalled into --checkpoint-dir so the "
                             "run is replayable and resumable")
    parser.add_argument("--chaos-plan", metavar="FILE",
                        help="install a journalled repro-chaos-plan/1 "
                             "file (already-fired faults stay fired, so "
                             "a resumed run does not re-suffer them)")
    parser.add_argument("--ingest", action="append", metavar="FILE",
                        default=None,
                        help="register an external repro-ext-trace/1 "
                             "file (from `repro ingest`); its "
                             "'real-<name>' benchmark joins the run and "
                             "the AVG-real group average (repeatable)")


def _cmd_experiments(args: argparse.Namespace) -> int:
    ids = args.ids or experiment_ids()
    runner = _make_runner(args)
    out_dir: Optional[Path] = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for experiment_id in ids:
            result = run_experiment(experiment_id, runner=runner, quick=not args.full)
            rendering = result.render()
            print(rendering)
            print()
            if out_dir is not None:
                (out_dir / f"{experiment_id}.txt").write_text(rendering + "\n")
    finally:
        # Attribution first: its write span then lands in the metrics
        # record's phase breakdown.  Written even when a run fails, so a
        # crashed sweep still leaves its partial observability behind
        # (but no manifest — only _finish_run writes that).
        _write_attribution(runner, args.attribution)
        _write_metrics(runner, args.metrics_out)
        runner.tracer.close()
    return _finish_run(runner, args)


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = config_from_spec(args.spec)
    runner = _make_runner(args)
    names = args.benchmarks \
        or list(benchmark_names()) + list(runner.external_names())
    try:
        rates = runner.rates_with_groups(config, names)
    finally:
        _write_attribution(runner, args.attribution)
        _write_metrics(runner, args.metrics_out)
        runner.tracer.close()
    groups = set(GROUPS) | {REAL_GROUP}
    rows = [[name, round(rate, 2)] for name, rate in rates.items()
            if name not in groups]
    rows += [[name, round(rate, 2)] for name, rate in rates.items()
             if name in groups]
    print(format_table(["benchmark", "miss %"], rows,
                       title=f"{config.label} misprediction rates"))
    return _finish_run(runner, args)


def _cmd_verify(args: argparse.Namespace) -> int:
    from .runtime.verify import verify_file, verify_run

    if args.against and not all(Path(path).is_dir() for path in args.paths):
        print("error: --against compares run directories, not files",
              file=sys.stderr)
        return 2
    reports = [verify_run(path, against=args.against) if Path(path).is_dir()
               else verify_file(path) for path in args.paths]
    for report in reports:
        print(report.render())
    return 0 if all(report.ok for report in reports) else 4


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service.server import PredictionServer

    config_from_spec(args.spec)  # fail fast on a bad spec (usage-ish)
    server = PredictionServer(
        args.spec, args.run_dir, shards=args.shards, host=args.host,
        port=args.port, max_resident=args.max_resident,
        queue_soft=args.queue_soft, queue_hard=args.queue_hard,
        max_attempts=args.max_attempts,
        respawn_budget=args.respawn_budget,
        batch_deadline=args.batch_deadline, trace_log=args.trace_log,
        stats_interval=args.stats_interval,
        checkpoint_interval=args.checkpoint_interval,
    )

    async def _run() -> int:
        await server.start()
        print(f"serving {args.spec} on {server.host}:{server.port} "
              f"({args.shards} shard(s), run dir {args.run_dir})",
              file=sys.stderr, flush=True)
        return await server.serve_until_shutdown()

    code = asyncio.run(_run())
    if code == 3:
        survived = ", ".join(f"{name} x{count}" for name, count
                             in sorted(server.degradations.items()))
        print(f"serve completed degraded: {survived}", file=sys.stderr)
    return code


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from .service.loadgen import run_loadgen

    host, port = args.host, args.port
    if args.endpoint:
        endpoint = json.loads(Path(args.endpoint).read_text())
        host, port = endpoint["host"], endpoint["port"]
    if port is None:
        print("error: loadgen needs --port or --endpoint", file=sys.stderr)
        return 2
    summary = run_loadgen(
        host, port, tenants=args.tenants, batches=args.batches,
        batch_events=args.batch_events, seed=args.seed,
        concurrency=args.concurrency, deadline=args.deadline,
        max_attempts=args.max_attempts, shutdown=args.shutdown,
        out=args.out, ingest=args.ingest,
    )
    latency = summary["latency"]
    print(f"loadgen: {summary['sent']} batch(es) -> {summary['ok']} ok "
          f"({summary['duplicates']} deduplicated), {summary['shed']} "
          f"shed, {summary['failed']} failed; {summary['retries']} "
          f"retry(ies), {summary['breaker_opens']} breaker open(s)")
    print(f"  {summary['events_applied']:,} events applied at "
          f"{summary['events_per_sec']:,.0f} events/s; latency p50 "
          f"{latency['p50_s'] * 1000:.1f} ms, p99 "
          f"{latency['p99_s'] * 1000:.1f} ms")
    if summary["sheds_by_reason"]:
        reasons = ", ".join(f"{reason} x{count}" for reason, count
                            in sorted(summary["sheds_by_reason"].items()))
        print(f"  sheds: {reasons}")
    for line in summary["inconsistencies"]:
        print(f"  INCONSISTENT: {line}", file=sys.stderr)
    return 4 if summary["inconsistencies"] else 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from .service.console import resolve_endpoint, run_stats

    try:
        host, port = resolve_endpoint(args.endpoint, args.host, args.port)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_stats(host, port, as_json=args.json, out=args.out)


def _cmd_top(args: argparse.Namespace) -> int:
    from .service.console import resolve_endpoint, run_top

    try:
        host, port = resolve_endpoint(args.endpoint, args.host, args.port)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run_top(host, port, interval=args.interval,
                   iterations=args.iterations, plain=args.plain)


def _cmd_replay(args: argparse.Namespace) -> int:
    from .service.replay import write_replay

    target = write_replay(args.run_dir, args.out)
    tenants = json.loads(target.read_text())["tenants"]
    events = sum(record["events"] for record in tenants.values())
    print(f"replayed {len(tenants)} tenant(s), {events:,} accepted "
          f"event(s) -> {target}")
    return 0


def _cmd_ingest_python(args: argparse.Namespace) -> int:
    from .ingest import read_ext_trace, record_command

    command = list(args.command)
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        print("error: ingest python needs a command after '--'",
              file=sys.stderr)
        return 2
    child_code = record_command(
        command, args.out, name=args.name, engine=args.engine,
        max_events=args.max_events)
    parsed = read_ext_trace(args.out)  # strict re-read: prove the artifact
    print(f"ingested {len(parsed):,} event(s) from {parsed.producer} "
          f"({len(parsed.sites)} site(s), {len(parsed.targets)} "
          f"target(s)) -> {args.out}")
    if child_code != 0:
        print(f"note: traced command exited {child_code}; the trace "
              f"covers the run up to that exit", file=sys.stderr)
    return child_code


def _cmd_ingest_bril(args: argparse.Namespace) -> int:
    from .ingest import import_bril, read_ext_trace

    target = import_bril(args.source, args.out, name=args.name)
    parsed = read_ext_trace(target)
    print(f"imported {len(parsed):,} event(s) from {args.source} "
          f"({len(parsed.sites)} site(s), {len(parsed.targets)} "
          f"target(s)) -> {target}")
    return 0


def _cmd_ingest_validate(args: argparse.Namespace) -> int:
    from .ingest import quarantine_ingest, read_ext_trace

    for path in args.files:
        try:
            parsed = read_ext_trace(path)
        except IngestError as exc:
            quarantine_ingest(path, exc)
            raise
        print(f"{path}: valid repro-ext-trace/1 — {parsed.name!r} from "
              f"{parsed.producer}/{parsed.producer_version}: "
              f"{len(parsed):,} event(s), {len(parsed.sites)} site(s), "
              f"{len(parsed.targets)} target(s)")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    trace = generate_trace(workload_config(args.benchmark, args.scale))
    Path(args.file).parent.mkdir(parents=True, exist_ok=True)
    if args.file.endswith(".txt"):
        save_trace_text(trace, args.file)
    else:
        save_trace(trace, args.file)
    print(f"wrote {len(trace):,} events of {trace.name!r} to {args.file}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Accurate Indirect Branch Prediction' "
                    "(Driesen & Hölzle, ISCA 1998).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    experiments = subparsers.add_parser(
        "experiments", help="run reproduction experiments")
    experiments.add_argument("ids", nargs="*", metavar="ID",
                             help=f"experiment ids (default: all; known: "
                                  f"{', '.join(experiment_ids())})")
    experiments.add_argument("--full", action="store_true",
                             help="run the paper's full parameter grids")
    experiments.add_argument("--out", help="directory for rendered results")
    _add_runner_options(experiments)
    experiments.set_defaults(handler=_cmd_experiments)

    simulate = subparsers.add_parser(
        "simulate", help="simulate one predictor spec over the suite")
    simulate.add_argument("spec", help='e.g. "hybrid:p1=3,p2=1,entries=1024,assoc=4"')
    simulate.add_argument("benchmarks", nargs="*", help="benchmark subset")
    simulate.add_argument("--scale", type=float, default=None,
                          help="trace length multiplier")
    _add_runner_options(simulate)
    simulate.set_defaults(handler=_cmd_simulate)

    trace = subparsers.add_parser("trace", help="generate and save a trace")
    trace.add_argument("benchmark", choices=benchmark_names())
    trace.add_argument("file", help="output path (.txt for text format)")
    trace.add_argument("--scale", type=float, default=None,
                       help="trace length multiplier")
    trace.set_defaults(handler=_cmd_trace)

    ingest = subparsers.add_parser(
        "ingest", help="produce/validate external repro-ext-trace/1 files")
    ingest_sub = ingest.add_subparsers(dest="ingest_command", required=True)

    ingest_python = ingest_sub.add_parser(
        "python",
        help="record real dispatch targets from a Python command "
             "(sys.monitoring on 3.12+, dis/setprofile fallback)")
    ingest_python.add_argument("--out", required=True, metavar="FILE",
                               help="output repro-ext-trace/1 path")
    ingest_python.add_argument("--name", default="pyrun",
                               help="trace name; the benchmark becomes "
                                    "'real-<name>' (default: pyrun)")
    ingest_python.add_argument("--engine", default="auto",
                               choices=["auto", "monitoring", "profile"],
                               help="recorder engine (default: auto)")
    ingest_python.add_argument("--max-events", type=int, metavar="N",
                               default=200_000,
                               help="stop recording after N events "
                                    "(default: 200000)")
    ingest_python.add_argument("command", nargs=argparse.REMAINDER,
                               metavar="-- CMD",
                               help="the Python command to trace, after "
                                    "'--' (e.g. -- python -m pytest "
                                    "tests/test_sim.py)")
    ingest_python.set_defaults(handler=_cmd_ingest_python)

    ingest_bril = ingest_sub.add_parser(
        "bril", help="import a Bril-style --trace-out linear trace")
    ingest_bril.add_argument("source", help="Bril JSON trace file")
    ingest_bril.add_argument("--out", required=True, metavar="FILE",
                             help="output repro-ext-trace/1 path")
    ingest_bril.add_argument("--name", default=None,
                             help="trace name (default: source stem)")
    ingest_bril.set_defaults(handler=_cmd_ingest_bril)

    ingest_validate = ingest_sub.add_parser(
        "validate", help="strictly validate repro-ext-trace/1 files")
    ingest_validate.add_argument("files", nargs="+", metavar="FILE")
    ingest_validate.set_defaults(handler=_cmd_ingest_validate)

    verify = subparsers.add_parser(
        "verify", help="verify completed run directories or artifact files")
    verify.add_argument("paths", nargs="+", metavar="PATH",
                        help="a --checkpoint-dir of a completed run, or "
                             "one artifact file")
    verify.add_argument("--against", metavar="BASELINE_DIR", default=None,
                        help="also require bit-identical results to this "
                             "reference run directory")
    verify.set_defaults(handler=_cmd_verify)

    serve = subparsers.add_parser(
        "serve", help="serve per-tenant predictors over TCP")
    serve.add_argument("spec", help="predictor spec every tenant gets, "
                                    'e.g. "btb:entries=512,assoc=4"')
    serve.add_argument("--run-dir", required=True,
                       help="artifact directory (journals, snapshots, "
                            "manifest, endpoint.json)")
    serve.add_argument("--shards", type=int, default=2, metavar="N",
                       help="shard worker processes (default: 2)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (default: 0 = pick a free one, "
                            "published in endpoint.json)")
    serve.add_argument("--max-resident", type=int, default=8, metavar="N",
                       help="live tenants per shard before LRU eviction "
                            "to the trace cache (default: 8)")
    serve.add_argument("--queue-soft", type=int, default=16, metavar="N",
                       help="per-shard depth that sheds priority-0 load "
                            "and flags back-pressure (default: 16)")
    serve.add_argument("--queue-hard", type=int, default=32, metavar="N",
                       help="per-shard depth that sheds everything "
                            "(default: 32)")
    serve.add_argument("--max-attempts", type=int, default=3, metavar="N",
                       help="attempts per batch before it is shed as "
                            "poisoned (default: 3)")
    serve.add_argument("--respawn-budget", type=int, default=None,
                       metavar="N",
                       help="total shard respawns before a shard is "
                            "declared unavailable (default: 2 * shards)")
    serve.add_argument("--batch-deadline", type=float, default=15.0,
                       metavar="SECONDS",
                       help="per-batch shard deadline before the hang "
                            "watchdog kills it (default: 15)")
    serve.add_argument("--trace-log", metavar="FILE",
                       help="structured telemetry log (repro-trace-log/1)")
    serve.add_argument("--stats-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="cadence of shard metrics snapshots and of "
                            "metrics-stream.jsonl appends (default: 1)")
    serve.add_argument("--checkpoint-interval", type=int, default=256,
                       metavar="BATCHES",
                       help="applied batches between shard recovery "
                            "checkpoints (repro-shard-snapshot/1) and "
                            "journal compactions; 0 disables "
                            "checkpointing (default: 256)")
    serve.add_argument("--chaos-seed", type=int, default=None, metavar="N",
                       help="arm a deterministic service fault plan "
                            "(shard crashes/stalls, connection faults, "
                            "tenant churn, journal errors)")
    serve.add_argument("--chaos-plan", metavar="FILE",
                       help="install a journalled repro-chaos-plan/1 file")
    serve.set_defaults(handler=_cmd_serve, chaos_points="service")

    loadgen = subparsers.add_parser(
        "loadgen", help="drive a running prediction server")
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, default=None)
    loadgen.add_argument("--endpoint", metavar="FILE",
                         help="read host/port from a server's "
                              "endpoint.json instead of --port")
    loadgen.add_argument("--tenants", type=int, default=6, metavar="N")
    loadgen.add_argument("--batches", type=int, default=12, metavar="N",
                         help="batches per tenant (default: 12)")
    loadgen.add_argument("--batch-events", type=int, default=64,
                         metavar="N", help="events per batch (default: 64)")
    loadgen.add_argument("--seed", type=int, default=1,
                         help="tenant stream seed (default: 1)")
    loadgen.add_argument("--concurrency", type=int, default=3, metavar="N",
                         help="client threads (default: 3)")
    loadgen.add_argument("--deadline", type=float, default=5.0,
                         metavar="SECONDS",
                         help="per-request deadline (default: 5)")
    loadgen.add_argument("--max-attempts", type=int, default=5, metavar="N",
                         help="attempts per request (default: 5)")
    loadgen.add_argument("--shutdown", action="store_true",
                         help="drain and stop the server afterwards")
    loadgen.add_argument("--out", metavar="FILE",
                         help="write the JSON summary "
                              "(repro-service-loadgen/1)")
    loadgen.add_argument("--ingest", metavar="FILE",
                         help="drive tenants with slices of an ingested "
                              "repro-ext-trace/1 file instead of the "
                              "synthetic streams (the replay oracle and "
                              "verify --against work unchanged)")
    loadgen.set_defaults(handler=_cmd_loadgen)

    stats = subparsers.add_parser(
        "stats", help="one-shot metrics snapshot of a live server")
    stats.add_argument("--host", default="127.0.0.1")
    stats.add_argument("--port", type=int, default=None)
    stats.add_argument("--endpoint", metavar="FILE",
                       help="read host/port from a server's endpoint.json "
                            "instead of --port")
    stats.add_argument("--json", action="store_true",
                       help="print the raw merged repro-metrics-snapshot/1 "
                            "instead of tables")
    stats.add_argument("--out", metavar="FILE",
                       help="also write the merged snapshot JSON here")
    stats.set_defaults(handler=_cmd_stats)

    top = subparsers.add_parser(
        "top", help="live ANSI dashboard over a running server")
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=None)
    top.add_argument("--endpoint", metavar="FILE",
                     help="read host/port from a server's endpoint.json "
                          "instead of --port")
    top.add_argument("--interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="refresh cadence (default: 1)")
    top.add_argument("--iterations", type=int, default=None, metavar="N",
                     help="stop after N frames (default: run until ^C)")
    top.add_argument("--plain", action="store_true",
                     help="no ANSI clear between frames (for transcripts "
                          "and CI)")
    top.set_defaults(handler=_cmd_top)

    replay = subparsers.add_parser(
        "replay", help="offline-replay a serving run's journals")
    replay.add_argument("run_dir", metavar="RUN_DIR",
                        help="a serving run directory (journal-*.jsonl)")
    replay.add_argument("--out", required=True, metavar="DIR",
                        help="directory for the oracle tenants.json")
    replay.set_defaults(handler=_cmd_replay)
    return parser


def _install_chaos(args: argparse.Namespace) -> None:
    """Arm the requested chaos plan (no-op without chaos flags)."""
    plan_file = getattr(args, "chaos_plan", None)
    seed = getattr(args, "chaos_seed", None)
    if not plan_file and seed is None:
        return
    from .runtime import chaos

    if plan_file:
        plan = chaos.ChaosPlan.load(plan_file)
    elif getattr(args, "chaos_points", None) == "service":
        # The serving fault menu; tenants are unknown up front, so the
        # generated match filters stay empty (match everything).  The
        # plan is journalled into the run dir so shard processes share
        # its fired-fault tickets.
        plan = chaos.ChaosPlan.generate(seed, points=chaos.SERVICE_POINTS)
        plan.save(Path(args.run_dir) / "chaos-plan.json")
    else:
        # Seed the plan's match filters from the run's own benchmark
        # selection, so generated faults can actually fire.
        selected = getattr(args, "benchmarks", None) or benchmark_names()
        plan = chaos.ChaosPlan.generate(seed, benchmarks=tuple(selected))
        if getattr(args, "checkpoint_dir", None):
            # Journal the plan next to the checkpoint so workers and
            # resumed runs share its fired-fault tickets.
            plan.save(Path(args.checkpoint_dir) / "chaos-plan.json")
    chaos.install(plan)
    print(f"chaos: {len(plan.faults)} fault(s) armed "
          f"(seed {plan.seed}, plan "
          f"{plan.path if plan.path else 'in-memory'})", file=sys.stderr)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not getattr(args, "checkpoint_dir", None):
        parser.error("--resume requires --checkpoint-dir")
    workers = getattr(args, "workers", 1)
    if workers < 1:
        print(f"error: --workers must be >= 1, got {workers}",
              file=sys.stderr)
        return 2
    if getattr(args, "chaos_plan", None) and getattr(args, "chaos_seed", None) is not None:
        print("error: --chaos-plan and --chaos-seed are mutually exclusive",
              file=sys.stderr)
        return 2
    try:
        _install_chaos(args)
        return args.handler(args)
    except KeyboardInterrupt:
        # SIGINT mid-run: classified failure, not a stack trace.  No
        # manifest was written, so the run directory fails verification
        # until the run is resumed to completion.
        print("error: interrupted", file=sys.stderr)
        return 4
    except IngestError as exc:
        # Malformed external-trace input: same one-line contract as an
        # I/O failure (the message carries the record index and byte
        # offset; a quarantine sidecar holds the structured context).
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Unwritable output paths and I/O failures exit cleanly instead of
        # dumping a traceback; library errors (ConfigError, ...) propagate.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulationError, CheckpointError, ServiceError) as exc:
        # Classified run failures (poisoned units, corrupt journal):
        # exit 4 with the structured context, not a traceback — the
        # chaos soak harness keys on this ("cleanly failed").
        print(f"error: {exc}", file=sys.stderr)
        context = getattr(exc, "context", None)
        if context:
            print(f"context: {json.dumps(context, sort_keys=True, default=str)}",
                  file=sys.stderr)
        return 4
    finally:
        from .runtime import chaos

        chaos.uninstall()


if __name__ == "__main__":
    sys.exit(main())
