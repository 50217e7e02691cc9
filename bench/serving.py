"""The serving workloads: ``serve-steady`` and ``serve-churn``.

Both run ``repro serve`` with 2 shards in its own process group and
drive it in closed loops from one asyncio thread, with every frame
generated and encoded during set-up from the ``--seed``-derived tenant
streams.  A run repeats *passes* while another fits in the measuring
window, at least one: each pass starts a fresh server on a fresh run
directory (timed for ``setup_s``), sends the workload's fixed load, and
SIGKILLs the server's process group.  The metrics are medians over the
passes, so the window sets how many passes a run takes, never the work
in one.

The server runs through ``bench/launch.py``, whose hooks sample the
speed probe after every request in the server and its shards; this
process samples it while driving.  Times are scaled to the reference
machine's undisturbed speed (:mod:`pace`): the closed loops keep every
process busy, which is where the probe reads the machine's speed.

``serve-steady``
    ``btb:entries=128,assoc=2``, default knobs, 8 tenants sending
    64-event batches, each tenant on its own connection: 8 callers that
    each send their next batch when the previous one is answered.
    Apply is cheap and no tenant is ever evicted, so per-batch
    transport, admission, queue IPC and the journal dominate, and each
    shard's default 256-batch checkpoint stalls the batches queued
    behind it: the tail is those stalls.
``serve-churn``
    ``hybrid:p1=3,p2=1,entries=1024,assoc=4`` with ``--max-resident 2
    --checkpoint-interval 32``, 32 tenants sending round-robin over 2
    connections.  Nearly every batch evicts one tenant and replays
    another's whole history, so the state layer does the work.

Every reply's cumulative event count is checked against the driver's
own, in every pass.  After the last pass, outside the timed window, its
crash image is restarted and shut down cleanly, replayed offline
(``repro replay``) and verified against the replay (``repro verify
--against``).

A traced run (``--trace 1``) adds the per-layer numbers: the live
split of each batch between transport and shard, an open loop at a
fixed rate (``serve-steady``), cold reopens of the crash image, and the
same batch sequence fed through :class:`repro.service.shard.ShardCore`
in this process, once plain and once with spans around the state
layer.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (Result, child_env, kill_group, latency_metrics,
                    launch_cmd, percentile, repro_cmd, run_measured)
from driver import Batch, closed_loop, failures, lag, open_loop, pin
from pace import PROBE_INTERVAL, ProbeLog, Speed, probe
from spans import SpanRecorder, durations, on_clock, self_time_by_name

SHARDS = 2
BATCH_EVENTS = 64

#: Open-loop offered load of the traced ``serve-steady`` run, events per
#: second (about a sixth of the closed-loop throughput on the reference
#: machine), and how many batches it sends.
STEADY_RATE = 16_000
OPEN_BATCHES = 2_500

#: Server start-ups timed for ``setup_s``, at least (one per pass).
SETUP_REPEATS = 3

#: Cold reopens of the crash image timed for ``state.recovery_s``.
RECOVERY_REPEATS = 5

#: Per-layer metric prefixes these workloads measure.
LAYERS = ("service", "protocol", "state", "checkpoint", "driver", "core",
          "trace")


@dataclass(frozen=True)
class Service:
    spec: str
    tenants: int
    max_resident: int
    checkpoint_interval: int
    #: connections the tenants are pinned to (``tenant index % connections``)
    connections: int
    #: batches each tenant sends in one pass
    rounds: int

    def flags(self) -> List[str]:
        return ["--shards", str(SHARDS),
                "--max-resident", str(self.max_resident),
                "--checkpoint-interval", str(self.checkpoint_interval)]


SERVICES = {
    # One connection per tenant.  The server answers one request at a
    # time per connection, so over 2 connections at most 2 batches are
    # in the server, the shards idle between them, and the closed loop
    # is paced by process wake-ups on the shared host (quartile spread
    # of its wall time 19-30% over ten seeds, against 4% with 8).
    "serve-steady": Service("btb:entries=128,assoc=2", tenants=8,
                            max_resident=8, checkpoint_interval=256,
                            connections=8, rounds=750),
    # 48 rounds leave 15 of 1,536 batches beyond p99; at 36 rounds (11
    # beyond) p99 spread by 15-17% over ten seeds, at 48 by 7%.
    "serve-churn": Service("hybrid:p1=3,p2=1,entries=1024,assoc=4",
                           tenants=32, max_resident=2, checkpoint_interval=32,
                           connections=2, rounds=48),
}


# -- inputs -------------------------------------------------------------------


@dataclass
class Load:
    """Every batch of one pass, in send order, with its events."""

    batches: List[Batch]
    events: Dict[Tuple[str, int], Tuple[list, list]]


def build_load(service: Service, seed: int) -> Load:
    """Generate the tenant streams from ``seed`` and encode every frame.

    Tenants take turns: batch ``k`` is tenant ``k % tenants``'s
    ``k // tenants + 1``-th.
    """
    from repro.service.loadgen import tenant_name, tenant_stream
    from repro.service.protocol import encode_frame

    streams = [tenant_stream(index, service.rounds * BATCH_EVENTS, seed=seed)
               for index in range(service.tenants)]
    batches: List[Batch] = []
    events: Dict[Tuple[str, int], Tuple[list, list]] = {}
    for k in range(service.rounds * service.tenants):
        index, bid = k % service.tenants, k // service.tenants + 1
        tenant = tenant_name(index)
        lo = (bid - 1) * BATCH_EVENTS
        pcs = list(streams[index].pcs[lo:lo + BATCH_EVENTS])
        targets = list(streams[index].targets[lo:lo + BATCH_EVENTS])
        events[(tenant, bid)] = (pcs, targets)
        frame = encode_frame({"op": "events", "tenant": tenant, "bid": bid,
                              "priority": 1, "pcs": pcs, "targets": targets})
        batches.append(Batch(tenant, bid, len(pcs), frame,
                             pin(index, service.connections)))
    return Load(batches, events)


def open_schedule(load: Load) -> List[Batch]:
    """The first :data:`OPEN_BATCHES` batches, due at :data:`STEADY_RATE`."""
    return [dataclasses.replace(batch, due=k * BATCH_EVENTS / STEADY_RATE)
            for k, batch in enumerate(load.batches[:OPEN_BATCHES])]


# -- the server process ---------------------------------------------------------


class ServerProcess:
    """One ``repro serve`` child in its own process group.

    It runs through ``bench/launch.py``, sampling the speed probe into
    ``probes`` when it starts and after each request the server and its
    shards handle.
    """

    def __init__(self, service: Service, run_dir: Path, log_dir: Path,
                 name: str) -> None:
        self.service = service
        self.run_dir = run_dir
        self.probes = log_dir / f"probes-{name}"
        log_dir.mkdir(parents=True, exist_ok=True)
        self._out = open(log_dir / f"{name}.out", "wb")
        self._err = open(log_dir / f"{name}.err", "wb")
        self.proc: Optional[subprocess.Popen] = None
        self.host, self.port = "127.0.0.1", 0

    def start(self, timeout: float = 60.0) -> Tuple[float, float]:
        """Start and wait until every shard answers.

        Returns the seconds it took, scaled by the server's probe
        samples (a start-up keeps the CPU busy), and as measured.
        """
        from repro.service.client import ServiceClient

        endpoint = self.run_dir / "endpoint.json"
        endpoint.unlink(missing_ok=True)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            launch_cmd(["serve", self.service.spec, "--run-dir",
                        str(self.run_dir), *self.service.flags()],
                       self.probes, hooks=True),
            stdout=self._out, stderr=self._err, env=child_env(),
            start_new_session=True)
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited {self.proc.returncode} "
                                   f"before listening")
            if time.monotonic() > deadline:
                raise RuntimeError("server never listened")
            try:
                self.port = json.loads(endpoint.read_text())["port"]
                break
            except (OSError, ValueError, KeyError):
                time.sleep(0.005)
        with ServiceClient(self.host, self.port, deadline=timeout) as client:
            while not all(shard.get("available")
                          for shard in client.stats()["shards"]):
                if time.monotonic() > deadline:
                    raise RuntimeError("shards never became available")
        ended = time.perf_counter()
        return Speed.load(self.probes).scaled(started, ended), ended - started

    def stats(self) -> dict:
        from repro.service.client import ServiceClient

        with ServiceClient(self.host, self.port, deadline=30.0) as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        """Largest peak resident set of the server and its shard processes."""
        pids = [self.proc.pid]
        children = Path(f"/proc/{self.proc.pid}/task/{self.proc.pid}/children")
        try:
            pids += [int(pid) for pid in children.read_text().split()]
        except OSError:
            pass
        peak = 0.0
        for pid in pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    peak = max(peak, int(line.split()[1]) / 1024.0)
        return peak

    def shutdown(self, timeout: float = 60.0) -> int:
        """Drain and stop cleanly; returns the server's exit code."""
        from repro.service.client import ServiceClient

        with ServiceClient(self.host, self.port, deadline=timeout) as client:
            client.shutdown()
        try:
            return self.proc.wait(timeout=timeout)
        finally:
            self.kill()

    def kill(self) -> None:
        """SIGKILL the whole process group (server and shards)."""
        if self.proc is not None:
            kill_group(self.proc.pid, self.proc)
        self._out.close()
        self._err.close()


# -- the run ----------------------------------------------------------------------


@dataclass
class Pass:
    """One fresh server under the workload's load, then SIGKILLed."""

    run_dir: Path
    setup: float
    raw_setup: float
    outcomes: list
    #: the speed the server, its shards and this process ran at
    speed: Speed
    stats: dict
    peak_rss_mb: float

    @property
    def window(self) -> Tuple[float, float]:
        return (min(o.sent for o in self.outcomes),
                max(o.done for o in self.outcomes))

    def wall(self) -> float:
        return self.speed.scaled(*self.window)

    def raw_wall(self) -> float:
        start, end = self.window
        return end - start

    def latency(self) -> Dict[str, object]:
        return latency_metrics(self.speed.scaled_all(
            [(o.sent, o.done) for o in self.outcomes]))

    def raw_latency(self) -> Dict[str, object]:
        return latency_metrics([o.latency for o in self.outcomes])


def serve_pass(service: Service, batches: Sequence[Batch], work: Path,
               name: str, loop=closed_loop) -> Pass:
    """Start a fresh server, send ``batches`` through ``loop``, kill it."""
    server = ServerProcess(service, work / name, work, name)
    try:
        setup, raw_setup = server.start()
        outcomes = asyncio.run(_drive(server, loop, batches))
        stats = server.stats()
        peak_rss = server.peak_rss_mb()
    finally:
        server.kill()
    return Pass(server.run_dir, setup, raw_setup, outcomes,
                Speed.load(server.probes), stats, peak_rss)


def run(workload: str, seed: int, seconds: float, trace: bool,
        work: Path) -> Result:
    result = Result(workload, seed, trace, seconds)
    service = SERVICES[workload]
    shutil.rmtree(work, ignore_errors=True)
    started = time.perf_counter()
    load = build_load(service, seed)
    result.details["input_s"] = time.perf_counter() - started

    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        if passes:  # only the last pass's run directory is checked
            shutil.rmtree(passes[-1].run_dir, ignore_errors=True)
        passes.append(serve_pass(service, load.batches, work,
                                 f"pass-{len(passes)}"))
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / len(passes) > seconds:
            break
    setups = [(p.setup, p.raw_setup) for p in passes]
    for repeat in range(SETUP_REPEATS - len(setups)):
        trial = ServerProcess(service, work / f"setup-{repeat}", work,
                              f"setup-{repeat}")
        try:
            setups.append(trial.start())
        finally:
            trial.kill()

    for done in passes:
        problems = failures(done.outcomes)
        result.attempted += len(done.outcomes)
        result.failed += len(problems)
        for problem in problems[:20]:
            result.fail(problem)
    last = passes[-1]
    crash = work / "crash-image"
    shutil.copytree(last.run_dir, crash)
    checked = check_run(service, last.run_dir, work, last.outcomes)
    result.failed += len(checked)
    for problem in checked:
        result.fail(problem)
    if not result.correct:
        return result

    latencies = [p.latency() for p in passes]
    raw_latencies = [p.raw_latency() for p in passes]
    walls = [p.wall() for p in passes]
    result.metrics.update(
        setup_s=statistics.median(s for s, _ in setups),
        wall_s=statistics.median(walls),
        p50_ms=statistics.median(lat["p50_ms"] for lat in latencies),
        tail_ms=statistics.median(lat["tail_ms"] for lat in latencies),
        peak_rss_mb=max(p.peak_rss_mb for p in passes),
    )
    result.raw.update(
        setup_s=statistics.median(raw for _, raw in setups),
        wall_s=statistics.median(p.raw_wall() for p in passes),
        p50_ms=statistics.median(lat["p50_ms"] for lat in raw_latencies),
        tail_ms=statistics.median(lat["tail_ms"] for lat in raw_latencies),
    )
    events = sum(batch.events for batch in load.batches)
    result.details.update(
        passes=len(passes), pass_walls=walls,
        raw_pass_walls=[p.raw_wall() for p in passes],
        setup_walls=setups, pass_latencies=latencies,
        tail={"percentile": latencies[0]["tail_percentile"],
              "samples": latencies[0]["samples"]},
        batches_per_pass=len(load.batches),
        connections=service.connections,
        achieved_eps=events / result.metrics["wall_s"],
        server_counters=last.stats.get("counters"),
    )
    if trace:
        result.metrics.update(live_layer_metrics(last))
        result.metrics.update(open_loop_metrics(service, load, work)
                              if workload == "serve-steady"
                              else {"driver.open_p50_ms": 0.0,
                                    "driver.open_p99_ms": 0.0,
                                    "driver.lag_p99_ms": 0.0})
        result.metrics.update(recovery_metrics(service, crash, work))
        pass_metrics, pass_problems = shard_pass_metrics(service, load, work)
        result.metrics.update(pass_metrics)
        result.failed += len(pass_problems)
        for problem in pass_problems:
            result.fail(problem)
    return result


async def _drive(server: ServerProcess, loop, batches: Sequence[Batch]):
    """One loop over the server, with this process sampling the probe."""
    sampler = asyncio.ensure_future(_sample(ProbeLog(server.probes)))
    try:
        return await loop(server.host, server.port, batches,
                          server.service.connections)
    finally:
        sampler.cancel()
        try:
            await sampler
        except asyncio.CancelledError:
            pass


async def _sample(log: ProbeLog) -> None:
    try:
        while True:
            log.sample(force=True)
            await asyncio.sleep(PROBE_INTERVAL)
    finally:
        log.close()


def check_run(service: Service, run_dir: Path, work: Path,
              outcomes) -> List[str]:
    """Restart the crash image, stop it cleanly, replay and verify it."""
    problems = []
    restarted = ServerProcess(service, run_dir, work, "restart")
    try:
        restarted.start()
        code = restarted.shutdown()
        if code != 0:
            problems.append(f"restarted server exited {code}")
    except (RuntimeError, OSError) as exc:
        problems.append(f"restart failed: {exc}")
    finally:
        restarted.kill()
    replay = work / "replay"
    env = child_env()
    for name, cmd in (
            ("replay", repro_cmd("replay", str(run_dir), "--out", str(replay))),
            ("verify", repro_cmd("verify", str(run_dir),
                                 "--against", str(replay)))):
        finished = run_measured(cmd, env, work, name)
        if finished.returncode != 0:
            problems.append(f"repro {name} exited {finished.returncode}: "
                            f"{finished.stdout.strip()[-400:]}")
            return problems
    sent: Dict[str, int] = {}
    for outcome in outcomes:
        sent[outcome.batch.tenant] = (sent.get(outcome.batch.tenant, 0)
                                      + outcome.batch.events)
    replayed = json.loads((replay / "tenants.json").read_text())["tenants"]
    for tenant, events in sorted(sent.items()):
        if replayed.get(tenant, {}).get("events") != events:
            problems.append(f"{tenant}: replay holds "
                            f"{replayed.get(tenant, {}).get('events')} "
                            f"events, the driver sent {events}")
    return problems


# -- per-layer ----------------------------------------------------------------------


def _ms(values: Sequence[float], q: float) -> float:
    return percentile(values, q) * 1000.0 if values else 0.0


def live_layer_metrics(done: Pass) -> Dict[str, float]:
    """Transport vs shard time from the replies, and queue depth."""
    from repro.runtime.metrics import LogHistogram

    answered = [o for o in done.outcomes
                if o.reply and "shard_seconds" in o.reply]
    speed = done.speed
    shard = [o.reply["shard_seconds"] * speed.factor(o.done) for o in answered]
    transport = [speed.scaled(o.sent, o.done) - seconds
                 for o, seconds in zip(answered, shard)]
    depth = done.stats["snapshot"]["histograms"].get("server.queue_depth")
    return {
        "service.shard_ms_p50": _ms(shard, 50),
        "service.shard_ms_p99": _ms(shard, 99),
        "service.transport_ms_p50": _ms(transport, 50),
        "service.transport_ms_p99": _ms(transport, 99),
        "service.queue_depth_p99": (LogHistogram.from_dict(depth).quantile(0.99)
                                    if depth else 0.0),
    }


def open_loop_metrics(service: Service, load: Load,
                      work: Path) -> Dict[str, float]:
    """Latency from each batch's due time at a fixed rate, and generator lag.

    Raw times: below capacity the processes idle between requests,
    where the probe does not read the machine's speed.
    """
    done = serve_pass(service, open_schedule(load), work, "open-loop",
                      loop=open_loop)
    problems = failures(done.outcomes)
    if problems:
        raise RuntimeError(f"open loop: {problems[0]}")
    latencies = [o.latency for o in done.outcomes]
    shutil.rmtree(done.run_dir, ignore_errors=True)
    return {
        "driver.open_p50_ms": _ms(latencies, 50),
        "driver.open_p99_ms": _ms(latencies, 99),
        "driver.lag_p99_ms": _ms(lag(done.outcomes), 99),
    }


def recovery_metrics(service: Service, crash: Path,
                     work: Path) -> Dict[str, float]:
    """Cold reopens of pristine copies of the crash image, summed over shards."""
    from repro.service.checkpoint import checkpoint_path
    from repro.service.shard import ShardCore

    totals = []
    for repeat in range(RECOVERY_REPEATS):
        copy = work / f"reopen-{repeat}"
        shutil.copytree(crash, copy)
        total = 0.0
        for shard in range(SHARDS):
            before = (time.perf_counter(), probe())
            started = time.perf_counter()
            core = ShardCore(shard, service.spec, copy,
                             max_resident=service.max_resident,
                             checkpoint_interval=service.checkpoint_interval)
            ended = time.perf_counter()
            total += Speed([before, (time.perf_counter(), probe())]).scaled(
                started, ended)
            core.close()
        totals.append(total)
        shutil.rmtree(copy)
    snapshots = [checkpoint_path(crash, shard) for shard in range(SHARDS)]
    return {
        "state.recovery_s": statistics.median(totals),
        "checkpoint.bytes": sum(path.stat().st_size for path in snapshots
                                if path.exists()),
    }


#: State-layer boundaries timed by the in-process pass.
SHARD_SPANS = (
    ("repro.service.shard:ShardCore.handle", "shard.handle"),
    ("repro.service.state:ShardJournal.append", "state.journal_append"),
    ("repro.service.state:TenantState.apply", "state.apply"),
    ("repro.service.state:TenantState.rebuild", "state.reload"),
    ("repro.service.state:TenantStore.evict", "state.evict"),
    ("repro.service.shard:ShardCore.compact", "checkpoint.compact"),
    ("repro.service.state:predictor_from_spec", "core.build"),
    ("repro.core.btb:BranchTargetBuffer.run_trace", "core.run_trace"),
    ("repro.core.twolevel:TwoLevelPredictor.run_trace", "core.run_trace"),
    ("repro.core.hybrid:HybridPredictor.run_trace", "core.run_trace"),
)


def shard_pass(service: Service, load: Load, run_dir: Path,
               recorder: Optional[SpanRecorder]) -> Tuple[float, Speed, List[str]]:
    """Feed every batch, in send order, through one ShardCore per shard.

    Returns the pass's scaled wall time, the speed that scaled it (from
    probe samples taken between batches) and any miscounted replies.
    """
    from repro.service.protocol import shard_for
    from repro.service.shard import ShardCore

    log = ProbeLog(run_dir.with_name(f"{run_dir.name}-probes"))
    for directory in (run_dir, log.directory):
        shutil.rmtree(directory, ignore_errors=True)
    if recorder is not None:
        for target, name in SHARD_SPANS:
            recorder.wrap(target, name)
    problems: List[str] = []
    expected: Dict[str, int] = {}
    try:
        cores = [ShardCore(shard, service.spec, run_dir,
                           max_resident=service.max_resident,
                           checkpoint_interval=service.checkpoint_interval)
                 for shard in range(SHARDS)]
        log.sample(force=True)
        started = time.perf_counter()
        for batch in load.batches:
            pcs, targets = load.events[(batch.tenant, batch.bid)]
            core = cores[shard_for(batch.tenant, SHARDS)]
            reply = core.handle(batch.tenant, batch.bid, pcs, targets)
            log.sample()
            expected[batch.tenant] = expected.get(batch.tenant, 0) + len(pcs)
            if reply.get("events") != expected[batch.tenant]:
                problems.append(f"in-process {batch.tenant}#{batch.bid}: "
                                f"{reply}")
        ended = time.perf_counter()
        log.sample(force=True)
        log.close()
        for core in cores:
            core.close()
    finally:
        if recorder is not None:
            recorder.restore()
    speed = Speed.load(log.directory)
    return speed.scaled(started, ended), speed, problems[:20]


def shard_pass_metrics(service: Service, load: Load,
                       work: Path) -> Tuple[Dict[str, float], List[str]]:
    plain_wall, _, problems = shard_pass(service, load, work / "pass-plain",
                                         None)
    recorder = SpanRecorder()
    traced_wall, speed, traced_problems = shard_pass(
        service, load, work / "pass-traced", recorder)
    recorder.write_jsonl(work / "spans.jsonl")
    spans = on_clock(recorder.spans, speed.clock)
    selves = self_time_by_name(spans)
    append = durations(spans, "state.journal_append")
    apply = durations(spans, "state.apply")
    reload = durations(spans, "state.reload")
    evict = durations(spans, "state.evict")
    compact = durations(spans, "checkpoint.compact")
    metrics = {
        "state.journal_append_ms_p50": _ms(append, 50),
        "state.journal_append_ms_p99": _ms(append, 99),
        "state.apply_ms_p50": _ms(apply, 50),
        "state.reload_ms_p50": _ms(reload, 50),
        "state.reload_ms_p99": _ms(reload, 99),
        "state.evict_ms_p50": _ms(evict, 50),
        "state.reloads": len(reload),
        "state.evictions": len(evict),
        "checkpoint.compact_ms_p50": _ms(compact, 50),
        "checkpoint.compact_ms_max": max(compact, default=0.0) * 1000.0,
        "checkpoint.compactions": len(compact),
        "core.run_trace_s": selves.get("core.run_trace", 0.0),
        "core.build_s": selves.get("core.build", 0.0),
        "trace.overhead_frac": (traced_wall - plain_wall) / plain_wall,
        "trace.coverage_frac": sum(selves.values()) / traced_wall,
    }
    metrics.update(protocol_metrics(load))
    return metrics, problems + traced_problems


def protocol_metrics(load: Load) -> Dict[str, float]:
    """Mean microseconds to encode and to decode one batch frame."""
    from repro.service.protocol import HEADER, decode_payload, encode_frame

    messages = [{"op": "events", "tenant": b.tenant, "bid": b.bid,
                 "priority": 1, "pcs": load.events[(b.tenant, b.bid)][0],
                 "targets": load.events[(b.tenant, b.bid)][1]}
                for b in load.batches]
    started = time.perf_counter()
    for message in messages:
        encode_frame(message)
    encode = time.perf_counter() - started
    payloads = [b.frame[HEADER.size:] for b in load.batches]
    started = time.perf_counter()
    for payload in payloads:
        decode_payload(payload)
    decode = time.perf_counter() - started
    return {"protocol.encode_us": encode / len(messages) * 1e6,
            "protocol.decode_us": decode / len(payloads) * 1e6}
