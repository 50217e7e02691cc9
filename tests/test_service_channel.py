"""The server <-> shard channel: one socketpair per shard, no threads.

An in-process :class:`~repro.service.server.PredictionServer` on the
test's event loop, driven by asyncio clients on the same loop: under
load it must run no thread besides the loop's, and a shard SIGKILLed
(or killed as hung) with several batches pipelined into it must leave
every batch answered exactly once, with the in-flight ones requeued in
dispatch order and only the batch that was running charged an attempt.
The shard side (:func:`~repro.service.shard.shard_main`) runs in this
process against a :class:`~multiprocessing.connection.Connection` to
check how it treats a closed channel.
"""

import asyncio
import json
import os
import socket
import threading
from multiprocessing.connection import Connection

import pytest

from repro.__main__ import main
from repro.runtime import chaos
from repro.runtime.chaos import ChaosPlan, FaultSpec
from repro.service.protocol import encode_frame, read_frame, shard_for
from repro.service.server import (
    _LENGTH, PredictionServer, _read_message, _send,
)
from repro.service.shard import journal_path, shard_main
from repro.service.state import read_service_journal
from repro.workloads.program import WorkloadConfig, generate_trace

SPEC = "btb:entries=64,assoc=2"


def events(seed, count=32):
    trace = generate_trace(WorkloadConfig(name="t", events=count, seed=seed))
    return list(trace.pcs), list(trace.targets)


async def request(server, message):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(encode_frame(message))
    await writer.drain()
    try:
        return await read_frame(reader)
    finally:
        writer.close()


async def send_batch(server, tenant, bid, seed):
    pcs, targets = events(seed)
    return await request(server, {"op": "events", "tenant": tenant,
                                  "bid": bid, "pcs": pcs,
                                  "targets": targets})


async def pipeline(server, tenants, shard=0):
    """Send one batch per tenant, in order; return once all are in
    flight on ``shard`` (the first must stall it) and the sends."""
    sends = []
    for index, tenant in enumerate(tenants):
        sends.append(asyncio.ensure_future(
            send_batch(server, tenant, 1, index)))
        await asyncio.sleep(0.05)  # fixes the dispatch order
    while len(server._shards[shard].inflight) < len(tenants):
        await asyncio.sleep(0.01)
    return sends


def shard0_tenants(count):
    return [name for name in (f"t{index:02d}" for index in range(40))
            if shard_for(name, 2) == 0][:count]


def trace_events(trace_log, name):
    records = [json.loads(line) for line in trace_log.read_text().splitlines()]
    return [r["attrs"] for r in records if r.get("name") == name]


def test_server_under_load_runs_no_thread_but_the_main_one(tmp_path):
    before = set(threading.enumerate())
    seen = set()

    async def scenario():
        server = PredictionServer(SPEC, tmp_path / "run", shards=2)
        await server.start()

        async def watch():
            while True:
                seen.update(threading.enumerate())
                await asyncio.sleep(0.002)

        async def tenant(index):
            for bid in range(1, 16):
                reply = await send_batch(server, f"t{index}", bid,
                                         100 * index + bid)
                assert reply["status"] == "ok", reply

        watcher = asyncio.ensure_future(watch())
        await asyncio.gather(*(tenant(index) for index in range(6)))
        watcher.cancel()
        server.request_shutdown()
        return await server.serve_until_shutdown(), server

    code, server = asyncio.run(scenario())
    assert code == 0
    assert server.counters["answered"] == 6 * 15
    extra = sorted(thread.name for thread in seen - before)
    assert extra == [], f"threads besides the main one: {extra}"


def test_shard_exit_with_batches_pipelined_answers_each_once(tmp_path):
    """Five tenants' batches are in flight on one shard when it dies."""
    run_dir = tmp_path / "run"
    tenants = shard0_tenants(5)
    first = tenants[0]
    plan = ChaosPlan([
        # The first batch stalls, so the others queue up behind it in
        # the shard's socket; then it SIGKILLs the shard.
        FaultSpec("service.slow_shard", "hang", match=first, times=1,
                  arg=0.5),
        FaultSpec("service.shard_exit", "crash", match=first, times=1),
    ])
    plan.save(tmp_path / "plan.json")
    chaos.install(plan)
    trace_log = tmp_path / "trace.jsonl"

    async def scenario():
        server = PredictionServer(SPEC, run_dir, shards=2,
                                  trace_log=trace_log)
        await server.start()
        replies = await asyncio.gather(*await pipeline(server, tenants))
        server.request_shutdown()
        return await server.serve_until_shutdown(), server, replies

    code, server, replies = asyncio.run(scenario())
    chaos.uninstall()
    assert code == 3  # the respawn is a degradation
    assert [(r["status"], r["tenant"], r["applied"]) for r in replies] \
        == [("ok", tenant, True) for tenant in tenants]
    assert server.counters["accepted"] == server.counters["answered"] == 5
    assert server.counters["requeues"] == 5
    assert server.counters["duplicates"] == 0
    exits = trace_events(trace_log, "shard_exit")
    assert len(exits) == 1 and exits[0]["inflight"] == 5, exits
    # The respawned shard ran the requeued batches in dispatch order.
    _, journalled = read_service_journal(journal_path(run_dir, 0))
    assert [record["tenant"] for record in journalled] == tenants
    assert main(["replay", str(run_dir), "--out",
                 str(tmp_path / "replay")]) == 0
    assert main(["verify", str(run_dir), "--against",
                 str(tmp_path / "replay")]) == 0


def test_only_the_batch_that_crashes_its_shard_is_charged(tmp_path):
    """A batch that kills its shard on every attempt is poisoned alone:
    the four batches pipelined behind it get their attempts back."""
    run_dir = tmp_path / "run"
    tenants = shard0_tenants(5)
    culprit = tenants[0]
    plan = ChaosPlan([
        FaultSpec("service.slow_shard", "hang", match=culprit, times=1,
                  arg=0.5),
        FaultSpec("service.shard_exit", "crash", match=culprit, times=3),
    ])
    plan.save(tmp_path / "plan.json")
    chaos.install(plan)
    trace_log = tmp_path / "trace.jsonl"

    async def scenario():
        server = PredictionServer(SPEC, run_dir, shards=2, max_attempts=3,
                                  trace_log=trace_log)
        await server.start()
        replies = await asyncio.gather(*await pipeline(server, tenants))
        server.request_shutdown()
        return await server.serve_until_shutdown(), server, replies

    code, server, replies = asyncio.run(scenario())
    chaos.uninstall()
    assert code == 3
    assert (replies[0]["status"], replies[0]["reason"]) \
        == ("shed", "poisoned")
    assert [(r["status"], r["tenant"], r["applied"]) for r in replies[1:]] \
        == [("ok", tenant, True) for tenant in tenants[1:]]
    assert server.sheds_by_reason == {"poisoned": 1}
    assert [e["inflight"] for e in trace_events(trace_log, "shard_exit")] \
        == [5, 5, 5]
    # Two attempts requeue all five; the third poisons the culprit and
    # hands the other four back.
    assert server.counters["requeues"] == 5 + 5 + 4
    _, journalled = read_service_journal(journal_path(run_dir, 0))
    assert [record["tenant"] for record in journalled] == tenants[1:]
    assert main(["replay", str(run_dir), "--out",
                 str(tmp_path / "replay")]) == 0
    assert main(["verify", str(run_dir), "--against",
                 str(tmp_path / "replay")]) == 0


def test_drain_timeout_answers_what_the_shard_already_holds(tmp_path):
    """Batches already written to a slow shard when the drain deadline
    passes are run before ``stop``: they are answered as applied, and
    the replies agree with the journal and ``tenants.json``."""
    run_dir = tmp_path / "run"
    plan = ChaosPlan([FaultSpec("service.slow_shard", "hang", match="a",
                                times=1, arg=1.0)])
    plan.save(tmp_path / "plan.json")
    chaos.install(plan)

    async def scenario():
        server = PredictionServer(SPEC, run_dir, shards=1)
        await server.start()
        sends = await pipeline(server, "abcd")
        server._draining = True  # what ``shutdown`` does first
        code = await server._shutdown(drain_timeout=0.1)
        return code, server, await asyncio.gather(*sends)

    code, server, replies = asyncio.run(scenario())
    chaos.uninstall()
    assert code == 0
    assert [(r["status"], r["tenant"], r["applied"]) for r in replies] \
        == [("ok", tenant, True) for tenant in "abcd"]
    assert server.sheds_by_reason == {}
    _, journalled = read_service_journal(journal_path(run_dir, 0))
    assert [record["tenant"] for record in journalled] == list("abcd")
    tenants = json.loads((run_dir / "tenants.json").read_text())["tenants"]
    assert sorted(tenants) == list("abcd")


def test_stats_is_answered_ahead_of_pipelined_batches(tmp_path):
    """A shard answers ``stats`` between two batches, not behind every
    batch already written to its socket."""
    plan = ChaosPlan([FaultSpec("service.slow_shard", "hang", match="a",
                                times=1, arg=1.0)])
    plan.save(tmp_path / "plan.json")
    chaos.install(plan)

    async def scenario():
        server = PredictionServer(SPEC, tmp_path / "run", shards=1)
        await server.start()
        sends = await pipeline(server, "abcd")
        stats = await request(server, {"op": "stats"})
        await asyncio.gather(*sends)
        server.request_shutdown()
        await server.serve_until_shutdown()
        return stats

    stats = asyncio.run(scenario())
    chaos.uninstall()
    assert stats["shards"][0]["available"] is True
    # The shard had run "a", which was running; not "b".."d" too.
    assert stats["shards"][0]["batches"] == 1


def test_server_framing_matches_connection():
    async def scenario():
        ours, theirs = socket.socketpair()
        conn = Connection(theirs.detach())
        reader, writer = await asyncio.open_unix_connection(sock=ours)
        message = ("batch", 7, "a", 1, [1, 2], [3, 4], False)
        _send(writer, message)
        await writer.drain()
        assert conn.recv() == message
        reply = ("ok", 7, {"status": "ok", "shard_seconds": 0.25})
        conn.send(reply)
        assert await _read_message(reader) == reply
        conn.close()
        with pytest.raises(asyncio.IncompleteReadError):
            await _read_message(reader)
        writer.close()
        # Connection's header for a message of 2 GiB or more is a bad
        # frame (ValueError), which makes the server recover the shard.
        large = asyncio.StreamReader()
        large.feed_data(_LENGTH.pack(-1) + bytes(8))
        with pytest.raises(ValueError):
            await _read_message(large)

    asyncio.run(scenario())


def test_hung_shard_is_killed_and_its_queue_requeued(tmp_path):
    plan = ChaosPlan([FaultSpec("service.slow_shard", "hang", match="a",
                                times=1, arg=5.0)])
    plan.save(tmp_path / "plan.json")
    chaos.install(plan)
    trace_log = tmp_path / "trace.jsonl"

    async def scenario():
        server = PredictionServer(SPEC, tmp_path / "run", shards=1,
                                  batch_deadline=0.3, trace_log=trace_log)
        await server.start()
        replies = await asyncio.gather(*(
            send_batch(server, tenant, 1, seed)
            for seed, tenant in enumerate("abc")))
        server.request_shutdown()
        return await server.serve_until_shutdown(), replies

    code, replies = asyncio.run(scenario())
    chaos.uninstall()
    assert code == 3
    assert sorted((r["status"], r["tenant"]) for r in replies) \
        == [("ok", "a"), ("ok", "b"), ("ok", "c")]
    records = [json.loads(line) for line in trace_log.read_text().splitlines()]
    exits = [r["attrs"] for r in records if r.get("name") == "shard_exit"]
    assert exits == [{"shard": 0, "reason": "hung > 0.3s", "inflight": 3}]


@pytest.mark.parametrize("close", ["eof", "broken_pipe"])
def test_shard_with_a_closed_channel_exits_quietly(tmp_path, close):
    ours, theirs = socket.socketpair()
    server_end = Connection(ours.detach())
    pcs, targets = events(1)
    server_end.send(("batch", 1, "a", 1, pcs, targets, False))
    if close == "eof":
        # The shard reads EOF right behind the batch: the server is
        # gone, so the shard drops the batch it had queued.
        socket.socket(fileno=os.dup(server_end.fileno())).shutdown(
            socket.SHUT_WR)
    else:
        server_end.close()  # the shard's first write fails
    # Returns, rather than raising SystemExit(1) from the error path.
    shard_main(0, SPEC, str(tmp_path), theirs, None, 8, os.getppid())
    if close == "eof":
        kinds = []
        while server_end.poll(0):
            try:
                kinds.append(server_end.recv()[0])
            except EOFError:
                break
        server_end.close()
        assert kinds == ["event"]  # shard_ready; no shard_error
