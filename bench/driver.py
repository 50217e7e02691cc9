"""Load driver for the prediction server: one asyncio thread, pinned connections.

Every batch is a pre-encoded frame bound to one tenant, and every tenant
is pinned to one connection (``tenant index % connections``).  The
server answers one request at a time per connection, in order, so a
tenant's batch ids reach it strictly increasing and each reply belongs
to the oldest unanswered frame on its connection.

* :func:`open_loop` sends each batch when it is due, whatever the
  server is doing, and times it from its due time: a stall delays every
  batch queued behind it, and the latencies show it.  How late the
  generator itself ran is returned as ``lag``.
* :func:`closed_loop` sends a connection's next batch only after the
  previous reply, and times each batch from its send.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.service.protocol import read_frame


@dataclass
class Batch:
    tenant: str
    bid: int
    events: int
    frame: bytes
    conn: int
    #: seconds after the phase starts (open loop only)
    due: float = 0.0


@dataclass
class Outcome:
    batch: Batch
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    reply: Optional[dict] = None
    error: Optional[str] = None
    future: Optional[asyncio.Future] = field(default=None, repr=False)

    @property
    def latency(self) -> float:
        """Seconds from due (open loop) or send (closed loop) to reply."""
        return self.done - self.due


def pin(tenant_index: int, connections: int) -> int:
    """The connection a tenant's batches always travel on."""
    return tenant_index % connections


class _Connection:
    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Deque[Outcome] = deque()
        self.task: Optional[asyncio.Task] = None

    async def receive(self) -> None:
        """Match each reply to the oldest unanswered frame."""
        error = "connection closed"
        try:
            while True:
                reply = await read_frame(self.reader)
                if reply is None:
                    break
                outcome = self.pending.popleft()
                outcome.done = time.perf_counter()
                outcome.reply = reply
                outcome.future.set_result(None)
        except Exception as exc:  # any transport failure ends the connection
            error = f"{type(exc).__name__}: {exc}"
        while self.pending:
            outcome = self.pending.popleft()
            outcome.done = time.perf_counter()
            outcome.error = error
            outcome.future.set_result(None)

    def send(self, outcome: Outcome) -> None:
        outcome.future = asyncio.get_running_loop().create_future()
        outcome.sent = time.perf_counter()
        if self.task.done():  # the connection already failed
            outcome.done = outcome.sent
            outcome.error = "connection closed"
            outcome.future.set_result(None)
            return
        self.pending.append(outcome)
        self.writer.write(outcome.batch.frame)


async def _connect(host: str, port: int, count: int) -> List[_Connection]:
    connections = []
    for _ in range(count):
        reader, writer = await asyncio.open_connection(host, port)
        connection = _Connection(reader, writer)
        connection.task = asyncio.ensure_future(connection.receive())
        connections.append(connection)
    return connections


async def _close(connections: Sequence[_Connection]) -> None:
    for connection in connections:
        connection.writer.close()
    for connection in connections:
        try:
            await connection.writer.wait_closed()
        except OSError:
            pass
        await connection.task


async def open_loop(host: str, port: int, batches: Sequence[Batch],
                    connections: int, timeout: float = 120.0) -> List[Outcome]:
    """Send every batch at its due time; latency counts from the due time."""
    links = await _connect(host, port, connections)
    outcomes = [Outcome(batch) for batch in batches]
    try:
        start = time.perf_counter()
        for outcome in outcomes:
            outcome.due = start + outcome.batch.due
            # Never early: a late send is the generator's lag, which the
            # latency from the due time includes and lag() reports.
            wait = outcome.due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            links[outcome.batch.conn].send(outcome)
        await asyncio.wait_for(
            asyncio.gather(*(outcome.future for outcome in outcomes)),
            timeout)
    finally:
        await _close(links)
    return outcomes


async def closed_loop(host: str, port: int, batches: Sequence[Batch],
                      connections: int, timeout: float = 120.0) -> List[Outcome]:
    """Each connection sends its next batch after the previous reply."""
    links = await _connect(host, port, connections)
    outcomes = [Outcome(batch) for batch in batches]
    queues: Dict[int, List[Outcome]] = {}
    for outcome in outcomes:
        queues.setdefault(outcome.batch.conn, []).append(outcome)

    async def pump(connection: _Connection, queue: List[Outcome]) -> None:
        for outcome in queue:
            connection.send(outcome)
            outcome.due = outcome.sent
            await outcome.future
            if outcome.error:
                return

    try:
        await asyncio.wait_for(
            asyncio.gather(*(pump(links[conn], queue)
                             for conn, queue in queues.items())), timeout)
    finally:
        await _close(links)
    return outcomes


def lag(outcomes: Sequence[Outcome]) -> List[float]:
    """How late the generator sent each batch, in seconds."""
    return [outcome.sent - outcome.due for outcome in outcomes]


def failures(outcomes: Sequence[Outcome]) -> List[str]:
    """One line per batch that was shed, errored, lost, or miscounted.

    Every tenant's batches are applied in order, so an ``ok`` reply must
    carry the tenant's cumulative event count up to and including it.
    """
    expected: Dict[str, int] = {}
    problems = []
    for outcome in sorted(outcomes, key=lambda o: (o.batch.tenant, o.batch.bid)):
        batch = outcome.batch
        expected[batch.tenant] = expected.get(batch.tenant, 0) + batch.events
        where = f"{batch.tenant}#{batch.bid}"
        reply = outcome.reply
        if reply is None:
            problems.append(f"{where}: {outcome.error or 'never answered'}")
        elif reply.get("status") != "ok":
            problems.append(f"{where}: {reply.get('status')} "
                            f"({reply.get('reason')})")
        elif reply.get("events") != expected[batch.tenant]:
            problems.append(f"{where}: server counts {reply.get('events')} "
                            f"events, driver sent {expected[batch.tenant]}")
    return problems
