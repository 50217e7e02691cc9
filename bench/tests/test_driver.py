import asyncio

from driver import Batch, Outcome, closed_loop, failures, lag, open_loop, pin
from repro.service.protocol import encode_frame, read_frame, write_frame


class FakeServer:
    """Answers events frames in order per connection, like the real one.

    Keeps each tenant's cumulative event count, records which connection
    every (tenant, bid) arrived on, and can stall before answering one
    chosen batch.
    """

    def __init__(self, stall_on=None, stall=0.0):
        self.stall_on = stall_on
        self.stall = stall
        self.events = {}
        self.arrivals = []
        self.connections = 0

    async def handle(self, reader, writer):
        conn = self.connections
        self.connections += 1
        while True:
            message = await read_frame(reader)
            if message is None:
                break
            key = (message["tenant"], message["bid"])
            self.arrivals.append((conn, *key))
            if key == self.stall_on:
                await asyncio.sleep(self.stall)
            total = self.events.get(key[0], 0) + len(message["pcs"])
            self.events[key[0]] = total
            await write_frame(writer, {"status": "ok", "events": total,
                                       "shard_seconds": 0.0})
        writer.close()

    async def run(self, drive, *args):
        server = await asyncio.start_server(self.handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            return await drive("127.0.0.1", port, *args)
        finally:
            server.close()
            await server.wait_closed()


def batch(tenant_index, bid, conn, due=0.0, events=4):
    tenant = f"t{tenant_index:02d}"
    frame = encode_frame({"op": "events", "tenant": tenant, "bid": bid,
                          "priority": 1, "pcs": [1] * events,
                          "targets": [2] * events})
    return Batch(tenant, bid, events, frame, conn, due=due)


def one_tenant(count, interval):
    return [batch(0, bid, 0, due=(bid - 1) * interval)
            for bid in range(1, count + 1)]


def test_open_loop_times_from_due_time_through_a_stall():
    stall, interval = 0.3, 0.02
    fake = FakeServer(stall_on=("t00", 1), stall=stall)
    outcomes = asyncio.run(fake.run(open_loop, one_tenant(8, interval), 1))
    assert failures(outcomes) == []
    # The generator kept its schedule while the server stalled ...
    assert max(lag(outcomes)) < 0.1
    # ... so every batch queued behind the stall waited for it, and its
    # latency, counted from when it was due, says so.
    for outcome in outcomes:
        due_after_start = outcome.batch.due
        assert outcome.latency >= stall - due_after_start - 0.01


def test_closed_loop_hides_the_stall_from_later_batches():
    stall, interval = 0.3, 0.02
    fake = FakeServer(stall_on=("t00", 1), stall=stall)
    outcomes = asyncio.run(fake.run(closed_loop, one_tenant(8, interval), 1))
    assert failures(outcomes) == []
    assert outcomes[0].latency >= stall
    assert all(outcome.latency < stall / 2 for outcome in outcomes[1:])


def test_tenants_pinned_to_one_connection_keep_bids_increasing():
    batches = [batch(index, bid, pin(index, 2))
               for bid in range(1, 6) for index in range(6)]
    fake = FakeServer()
    outcomes = asyncio.run(fake.run(closed_loop, batches, 2))
    assert failures(outcomes) == []
    seen = {}
    for conn, tenant, bid in fake.arrivals:
        links, bids = seen.setdefault(tenant, (set(), []))
        links.add(conn)
        bids.append(bid)
    assert len(seen) == 6
    for links, bids in seen.values():
        assert len(links) == 1
        assert bids == sorted(bids) == list(range(1, 6))


def test_failures_count_sheds_errors_lost_and_miscounted_batches():
    def outcome(tenant_index, bid, reply=None, error=None):
        result = Outcome(batch(tenant_index, bid, 0))
        result.reply, result.error = reply, error
        return result

    outcomes = [
        outcome(0, 1, {"status": "ok", "events": 4}),
        outcome(0, 2, {"status": "ok", "events": 8}),
        outcome(1, 1, {"status": "shed", "reason": "overload"}),
        outcome(2, 1, {"status": "error", "reason": "malformed"}),
        outcome(3, 1, error="connection closed"),
        outcome(4, 1, {"status": "ok", "events": 5}),
    ]
    problems = failures(outcomes)
    assert len(problems) == 4
    assert any("shed" in line for line in problems)
    assert any("error" in line for line in problems)
    assert any("connection closed" in line for line in problems)
    assert any("server counts 5" in line for line in problems)
