"""What a single-loop run costs in asyncio objects, and what it leaves.

The frame path of ``repro.net`` pays per message, so anything it
allocates per frame or keeps per round shows up in latency and RSS long
before a digest moves.  Five contracts, the first four with the
collector off (the point is what dies by refcount):

* a clean run's helper tasks are O(unacknowledged messages): senders
  retire on their ack (``senders_peak`` small, ``senders_open`` zero);
* a finished run leaves no open socket and no transport object behind;
* :class:`TcpTransport` does itself what streams used to do for it:
  backpressure, one write per link per loop turn, reassembly, quarantine;
* resends still fire on ``Timing``'s schedule;
* a run keeps its protocol events, not its message chatter, unless
  ``trace_dir`` asks for the chatter to be written.
"""

from __future__ import annotations

import asyncio
import gc
import socket
import struct
import tracemalloc
from dataclasses import replace

import pytest

from repro.net import NetConfig, run_sync
from repro.net.frames import MAX_FRAME, Message, encode_frame
from repro.net.node import NetNode, Timing
from repro.net.transport import (
    Signal,
    TcpTransport,
    Transport,
    _expire,
    _Link,
    create_tcp_transports,
    have_af_unix,
)
from repro.obs.events import PROTOCOL_KINDS

pytestmark = pytest.mark.skipif(not have_af_unix(), reason="needs AF_UNIX")

NODES, BARRIERS = 8, 40
CLEAN = NetConfig(nodes=NODES, barriers=BARRIERS, transport="unix", seed=3)

#: Most ``send_until`` calls one node may have alive at once in a clean
#: run: one arrive and one release per child (3 at arity 2), over a round
#: of overlap (measured 1-3, 2 on CPython 3.10-3.12; it was ~43 while
#: senders slept out their interval).
SENDERS_PER_NODE = 6

#: gc-tracked objects one clean 8 x 40 unix run may leave for the
#: collector (measured 140 on CPython 3.11/3.12 and 168 on 3.10, all of
#: them CPython's: each of the 28 ``_SelectorSocketTransport`` keeps
#: itself alive through its own ``_read_ready_cb``, with its closed
#: socket and extra-info dict; the stream-based transport left 335).
LEFTOVER_CEILING = 180


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# (a) helper tasks are O(unacknowledged messages)
# ----------------------------------------------------------------------
def test_clean_run_retires_senders_on_their_ack(no_collector):
    result = run_sync(CLEAN)
    assert result.ok and result.completed == BARRIERS
    stats = result.node_stats.values()
    assert sum(s["sent"] - s["hb_sent"] for s in stats) == 3 * (NODES - 1) * BARRIERS
    assert sum(s["resends"] for s in stats) == 0
    assert all(1 <= s["senders_peak"] <= SENDERS_PER_NODE for s in stats), [
        s["senders_peak"] for s in stats
    ]
    assert all(s["senders_open"] == 0 for s in stats)
    assert "senders_peak=" in result.render() and "senders_open=0" in result.render()


# ----------------------------------------------------------------------
# (b) a finished run leaves nothing of ours behind
# ----------------------------------------------------------------------
def _open_sockets() -> set[int]:
    return {
        id(o)
        for o in gc.get_objects()
        if isinstance(o, socket.socket) and o.fileno() != -1
    }


def test_finished_runs_leave_no_socket_and_no_transport(no_collector):
    run_sync(CLEAN)  # imports, caches, first-use allocations
    gc.collect()
    sockets_before = _open_sockets()
    for _ in range(5):
        before = len(gc.get_objects())
        result = run_sync(CLEAN)
        assert result.ok
        del result
        live = gc.get_objects()
        assert _open_sockets() <= sockets_before
        ours = [o for o in live if isinstance(o, (_Link, Transport, Signal, NetNode))]
        assert not ours, ours[:5]
        assert len(live) - before <= LEFTOVER_CEILING
        del live, ours


# ----------------------------------------------------------------------
# (c) what streams gave for free
# ----------------------------------------------------------------------
def _pair(tmp_path, body):
    """Run ``body(a, b)`` over two started unix transports."""

    async def main() -> None:
        a, b = await create_tcp_transports(2, unix_dir=str(tmp_path))
        try:
            await body(a, b)
        finally:
            await a.close()
            await b.close()
        assert not a._links and not b._links
        assert list(tmp_path.iterdir()) == []

    asyncio.run(main())


def test_send_waits_while_the_peer_does_not_read(tmp_path):
    async def body(a: TcpTransport, b: TcpTransport) -> None:
        await a.send(1, b"up")
        assert await b.recv(timeout=2.0) == (0, b"up")
        (accepted,) = b._links
        accepted.wire.pause_reading()
        chunk = bytes(32 * 1024)
        sent = 0
        while a._dialed[1].blocked is None:
            await a.send(1, chunk)  # never suspends while not blocked
            sent += 1
            assert sent < 10_000, "send buffers without bound"
        buffered = a._dialed[1].wire.get_write_buffer_size() + len(a._dialed[1].outgoing)
        assert buffered < 1 << 20
        waiting = asyncio.ensure_future(a.send(1, b"last"))
        await asyncio.sleep(0.05)
        assert not waiting.done()
        accepted.wire.resume_reading()
        await asyncio.wait_for(waiting, 5.0)
        for _ in range(sent):
            src, got = await b.recv(timeout=5.0)
            assert (src, len(got)) == (0, len(chunk))
        assert await b.recv(timeout=5.0) == (0, b"last")

    _pair(tmp_path, body)


def test_a_burst_in_one_turn_is_one_write_per_link(tmp_path):
    async def body(a: TcpTransport, b: TcpTransport) -> None:
        await a.send(1, b"up")
        assert await b.recv(timeout=2.0) == (0, b"up")
        wire = a._dialed[1].wire
        writes: list[int] = []
        real_write = wire.write
        wire.write = lambda data: (writes.append(len(data)), real_write(data))
        bodies = [b"frame-%d" % i for i in range(25)]
        for item in bodies:
            await a.send(1, item)
        assert writes == []  # nothing leaves before the turn ends
        received = [await b.recv(timeout=2.0) for _ in bodies]
        assert received == [(0, item) for item in bodies]
        assert writes == [sum(4 + len(item) for item in bodies)]

    _pair(tmp_path, body)


class _Wire:
    closed = False

    def close(self) -> None:
        self.closed = True


def _accepted(owner: TcpTransport) -> tuple[_Link, _Wire]:
    link, wire = _Link(owner), _Wire()
    link.connection_made(wire)
    return link, wire


def test_frames_split_across_reads_reassemble():
    async def main() -> None:
        owner = TcpTransport(0, 4)
        link, wire = _accepted(owner)
        bodies = [b"", b"a", b"b" * 300, b"\x00\x01\x02"]
        hello = b'{"k": "__hello__", "node": 3}'
        stream = b"".join(encode_frame(x) for x in [hello, *bodies])
        for i in range(0, len(stream), 3):
            link.data_received(stream[i : i + 3])
        assert [await owner.recv(0.1) for _ in bodies] == [(3, x) for x in bodies]
        assert await owner.recv(0.01) is None
        assert not wire.closed and owner.quarantined == 0

    asyncio.run(main())


@pytest.mark.parametrize(
    "garbage",
    [
        encode_frame(b"not json"),
        encode_frame(b'{"k": "__hello__", "node": 99}'),
        encode_frame(b'{"k": "arrive", "node": 1}'),
        struct.pack(">I", MAX_FRAME + 1),
    ],
    ids=["hello-not-json", "hello-node-out-of-range", "hello-wrong-kind", "oversized"],
)
def test_a_garbage_connection_is_quarantined_and_closed(tmp_path, garbage):
    async def body(a: TcpTransport, b: TcpTransport) -> None:
        reader, writer = await asyncio.open_unix_connection(b.unix_path)
        writer.write(garbage + encode_frame(b"follow-up"))
        assert await asyncio.wait_for(reader.read(), 5.0) == b""  # hung up on
        writer.close()
        assert b.quarantined == 1 and not b._links
        assert await b.recv(timeout=0.01) is None
        # An honest peer is unaffected.
        await a.send(1, b"fine")
        assert await b.recv(timeout=2.0) == (0, b"fine")

    _pair(tmp_path, body)


def test_a_dead_peer_is_a_dropped_frame_and_a_redial(tmp_path):
    async def body(a: TcpTransport, b: TcpTransport) -> None:
        await a.send(1, b"one")
        assert await b.recv(timeout=2.0) == (0, b"one")
        (accepted,) = b._links
        accepted.wire.abort()
        while 1 in a._dialed:
            await asyncio.sleep(0.01)
        await a.send(1, b"two")  # dials again
        assert await b.recv(timeout=2.0) == (0, b"two")
        a.set_addresses({1: f"unix://{tmp_path}/nobody.sock"})
        a._dialed.pop(1).wire.abort()
        await a.send(1, b"lost")  # refused: dropped, not raised
        assert 1 not in a._dialed

    _pair(tmp_path, body)


# ----------------------------------------------------------------------
# (d) resend schedule and retirement
# ----------------------------------------------------------------------
class _Recorder(Transport):
    """Keeps what is sent; delivers nothing."""

    def __init__(self) -> None:
        super().__init__(0, 2)
        self.kinds: list[str] = []

    async def send(self, dst: int, body: bytes) -> None:
        self.kinds.append(Message.from_bytes(body).kind)


def test_resends_fire_on_the_backoff_schedule_capped():
    timing = Timing(resend=0.04, backoff=2.0, resend_max=0.1)
    asked: list[float] = []

    async def main() -> None:
        loop = asyncio.get_running_loop()
        real_call_later = loop.call_later

        def call_later(delay, callback, *args):
            if callback is _expire:
                asked.append(delay)
                delay /= 20  # same schedule, a twentieth of the wait
            return real_call_later(delay, callback, *args)

        loop.call_later = call_later
        transport = _Recorder()
        node = NetNode(0, 2, transport, timing=timing)
        sender = node.spawn(node.send_until(1, "arrive", {"round": 0}, lambda: False))
        while len(transport.kinds) < 6:
            await asyncio.sleep(0.001)
        await node.stop()
        assert sender.cancelled() and not node._unacked
        assert node.stats["resends"] == len(transport.kinds) - 1

    asyncio.run(main())
    assert asked[:5] == [0.04, 0.08, 0.1, 0.1, 0.1]


def test_a_sender_ends_within_one_turn_of_its_ack():
    async def main() -> None:
        transport = _Recorder()
        node = NetNode(0, 2, transport, timing=Timing(resend=30.0))
        acked = []
        sender = node.spawn(node.send_until(1, "arrive", {"round": 0}, lambda: bool(acked)))
        other = node.spawn(node.send_until(1, "release", {"round": 0}, lambda: False))
        await asyncio.sleep(0.01)
        assert transport.kinds == ["arrive", "release"]
        assert node.stats["senders_peak"] == 2 and node.senders_open() == 2
        node._notify()  # a frame that acks nothing wakes nobody
        await asyncio.sleep(0)
        assert not sender.done() and not other.done()
        acked.append(True)
        node._notify()
        await asyncio.sleep(0)
        assert sender.done() and not other.done()
        assert node.senders_open() == 1 and len(node._unacked) == 1
        await node.stop()
        assert transport.kinds == ["arrive", "release"] and node.stats["resends"] == 0

    asyncio.run(main())


def test_timed_waits_create_no_task():
    """``recv`` and ``wait_for`` time out on a timer handle."""

    async def main() -> None:
        loop = asyncio.get_running_loop()
        made: list[object] = []
        loop.set_task_factory(
            lambda loop, coro, **kw: made.append(coro) or asyncio.Task(coro, loop=loop, **kw)
        )
        transport = _Recorder()
        node = NetNode(0, 2, transport)
        assert await transport.recv(timeout=0.01) is None
        transport.deliver(1, b"x")
        assert await transport.recv(timeout=0.01) == (1, b"x")
        assert await node.wait_for(lambda: False, poll=0.005, timeout=0.02) is False
        loop.call_later(0.01, node._wake.set)
        flag = []
        loop.call_later(0.005, flag.append, 1)
        assert await node.wait_for(lambda: bool(flag), poll=5.0, timeout=5.0) is True
        assert made == []

    asyncio.run(main())


# ----------------------------------------------------------------------
# (e) a run keeps its protocol events, not its message chatter
# ----------------------------------------------------------------------
#: tracemalloc peak of one warm clean 8 x 40 unix run: 904 KiB on
#: CPython 3.11 while the nodes kept all 1 760 events and merged them,
#: 472 KiB keeping and merging the 80 protocol events.
UNIT_PEAK_CEILING = 704 * 1024


@pytest.mark.parametrize(
    "config",
    [CLEAN, replace(CLEAN, shards=2, transport="mem")],
    ids=["single-loop", "sharded"],
)
def test_a_run_merges_its_protocol_events_only(config):
    result = run_sync(config)
    assert result.ok and result.completed == BARRIERS
    # Node 0 narrates one start and one end per barrier; nothing else
    # happens on a clean run that the paper's guarantees speak of.
    assert len(result.merged_events) == 2 * BARRIERS
    assert {e.kind for e in result.merged_events} <= PROTOCOL_KINDS
    assert result.end_time == result.merged_events[-1].time


def test_one_clean_run_peaks_under_the_ceiling():
    run_sync(CLEAN)  # imports, caches, first-use allocations
    tracemalloc.start()
    try:
        result = run_sync(CLEAN)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok
    assert peak <= UNIT_PEAK_CEILING, f"{peak / 1024:.0f} KiB"
