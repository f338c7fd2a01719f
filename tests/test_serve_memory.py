"""What the serve daemon holds is a function of who is connected now.

The waves run with the cycle collector *off*: whatever a finished
session or group leaves must die by refcount, and whatever stays must be
one of the two things DESIGN.md ("serve: what a session leaves behind")
allows -- a bounded table of done-records and, for one lease, a
departed client's incarnation floor.
"""

from __future__ import annotations

import asyncio
import gc
import time
import tracemalloc
import weakref

import pytest

from repro.net.frames import Message, encode_frame
from repro.serve import daemon as daemon_mod
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.daemon import DONE_RETAINED, ServeConfig, ServeDaemon, _ClientConn
from repro.serve.groups import BarrierGroup
from repro.serve.loadgen import LoadConfig, run_load
from repro.serve.protocol import GOODBYE, HELLO, SERVE_VERSION, SERVER_ID

#: Retained bytes one 4-group x 8-client x 10-barrier wave may add to
#: the process (after a collect, warm-up excluded).  Measured 7.8 KB --
#: 32 floors with their lease stamps and 4 done-records, all of which a
#: longer run stops adding -- against 42.9 KB before groups were reaped.
WAVE_CEILING_KB = 12.0


@pytest.fixture
def no_gc():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        del gc.garbage[:]
        gc.enable()


def _unreachable() -> list[str]:
    """Type names of everything a full collection finds unreachable."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    names = [f"{type(o).__module__}.{type(o).__qualname__}" for o in gc.garbage]
    gc.set_debug(0)
    del gc.garbage[:]
    return names


def _ours(names: list[str]) -> list[str]:
    """Our objects, and the asyncio stream objects only we could have
    pinned (asyncio's socket transports are cyclic by themselves)."""
    return [n for n in names if n.startswith(("repro.", "asyncio.streams"))]


def _wave(index: int, unix_path: str, **shape) -> LoadConfig:
    shape = {"groups": 2, "clients_per_group": 4, "barriers": 10, **shape}
    members = shape["groups"] * shape["clients_per_group"]
    return LoadConfig(
        leavers=0, crashers=0, slow=0, byzantine=0, probes=0, seed=3,
        group_prefix=f"w{index}-", client_base=1 + index * members,
        unix_path=unix_path, **shape,
    )


async def _run_watched(daemon: ServeDaemon, config: LoadConfig) -> dict:
    """Run one wave; weak references to every connection and live group
    the daemon held while it ran."""
    refs: dict[int, weakref.ref] = {}
    load = asyncio.ensure_future(run_load(config))
    while not load.done():
        held = (*daemon.clients.values(), *daemon.groups.values())
        refs.update(
            (id(obj), weakref.ref(obj))
            for obj in held
            if isinstance(obj, (_ClientConn, BarrierGroup))
        )
        del held
        await asyncio.sleep(0.001)
    result = await load
    assert not result.errors, result.errors
    return refs


def test_waves_leave_floors_and_records_and_nothing_for_the_collector(
    tmp_path, no_gc
):
    waves, groups, members = 12, 2, 8
    path = str(tmp_path / "d.sock")

    async def go():
        daemon = await ServeDaemon(ServeConfig(unix_path=path)).start()
        at_boot = daemon.gauges()
        assert set(at_boot.values()) == {0}
        for index in range(waves):
            refs = await _run_watched(daemon, _wave(index, path))
            assert len(refs) >= members + groups
            alive = [r() for r in refs.values() if r() is not None]
            assert alive == [], f"wave {index}: pinned without a collect"
            done = (index + 1) * groups
            assert daemon.gauges() == {
                **at_boot,
                "groups_retained": min(done, DONE_RETAINED),
                "dedup_floors": (index + 1) * members,  # until their lease
            }
            assert not daemon._seq and not daemon._strikes
        assert _ours(_unreachable()) == []
        await daemon.shutdown()

    asyncio.run(go())


def test_retained_growth_per_wave_is_under_the_ceiling(tmp_path, no_gc):
    path = str(tmp_path / "d.sock")
    shape = dict(groups=4, clients_per_group=8, barriers=10)
    measured = 6

    async def go():
        daemon = await ServeDaemon(ServeConfig(unix_path=path)).start()
        # Traced from before the warm-up, so what the last wave has not
        # let go of yet cancels against what the warm-up had not.
        tracemalloc.start()
        try:
            await run_load(_wave(0, path, **shape))
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            for index in range(1, measured + 1):
                result = await run_load(_wave(index, path, **shape))
                assert not result.errors
                del result
            gc.collect()  # asyncio's own transport cycles
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        await daemon.shutdown()
        return (after - before) / 1024 / measured

    per_wave_kb = asyncio.run(go())
    assert per_wave_kb < WAVE_CEILING_KB, f"{per_wave_kb:.1f} KB per wave"


def test_lease_clock_expires_what_ended_sessions_left(tmp_path):
    """Floors, a never-returning crasher's state, a condemnation and an
    idle seat-less connection all go once ``lease_s`` has passed."""
    path = str(tmp_path / "d.sock")
    lease = 0.3

    def client(cid: int) -> ServeClient:
        return ServeClient(cid, unix_path=path, timeout_s=10.0)

    async def go():
        daemon = await ServeDaemon(
            ServeConfig(unix_path=path, lease_s=lease)
        ).start()
        clean, crasher, byz, idle = (client(cid) for cid in (1, 2, 3, 4))
        for c in (clean, crasher, byz, idle):
            await c.connect()
        await clean.create("g", capacity=3, barriers=50)
        for c in (clean, crasher, byz):
            await c.join("g")
        for i in range(3):
            byz.send_raw("arrive", {"g": "g", "round": 900 + i, "rid": i})
        assert await byz.wait_ejected("g", timeout=5.0)
        await byz.abort()
        await crasher.crash()  # seated: its state must survive for now...
        await asyncio.sleep(0.01)
        assert daemon.dedup.tracked == 3 and 2 in daemon._seq
        await clean.close()    # ...while a clean bye with a seat keeps it too
        held = daemon.gauges()
        assert held["condemned"] == 1 and held["clients"] == 1  # idle
        await asyncio.sleep(lease * 2.5)
        assert daemon.gauges() == {
            "groups_active": 1,      # the abandoned group itself stays live
            "groups_retained": 0,
            "clients": 0,
            "dedup_tracked": 0,
            "dedup_floors": 0,
            "condemned": 0,
        }
        assert not daemon._gone and not daemon._seq and not daemon._strikes
        assert daemon.groups["g"].members == {}
        assert not idle.connected  # hung up on, with a reason
        assert daemon.registry["serve_rejects_total"].value(reason="idle") == 1
        await idle.abort()
        await daemon.shutdown()

    asyncio.run(go())


def test_done_records_are_bounded_and_evicted_oldest_first(tmp_path, monkeypatch):
    """``max_groups`` counts live groups; the newest ``DONE_RETAINED``
    finished ones answer as before, older names are unknown again, and
    ``/metrics`` drops their series with them."""
    monkeypatch.setattr(daemon_mod, "DONE_RETAINED", 3)
    path = str(tmp_path / "d.sock")

    async def go():
        daemon = await ServeDaemon(
            ServeConfig(unix_path=path, max_groups=1)
        ).start()
        c = ServeClient(1, unix_path=path, timeout_s=10.0)
        await c.connect()
        for i in range(5):  # one live group at a time: never server-full
            await c.create(f"g{i}", capacity=1, barriers=1, idempotent=False)
            await c.join(f"g{i}")
            assert await c.arrive(f"g{i}", 0) == "released"
        assert sorted(daemon.groups) == ["g2", "g3", "g4"]
        assert sorted(daemon.outcomes()) == ["g2", "g3", "g4"]
        assert daemon.gauges()["groups_retained"] == 3
        assert daemon.health()["groups"] == 3
        series = [
            line for line in daemon.metrics_text().splitlines()
            if line.startswith("serve_barriers_completed_total{")
        ]
        assert len(series) == 3 and not any('"g1"' in s for s in series)
        # At the boundary: g2 is the oldest record kept, g1 is gone.
        with pytest.raises(ServeClientError) as err:
            await c.join("g2")
        assert err.value.reason == "group-done"
        with pytest.raises(ServeClientError) as err:
            await c.join("g1")
        assert err.value.reason == "no-such-group"
        c._released.clear()  # as after a crash: resend the last arrive
        assert await c.arrive("g2", 0) == "released"
        # An evicted name is free again.
        await c.create("g1", capacity=1, barriers=1, idempotent=False)
        await c.close()
        await daemon.shutdown()

    asyncio.run(go())


def test_departed_clients_replayed_hello_is_closed_as_a_duplicate(tmp_path):
    path = str(tmp_path / "d.sock")

    async def replay(incarnation: int) -> bytes:
        reader, writer = await asyncio.open_unix_connection(path)
        hello = Message(
            kind=HELLO, src=7, dst=SERVER_ID, seq=0, incarnation=incarnation,
            payload={"v": SERVE_VERSION, "client": 7},
        )
        writer.write(encode_frame(hello.to_bytes()))
        try:
            return await asyncio.wait_for(reader.read(4096), timeout=5.0)
        finally:
            writer.close()

    async def go():
        daemon = await ServeDaemon(ServeConfig(unix_path=path)).start()
        session = ServeClient(7, unix_path=path, timeout_s=10.0)
        await session.connect()
        await session.close()
        assert daemon.dedup.tracked == 0 and daemon.dedup.floors == 1
        filtered = daemon.stats["dup_filtered"]
        assert await replay(0) == b""  # hung up on without a word
        assert daemon.stats["dup_filtered"] == filtered + 1
        assert 7 not in daemon.clients
        assert b'"welcome"' in await replay(1)  # the next life is welcome
        await daemon.shutdown()

    asyncio.run(go())


def test_clean_close_completes_the_goodbye_handshake(tmp_path):
    path = str(tmp_path / "d.sock")

    async def go():
        daemon = await ServeDaemon(ServeConfig(unix_path=path)).start()
        client = ServeClient(1, unix_path=path, timeout_s=10.0)
        await client.connect()
        kinds: list[str] = []
        dispatch = client._dispatch
        client._dispatch = lambda msg: (kinds.append(msg.kind), dispatch(msg))
        started = time.monotonic()
        await client.close()
        assert kinds[-1] == GOODBYE
        assert time.monotonic() - started < client.resend_s  # no tick waited out
        assert not daemon.clients
        await daemon.shutdown()

    asyncio.run(go())


def test_reset_connection_leaves_the_client_nothing_to_collect(no_gc):
    """A peer that resets the pipe parks its error in the client's
    ``StreamReader``; the read loop must not let it pin itself."""

    class Rude(asyncio.Protocol):
        def connection_made(self, transport):
            transport.pause_reading()  # unread bytes at close -> RST
            asyncio.get_running_loop().call_later(0.02, transport.abort)

    async def go():
        loop = asyncio.get_running_loop()
        server = await loop.create_server(Rude, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        client = ServeClient(1, port=port, timeout_s=0.2)
        with pytest.raises(Exception):
            await client.connect()
        assert not client.connected
        await client.abort()
        server.close()

    asyncio.run(go())
    assert _ours(_unreachable()) == []
