"""The barrier service: admission control, group lifecycle, defense,
backpressure isolation, and the observability endpoints.

Every test boots a real :class:`~repro.serve.daemon.ServeDaemon` on an
ephemeral port and drives it with :class:`~repro.serve.client
.ServeClient` sessions over real sockets -- the same path production
clients use.
"""

from __future__ import annotations

import asyncio
import json
import socket
import urllib.request

import pytest

from repro.errors import ObsPortInUseError
from repro.net.frames import Message, encode_frame
from repro.obs.http import ObsHttpServer
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.groups import BarrierGroup, DoneGroup
from repro.serve.protocol import ARRIVE, SERVER_ID


def run(coro):
    return asyncio.run(coro)


async def boot(**overrides) -> ServeDaemon:
    config = ServeConfig(port=0, **overrides)
    return await ServeDaemon(config).start()


def daemon_port(daemon: ServeDaemon) -> int:
    return int(daemon.address.rsplit(":", 1)[1])


def client_for(daemon: ServeDaemon, cid: int, **kw) -> ServeClient:
    return ServeClient(cid, port=daemon_port(daemon), timeout_s=15.0, **kw)


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

def test_group_full_rejection_frame():
    """The member past capacity gets a reject frame with the
    ``group-full`` reason -- a structured answer, not a hang."""

    async def go():
        daemon = await boot()
        clients = [client_for(daemon, cid) for cid in (1, 2, 3)]
        try:
            for c in clients:
                await c.connect()
            await clients[0].create("g", capacity=2, barriers=3)
            await clients[0].join("g")
            await clients[1].join("g")
            with pytest.raises(ServeClientError) as err:
                await clients[2].join("g")
            assert err.value.reason == "group-full"
            outcome = daemon.groups["g"].outcome()
            assert outcome["rejected"] == [(3, "group-full")]
            assert sorted(outcome["ever_members"]) == [1, 2]
        finally:
            for c in clients:
                await c.close()
            await daemon.shutdown()

    run(go())


def test_server_full_and_duplicate_group():
    async def go():
        daemon = await boot(max_groups=1)
        client = client_for(daemon, 1)
        try:
            await client.connect()
            await client.create("a", capacity=2, barriers=2)
            with pytest.raises(ServeClientError) as err:
                await client.create("b", capacity=2, barriers=2,
                                    idempotent=False)
            assert err.value.reason == "server-full"
            # Re-creating an existing group is idempotent by default
            # (the resend-after-shed-ok case) ...
            reply = await client.create("a", capacity=2, barriers=2)
            assert reply["reason"] == "group-exists"
            # ... and a terminal reject when asked to be strict.
            with pytest.raises(ServeClientError) as err:
                await client.create("a", capacity=2, barriers=2,
                                    idempotent=False)
            assert err.value.reason == "group-exists"
        finally:
            await client.close()
            await daemon.shutdown()

    run(go())


def test_join_unknown_group_rejected():
    async def go():
        daemon = await boot()
        client = client_for(daemon, 1)
        try:
            await client.connect()
            with pytest.raises(ServeClientError) as err:
                await client.join("ghost")
            assert err.value.reason == "no-such-group"
        finally:
            await client.close()
            await daemon.shutdown()

    run(go())


# ---------------------------------------------------------------------------
# Group lifecycle
# ---------------------------------------------------------------------------

def test_barrier_rounds_complete():
    async def go():
        daemon = await boot()
        a, b = client_for(daemon, 1), client_for(daemon, 2)
        try:
            await a.connect()
            await b.connect()
            await a.create("g", capacity=2, barriers=3)
            await a.join("g")
            await b.join("g")
            for r in range(3):
                statuses = await asyncio.gather(
                    a.arrive("g", r), b.arrive("g", r)
                )
                assert statuses == ["released", "released"]
            outcome = daemon.groups["g"].outcome()
            assert outcome["completed"] == 3
            assert outcome["done"] is True
        finally:
            await a.close()
            await b.close()
            await daemon.shutdown()

    run(go())


def test_leave_mid_barrier_remaining_members_complete():
    """A member departing mid-round must not wedge the barrier: the
    group re-checks completion on leave, so the remaining members'
    arrivals release the round."""

    async def go():
        daemon = await boot()
        stayer, leaver = client_for(daemon, 1), client_for(daemon, 2)
        try:
            await stayer.connect()
            await leaver.connect()
            await stayer.create("g", capacity=2, barriers=2)
            await stayer.join("g")
            await leaver.join("g")
            # The stayer arrives first; the round now waits only on the
            # leaver, which leaves instead of arriving.
            arrive_task = asyncio.ensure_future(stayer.arrive("g", 0))
            await asyncio.sleep(0.05)
            assert not arrive_task.done()  # genuinely blocked on the leaver
            await leaver.leave("g")
            assert await arrive_task == "released"
            assert await stayer.arrive("g", 1) == "released"
            outcome = daemon.groups["g"].outcome()
            assert outcome["completed"] == 2
            assert outcome["done"] is True
        finally:
            await stayer.close()
            await leaver.close()
            await daemon.shutdown()

    run(go())


def test_join_after_crash_incarnation_bump_and_dedup():
    """The crash-restart path: a client that aborts and reconnects with
    a bumped incarnation reclaims its seat and resumes at the group's
    current round -- and frames replayed from its previous life are
    floored by the daemon's dedup index."""

    async def go():
        daemon = await boot()
        survivor, crasher = client_for(daemon, 1), client_for(daemon, 2)
        try:
            await survivor.connect()
            await crasher.connect()
            await survivor.create("g", capacity=2, barriers=3)
            await survivor.join("g")
            await crasher.join("g")
            await asyncio.gather(
                survivor.arrive("g", 0), crasher.arrive("g", 0)
            )
            # Crash: no goodbye, volatile state lost.
            await crasher.crash()
            assert crasher.incarnation == 1
            survivor_task = asyncio.ensure_future(survivor.arrive("g", 1))
            await asyncio.sleep(0.05)
            assert not survivor_task.done()  # blocked on the crashed seat
            await crasher.connect()
            reply = await crasher.join("g")
            assert reply["round"] == 1  # the durable state it lost
            assert await crasher.arrive("g", 1) == "released"
            assert await survivor_task == "released"
            # A replayed frame from incarnation 0 must be refused: the
            # dedup floor rose when incarnation 1 said hello.
            before = dict(daemon.stats)
            stale = Message(
                kind=ARRIVE, src=2, dst=SERVER_ID, seq=99, incarnation=0,
                payload={"g": "g", "round": 2, "rid": 9},
            )
            crasher.send_bytes(stale.to_bytes())
            await asyncio.sleep(0.1)
            assert daemon.stats["dup_filtered"] == before["dup_filtered"] + 1
            # The run still completes normally afterwards.
            await asyncio.gather(
                survivor.arrive("g", 2), crasher.arrive("g", 2)
            )
            assert daemon.groups["g"].outcome()["done"] is True
        finally:
            await survivor.close()
            await crasher.close()
            await daemon.shutdown()

    run(go())


def test_duplicate_live_client_id_refused():
    async def go():
        daemon = await boot()
        original = client_for(daemon, 7)
        thief = client_for(daemon, 7)
        try:
            await original.connect()
            with pytest.raises(Exception):
                # Same id, same incarnation, original still live: the
                # daemon drops the newcomer (no welcome ever comes).
                thief.timeout_s = 0.5
                await thief.connect()
            assert original.connected
        finally:
            await original.close()
            await thief.abort()
            await daemon.shutdown()

    run(go())


# ---------------------------------------------------------------------------
# Backpressure isolation
# ---------------------------------------------------------------------------

def test_slow_group_backpressure_never_stalls_other_groups():
    """A wedged group sheds load onto its own clients as transient
    ``backpressure`` rejects; an independent group on the same daemon
    completes every round meanwhile."""

    async def go():
        daemon = await boot(queue_depth=2)
        slow_client = client_for(daemon, 1, resend_s=0.05)
        fast_a, fast_b = client_for(daemon, 2), client_for(daemon, 3)
        try:
            for c in (slow_client, fast_a, fast_b):
                await c.connect()
            await slow_client.create("slow", capacity=1, barriers=2)
            await slow_client.join("slow")
            await fast_a.create("fast", capacity=2, barriers=5)
            await fast_a.join("fast")
            await fast_b.join("fast")
            # Wedge the slow group: cancel its worker so its bounded
            # inbox fills and stays full.
            await daemon.groups["slow"].stop()
            for _ in range(2):
                daemon.groups["slow"].offer(1, "arrive",
                                            {"g": "slow", "round": 0})
            assert not daemon.groups["slow"].offer(
                1, "arrive", {"g": "slow", "round": 0}
            )
            # The slow group's client sees backpressure rejects...
            slow_arrive = asyncio.ensure_future(
                slow_client.arrive("slow", 0)
            )
            # ...while the fast group completes all rounds undisturbed.
            for r in range(5):
                statuses = await asyncio.gather(
                    fast_a.arrive("fast", r), fast_b.arrive("fast", r)
                )
                assert statuses == ["released", "released"]
            assert daemon.groups["fast"].outcome()["done"] is True
            assert daemon.groups["slow"].stats["backpressure"] > 0
            slow_arrive.cancel()
            try:
                await slow_arrive
            except asyncio.CancelledError:
                pass
        finally:
            for c in (slow_client, fast_a, fast_b):
                await c.close()
            await daemon.shutdown()

    run(go())


def test_slow_reader_is_shed_past_its_outbox_bound():
    """A peer that stops reading costs the daemon its transport buffer
    plus ``outbox_depth`` frames, then its frames are shed (``send``
    says so, nothing blocks); when it reads again it is served again."""

    async def go():
        daemon = await boot(outbox_depth=4)
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", daemon_port(daemon)
        )
        hello = Message(kind="hello", src=9, dst=SERVER_ID, seq=0,
                        payload={"v": 1, "client": 9})
        writer.write(encode_frame(hello.to_bytes()))
        await asyncio.sleep(0.05)
        conn = daemon.clients[9]
        blob = {"g": "g", "round": 0, "pad": "x" * 16384}
        sent = 0
        while daemon.send(9, "release", blob):
            sent += 1
            assert sent < 5000, "never shed"
        assert daemon.stats["shed_frames"] == 1
        high_water = conn.transport.get_write_buffer_limits()[1]
        backlog = conn.transport.get_write_buffer_size()
        assert backlog <= high_water + (4 + 1) * 17000
        assert not daemon.send(9, "release", blob)  # still shed, still instant
        try:
            while conn._backlog is not None:  # the peer catches up
                await asyncio.wait_for(reader.read(1 << 20), timeout=5.0)
            assert daemon.send(9, "release", blob)
        finally:
            writer.close()
            await daemon.shutdown()

    run(go())


def test_done_group_answers_late_frames_inline():
    """A finished group has no worker left, so ``offer`` must answer
    instead of queueing: the healing ``release`` for a late ``arrive``
    and ``group-done`` for a late ``join``, nothing left in the inbox."""

    async def go():
        sent: list[tuple[int, str, dict]] = []
        group = BarrierGroup(
            "g", 2, send=lambda c, k, p: sent.append((c, k, p)) or True
        )
        group.start()
        for client in (1, 2):
            group.offer(client, "join", {"rid": client})
        for r in range(2):
            for client in (1, 2):
                group.offer(client, "arrive", {"round": r})
        # Queued behind the completing frame: drained before the worker exits.
        group.offer(2, "arrive", {"round": 1})
        await asyncio.sleep(0.05)
        assert group.done and group._worker.done()
        assert sent[-1] == (2, "release", {"g": "g", "round": 1, "last": True})
        assert group.inbox.qsize() == 0
        del sent[:]
        assert group.offer(2, "arrive", {"round": 1})
        assert group.offer(3, "join", {"rid": 7})
        assert sent == [
            (2, "release", {"g": "g", "round": 1, "last": True}),
            (3, "g.reject", {"g": "g", "rid": 7, "reason": "group-done"}),
        ]
        # Past the inbox bound there is still no backpressure, only replies.
        for _ in range(group.limits.queue_depth + 1):
            assert group.offer(2, "arrive", {"round": 1})
        assert group.inbox.qsize() == 0
        assert group.stats["backpressure"] == 0
        # The record alone gives the same answers (what the daemon keeps).
        del sent[:]
        record = group.record
        record.answer(group._send, 2, "arrive", {"round": 1})
        record.answer(group._send, 2, "arrive", {"round": 2})  # not stale: silence
        record.answer(group._send, 3, "join", {"rid": 7})
        record.answer(group._send, 2, "leave", {"rid": 8})
        assert sent == [
            (2, "release", {"g": "g", "round": 1, "last": True}),
            (3, "g.reject", {"g": "g", "rid": 7, "reason": "group-done"}),
            (2, "g.reject", {"g": "g", "rid": 8, "reason": "not-a-member"}),
        ]
        assert record.outcome() == group.outcome()

    run(go())


def test_late_frames_to_done_group_answered_over_socket():
    """The same over a real socket: a member that lost its final
    release (crash after the last arrive) resends and is healed; a
    late joiner is told ``group-done`` instead of timing out."""

    async def go():
        daemon = await boot()
        a, b, late = (client_for(daemon, cid) for cid in (1, 2, 3))
        try:
            await a.connect()
            await b.connect()
            await a.create("g", capacity=2, barriers=2)
            await a.join("g")
            await b.join("g")
            for r in range(2):
                await asyncio.gather(a.arrive("g", r), b.arrive("g", r))
            assert daemon.groups["g"].done
            await b.crash()  # forgets the release it was sent
            await b.connect()
            frames: list[Message] = []
            dispatch = b._dispatch
            b._dispatch = lambda msg: (frames.append(msg), dispatch(msg))
            assert await b.arrive("g", 1) == "released"
            releases = [m.payload for m in frames if m.kind == "release"]
            assert releases[0] == {"g": "g", "round": 1, "last": True}
            await late.connect()
            with pytest.raises(ServeClientError) as err:
                await late.join("g")
            assert err.value.reason == "group-done"
            reply = await late.create("g", capacity=2, barriers=2)
            assert reply["reason"] == "group-exists"
            # What answered is the record: there is no inbox to hold a frame.
            assert isinstance(daemon.groups["g"], DoneGroup)
            assert "inbox_depth" not in daemon.groups["g"].snapshot()
        finally:
            for c in (a, b, late):
                await c.close()
            await daemon.shutdown()

    run(go())


# ---------------------------------------------------------------------------
# Defense at the boundary
# ---------------------------------------------------------------------------

def test_byzantine_future_round_condemned_and_ejected():
    """Future-round arrives are proofs of misbehaviour: three of them
    condemn the client daemon-wide, eject it from its group, and the
    remaining members complete without it."""

    async def go():
        daemon = await boot()
        honest, byz = client_for(daemon, 1), client_for(daemon, 2)
        try:
            await honest.connect()
            await byz.connect()
            await honest.create("g", capacity=2, barriers=2)
            await honest.join("g")
            await byz.join("g")
            for i in range(3):
                byz.send_raw(ARRIVE, {"g": "g", "round": 500 + i, "rid": i})
            assert await byz.wait_ejected("g", timeout=5.0)
            assert 2 in daemon.condemned
            # The honest member completes both rounds alone.
            for r in range(2):
                assert await honest.arrive("g", r) == "released"
            outcome = daemon.groups["g"].outcome()
            assert outcome["ejected"] == [2]
            assert outcome["done"] is True
        finally:
            await honest.close()
            await byz.abort()
            await daemon.shutdown()

    run(go())


def test_garbage_frames_quarantined_not_crashed():
    """Unparseable bytes inside a valid frame are quarantined; the
    daemon stays up and honest clients keep working."""

    async def go():
        daemon = await boot()
        honest = client_for(daemon, 1)
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon_port(daemon)
            )
            writer.write(encode_frame(b"\xff\xfenot json at all"))
            await writer.drain()
            await asyncio.sleep(0.1)
            assert daemon.stats["quarantined"] >= 1
            writer.close()
            await honest.connect()
            await honest.create("g", capacity=1, barriers=1)
            await honest.join("g")
            assert await honest.arrive("g", 0) == "released"
        finally:
            await honest.close()
            await daemon.shutdown()

    run(go())


def test_first_frame_must_be_hello():
    async def go():
        daemon = await boot()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon_port(daemon)
            )
            rogue = Message(kind=ARRIVE, src=5, dst=SERVER_ID, seq=0,
                            payload={"g": "g", "round": 0})
            writer.write(encode_frame(rogue.to_bytes()))
            await writer.drain()
            data = await asyncio.wait_for(reader.read(), timeout=5.0)
            assert data == b""  # the daemon hung up without a word
            assert daemon.stats["quarantined"] >= 1
        finally:
            await daemon.shutdown()

    run(go())


def test_silent_connection_is_closed_on_the_lease_clock():
    """A connection that never sends ``hello`` holds no session and no
    seat; it is hung up on once it is ``lease_s`` old, not kept until
    the peer leaves."""
    lease = 0.5

    async def go():
        daemon = await boot(lease_s=lease)
        loop = asyncio.get_running_loop()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", daemon_port(daemon)
            )
            start = loop.time()
            data = await asyncio.wait_for(reader.read(), timeout=10 * lease)
            assert data == b""  # closed without a word: nobody to reject
            assert loop.time() - start < 2 * lease
            writer.close()
            await asyncio.sleep(0.05)
            assert not daemon._unbound and not daemon.clients
        finally:
            await daemon.shutdown()

    run(go())


# ---------------------------------------------------------------------------
# The observability plane
# ---------------------------------------------------------------------------

def _fetch(url: str) -> str:
    return urllib.request.urlopen(url, timeout=5).read().decode()


def test_obs_endpoints_serve_metrics_health_groups():
    async def go():
        daemon = await boot(obs_port=0)
        client = client_for(daemon, 1)
        try:
            await client.connect()
            await client.create("g", capacity=1, barriers=2)
            await client.join("g")
            assert await client.arrive("g", 0) == "released"
            url = daemon.obs_url
            assert url is not None and not url.endswith(":0")
            metrics = await asyncio.to_thread(_fetch, url + "/metrics")
            assert "serve_frames_total" in metrics
            assert "serve_barrier_latency_seconds_bucket" in metrics
            health = json.loads(
                await asyncio.to_thread(_fetch, url + "/health")
            )
            assert health["status"] == "running"
            assert health["groups"] == 1
            groups = json.loads(
                await asyncio.to_thread(_fetch, url + "/groups")
            )
            assert groups["groups"][0]["name"] == "g"
            assert groups["groups"][0]["round"] == 1
        finally:
            await client.close()
            await daemon.shutdown()

    run(go())


def test_endpoints_file_reports_ephemeral_ports(tmp_path):
    async def go():
        daemon = await boot(obs_port=0)
        try:
            path = tmp_path / "serve.json"
            daemon.write_endpoints(path)
            endpoints = json.loads(path.read_text())
            assert endpoints["address"] == daemon.address
            assert endpoints["obs"] == daemon.obs_url
            assert not endpoints["address"].endswith(":0")
        finally:
            await daemon.shutdown()

    run(go())


def test_obs_port_in_use_is_structured_error():
    """Binding a taken port raises :class:`ObsPortInUseError` (one
    actionable message), not a raw ``OSError`` traceback."""

    async def go():
        blocker = socket.socket()
        blocker.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        taken = blocker.getsockname()[1]
        try:
            with pytest.raises(ObsPortInUseError) as err:
                await ObsHttpServer(object(), port=taken).start()
            assert str(taken) in str(err.value)
            assert "--obs-port 0" in str(err.value)
        finally:
            blocker.close()

    run(go())


def test_daemon_graceful_shutdown_notifies_clients():
    async def go():
        daemon = await boot()
        client = client_for(daemon, 1)
        await client.connect()
        await client.create("g", capacity=1, barriers=5)
        await client.join("g")
        await daemon.shutdown()
        await asyncio.sleep(0.1)
        assert client.shutdown_seen
        await client.abort()

    run(go())
