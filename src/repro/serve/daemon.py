"""``repro-serve``: the multi-tenant barrier daemon.

One asyncio process hosts many independent :class:`BarrierGroup`
tenants.  Clients connect over TCP or a Unix domain socket and speak
the PR-5 frame protocol (:mod:`repro.serve.protocol`); every inbound
frame is strictly decoded and schema-validated at the boundary, with
structured quarantine instead of exceptions -- a hostile client can be
rejected, struck, and condemned, but never crash the daemon.

Isolation model (the load-bearing design):

* each group owns a **bounded inbox** and its own worker task -- a slow
  or flooded group backpressures its *own* clients (transient
  ``reject(backpressure)`` frames, retried by the client's resend loop)
  and cannot stall any other group;
* each client owns a **bounded outbox** -- its transport's write buffer
  plus ``outbox_depth`` frames once the peer stops reading; past that a
  slow reader sheds frames instead of blocking a group worker, and
  every shed frame is healed by protocol idempotence (stale arrives are
  answered with direct releases; requests are retried by rid);
* the daemon-wide :class:`~repro.net.frames.DedupIndex` keeps
  exactly-once semantics across client crash-restarts: a reconnect with
  a bumped incarnation supersedes the dead session and floors the old
  one, so replayed frames from a client's previous life are refused.

What the daemon holds is a function of who is connected *now*: a group
that passed its last barrier collapses to a
:class:`~repro.serve.groups.DoneGroup` record (the newest
:data:`DONE_RETAINED` are kept), a session that ends without a seat
leaves one incarnation floor, and that floor -- like a crashed
session's seat-less leftovers, a condemnation, a connection that
idles without a seat, or one that never says ``hello`` -- expires on
the ``lease_s`` clock.  A connection is an :class:`asyncio.Protocol`:
nothing awaits on it and no exception is kept for it, so however the
peer ended it, it dies by refcount.

The PR-7 observability plane is wired in: ``/metrics`` (Prometheus
0.0.4), ``/health`` and ``/groups`` are served by
:class:`~repro.obs.http.ObsHttpServer` from inside the daemon's loop,
with ``obs_port=0`` binding an ephemeral port that is reported in the
endpoints file (see :meth:`ServeDaemon.endpoints`) so CI scrapers never
race on fixed ports.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.net.frames import (
    DedupIndex,
    FrameDecoder,
    FrameError,
    Message,
    encode_frame,
)
from repro.obs.metrics import MetricsRegistry
from repro.serve.groups import BarrierGroup, DoneGroup, GroupLimits
from repro.serve.protocol import (
    ARRIVE,
    BYE,
    CREATE,
    GOODBYE,
    HELLO,
    JOIN,
    LEAVE,
    REJECT,
    SERVE_VERSION,
    SERVER_ID,
    SHUTDOWN,
    STRIKE_LIMIT,
    WELCOME,
    check_group_name,
    check_hello,
    check_round,
)

#: Finished groups kept as :class:`DoneGroup` records, newest first out
#: last: long enough for a member's last resend and a post-run
#: ``outcomes()``; a constant, so the bound holds at any completion rate.
DONE_RETAINED = 64

#: ``gauges()`` key -> (``/metrics`` family, help).
_GAUGES = {
    "groups_active": ("serve_groups_active", "live groups"),
    "groups_retained": ("serve_groups_retained", "done-records kept"),
    "clients": ("serve_clients_connected", "live client sessions"),
    "dedup_tracked": ("serve_dedup_tracked", "(client, incarnation) dedup entries"),
    "dedup_floors": ("serve_dedup_floors", "departed clients' incarnation floors"),
    "condemned": ("serve_clients_condemned", "condemned client ids"),
}

#: Barrier-latency histogram buckets (seconds).
_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(frozen=True)
class ServeConfig:
    """One daemon instance, fully specified."""

    host: str = "127.0.0.1"
    port: int = 0                    #: 0 = ephemeral (reported)
    unix_path: str | None = None     #: serve a Unix socket instead
    obs_port: int | None = None      #: /metrics /health /groups (0 = ephemeral)
    max_groups: int = 64
    max_clients: int = 100_000       #: highest admissible client id
    max_members: int = 1024          #: per-group capacity ceiling
    default_capacity: int = 64       #: capacity when g.create omits it
    queue_depth: int = 256           #: per-group inbox bound
    outbox_depth: int = 256          #: per-client outbox bound
    lease_s: float = 30.0            #: silent-member eviction grace
    default_barriers: int = 100      #: barriers when g.create omits it
    max_barriers: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_groups < 1:
            raise ValueError("max_groups must be >= 1")
        if self.queue_depth < 1 or self.outbox_depth < 1:
            raise ValueError("queue/outbox depths must be >= 1")
        if not 1 <= self.default_capacity <= self.max_members:
            raise ValueError("default_capacity must be in [1, max_members]")


class _ClientConn(asyncio.Protocol):
    """One connection: chunks in through the frame decoder, frames out
    straight into the transport.  Unbound until its ``hello``."""

    def __init__(self, daemon: "ServeDaemon") -> None:
        self.daemon = daemon
        self.decoder = FrameDecoder()
        self.client: int | None = None
        self.incarnation = 0
        self.transport: asyncio.Transport | None = None
        self.last_seen = time.monotonic()
        #: Frames accepted since the transport said "peer not reading"
        #: (None while it keeps up) -- the outbox that is bounded.
        self._backlog: int | None = None
        self.closed = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        self.daemon.stats["connections"] += 1
        self.daemon._unbound[self] = None

    def data_received(self, chunk: bytes) -> None:
        try:
            for body in self.decoder.feed(chunk):
                self.daemon._on_frame(self, body)
                if self.closed:
                    return
        except FrameError:
            # Unframeable bytes: the stream cannot resync; drop it.
            self.daemon._quarantine("framing")
            self.close()

    def connection_lost(self, exc: Exception | None) -> None:
        self.closed = True
        self.daemon._detach(self)

    def pause_writing(self) -> None:
        self._backlog = 0

    def resume_writing(self) -> None:
        self._backlog = None

    def offer(self, frame: bytes) -> bool:
        """Write a frame; False = slow client past its bound, shed."""
        if self.closed:
            return False
        if self._backlog is not None:
            if self._backlog >= self.daemon.config.outbox_depth:
                return False
            self._backlog += 1
        self.transport.write(frame)  # type: ignore[union-attr]
        return True

    def close(self) -> None:
        """Hang up once what is buffered has been written."""
        self.closed = True
        if self.transport is not None:
            self.transport.close()


class ServeDaemon:
    """The barrier-as-a-service daemon (see module docstring)."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        #: Live groups and the retained done-records, by name.
        self.groups: dict[str, BarrierGroup | DoneGroup] = {}
        #: Names of the done-records in ``groups``, oldest first.
        self._retained: deque[str] = deque()
        self.clients: dict[int, _ClientConn] = {}
        #: Connections yet to say ``hello``, oldest first (an ordered
        #: set): on the lease clock like idle sessions.
        self._unbound: dict[_ClientConn, None] = {}
        self.dedup = DedupIndex()
        self.condemned: set[int] = set()
        self._strikes: dict[int, int] = {}
        self._seq: dict[int, int] = {}
        #: client -> when its session ended, oldest first: what it left
        #: behind (see :meth:`_detach`) expires ``lease_s`` later.
        self._gone: dict[int, float] = {}
        self._lease_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._obs: Any = None
        self._draining = False
        self._started = time.monotonic()
        self.address: str | None = None
        self.stats = {
            "connections": 0,
            "frames": 0,
            "quarantined": 0,
            "dup_filtered": 0,
            "rejects": 0,
            "shed_frames": 0,
        }
        self._build_metrics()

    # -- metrics / obs plane -------------------------------------------
    def _build_metrics(self) -> None:
        registry = MetricsRegistry()
        self.registry = registry
        self._m_frames = registry.counter(
            "serve_frames_total", "inbound frames by verb", ("kind",)
        )
        self._m_rejects = registry.counter(
            "serve_rejects_total", "reject frames by reason", ("reason",)
        )
        self._m_quarantined = registry.counter(
            "serve_quarantined_total", "frames quarantined at the boundary"
        )
        self._m_completions = registry.counter(
            "serve_barriers_completed_total", "completed rounds per group",
            ("group",),
        )
        self._m_latency = registry.histogram(
            "serve_barrier_latency_seconds",
            "first-arrive to completion per round",
            buckets=_LATENCY_BUCKETS,
        )
        self._m_gauges = {
            key: registry.gauge(name, help)
            for key, (name, help) in _GAUGES.items()
        }

    def gauges(self) -> dict[str, int]:
        """Counts of everything held per group or per client: at rest
        (nobody connected, leases run out) all but ``groups_retained``
        are zero, however many sessions were served."""
        retained = len(self._retained)
        return {
            "groups_active": len(self.groups) - retained,
            "groups_retained": retained,
            "clients": len(self.clients),
            "dedup_tracked": self.dedup.tracked,
            "dedup_floors": self.dedup.floors,
            "condemned": len(self.condemned),
        }

    def metrics_text(self) -> str:
        """Prometheus 0.0.4 exposition (the ``/metrics`` provider)."""
        for key, value in self.gauges().items():
            self._m_gauges[key].set(value)
        return self.registry.render_prometheus()

    def health(self) -> dict[str, Any]:
        return {
            "status": "draining" if self._draining else "running",
            "uptime_s": time.monotonic() - self._started,
            **self.gauges(),
            "groups": len(self.groups),
            "condemned": sorted(self.condemned),  # the ids, not the count
            "stats": dict(self.stats),
        }

    def groups_snapshot(self) -> dict[str, Any]:
        """The ``/groups`` endpoint payload."""
        return {
            "groups": [
                g.snapshot() for _, g in sorted(self.groups.items())
            ],
            "clients": len(self.clients),
        }

    def outcomes(self) -> dict[str, Any]:
        """Deterministic per-group outcome slice (replay digests), live
        groups and retained done-records alike."""
        return {
            name: g.outcome() for name, g in sorted(self.groups.items())
        }

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> "ServeDaemon":
        loop = asyncio.get_running_loop()
        if self.config.unix_path is not None:
            self._server = await loop.create_unix_server(
                lambda: _ClientConn(self), self.config.unix_path
            )
            self.address = f"unix://{self.config.unix_path}"
        else:
            self._server = await loop.create_server(
                lambda: _ClientConn(self), self.config.host, self.config.port
            )
            port = self._server.sockets[0].getsockname()[1]
            self.address = f"tcp://{self.config.host}:{port}"
        self._lease_task = asyncio.ensure_future(self._lease_loop())
        if self.config.obs_port is not None:
            from repro.obs.http import ObsHttpServer

            self._obs = await ObsHttpServer(
                self,
                port=self.config.obs_port,
                routes={"/groups": self._groups_route},
            ).start()
        return self

    def _groups_route(self) -> tuple[int, str, str]:
        return (
            200,
            "application/json",
            json.dumps(self.groups_snapshot(), sort_keys=True) + "\n",
        )

    @property
    def obs_url(self) -> str | None:
        return self._obs.url if self._obs is not None else None

    def endpoints(self) -> dict[str, Any]:
        """What a supervisor (or the CI job) needs to reach the daemon."""
        return {"address": self.address, "obs": self.obs_url}

    def write_endpoints(self, path: str | Path) -> None:
        """Atomic endpoints file: scrapers see either nothing or all."""
        target = Path(path)
        tmp = target.with_suffix(target.suffix + ".tmp")
        tmp.write_text(json.dumps(self.endpoints(), sort_keys=True) + "\n")
        tmp.replace(target)

    async def shutdown(self) -> None:
        """Graceful stop: refuse new work, notify clients, tear down."""
        if self._draining:
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._lease_task is not None:
            self._lease_task.cancel()
            self._lease_task = None
        for client, conn in list(self.clients.items()):
            self.send(client, SHUTDOWN, {})
            conn.close()
        for conn in list(self._unbound):
            conn.close()
        for group in self._live_groups():
            await group.stop()
        # One turn of the loop: the transports' hang-ups run.
        await asyncio.sleep(0)
        self.clients.clear()
        if self._obs is not None:
            await self._obs.stop()
            self._obs = None

    # -- outbound ------------------------------------------------------
    def _next_seq(self, client: int) -> int:
        seq = self._seq.get(client, 0)
        self._seq[client] = seq + 1
        return seq

    def send(self, client: int, kind: str, payload: dict[str, Any]) -> bool:
        """Queue one frame for ``client``; False = not deliverable (no
        session, or its outbox is full -- shed, healed by idempotence)."""
        if kind == REJECT:
            # Counted here so group-level rejections (which call this
            # SendFn directly) land in the same metric as daemon ones.
            self.stats["rejects"] += 1
            self._m_rejects.inc(reason=str(payload.get("reason", "?")))
        conn = self.clients.get(client)
        if conn is None or conn.closed:
            return False
        msg = Message(
            kind=kind,
            src=SERVER_ID,
            dst=client,
            seq=self._next_seq(client),
            payload=payload,
        )
        if conn.offer(encode_frame(msg.to_bytes())):
            return True
        self.stats["shed_frames"] += 1
        return False

    # -- inbound -------------------------------------------------------
    def _on_frame(self, conn: _ClientConn, body: bytes) -> None:
        """Decode, validate, dedup and route one frame; a connection
        that must go is closed here."""
        try:
            msg = Message.from_bytes(body, strict=True)
        except FrameError:
            self._quarantine("decode")
            if conn.client is not None:
                self._strike(conn.client)
            return
        if conn.client is None:
            self._handle_hello(conn, msg)
            return
        if msg.src != conn.client:
            # The session is bound; an envelope claiming another id is
            # a spoof attempt from an authenticated client.
            self._quarantine("src-spoof")
            self._strike(conn.client)
            return
        if conn.client in self.condemned:
            self._quarantine("condemned")
            conn.close()
            return
        if not self.dedup.accept(msg.src, msg.incarnation, msg.seq):
            self.stats["dup_filtered"] += 1
            return
        conn.last_seen = time.monotonic()
        self.stats["frames"] += 1
        self._m_frames.inc(kind=msg.kind)
        self._route(conn, msg)

    def _handle_hello(self, conn: _ClientConn, msg: Message) -> None:
        """The first frame on a connection must bind a client id; a
        connection that does not is hung up on without a word."""
        refusal = None
        if msg.kind != HELLO:
            refusal = "no-hello"
        elif check_hello(msg.payload, self.config.max_clients) is not None:
            refusal = "bad-hello"
        elif msg.payload["client"] in self.condemned:
            refusal = "condemned"
        if refusal is not None:
            self._quarantine(refusal)
            conn.close()
            return
        client = msg.payload["client"]
        existing = self.clients.get(client)
        if existing is not None:
            if msg.incarnation <= existing.incarnation and not existing.closed:
                # A duplicate live session for the same id: refuse the
                # newcomer (an id thief, or a client bug).
                self._quarantine("duplicate-client")
                conn.close()
                return
            # Crash-restart: the bumped incarnation supersedes the dead
            # session, and the old life's replayed frames are floored.
            existing.close()
        if msg.incarnation > 0:
            self.dedup.forget_older_incarnations(client, msg.incarnation)
        if not self.dedup.accept(msg.src, msg.incarnation, msg.seq):
            self.stats["dup_filtered"] += 1
            conn.close()
            return
        conn.client, conn.incarnation = client, msg.incarnation
        self._unbound.pop(conn, None)
        self.clients[client] = conn
        self._gone.pop(client, None)
        self.stats["frames"] += 1
        self._m_frames.inc(kind=HELLO)
        self.send(client, WELCOME, {"v": SERVE_VERSION, "inc": msg.incarnation})

    def _route(self, conn: _ClientConn, msg: Message) -> None:
        client = msg.src  # == conn.client, checked by the caller
        rid = msg.payload.get("rid")
        if msg.kind == BYE:
            self.send(client, GOODBYE, {"rid": rid})
            conn.close()
        elif msg.kind == HELLO:
            # Idempotent re-hello on a bound session.
            self.send(client, WELCOME, {"v": SERVE_VERSION, "inc": msg.incarnation})
        elif msg.kind == CREATE:
            self._handle_create(client, msg, rid)
        elif msg.kind in (JOIN, LEAVE, ARRIVE):
            self._handle_group_frame(client, msg, rid)
        else:
            self._quarantine("unknown-kind")
            self._strike(client)

    def _handle_create(self, client: int, msg: Message, rid: Any) -> None:
        if self._draining:
            self._reject(client, rid, "shutting-down")
            return
        name = msg.payload.get("g")
        capacity = msg.payload.get("capacity", self.config.default_capacity)
        barriers = msg.payload.get("barriers", self.config.default_barriers)
        if (
            not check_group_name(name)
            or not check_round(capacity)
            or not check_round(barriers)
            or not 1 <= capacity <= self.config.max_members
            or not 1 <= barriers <= self.config.max_barriers
        ):
            self._reject(client, rid, "bad-request")
            self._strike(client)
            return
        if name in self.groups:
            self._reject(client, rid, "group-exists")
            return
        if len(self.groups) - len(self._retained) >= self.config.max_groups:
            self._reject(client, rid, "server-full")
            return
        group = BarrierGroup(
            name,
            barriers,
            send=self.send,
            limits=GroupLimits(
                capacity=capacity,
                queue_depth=self.config.queue_depth,
                lease_s=self.config.lease_s,
            ),
            on_strike=self._strike,
            on_round=self._round_closed,
            on_done=self._retire,
        )
        group.start()
        self.groups[name] = group
        self.send(
            client,
            "g.ok",
            {"g": name, "rid": rid, "capacity": capacity, "barriers": barriers},
        )

    def _handle_group_frame(self, client: int, msg: Message, rid: Any) -> None:
        name = msg.payload.get("g")
        if not check_group_name(name):
            self._reject(client, rid, "bad-request")
            self._strike(client)
            return
        group = self.groups.get(name)
        if group is None:
            self._reject(client, rid, "no-such-group")
            return
        verb = {JOIN: "join", LEAVE: "leave", ARRIVE: "arrive"}[msg.kind]
        payload = dict(msg.payload)
        payload["inc"] = msg.incarnation
        if isinstance(group, DoneGroup):
            group.answer(self.send, client, verb, payload)
        elif not group.offer(client, verb, payload):
            # Transient: the group's inbox is full.  The client's
            # resend loop backs off and retries; no state was taken.
            self._reject(client, rid, "backpressure")

    def _round_closed(self, group: str, latency: float) -> None:
        self._m_latency.observe(latency)
        self._m_completions.inc(group=group)

    def _retire(self, record: DoneGroup) -> None:
        """A group passed its last barrier: its record takes its place,
        and the oldest record (with its ``/metrics`` series) goes."""
        self.groups[record.name] = record
        self._retained.append(record.name)
        if len(self._retained) > DONE_RETAINED:
            evicted = self._retained.popleft()
            del self.groups[evicted]
            self._m_completions.remove(group=evicted)

    def _live_groups(self) -> list[BarrierGroup]:
        return [g for g in self.groups.values() if isinstance(g, BarrierGroup)]

    # -- defense -------------------------------------------------------
    def _quarantine(self, reason: str) -> None:
        self.stats["quarantined"] += 1
        self._m_quarantined.inc()

    def _strike(self, client: int) -> int:
        """One daemon-wide suspicion strike; condemnation at the limit.
        Returns the running count (groups consult it for ejection)."""
        count = self._strikes.get(client, 0) + 1
        self._strikes[client] = count
        if count >= STRIKE_LIMIT and client not in self.condemned:
            self.condemned.add(client)
            for group in self._live_groups():
                if client in group.members or client in group.ever_members:
                    group.eject(client, "condemned")
            conn = self.clients.get(client)
            if conn is not None:
                self.send(client, REJECT, {"reason": "condemned"})
                conn.close()
        return count

    def _reject(self, client: int, rid: Any, reason: str) -> None:
        self.send(client, REJECT, {"rid": rid, "reason": reason})

    def _detach(self, conn: _ClientConn) -> None:
        """A connection ended.  A seat survives on its lease so a
        crash-restart client can reclaim it, and with it everything the
        next life needs; without one nobody is coming back for this
        session, and all that stays is the floor that refuses its
        replay."""
        self._unbound.pop(conn, None)
        client = conn.client
        if client is None or self.clients.get(client) is not conn:
            return  # never bound, or already superseded
        del self.clients[client]
        self._gone[client] = time.monotonic()  # last in: hello popped it
        if not any(client in g.members for g in self._live_groups()):
            self.dedup.forget_older_incarnations(client, conn.incarnation + 1)
            self._seq.pop(client, None)
            self._strikes.pop(client, None)

    async def _lease_loop(self) -> None:
        poll = max(self.config.lease_s / 4.0, 0.05)
        while True:
            await asyncio.sleep(poll)
            self._expire(time.monotonic() - self.config.lease_s)

    def _expire(self, deadline: float) -> None:
        """The lease clock: forget sessions that ended before
        ``deadline`` (floor, crash leftovers, condemnation) and hang up
        on connections idle since then -- unless a seat still vouches
        for them (the group's own lease evicts it first) -- or that
        opened before it and never said ``hello``."""
        seated: set[int] = set().union(*(g.members for g in self._live_groups()))
        expired = []
        for client, since in self._gone.items():
            if since >= deadline:
                break
            if client not in seated:
                expired.append(client)
        for client in expired:
            del self._gone[client]
            self.dedup.forget(client)
            self._seq.pop(client, None)
            self._strikes.pop(client, None)
            self.condemned.discard(client)
        for client, conn in list(self.clients.items()):
            if conn.last_seen < deadline and client not in seated:
                self.send(client, REJECT, {"reason": "idle"})
                conn.close()
        for conn in list(self._unbound):
            if conn.last_seen >= deadline:
                break
            conn.close()
