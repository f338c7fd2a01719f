"""Point-to-point transports behind one ABC.

A :class:`Transport` moves opaque frame bodies between node ids.  Two
implementations share it:

* :class:`MemTransport` -- an in-process hub, the CI workhorse: zero
  sockets, microsecond latency;
* :class:`TcpTransport` -- real sockets: every node runs an asyncio
  server (TCP on an ephemeral localhost port, or -- with ``unix://``
  addresses -- a Unix domain socket, which skips the TCP stack for
  same-host links), peers dial lazily on first send, and the
  :mod:`repro.net.frames` codec turns the byte stream back into frames.
  A ``HELLO`` frame opens each connection so the receiver can attribute
  the stream to a node id.  On platforms without ``AF_UNIX`` the
  factory falls back to TCP transparently (see :func:`have_af_unix`).
  The sharded runtime's cross-shard links are one too, with shard ids
  for node ids (:class:`~repro.net.shard.ShardFabric`).

The receive side is :class:`Transport`'s own: an inbox (a deque and one
:class:`Signal`), ``recv(timeout)`` and a ``drain`` that models
in-flight loss on crash.

Both are single-event-loop objects; the runtime runs N nodes as N
tasks in one loop (the paper's N processes, collapsed for CI -- the
protocol code cannot tell the difference, and the TCP path exercises
real sockets either way).
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
from collections import deque
from functools import partial
from typing import Mapping, Union

from repro.net.frames import FrameDecoder, FrameError, append_frame

#: One transport address: ``"tcp://host:port"`` or ``"unix://path"``
#: (legacy ``(host, port)`` tuples are accepted and normalized).
Address = Union[str, "tuple[str, int]"]


def have_af_unix() -> bool:
    """True when this platform can bind Unix domain sockets."""
    return hasattr(socket, "AF_UNIX")


def normalize_address(address: Address) -> str:
    """Canonical string form of an address (tuples become ``tcp://``)."""
    if isinstance(address, tuple):
        host, port = address
        return f"tcp://{host}:{port}"
    if address.startswith(("tcp://", "unix://")):
        return address
    raise ValueError(f"unrecognized transport address {address!r}")


class TransportClosed(ConnectionError):
    """Send/recv on a transport after ``close``."""


def _expire(waiter: asyncio.Future) -> None:
    if not waiter.done():
        waiter.set_result(False)


class Signal:
    """A wake-up for one waiter.  Its timed wait is a future and a timer
    handle, never a Task: it sits on the per-frame path.

    Edge-triggered: a ``set`` nobody is waiting for is not remembered,
    so the waiter tests its condition, then waits (on one loop nothing
    runs in between).
    """

    __slots__ = ("_waiter",)

    def __init__(self) -> None:
        self._waiter: asyncio.Future | None = None

    def set(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(True)

    async def wait(self, timeout: float | None = None) -> bool:
        """True once ``set`` was called, False after ``timeout`` seconds."""
        loop = asyncio.get_running_loop()
        waiter = self._waiter = loop.create_future()
        timer = None if timeout is None else loop.call_later(timeout, _expire, waiter)
        try:
            return await waiter
        finally:
            self._waiter = None
            if timer is not None:
                timer.cancel()


class Transport:
    """Frame-level point-to-point messaging for one node: subclasses
    say how a frame leaves (``send``) and hand each one that arrives to
    :meth:`deliver`."""

    def __init__(self, node_id: int, nprocs: int) -> None:
        self.node_id = node_id
        self.nprocs = nprocs
        self._inbox: deque[tuple[int, bytes]] = deque()
        self._arrival = Signal()
        self._closed = False

    async def send(self, dst: int, body: bytes) -> None:
        """Queue ``body`` for delivery to ``dst`` (best effort)."""
        raise NotImplementedError

    def deliver(self, src: int, body: bytes) -> None:
        self._inbox.append((src, body))
        self._arrival.set()

    async def recv(self, timeout: float | None = None) -> tuple[int, bytes] | None:
        """Next ``(src, body)``; None on timeout."""
        if self._closed:
            raise TransportClosed(f"node {self.node_id}: transport closed")
        inbox = self._inbox
        while not inbox:
            if not await self._arrival.wait(timeout):
                return None
        return inbox.popleft()

    def drain(self) -> int:
        """Discard everything queued for this node (in-flight loss at a
        crash); returns the number of frames dropped."""
        dropped = len(self._inbox)
        self._inbox.clear()
        return dropped

    async def close(self) -> None:
        self._closed = True


# ----------------------------------------------------------------------
# In-memory
# ----------------------------------------------------------------------
class MemHub:
    """The shared switch fabric of a set of :class:`MemTransport`."""

    def __init__(self, nprocs: int) -> None:
        self.nprocs = nprocs
        #: Node id -> its transport: where :class:`MemTransport` routes.
        self.ports = [MemTransport(i, self) for i in range(nprocs)]


class MemTransport(Transport):
    """One node's port on a :class:`MemHub`."""

    def __init__(self, node_id: int, hub: MemHub) -> None:
        super().__init__(node_id, hub.nprocs)
        self._hub = hub

    async def send(self, dst: int, body: bytes) -> None:
        if self._closed:
            raise TransportClosed(f"node {self.node_id}: transport closed")
        if not 0 <= dst < self.nprocs:
            raise ValueError(f"destination {dst} out of range")
        self._hub.ports[dst].deliver(self.node_id, body)


# ----------------------------------------------------------------------
# TCP
# ----------------------------------------------------------------------
#: First frame on every TCP connection: identifies the dialing node.
_HELLO_KIND = "__hello__"

#: A turn's burst is written early once it is this big, so a caller that
#: sends in a loop without yielding still meets the wire's high-water mark.
_TURN_BYTES = 64 * 1024


class _Link(asyncio.Protocol):
    """One connection of a :class:`TcpTransport`.

    A link the owner *dialed* (``dst`` set) carries its frames out: they
    gather in ``outgoing``, HELLO first, until the owner's flush.  A
    link it *accepted* carries a peer's frames in.  ``blocked`` is a
    future while a ``send`` must wait -- the dial is in flight, or the
    peer stopped reading and the wire is over its high-water mark.
    """

    def __init__(self, owner: "TcpTransport", dst: int | None = None) -> None:
        self.owner = owner
        self.dst = dst
        self.src: int | None = None
        self.wire: asyncio.Transport | None = None
        self.decoder = FrameDecoder()
        self.outgoing = bytearray()
        self.blocked: asyncio.Future | None = None
        if dst is not None:
            hello = {"k": _HELLO_KIND, "node": owner.node_id}
            append_frame(self.outgoing, json.dumps(hello).encode())
            self.pause_writing()

    def connection_made(self, wire: asyncio.BaseTransport) -> None:
        if self.dst is not None and self.owner._dialed.get(self.dst) is not self:
            wire.abort()  # type: ignore[attr-defined]  # the dial was abandoned
            return
        self.wire = wire  # type: ignore[assignment]
        self.owner._links.add(self)
        self.resume_writing()

    def data_received(self, chunk: bytes) -> None:
        owner = self.owner
        try:
            for body in self.decoder.feed(chunk):
                if self.src is not None:
                    owner.deliver(self.src, body)
                    continue
                self.src = owner._attribute(body)
                if self.src is None:  # not one of ours: drop the stream
                    self.wire.close()  # type: ignore[union-attr]
                    return
        except FrameError:
            # Garbage framing (oversized length header, unframeable
            # bytes): the stream cannot resync, so drop the connection.
            owner.quarantined += 1
            self.wire.close()  # type: ignore[union-attr]

    def pause_writing(self) -> None:
        if self.blocked is None:
            self.blocked = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        blocked, self.blocked = self.blocked, None
        if blocked is not None:
            blocked.set_result(None)

    def connection_lost(self, exc: Exception | None) -> None:
        owner = self.owner
        owner._links.discard(self)
        if owner._dialed.get(self.dst) is self:  # type: ignore[arg-type]
            del owner._dialed[self.dst]  # type: ignore[arg-type]
        self.wire = None
        self.resume_writing()  # sends waiting here find the wire gone


class TcpTransport(Transport):
    """Length-prefixed frames over real sockets (TCP or Unix domain).

    Create the full set via :func:`create_tcp_transports`, which starts
    every node's server on an ephemeral port (or a per-node socket path
    under ``unix_dir``) first and then shares the address map, so tests
    never race on fixed port numbers.

    Every connection is one :class:`_Link`, an ``asyncio.Protocol``
    feeding the :class:`~repro.net.frames.FrameDecoder`.  ``send``
    appends to the link's buffer and each link with frames is written
    once per loop turn, so a burst shares a syscall; a ``send`` to a
    link whose peer stopped reading waits, so nothing buffers without
    bound.
    """

    def __init__(
        self,
        node_id: int,
        nprocs: int,
        host: str = "127.0.0.1",
        unix_path: str | None = None,
    ) -> None:
        super().__init__(node_id, nprocs)
        self.host = host
        self.port: int | None = None
        #: Bind a Unix domain socket here instead of TCP (requires
        #: ``AF_UNIX``; :func:`create_tcp_transports` gates on it).
        self.unix_path = unix_path
        self.address: str | None = None
        self._server: asyncio.base_events.Server | None = None
        self._addresses: dict[int, str] = {}
        #: Every live connection, dialed or accepted.
        self._links: set[_Link] = set()
        self._dialed: dict[int, _Link] = {}
        #: A flush is scheduled for the end of this loop turn.
        self._flushing = False
        #: Hostile/garbage connections dropped on receipt (bad framing,
        #: oversized length header, unparseable HELLO, a frame
        #: :meth:`deliver` refuses).
        self.quarantined = 0
        #: Frames queued on dialed links, writes made and bytes written.
        self.frames_out = self.writes = self.bytes_out = 0

    # -- lifecycle -----------------------------------------------------
    async def start(self) -> str:
        """Bind the node's server; returns its normalized address."""
        loop = asyncio.get_running_loop()
        accept = partial(_Link, self)
        if self.unix_path is not None:
            self._server = await loop.create_unix_server(accept, self.unix_path)
            self.address = f"unix://{self.unix_path}"
        else:
            self._server = await loop.create_server(accept, self.host, 0)
            self.port = self._server.sockets[0].getsockname()[1]
            self.address = f"tcp://{self.host}:{self.port}"
        return self.address

    def set_addresses(self, addresses: Mapping[int, Address]) -> None:
        self._addresses = {
            pid: normalize_address(addr) for pid, addr in addresses.items()
        }

    def _attribute(self, body: bytes) -> int | None:
        """Validate a HELLO frame; None (and a quarantine count) for
        anything a hostile dialer could send instead."""
        try:
            record = json.loads(body.decode())
        except (UnicodeDecodeError, json.JSONDecodeError):
            record = None
        if isinstance(record, dict) and record.get("k") == _HELLO_KIND:
            node = record.get("node")
            if (
                isinstance(node, int)
                and not isinstance(node, bool)
                and 0 <= node < self.nprocs
            ):
                return node
        self.quarantined += 1
        return None

    # -- sending -------------------------------------------------------
    async def _dial(self, dst: int) -> _Link:
        """Open the link to ``dst``: in ``_dialed``, blocked, from the
        start, so sends that arrive meanwhile wait for this dial."""
        link = self._dialed[dst] = _Link(self, dst)
        loop = asyncio.get_running_loop()
        address = self._addresses[dst]
        try:
            if address.startswith("unix://"):
                path = address[len("unix://"):]
                await loop.create_unix_connection(lambda: link, path)
            else:
                host, _, port = address[len("tcp://"):].rpartition(":")
                await loop.create_connection(lambda: link, host, int(port))
        finally:
            if link.wire is None:  # refused, or this send was cancelled
                link.connection_lost(None)
        return link

    async def send(self, dst: int, body: bytes) -> None:
        if self._closed:
            raise TransportClosed(f"node {self.node_id}: transport closed")
        link = self._dialed.get(dst)
        if link is None:
            try:
                link = await self._dial(dst)
            except OSError:
                # The peer is down or restarting: TCP loss is exactly the
                # fault class the protocols' resend machinery masks.
                return
        while link.blocked is not None:
            await link.blocked
        if link.wire is None:
            return  # lost while this send waited: a dropped frame too
        append_frame(link.outgoing, body)
        self.frames_out += 1
        if len(link.outgoing) >= _TURN_BYTES:
            self._flush()
        elif not self._flushing:
            self._flushing = True
            asyncio.get_running_loop().call_soon(self._flush)

    def _flush(self) -> None:
        """End of the loop turn: one write per link that took frames."""
        self._flushing = False
        for link in self._dialed.values():
            if link.outgoing and link.wire is not None:
                # Handed over, not copied: the wire may keep a view of
                # whatever the socket did not take at once.
                data, link.outgoing = link.outgoing, bytearray()
                link.wire.write(data)
                self.writes += 1
                self.bytes_out += len(data)

    async def close(self) -> None:
        """Stop listening and hang up; returns once every link is gone,
        so a finished run leaves no socket open."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
        self._flush()
        self._dialed.clear()
        for link in self._links:
            # Not ``close``: that waits for the peer to read what is
            # still buffered, and a peer may never read again.
            link.wire.abort()  # type: ignore[union-attr]
        while self._links:  # ``connection_lost`` comes on the next turn
            await asyncio.sleep(0)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None  # it holds our accept factory: a cycle
        if self.unix_path is not None:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass


async def create_tcp_transports(
    nprocs: int, host: str = "127.0.0.1", unix_dir: str | None = None
) -> list[TcpTransport]:
    """Start ``nprocs`` socket transports and share the address map.

    With ``unix_dir`` (and a platform that has ``AF_UNIX``) every node
    binds ``<unix_dir>/node-<id>.sock`` instead of a TCP port -- the
    same-host fast path.  Platforms without ``AF_UNIX`` fall back to
    TCP silently, so callers can always ask for ``unix_dir``.
    """
    use_unix = unix_dir is not None and have_af_unix()
    transports = [
        TcpTransport(
            i,
            nprocs,
            host,
            unix_path=os.path.join(unix_dir, f"node-{i}.sock")  # type: ignore[arg-type]
            if use_unix
            else None,
        )
        for i in range(nprocs)
    ]
    addresses: dict[int, str] = {}
    for t in transports:
        addresses[t.node_id] = await t.start()
    for t in transports:
        t.set_addresses(addresses)
    return transports


def create_mem_transports(nprocs: int) -> list[MemTransport]:
    """An in-memory fabric for ``nprocs`` nodes (one shared hub)."""
    return MemHub(nprocs).ports
