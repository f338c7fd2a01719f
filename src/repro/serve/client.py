"""An asyncio client for the barrier service.

:class:`ServeClient` speaks :mod:`repro.serve.protocol` over one TCP or
Unix-socket connection.  Everything rides the resend loop the tree
protocol proved out: requests carry a ``rid`` and are retransmitted
until *some* terminal answer arrives (``backpressure`` rejects just
back off and retry), and ``arrive`` is resent until a ``release`` for
the same-or-later round shows up -- so shed frames, reconnects and
server-side backpressure are all absorbed by idempotence instead of
client-visible errors.

``crash()`` simulates a process failure: the connection is aborted
without a goodbye, all volatile state (pending requests, release
high-water marks) is dropped, and the next :meth:`connect` presents a
bumped incarnation -- the daemon's crash-restart path, which floors the
old life in its :class:`~repro.net.frames.DedupIndex` and hands the
rejoining client the group's current round.
"""

from __future__ import annotations

import asyncio
from typing import Any

from repro.errors import ReproError
from repro.net.frames import FrameDecoder, FrameError, Message, encode_frame
from repro.serve.protocol import (
    ARRIVE,
    BYE,
    CREATE,
    GOODBYE,
    HELLO,
    JOIN,
    LEAVE,
    OK,
    REJECT,
    RELEASE,
    SERVE_VERSION,
    SERVER_ID,
    SHUTDOWN,
    WELCOME,
)


class ServeClientError(ReproError):
    """The server refused a request with a terminal reason."""

    def __init__(self, reason: str, verb: str) -> None:
        self.reason = reason
        self.verb = verb
        super().__init__(f"{verb} rejected: {reason}")


class ServeTimeout(ReproError):
    """No terminal answer within the client's deadline."""


class ServeClient:
    """One client session (see module docstring)."""

    def __init__(
        self,
        client_id: int,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
        incarnation: int = 0,
        resend_s: float = 0.2,
        timeout_s: float = 30.0,
    ) -> None:
        if client_id == SERVER_ID:
            raise ValueError("client ids are >= 1 (0 is the daemon)")
        self.client_id = client_id
        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.incarnation = incarnation
        self.resend_s = resend_s
        self.timeout_s = timeout_s
        self._seq = 0
        self._rid = 0
        self._writer: asyncio.StreamWriter | None = None
        self._reader_task: asyncio.Task | None = None
        self._pending: dict[int, asyncio.Future] = {}
        self._released: dict[str, int] = {}
        self._ejected_from: set[str] = set()
        self._waiters: list[asyncio.Event] = []
        self._welcome = asyncio.Event()
        self.shutdown_seen = False
        self.connected = False
        self.stats = {"sent": 0, "resends": 0, "backpressure": 0}

    # -- connection lifecycle ------------------------------------------
    async def connect(self) -> "ServeClient":
        """Open the transport and bind the session with ``hello``."""
        if self.unix_path is not None:
            reader, writer = await asyncio.open_unix_connection(self.unix_path)
        else:
            reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        self._welcome = asyncio.Event()
        self.connected = True
        self._reader_task = asyncio.ensure_future(self._read_loop(reader))
        self._send(HELLO, {"v": SERVE_VERSION, "client": self.client_id})
        try:
            await asyncio.wait_for(self._welcome.wait(), timeout=self.timeout_s)
        except asyncio.TimeoutError:
            await self.abort()
            raise ServeTimeout(
                f"client {self.client_id}: no welcome within {self.timeout_s}s"
            ) from None
        return self

    async def close(self) -> None:
        """Clean goodbye: ``bye``, then wait -- one resend tick at most
        -- for the daemon's ``goodbye`` and hang-up (the read loop ends
        at its EOF) before tearing the session down, so a clean session
        never reaches the daemon as a reset pipe."""
        if self.connected and self._writer is not None:
            try:
                self._send(BYE, {"rid": self._next_rid()})
                await asyncio.wait_for(self._reader_task, self.resend_s)
            except (ConnectionError, RuntimeError, asyncio.TimeoutError):
                pass
        await self.abort()

    async def abort(self) -> None:
        """Drop the connection without ceremony (also crash()'s core)."""
        self.connected = False
        if self._writer is not None:
            transport = self._writer.transport
            if transport is not None:
                transport.abort()
            self._writer = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        for future in self._pending.values():
            if not future.done():
                future.cancel()
        self._pending.clear()
        self._wake_waiters()

    async def crash(self) -> None:
        """Simulate a process crash: abort, lose volatile state, bump
        the incarnation for the next life."""
        await self.abort()
        self.incarnation += 1
        self._seq = 0
        self._released.clear()
        self._ejected_from.clear()
        self.shutdown_seen = False

    # -- requests ------------------------------------------------------
    async def create(
        self,
        group: str,
        capacity: int,
        barriers: int,
        idempotent: bool = True,
    ) -> dict[str, Any]:
        """Create a group.  With ``idempotent`` (default), a
        ``group-exists`` reject is treated as success -- the answer a
        resend gets when the original create landed but its ok was
        shed."""
        body = {"g": group, "capacity": capacity, "barriers": barriers}
        ok_reasons = ("group-exists",) if idempotent else ()
        return await self._request(CREATE, body, ok_reasons)

    async def join(self, group: str) -> dict[str, Any]:
        """Join (or rejoin after a crash); the reply carries the
        group's current ``round``."""
        return await self._request(JOIN, {"g": group})

    async def leave(self, group: str) -> dict[str, Any]:
        """Leave.  ``not-a-member`` counts as success: it is what a
        resend sees when the original leave already landed."""
        return await self._request(LEAVE, {"g": group}, ("not-a-member",))

    async def arrive(self, group: str, round_: int) -> str:
        """Arrive at ``(group, round_)`` and block until released.

        Returns ``"released"`` normally, or ``"ejected"`` if the daemon
        condemned this client out of the group while we waited (the
        byzantine clients' expected fate).  The arrive frame is resent
        every ``resend_s`` until one of those outcomes -- the protocol's
        idempotent healing covers every lost release.
        """
        deadline = asyncio.get_event_loop().time() + self.timeout_s
        first = True
        while True:
            if self._released.get(group, -1) >= round_:
                return "released"
            if group in self._ejected_from or "*" in self._ejected_from:
                return "ejected"
            if not self.connected:
                raise ServeClientError("disconnected", "arrive")
            if not first:
                self.stats["resends"] += 1
            first = False
            self._send(
                ARRIVE,
                {"g": group, "round": round_, "rid": self._next_rid()},
            )
            if asyncio.get_event_loop().time() > deadline:
                raise ServeTimeout(
                    f"client {self.client_id}: no release for "
                    f"{group}#{round_} within {self.timeout_s}s"
                )
            await self._wait_signal(self.resend_s)

    def released_round(self, group: str) -> int:
        """Highest round released for ``group`` (-1 before any)."""
        return self._released.get(group, -1)

    async def wait_ejected(self, group: str, timeout: float) -> bool:
        """True once the daemon has condemned us out of ``group`` (or
        globally); False if ``timeout`` elapses first."""
        if group in self._ejected_from or "*" in self._ejected_from:
            return True
        await self._wait_signal(timeout)
        return group in self._ejected_from or "*" in self._ejected_from

    async def _request(
        self,
        kind: str,
        body: dict[str, Any],
        ok_reasons: tuple[str, ...] = (),
    ) -> dict[str, Any]:
        """Send with a fresh ``rid``; resend on silence; back off and
        retry on ``backpressure``; raise on a terminal reject."""
        rid = self._next_rid()
        payload = {"rid": rid, **body}
        deadline = asyncio.get_event_loop().time() + self.timeout_s
        backoff = self.resend_s
        while True:
            if not self.connected:
                raise ServeClientError("disconnected", kind)
            future: asyncio.Future = asyncio.get_event_loop().create_future()
            self._pending[rid] = future
            self._send(kind, payload)
            try:
                reply = await asyncio.wait_for(future, timeout=backoff)
            except asyncio.TimeoutError:
                self.stats["resends"] += 1
                if asyncio.get_event_loop().time() > deadline:
                    self._pending.pop(rid, None)
                    raise ServeTimeout(
                        f"client {self.client_id}: {kind} unanswered "
                        f"within {self.timeout_s}s"
                    ) from None
                continue
            except asyncio.CancelledError:
                raise ServeClientError("disconnected", kind) from None
            finally:
                self._pending.pop(rid, None)
            reason = reply.get("reason")
            if reason is None or reason in ok_reasons:
                return reply
            if reason == "backpressure":
                self.stats["backpressure"] += 1
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, 1.0)
                continue
            raise ServeClientError(reason, kind)

    # -- raw access (the load generator's byzantine hook) ---------------
    def send_raw(self, kind: str, payload: dict[str, Any]) -> None:
        """Send an arbitrary (well-framed) verb -- how the load
        generator forges future-round arrives and junk verbs."""
        self._send(kind, payload)

    def send_bytes(self, blob: bytes) -> None:
        """Write raw bytes inside a valid frame -- garbage the strict
        decoder must quarantine without dropping honest clients."""
        if self._writer is None:
            raise ServeClientError("disconnected", "send_bytes")
        self._writer.write(encode_frame(blob))

    # -- wire plumbing -------------------------------------------------
    def _send(self, kind: str, payload: dict[str, Any]) -> None:
        if self._writer is None:
            raise ServeClientError("disconnected", kind)
        msg = Message(
            kind=kind,
            src=self.client_id,
            dst=SERVER_ID,
            seq=self._seq,
            incarnation=self.incarnation,
            payload=payload,
        )
        self._seq += 1
        self.stats["sent"] += 1
        self._writer.write(encode_frame(msg.to_bytes()))

    def _next_rid(self) -> int:
        self._rid += 1
        return self._rid

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                chunk = await reader.read(65536)
                if not chunk:
                    break
                for body in decoder.feed(chunk):
                    try:
                        msg = Message.from_bytes(body, strict=True)
                    except FrameError:
                        continue  # a corrupt server frame; ignore
                    self._dispatch(msg)
        except (asyncio.CancelledError, FrameError):
            pass
        except ConnectionError as exc:
            # The reader keeps the error it raised here; with a traceback
            # that is a cycle through this frame back to the reader.
            exc.__traceback__ = None
        finally:
            self.connected = False
            self._wake_waiters()

    def _dispatch(self, msg: Message) -> None:
        if msg.kind == WELCOME:
            self._welcome.set()
        elif msg.kind == RELEASE:
            group = msg.payload.get("g")
            round_ = msg.payload.get("round")
            if isinstance(group, str) and isinstance(round_, int):
                if round_ > self._released.get(group, -1):
                    self._released[group] = round_
            self._wake_waiters()
        elif msg.kind in (OK, REJECT):
            rid = msg.payload.get("rid")
            future = self._pending.get(rid) if rid is not None else None
            if future is not None and not future.done():
                future.set_result(dict(msg.payload))
            elif msg.kind == REJECT:
                # An unsolicited reject: an eject/condemnation notice.
                reason = msg.payload.get("reason")
                group = msg.payload.get("g")
                if reason == "condemned":
                    if isinstance(group, str):
                        self._ejected_from.add(group)
                    else:
                        self._ejected_from.add("*")
                    self._wake_waiters()
        elif msg.kind == SHUTDOWN:
            self.shutdown_seen = True
            self._wake_waiters()
        elif msg.kind == GOODBYE:
            pass

    async def _wait_signal(self, timeout: float) -> None:
        """Park until any inbound frame of interest (or the resend
        tick)."""
        event = asyncio.Event()
        self._waiters.append(event)
        try:
            await asyncio.wait_for(event.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            pass
        finally:
            if event in self._waiters:
                self._waiters.remove(event)

    def _wake_waiters(self) -> None:
        waiters, self._waiters = self._waiters, []
        for event in waiters:
            event.set()
