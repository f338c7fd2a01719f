"""Node plumbing shared by the message-level barrier protocols.

:class:`NetNode` owns everything a protocol needs under it: the
transport, per-destination sequence numbers, receiver-side exactly-once
dedup, the Lamport clock that stamps every traced event, heartbeats,
bounded-exponential-backoff reliable sends, and the crash-restart
scaffolding (volatile-state wipe + inbox drain + incarnation bump).

It also owns the *defensive frame layer* (on by default): every
received frame is strictly decoded and schema-validated, and anything a
hostile peer could have sent -- garbage bytes, a src-spoofed envelope,
a protocol-invalid payload -- is rejected with a structured
``quarantine`` trace event instead of an exception.  Provably-invalid
frames whose source is authentic (the transport's channel attribution
matches the envelope) accrue *suspicion strikes* against that peer,
with seeded-jitter backoff between strikes; at :data:`STRIKE_LIMIT` the
peer is condemned (one ``detect`` per node per condemned peer -- a
deterministic, race-free digest row set) and the node degrades into a
*fail-safe stop*: it floods ``fsafe`` to its neighbours, stops making
progress, and the run ends having never wrongly reported a barrier
completion (the paper's Section 7 fail-safe guarantee).  Spoofed or
undecodable frames do *not* strike -- they are network faults, and
honest peers must never be condemned for them.

Protocols subclass it twice: :class:`repro.net.tree.TreeBarrierNode`
(the RB-on-trees discipline as explicit arrive/release waves) and
:class:`repro.net.mbnode.MBRingNode` (the MB machine over retransmitted
state pushes).  Both narrate through a per-node
:class:`repro.obs.tracer.Tracer` using the shared event schema, so the
chaos monitors read a distributed run exactly like every simulated one.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Callable, Coroutine, Mapping

from repro.net.frames import DedupIndex, FrameError, LamportClock, Message
from repro.net.transport import Signal, Transport, TransportClosed
from repro.obs.tracer import NullTracer, Tracer, ensure_tracer

#: Message kind -> the integer tag used for traced msg_send/msg_recv.
KIND_TAGS: dict[str, int] = {
    "arrive": 1,
    "release": 2,
    "rack": 3,
    "resync": 4,
    "sync": 5,
    "hb": 6,
    "push": 7,
    "fsafe": 8,
    "fack": 9,
}

#: Authentic provably-invalid frames from one peer before condemnation.
STRIKE_LIMIT = 3

#: Base backoff applied to a struck peer (doubles per strike, plus a
#: seeded jitter drawn from the plan seed).
STRIKE_BACKOFF = 0.05


@dataclass(frozen=True)
class Timing:
    """The runtime's knobs, all in wall-clock seconds.

    ``resend`` grows by ``backoff`` per attempt up to ``resend_max``
    (the paper's bounded exponential backoff); ``push_interval`` is the
    MB ring's state-push cadence (its retransmission mechanism).
    """

    resend: float = 0.04
    backoff: float = 2.0
    resend_max: float = 0.4
    hb_interval: float = 0.25
    restart_delay: float = 0.03
    push_interval: float = 0.02
    work: float = 0.0
    finish_timeout: float = 2.0


class NetNode:
    """One distributed process: transport + clocks + reliability."""

    def __init__(
        self,
        node_id: int,
        nprocs: int,
        transport: Transport,
        tracer: Tracer | NullTracer | None = None,
        timing: Timing | None = None,
        defense: bool = True,
        plan_seed: int = 0,
        fail_stop_aware: bool = False,
    ) -> None:
        self.node_id = node_id
        self.nprocs = nprocs
        self.transport = transport
        self.tracer = ensure_tracer(tracer)
        self.timing = timing or Timing()
        self.clock = LamportClock()
        self.dedup = DedupIndex()
        self.incarnation = 0
        self._seq: dict[int, int] = {}
        self._tasks: set[asyncio.Task] = set()
        self._wake = Signal()
        #: Live ``send_until`` calls: each one's wake-up -> its predicate.
        self._unacked: dict[Signal, Callable[[], bool]] = {}
        self._running = True
        #: Highest incarnation seen per peer (survives our own crash so
        #: detect events stay exactly-once per restart).
        self._peer_inc: dict[int, int] = {}
        # -- defensive frame layer --
        #: Validate frames and strike hostile peers (off = the trusting
        #: pre-adversarial behaviour, kept as the intolerant control).
        self.defense = defense
        #: Seeds the strike-backoff jitter and Byzantine lie palette.
        self.plan_seed = plan_seed
        #: Watch for permanently-silent neighbours (set only when the
        #: plan contains permanent crashes, so benign runs are
        #: byte-identical to the pre-adversarial runtime).
        self.fail_stop_aware = fail_stop_aware
        #: Peers this node has condemned (Byzantine or permanently dead).
        self.condemned: set[int] = set()
        #: Fail-safe stop engaged: stop making progress, never complete.
        self.failsafe = False
        #: Permanently stopped (the Section 7 ``up := false`` state).
        self.dead = False
        #: This node sends protocol-valid but semantically wrong frames.
        self.byzantine_active = False
        self._strikes: dict[int, int] = {}
        self._suspect_until: dict[int, float] = {}
        self._fsafe_acked: dict[int, bool] = {}
        self._last_heard: dict[int, float] = {}
        self.stats = {
            "sent": 0,
            "received": 0,
            "dup_filtered": 0,
            "resends": 0,
            "hb_sent": 0,
            "crashes": 0,
            "quarantined": 0,
            "strikes": 0,
            # Gauges of ``send_until`` calls (timing-dependent, so in no
            # digest): most alive at once, and still waiting on their
            # predicate when the main coroutine ended.
            "senders_peak": 0,
            "senders_open": 0,
        }

    # -- task management -----------------------------------------------
    def spawn(self, coro: Coroutine[Any, Any, Any]) -> asyncio.Task:
        task = asyncio.ensure_future(coro)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return task

    async def stop(self) -> None:
        """Cancel every helper task (end of run or crash)."""
        self._running = False
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()

    # -- sending -------------------------------------------------------
    def _next_seq(self, dst: int) -> int:
        seq = self._seq.get(dst, 0)
        self._seq[dst] = seq + 1
        return seq

    async def send_msg(
        self, dst: int, kind: str, payload: Mapping[str, Any] | None = None
    ) -> None:
        """One best-effort message (reliability is the caller's loop)."""
        payload = dict(payload or {})
        if self.byzantine_active:
            kind, payload = self.distort(dst, kind, payload)
        msg = Message(
            kind=kind,
            src=self.node_id,
            dst=dst,
            seq=self._next_seq(dst),
            incarnation=self.incarnation,
            lamport=self.clock.tick(),
            payload=payload,
        )
        self.stats["sent"] += 1
        if self.tracer.enabled and kind != "hb":
            self.tracer.msg_send(
                float(msg.lamport), self.node_id, dst, tag=KIND_TAGS.get(kind, 0)
            )
        try:
            await self.transport.send(dst, msg.to_bytes())
        except TransportClosed:
            pass  # the run is tearing down

    async def send_until(
        self,
        dst: int,
        kind: str,
        payload: Mapping[str, Any],
        done: Callable[[], bool],
    ) -> None:
        """Resend ``kind`` to ``dst`` with bounded exponential backoff
        until ``done()`` -- the runtime's only reliability primitive.

        ``_notify`` ends the sleep the moment ``done()`` holds, so a
        sender retires on its ack, not a resend interval after it.
        """
        delay = self.timing.resend
        first = True
        acked = Signal()
        self._unacked[acked] = done
        if len(self._unacked) > self.stats["senders_peak"]:
            self.stats["senders_peak"] = len(self._unacked)
        try:
            while self._running and not done():
                await self.send_msg(dst, kind, payload)
                if not first:
                    self.stats["resends"] += 1
                first = False
                # ``done`` may have come true while the send waited.
                if done() or await acked.wait(delay):
                    return
                delay = min(delay * self.timing.backoff, self.timing.resend_max)
        finally:
            del self._unacked[acked]

    def _notify(self) -> None:
        """Protocol state moved: retire the senders it satisfies, then
        wake the main coroutine."""
        for acked, done in self._unacked.items():
            if done():
                acked.set()
        self._wake.set()

    def senders_open(self) -> int:
        return sum(not done() for done in self._unacked.values())

    # -- receiving -----------------------------------------------------
    async def _recv_loop(self) -> None:
        while self._running:
            try:
                src, body = await self.transport.recv()  # until ``stop`` cancels
            except TransportClosed:
                return
            # Any frame on this channel -- even garbage -- proves the
            # channel peer's process is alive (a permanently-crashed
            # node sends nothing at all), so it feeds silence tracking.
            self._last_heard[src] = self._now()
            try:
                msg = Message.from_bytes(body, strict=self.defense)
            except FrameError as exc:
                # Corrupted or foreign frame.  A decode failure is a
                # *network* fault (nobody's authenticated identity is
                # attached to garbage bytes), so it quarantines without
                # striking anyone.
                self.quarantine("decode", peer=src, detail=str(exc)[:80])
                continue
            if self.defense and msg.src != src:
                # The envelope claims a sender the channel disproves: a
                # forged impersonation.  The *channel* peer is not the
                # forger (the network injected it), so no strike -- but
                # the frame must never reach dedup or the protocol,
                # else it poisons the claimed sender's sequence space.
                self.quarantine("src-spoof", peer=src, claimed=msg.src)
                continue
            if self.defense and src in self.condemned:
                self.quarantine("condemned", peer=src)
                continue
            if self.defense and self._backing_off(src):
                self.quarantine("backoff", peer=src)
                continue
            if not self.dedup.accept(msg.src, msg.incarnation, msg.seq):
                self.stats["dup_filtered"] += 1
                continue
            self.stats["received"] += 1
            stamp = self.clock.update(msg.lamport)
            if self.tracer.enabled and msg.kind != "hb":
                self.tracer.msg_recv(
                    float(stamp),
                    msg.src,
                    self.node_id,
                    tag=KIND_TAGS.get(msg.kind, 0),
                )
            if self._handle_system(msg):
                self._notify()
                continue
            if self.defense:
                reason = self.validate_msg(msg)
                if reason is not None:
                    self.quarantine(reason, peer=src, msg_kind=msg.kind)
                    self._strike(src)
                    continue
            self.handle(msg)
            self._notify()

    def handle(self, msg: Message) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def validate_msg(self, msg: Message) -> str | None:
        """Protocol-level payload validation hook (defense on only).

        Returns None for a frame an honest peer could have sent *right
        now*, else a short quarantine reason.  A non-None return is a
        proof of misbehaviour: the frame's source is authentic (the
        channel attribution matched), so the peer is struck.
        """
        return None

    # -- defensive layer -----------------------------------------------
    def _now(self) -> float:
        return asyncio.get_event_loop().time()

    def quarantine(self, reason: str, peer: int | None = None, **data: Any) -> None:
        """Reject a frame with a structured trace event, never a raise."""
        self.stats["quarantined"] += 1
        if self.tracer.enabled:
            self.tracer.quarantine(
                float(self.clock.value), self.node_id, reason, peer=peer, **data
            )

    def _backing_off(self, peer: int) -> bool:
        until = self._suspect_until.get(peer)
        return until is not None and self._now() < until

    def _strike(self, peer: int) -> None:
        """One suspicion strike; condemnation at :data:`STRIKE_LIMIT`."""
        count = self._strikes.get(peer, 0) + 1
        self._strikes[peer] = count
        self.stats["strikes"] += 1
        if count >= STRIKE_LIMIT:
            self.condemn(peer)
            return
        from repro.net.faults import _decision

        jitter = _decision(
            self.plan_seed, "strike-backoff", (self.node_id, peer), count
        )
        hold = STRIKE_BACKOFF * (2 ** (count - 1)) * (1.0 + jitter)
        self._suspect_until[peer] = self._now() + hold

    def condemn(self, peer: int) -> None:
        """Mark ``peer`` hostile/dead and degrade into fail-safe stop.

        Every node emits exactly one ``detect`` per condemned peer
        (locally or on learning it from the ``fsafe`` flood), so the
        digest rows this adds are a pure function of the condemned set,
        not of message timing.
        """
        if peer in self.condemned:
            return
        self.condemned.add(peer)
        if self.tracer.enabled:
            self.tracer.detect(
                float(self.clock.tick()),
                self.node_id,
                peer=peer,
                condemned=True,
            )
        self._enter_failsafe()

    def _enter_failsafe(self) -> None:
        if self.failsafe:
            self._notify()
            return
        self.failsafe = True
        for nb in self.neighbors():
            self.spawn(
                self.send_until(
                    nb,
                    "fsafe",
                    {"c": sorted(self.condemned)},
                    lambda nb=nb: self._fsafe_acked.get(nb, False),
                )
            )
        self._notify()

    def _handle_system(self, msg: Message) -> bool:
        """Base-layer kinds (the fail-safe flood); True when consumed."""
        if msg.kind == "fsafe":
            pids = msg.payload.get("c")
            if not isinstance(pids, list) or not all(
                isinstance(p, int) and not isinstance(p, bool) and 0 <= p < self.nprocs
                for p in pids
            ):
                self.quarantine("schema", peer=msg.src, msg_kind="fsafe")
                return True
            self.spawn(self.send_msg(msg.src, "fack", {"c": pids}))
            for pid in pids:
                self.condemn(pid)
            return True
        if msg.kind == "fack":
            self._fsafe_acked[msg.src] = True
            return True
        return False

    # -- Byzantine mode ------------------------------------------------
    def distort(
        self, dst: int, kind: str, payload: dict[str, Any]
    ) -> tuple[str, dict[str, Any]]:
        """The Byzantine lie palette; subclasses override per protocol.

        Every decision must be a pure hash of ``(plan_seed, identity,
        protocol position)`` -- never of attempt counts or wall time --
        so sharded and single-loop runs distort identically.
        """
        return kind, payload

    def activate_byzantine(self) -> None:
        """Turn hostile (the Section 7 ``good := false`` moment); emits
        the fault event exactly once.  The node keeps *running* the
        protocol -- its narration and receive path stay framework-honest
        -- but every outgoing protocol frame goes through the lie
        palette from here on."""
        if self.byzantine_active:
            return
        self.byzantine_active = True
        if self.tracer.enabled:
            self.tracer.fault(
                float(self.clock.tick()),
                self.node_id,
                detectable=False,
                mode="byzantine",
            )

    # -- permanent crash -----------------------------------------------
    async def fail_stop(self) -> None:
        """A *permanent* crash (Section 7 ``up := false``): lose
        everything and never come back.  Peers notice only through
        silence (see ``_silence_loop``)."""
        self.stats["crashes"] += 1
        if self.tracer.enabled:
            self.tracer.fault(
                float(self.clock.tick()),
                self.node_id,
                detectable=True,
                mode="crash",
            )
        self._narrate_crash()
        self.dead = True
        await self.stop()
        self.transport.drain()

    async def _silence_loop(self) -> None:
        """Condemn a neighbour that has been silent far longer than the
        heartbeat interval -- the only way a permanent crash is ever
        observable.  Spawned only when ``fail_stop_aware`` (the plan
        schedules permanent crashes), so benign runs are untouched."""
        dead_after = 4.0 * self.timing.hb_interval
        for nb in self.neighbors():
            self._last_heard.setdefault(nb, self._now())
        while self._running and not self.failsafe:
            await asyncio.sleep(self.timing.hb_interval)
            now = self._now()
            for nb in self.neighbors():
                heard = self._last_heard.get(nb)
                if (
                    heard is not None
                    and now - heard > dead_after
                    and nb not in self.condemned
                ):
                    self.condemn(nb)

    # -- heartbeats ----------------------------------------------------
    def neighbors(self) -> list[int]:  # pragma: no cover - interface
        raise NotImplementedError

    async def _hb_loop(self) -> None:
        while self._running:
            await asyncio.sleep(self.timing.hb_interval)
            for peer in self.neighbors():
                self.stats["hb_sent"] += 1
                await self.send_msg(peer, "hb")

    def start_loops(self) -> None:
        self.spawn(self._recv_loop())
        self.spawn(self._hb_loop())
        if self.fail_stop_aware:
            self.spawn(self._silence_loop())

    # -- waiting -------------------------------------------------------
    async def wait_for(
        self, cond: Callable[[], bool], poll: float = 0.25, timeout: float | None = None
    ) -> bool:
        """Block until ``cond()`` holds (True) or ``timeout`` seconds
        have passed (False); woken by message arrival, with a poll
        fallback against lost wakeups."""
        deadline = None if timeout is None else self._now() + timeout
        while not cond():
            if deadline is not None:
                poll = min(poll, deadline - self._now())
                if poll <= 0:
                    return False
            await self._wake.wait(poll)
        return True

    # -- crash-restart -------------------------------------------------
    def reset_volatile(self) -> None:
        """Protocol-specific state wipe; extended by subclasses."""
        self.dedup = DedupIndex()
        self._seq = {}
        self._strikes = {}
        self._suspect_until = {}
        self._fsafe_acked = {}

    def _narrate_crash(self) -> None:
        """Hook: close any narration the fault interrupts.  Runs right
        after the ``fault`` event so monitors see fault-then-failure."""

    async def crash_restart(self) -> None:
        """A detectable fault: lose volatile state and in-flight input,
        come back as a new incarnation after ``restart_delay``."""
        self.stats["crashes"] += 1
        if self.tracer.enabled:
            self.tracer.fault(
                float(self.clock.tick()), self.node_id, detectable=True
            )
        self._narrate_crash()
        running = self._running
        await self.stop()
        self.transport.drain()
        self.reset_volatile()
        self.incarnation += 1
        await asyncio.sleep(self.timing.restart_delay)
        self._running = running
        self.start_loops()

    # -- resync narration ----------------------------------------------
    def note_peer_incarnation(self, peer: int, incarnation: int) -> bool:
        """Record a peer's restart; True (exactly once per restart) when
        this is news -- the caller emits the ``detect`` event.

        A restart is also the memory-bound point: the dedup index drops
        (and floors) the peer's dead incarnations, and the peer's
        strike history resets -- a fresh incarnation starts trusted.
        """
        if incarnation > self._peer_inc.get(peer, 0):
            self._peer_inc[peer] = incarnation
            self.dedup.forget_older_incarnations(peer, incarnation)
            self._strikes.pop(peer, None)
            self._suspect_until.pop(peer, None)
            return True
        return False
