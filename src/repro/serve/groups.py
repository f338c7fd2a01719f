"""Multi-tenant barrier groups: lifecycle, admission, backpressure.

A :class:`BarrierGroup` is one tenant of the daemon -- an independent
barrier domain with its own membership, round counter, bounded inbox and
worker task, so a slow or hostile group can never stall another (the
scheduling unit is the group, not the daemon).

Semantics (the paper's tree barrier flattened onto a star):

* round ``r`` completes when every *current* member has arrived at
  ``r``; the group then sends ``release(r)`` to every member and
  advances;
* a stale ``arrive`` (``r`` < the group's round) is answered with a
  direct one-shot release -- the idempotent reply that heals loss,
  backpressure rejections and crash-restart reconnects;
* an arrive for a *future* round is a proof of misbehaviour (an honest
  client cannot outrun its own release), so it draws a suspicion
  strike; at :data:`~repro.serve.protocol.STRIKE_LIMIT` the client is
  condemned and ejected (PR-9's defense discipline at the service
  boundary);
* ``leave`` and ejection apply immediately and re-check completion, so
  remaining members still complete the round a leaver was blocking;
* a member that vanishes without ``leave`` keeps its seat for
  ``lease_s`` (a crash-restart client reconnects with a bumped
  incarnation and resumes); past the lease it is evicted like a leave.

Determinism: the group appends logical outcomes -- member set, rounds
completed, rejected joins, ejections -- to a structured log whose
content is a pure function of *what* clients did, never of message
timing, which is what lets seeded load-generator runs replay to
identical digests over real sockets.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.serve.protocol import STRIKE_LIMIT, check_round

#: Send one frame to a client: (client, kind, payload) -> delivered?
SendFn = Callable[[int, str, dict[str, Any]], bool]


@dataclass
class GroupLimits:
    """Per-group admission-control and backpressure knobs."""

    capacity: int = 64          #: max concurrent members
    queue_depth: int = 256      #: bounded inbox (frames), then reject
    lease_s: float = 30.0       #: silent-member grace before eviction


@dataclass
class Member:
    """One seat in a group."""

    client: int
    incarnation: int
    joined_round: int
    arrived: int = -1           #: highest round this member arrived at
    last_seen: float = field(default_factory=time.monotonic)


def _release_payload(name: str, barriers: int, r: int) -> dict[str, Any]:
    return {"g": name, "round": r, "last": r >= barriers - 1}


@dataclass(frozen=True)
class DoneGroup:
    """What a finished group leaves behind.

    Only pure replies are left once every barrier is passed -- the
    healing ``release`` for a late ``arrive``, ``group-done`` for a late
    ``join`` -- and they are functions of these four fields, so the
    inbox, the worker, the seats and the stats can all go.
    """

    name: str
    barriers: int
    round: int
    result: dict[str, Any]      #: the group's final :meth:`BarrierGroup.outcome`

    done = True

    def answer(
        self, send: SendFn, client: int, kind: str, payload: dict[str, Any]
    ) -> None:
        """Reply to one late frame, inline (nothing is queued)."""
        if kind == "arrive":
            # A member that lost its last release (crash, shed frame)
            # resends until healed; anything else is not worth a word.
            r = payload.get("round")
            if check_round(r) and r < self.round:
                send(client, "release", _release_payload(self.name, self.barriers, r))
            return
        reason = "group-done" if kind == "join" else "not-a-member"
        send(
            client,
            "g.reject",
            {"g": self.name, "rid": payload.get("rid"), "reason": reason},
        )

    def snapshot(self) -> dict[str, Any]:
        """The ``/groups`` endpoint's view of a finished group."""
        return {
            "name": self.name,
            "round": self.round,
            "barriers": self.barriers,
            "done": True,
            "completed": self.result["completed"],
        }

    def outcome(self) -> dict[str, Any]:
        return self.result


class BarrierGroup:
    """One group: membership + rounds + a bounded worker-fed inbox."""

    def __init__(
        self,
        name: str,
        barriers: int,
        send: SendFn,
        limits: GroupLimits | None = None,
        on_strike: Callable[[int], int] | None = None,
        clock: Callable[[], float] = time.monotonic,
        on_round: Callable[[str, float], None] | None = None,
        on_done: Callable[[DoneGroup], None] | None = None,
    ) -> None:
        self.name = name
        self.barriers = barriers
        self.limits = limits or GroupLimits()
        self._send = send
        #: Daemon-level strike accounting: returns the client's strike
        #: count so condemnation is global, not per-group.
        self._on_strike = on_strike or (lambda client: STRIKE_LIMIT)
        self._clock = clock
        #: Told (name, first-arrive -> completion seconds) as each round
        #: closes, and the record once the last has; nothing is kept here.
        self._on_round = on_round
        self._on_done = on_done
        self.round = 0
        #: Set by the last round: what answers from then on.
        self.record: DoneGroup | None = None
        self.members: dict[int, Member] = {}
        #: (client, kind, payload) frames awaiting the worker; None ends it.
        self.inbox: asyncio.Queue[tuple[int, str, dict[str, Any]] | None] = (
            asyncio.Queue(maxsize=self.limits.queue_depth)
        )
        self.stats = {
            "joins": 0,
            "leaves": 0,
            "evictions": 0,
            "ejections": 0,
            "rejected_joins": 0,
            "arrivals": 0,
            "stale_arrives": 0,
            "completions": 0,
            "backpressure": 0,
        }
        self._round_opened: float | None = None
        #: The deterministic outcome log (see module docstring).
        self.ejected: set[int] = set()
        self.rejected: list[tuple[int, str]] = []
        self.ever_members: set[int] = set()
        self._worker: asyncio.Task | None = None

    # -- admission (called from connection readers; synchronous) -------
    def offer(self, client: int, kind: str, payload: dict[str, Any]) -> bool:
        """Queue a frame for the worker; False = backpressure (the
        caller answers with a transient reject and the client's resend
        loop retries).  A done group's worker has exited, so its record
        answers inline."""
        if self.record is not None:
            self.record.answer(self._send, client, kind, payload)
            return True
        try:
            self.inbox.put_nowait((client, kind, payload))
            return True
        except asyncio.QueueFull:
            self.stats["backpressure"] += 1
            return False

    # -- the worker ----------------------------------------------------
    def start(self) -> None:
        self._worker = asyncio.ensure_future(self._run())

    async def stop(self) -> None:
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except (asyncio.CancelledError, Exception):
                pass
            self._worker = None

    async def _run(self) -> None:
        lease_poll = max(self.limits.lease_s / 4.0, 0.05)
        while True:
            try:
                frame = await asyncio.wait_for(
                    self.inbox.get(), timeout=lease_poll
                )
            except asyncio.TimeoutError:
                self._evict_expired()
                continue
            if frame is None:
                return  # _finish's wake-up: the record answers from here on
            self.dispatch(*frame)

    def dispatch(self, client: int, kind: str, payload: dict[str, Any]) -> None:
        """Apply one frame to the group state (worker context)."""
        member = self.members.get(client)
        if member is not None:
            member.last_seen = self._clock()
        if kind == "join":
            self._handle_join(client, payload)
        elif kind == "leave":
            self._handle_leave(client, payload)
        elif kind == "arrive":
            self._handle_arrive(client, payload)

    # -- join / leave --------------------------------------------------
    def _handle_join(self, client: int, payload: dict[str, Any]) -> None:
        rid = payload.get("rid")
        incarnation = payload.get("inc", 0)
        member = self.members.get(client)
        if member is not None:
            # Rejoin after crash-restart: same seat, new incarnation.
            # The round counter is the durable state the client lost;
            # hand it back so the client resumes where the group is.
            if incarnation > member.incarnation:
                member.incarnation = incarnation
                member.arrived = self.round - 1
            self._reply_ok(client, rid, round=self.round)
            return
        if len(self.members) >= self.limits.capacity:
            self.stats["rejected_joins"] += 1
            self.rejected.append((client, "group-full"))
            self._reject(client, rid, "group-full")
            return
        self.members[client] = Member(
            client=client,
            incarnation=incarnation,
            joined_round=self.round,
            arrived=self.round - 1,
        )
        self.ever_members.add(client)
        self.stats["joins"] += 1
        self._reply_ok(client, rid, round=self.round)

    def _handle_leave(self, client: int, payload: dict[str, Any]) -> None:
        rid = payload.get("rid")
        if self.members.pop(client, None) is None:
            self._reject(client, rid, "not-a-member")
            return
        self.stats["leaves"] += 1
        self._reply_ok(client, rid, round=self.round)
        # A leaver may have been the round's last straggler.
        self._check_completion()

    # -- the barrier ---------------------------------------------------
    def _handle_arrive(self, client: int, payload: dict[str, Any]) -> None:
        member = self.members.get(client)
        if member is None:
            # Not a protocol crime: a just-evicted client's resend loop
            # races its eviction.
            return
        r = payload.get("round")
        if not check_round(r):
            self._strike(client, "schema")
            return
        if r > self.round:
            # An honest client cannot be ahead of the group (its own
            # release gates it) -- a future round is a lie, not a race.
            self._strike(client, "future-round")
            return
        if r < self.round:
            # Stale: the release got lost (backpressure, reconnect).
            self.stats["stale_arrives"] += 1
            self._send(client, "release", self._release_payload(r))
            return
        self.stats["arrivals"] += 1
        if self._round_opened is None:
            self._round_opened = self._clock()
        if r > member.arrived:
            member.arrived = r
        self._check_completion()

    def _check_completion(self) -> None:
        if self.done or not self.members:
            return
        r = self.round
        if not all(m.arrived >= r for m in self.members.values()):
            return
        opened, self._round_opened = self._round_opened, None
        if opened is not None and self._on_round is not None:
            self._on_round(self.name, self._clock() - opened)
        self.stats["completions"] += 1
        self.round = r + 1
        payload = self._release_payload(r)
        for member in list(self.members.values()):
            self._send(member.client, "release", payload)
        if self.round >= self.barriers:
            self._finish()

    @property
    def done(self) -> bool:
        return self.round >= self.barriers

    def _finish(self) -> None:
        """The last round closed: collapse to a :class:`DoneGroup`."""
        self.members.clear()
        record = self.record = DoneGroup(
            self.name, self.barriers, self.round, self.outcome()
        )
        # Frames queued behind the completing one still get their reply.
        while not self.inbox.empty():
            frame = self.inbox.get_nowait()
            assert frame is not None  # the only None is put below
            record.answer(self._send, *frame)
        if self._on_done is not None:
            self._on_done(record)
        # End the worker by a sentinel, not a cancel: a cancelled task
        # keeps its CancelledError, whose traceback pins this group.
        self.inbox.put_nowait(None)

    def _release_payload(self, r: int) -> dict[str, Any]:
        return _release_payload(self.name, self.barriers, r)

    # -- defense -------------------------------------------------------
    def _strike(self, client: int, reason: str) -> None:
        """One provably-hostile frame; ejection at the strike limit."""
        strikes = self._on_strike(client)
        if strikes >= STRIKE_LIMIT and client not in self.ejected:
            self.eject(client, reason)

    def eject(self, client: int, reason: str) -> None:
        """Condemn a member (daemon-wide) and free its seat."""
        self.ejected.add(client)
        self.stats["ejections"] += 1
        if self.members.pop(client, None) is not None:
            self._send(client, "g.reject", {"g": self.name, "reason": "condemned"})
            self._check_completion()

    def _evict_expired(self) -> None:
        """Reclaim seats of members silent past their lease -- the
        safety net against clients that died without ``leave`` and
        never came back."""
        if self.done:
            return
        deadline = self._clock() - self.limits.lease_s
        expired = [
            m.client for m in self.members.values() if m.last_seen < deadline
        ]
        for client in expired:
            del self.members[client]
            self.stats["evictions"] += 1
        if expired:
            self._check_completion()

    # -- replies -------------------------------------------------------
    def _reply_ok(self, client: int, rid: Any, **data: Any) -> None:
        self._send(client, "g.ok", {"g": self.name, "rid": rid, **data})

    def _reject(self, client: int, rid: Any, reason: str) -> None:
        self._send(
            client, "g.reject", {"g": self.name, "rid": rid, "reason": reason}
        )

    # -- introspection -------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The ``/groups`` endpoint's view of this group."""
        return {
            "name": self.name,
            "round": self.round,
            "barriers": self.barriers,
            "done": self.done,
            "members": len(self.members),
            "capacity": self.limits.capacity,
            "arrived": sum(
                1 for m in self.members.values() if m.arrived >= self.round
            ),
            "inbox_depth": self.inbox.qsize(),
            "inbox_capacity": self.limits.queue_depth,
            "stats": dict(self.stats),
        }

    def outcome(self) -> dict[str, Any]:
        """The deterministic slice for the replay digest."""
        return {
            "name": self.name,
            "barriers": self.barriers,
            "completed": self.stats["completions"],
            "done": self.done,
            "ever_members": sorted(self.ever_members),
            "final_members": sorted(self.members),
            "ejected": sorted(self.ejected),
            "rejected": sorted(self.rejected),
        }
