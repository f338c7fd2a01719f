"""The tree barrier as an explicit message protocol.

This is the deployment of the paper's RB-on-trees discipline over real
(lossy, reordering, partitionable) channels: each barrier round *r* is
an arrive wave up the tree and a release wave down it.

* a node reliably resends ``arrive(r)`` to its parent until it sees a
  ``release(r')`` with ``r' >= r``;
* a parent answers a *stale* arrive (``r`` < its round) with a direct
  one-shot ``release(r)`` -- the idempotent reply that heals any loss
  or crash on the downstream path;
* releases are resent until the child acks (``rack``), and both waves
  are monotone (tracked as per-peer high-water marks), so duplicates
  and reordering are harmless by construction;
* a sender retires with its round: each resend loop tests the round it
  was spawned for (bound by value, never the loop's current round), so
  once round *r* is released and acked nothing about *r* is sent again.
  A fault-free round therefore costs exactly one ``arrive``, one
  ``release`` and one ``rack`` per tree edge -- 3(n-1) frames -- and
  every resend in a run is an honest timer expiry (a lost frame, a
  crashed peer, or a round slower than ``Timing.resend``).

Crash-restart is the paper's detectable-fault reset path: the node
loses every volatile table (arrivals, acks, dedup, pending resends, the
inbox), keeps only its durable round counter -- the stable phase
counter of Herman-style phase clocks -- and comes back as a new
incarnation announcing itself with reliable ``resync`` messages.
Neighbours answer ``sync`` (emitting one ``detect`` per restart), the
restarted node emits ``recovery``, and the round it was executing is
simply re-run.  Crash points are quantized to round entry, which is
what makes a seeded run replay to an identical trace digest: every
narrated event is a function of the node's own round sequence, never of
message timing.

Only the root narrates phase instances (``phase_start`` /
``phase_end``), mirroring how the simulated engines are monitored; a
root crash mid-instance closes the instance as failed and re-executes
it -- masking made visible in the trace.
"""

from __future__ import annotations

import asyncio
from functools import partial
from typing import Sequence

from repro.net.frames import Message
from repro.net.node import NetNode, Timing
from repro.net.transport import Transport
from repro.obs.tracer import NullTracer, Tracer


def tree_parent(node_id: int, arity: int) -> int | None:
    return None if node_id == 0 else (node_id - 1) // arity


def tree_children(node_id: int, arity: int, nprocs: int) -> list[int]:
    lo = arity * node_id + 1
    return [c for c in range(lo, lo + arity) if c < nprocs]


class TreeBarrierNode(NetNode):
    """One process of the distributed tree barrier."""

    def __init__(
        self,
        node_id: int,
        nprocs: int,
        transport: Transport,
        barriers: int,
        arity: int = 2,
        crash_rounds: Sequence[int] = (),
        permanent_rounds: Sequence[int] = (),
        byzantine_rounds: Sequence[int] = (),
        tracer: Tracer | NullTracer | None = None,
        timing: Timing | None = None,
        defense: bool = True,
        plan_seed: int = 0,
        fail_stop_aware: bool = False,
    ) -> None:
        super().__init__(
            node_id,
            nprocs,
            transport,
            tracer,
            timing,
            defense=defense,
            plan_seed=plan_seed,
            fail_stop_aware=fail_stop_aware,
        )
        self.barriers = barriers
        self.arity = arity
        self.parent = tree_parent(node_id, arity)
        self.children = tree_children(node_id, arity, nprocs)
        self._crashes = sorted(crash_rounds)
        #: Rounds at whose entry this node crashes *permanently*.
        self._permanent = sorted(permanent_rounds)
        #: Rounds at whose entry this node turns Byzantine.
        self._byz_rounds = sorted(byzantine_rounds)
        #: Durable round counter (the stable phase clock): the next
        #: round to complete.  Everything else is volatile.
        self.round = 0
        self.completed = 0
        # -- volatile protocol tables --
        self._last_arrive: dict[int, int] = {}
        self._max_release = -1
        self._release_acked: dict[int, int] = {}
        self._synced: set[int] = set()
        self._open_phase: int | None = None  # root's in-flight instance

    # -- protocol state ------------------------------------------------
    def neighbors(self) -> list[int]:
        peers = list(self.children)
        if self.parent is not None:
            peers.append(self.parent)
        return peers

    def reset_volatile(self) -> None:
        super().reset_volatile()
        self._last_arrive = {}
        self._max_release = -1
        self._release_acked = {}
        self._synced = set()

    # -- handlers ------------------------------------------------------
    def handle(self, msg: Message) -> None:
        kind, src, p = msg.kind, msg.src, msg.payload
        if kind in ("arrive", "release", "rack"):
            r = p.get("round")
            if not isinstance(r, int) or isinstance(r, bool):
                return  # trusting mode: ignore garbage rather than raise
        if kind == "arrive":
            if r > self._last_arrive.get(src, -1):
                self._last_arrive[src] = r
            if r < self.round:
                # Stale arrive: the child missed (or we lost) the
                # release for a finished round -- answer directly.
                self.spawn(self.send_msg(src, "release", {"round": r}))
        elif kind == "release":
            if r > self._max_release:
                self._max_release = r
            self.spawn(self.send_msg(src, "rack", {"round": r}))
        elif kind == "rack":
            if r > self._release_acked.get(src, -1):
                self._release_acked[src] = r
        elif kind == "resync":
            if self.note_peer_incarnation(src, msg.incarnation):
                if self.tracer.enabled:
                    self.tracer.detect(
                        float(self.clock.tick()),
                        self.node_id,
                        peer=src,
                        incarnation=msg.incarnation,
                    )
            self.spawn(
                self.send_msg(
                    src, "sync", {"round": self.round, "ack": msg.incarnation}
                )
            )
        elif kind == "sync":
            if p.get("ack", -1) == self.incarnation:
                self._synced.add(src)
        # hb needs no handler: receipt already fed dedup and the clock.

    # -- defense -------------------------------------------------------
    def validate_msg(self, msg: Message) -> str | None:
        """Reject every frame an honest peer could not send *right now*.

        The load-bearing invariant is the durable round counter: it
        survives crash-restart (only the volatile tables reset), and a
        child can never be ahead of its parent (releases gate round
        advance), so every honest ``arrive``/``release``/``rack``
        carries ``round <= self.round`` -- even mid-recovery.  A higher
        round is therefore a *proof* of misbehaviour, never a race.
        """
        kind, src, p = msg.kind, msg.src, msg.payload
        if kind == "hb":
            return None
        if kind in ("arrive", "release", "rack"):
            r = p.get("round")
            if not isinstance(r, int) or isinstance(r, bool) or r < 0:
                return "schema"
            if kind == "release":
                if src != self.parent:
                    return "topology"
            elif src not in self.children:
                return "topology"
            if r > self.round:
                return "future-round"
            return None
        if kind == "resync":
            return None if src in self.neighbors() else "topology"
        if kind == "sync":
            if src not in self.neighbors():
                return "topology"
            for key in ("round", "ack"):
                v = p.get(key)
                if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                    return "schema"
            return None
        return "unknown-kind"

    # -- Byzantine lie palette -----------------------------------------
    def distort(self, dst, kind, payload):
        """Lie on the protocol waves; leave the framework channel alone.

        Each lie is keyed on ``(plan_seed, pid, kind, round)`` -- *not*
        on the attempt -- so every resend of a round's wave lies
        identically and the barrier pinches at the first lying round,
        a pure function of the seed.  Every variant is invalid at *any*
        receiver state (non-int, negative, or a round no honest run can
        reach): invalidity must not depend on the receiver's current
        round, because activation also distorts the previous round's
        still-resending wave, and a relative lie like ``r+1`` riding
        such a resend would be receiver-valid -- a forged arrival that
        wrongly completes a round and makes the pinch timing-dependent.
        """
        if kind not in ("arrive", "release", "rack"):
            return kind, payload
        from repro.net.faults import _decision

        r = payload.get("round", 0)
        pick = int(
            _decision(self.plan_seed, "byz-tree", (self.node_id, kind, r), 0) * 3
        )
        if pick == 0:
            return kind, {"round": "?"}
        if pick == 1:
            return kind, {"round": -1}
        return kind, {"round": 1_000_000_000 + r}

    # -- crash path ----------------------------------------------------
    def _narrate_crash(self) -> None:
        if self._open_phase is not None:
            # The instance the root was executing dies with it.
            if self.tracer.enabled:
                self.tracer.phase_end(
                    float(self.clock.tick()), self._open_phase, False
                )
            self._open_phase = None

    async def _maybe_crash(self) -> bool:
        """Fire the next scheduled crash if this round is due."""
        if not (self._crashes and self._crashes[0] <= self.round):
            return False
        self._crashes.pop(0)
        await self.crash_restart()
        await self._resync()
        return True

    def _maybe_byzantine(self) -> None:
        """Turn hostile at the scheduled round's entry."""
        if self._byz_rounds and self._byz_rounds[0] <= self.round:
            self._byz_rounds.pop(0)
            self.activate_byzantine()

    def _permanent_due(self) -> bool:
        return bool(self._permanent and self._permanent[0] <= self.round)

    async def _resync(self) -> None:
        """Announce the new incarnation until every neighbour confirms."""
        inc = self.incarnation
        for peer in self.neighbors():
            self.spawn(
                self.send_until(
                    peer,
                    "resync",
                    {},
                    lambda peer=peer: peer in self._synced
                    or peer in self.condemned
                    or self.incarnation != inc
                    or self.failsafe,
                )
            )
        # Condemned neighbours (permanently dead or Byzantine) can never
        # confirm; a fail-safe stop abandons the handshake entirely.
        await self.wait_for(
            lambda: self._synced >= (set(self.neighbors()) - self.condemned)
            or self.failsafe
        )
        if self.tracer.enabled:
            self.tracer.recovery(
                float(self.clock.tick()), self.node_id, round=self.round
            )

    # -- per-round predicates ------------------------------------------
    # ``run_rounds`` hands these to ``wait_for``/``send_until`` as
    # ``partial(self._pred, r)``: the round is bound by value, so a
    # sender spawned for round r keeps testing round r after the loop
    # has moved on, and retires with it.
    def _children_arrived(self, r: int) -> bool:
        return (
            all(self._last_arrive.get(c, -1) >= r for c in self.children)
            or self.failsafe
        )

    def _released(self, r: int) -> bool:
        return self._max_release >= r or self.failsafe

    def _arrive_settled(self, r: int) -> bool:
        # ``round > r`` also covers a crash: the restarted node re-arms
        # through resync, not through this sender.
        return self._max_release >= r or self.round > r or self.failsafe

    def _release_settled(self, child: int, r: int) -> bool:
        return self._release_acked.get(child, -1) >= r or self.failsafe

    # -- the protocol --------------------------------------------------
    async def run_rounds(self) -> None:
        """Complete ``barriers`` rounds, surviving the configured faults."""
        self.start_loops()
        work = self.timing.work
        while self.round < self.barriers and not self.failsafe:
            r = self.round
            if self.parent is None and self._open_phase is None:
                self._open_phase = r
                if self.tracer.enabled:
                    self.tracer.phase_start(float(self.clock.tick()), r)
            self._maybe_byzantine()
            if self._permanent_due():
                await self.fail_stop()
                return
            if await self._maybe_crash():
                continue  # re-enter the (re-executed) current round
            if work:
                await asyncio.sleep(work)
            # Arrive wave: every child's subtree has reached round r.
            await self.wait_for(partial(self._children_arrived, r))
            if self.failsafe:
                break
            if self.parent is None:
                if self.tracer.enabled:
                    self.tracer.phase_end(float(self.clock.tick()), r, True)
                self._open_phase = None
            else:
                self.spawn(
                    self.send_until(
                        self.parent,
                        "arrive",
                        {"round": r},
                        partial(self._arrive_settled, r),
                    )
                )
                await self.wait_for(partial(self._released, r))
                if self.failsafe:
                    break
            self.round = r + 1
            self.completed = self.round
            # Release wave: resend to each child until acked.
            for child in self.children:
                self.spawn(
                    self.send_until(
                        child,
                        "release",
                        {"round": r},
                        partial(self._release_settled, child, r),
                    )
                )
        if self.failsafe:
            # Fail-safe stop (Section 7): the run may end without the
            # barrier, but a wrongful completion is never narrated --
            # the root closes its in-flight instance as *failed*.
            if self._open_phase is not None:
                if self.tracer.enabled:
                    self.tracer.phase_end(
                        float(self.clock.tick()), self._open_phase, False
                    )
                self._open_phase = None
            return
        # Let the final release wave settle (bounded; acks normally
        # arrive within one resend interval).
        await self.wait_for(
            lambda: all(
                self._release_acked.get(c, -1) >= self.barriers - 1
                for c in self.children
            ),
            timeout=self.timing.finish_timeout,
        )
