"""Program MB deployed on the asyncio runtime.

The protocol brain is :class:`repro.simmpi.mb_impl.MBMachine` -- the
same sequence-number/control-position/phase state machine the
simulated-MPI deployment runs -- driven here by *real* asynchronous
messages: every state change (and every quiet ``push_interval``) pushes
the machine's exported state to both ring neighbours, and receiving a
push feeds :meth:`MBMachine.on_neighbor_state`.  The pushes are
idempotent, so the periodic retransmission is the entire loss-tolerance
story, exactly as in the paper's deployment sketch.

A crash-restart here *is* the MB detectable fault: :meth:`MBMachine.
reset` (``sn := BOT``, ``cp := error``, copies wiped) plus an inbox
drain -- the protocol's own repeat/re-execution machinery masks it.
A strike at ``when`` is due once the rank has completed ``when``
barriers -- progress-based, so a seeded plan lands mid-run at any
machine speed, but *not* quantized to the protocol's own structure:
the machine is wherever the ring's interleaving put it when the check
fires.  The MB run is monitored for guarantees rather than
digest-replayed, since its re-execution narration legitimately depends
on message interleaving.

Rank 0 narrates phase instances exactly like the simulated deployment
(:func:`repro.simmpi.mb_impl.mb_barrier_program`), counts globally
successful phases, and raises the ``done`` flag that floods the ring
inside the retransmitted pushes.
"""

from __future__ import annotations

import asyncio
from typing import Sequence

from repro.barrier.control import CP
from repro.gc.domains import BOT, TOP
from repro.net.frames import Message
from repro.net.node import NetNode, Timing
from repro.net.transport import Transport
from repro.obs.tracer import NullTracer, Tracer
from repro.simmpi.mb_impl import MBMachine

#: Wire names for the CP enum and the special sequence numbers.
_CP_BY_NAME = {cp.name: cp for cp in CP}
_SPECIAL = {"BOT": BOT, "TOP": TOP}


def _encode_sn(value: object) -> object:
    if value is BOT:
        return "BOT"
    if value is TOP:
        return "TOP"
    return value


def _decode_sn(value: object) -> object:
    if isinstance(value, str):
        return _SPECIAL[value]
    return value


class MBRingNode(NetNode):
    """One rank of the MB ring over the asyncio transport."""

    def __init__(
        self,
        node_id: int,
        nprocs: int,
        transport: Transport,
        barriers: int,
        nphases: int = 4,
        crash_times: Sequence[float] = (),
        permanent_times: Sequence[float] = (),
        byzantine_times: Sequence[float] = (),
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
        self.machine = MBMachine(
            rank=node_id,
            size=nprocs,
            nphases=nphases,
            l_domain=2 * nprocs,
        )
        self._crash_times = sorted(crash_times)
        #: Progress marks at which this rank dies for good / turns
        #: Byzantine (same completed-barriers clock as ``crash_times``).
        self._permanent_times = sorted(permanent_times)
        self._byz_times = sorted(byzantine_times)
        self.completed = 0
        self.reexecutions = 0
        self._open_phase: int | None = None
        self._busy_task: asyncio.Task | None = None

    # -- topology ------------------------------------------------------
    @property
    def pred(self) -> int:
        return (self.node_id - 1) % self.nprocs

    @property
    def succ(self) -> int:
        return (self.node_id + 1) % self.nprocs

    def neighbors(self) -> list[int]:
        return sorted({self.pred, self.succ} - {self.node_id})

    # -- state pushes --------------------------------------------------
    def _state_payload(self) -> dict:
        sn, cp, ph, done = self.machine.exported_state()
        return {"sn": _encode_sn(sn), "cp": cp.name, "ph": ph, "done": done}

    async def _push(self) -> None:
        payload = self._state_payload()
        for peer in self.neighbors():
            await self.send_msg(peer, "push", payload)

    def handle(self, msg: Message) -> None:
        if msg.kind != "push":
            return
        if self.note_peer_incarnation(msg.src, msg.incarnation):
            # First push of a restarted neighbour: the detectable
            # fault's detection, exactly once per restart.
            if self.tracer.enabled:
                self.tracer.detect(
                    float(self.clock.tick()),
                    self.node_id,
                    peer=msg.src,
                    incarnation=msg.incarnation,
                )
        p = msg.payload
        sn, cp, ph = p.get("sn"), p.get("cp"), p.get("ph")
        if isinstance(sn, str) and sn not in _SPECIAL:
            return  # trusting mode: ignore garbage rather than raise
        if cp not in _CP_BY_NAME:
            return
        if not isinstance(ph, int) or isinstance(ph, bool):
            return
        self.machine.on_neighbor_state(
            msg.src,
            _decode_sn(sn),
            _CP_BY_NAME[cp],
            ph,
            bool(p.get("done", False)),
        )

    # -- defense -------------------------------------------------------
    def validate_msg(self, msg: Message) -> str | None:
        """Schema-only validation for the MB ring.

        MB's narration legitimately depends on message interleaving, so
        (unlike the tree's durable-round rule) there is no semantic
        predicate that is provably hostile without false-strike risk on
        honest ranks.  The schema envelope is still exact: an honest
        rank's exported state always wire-encodes inside it.
        """
        kind, src, p = msg.kind, msg.src, msg.payload
        if kind == "hb":
            return None
        if kind != "push":
            return "unknown-kind"
        if src not in self.neighbors():
            return "topology"
        sn = p.get("sn")
        if isinstance(sn, str):
            if sn not in _SPECIAL:
                return "schema"
        elif not isinstance(sn, int) or isinstance(sn, bool) or not (
            0 <= sn < self.machine.l_domain
        ):
            return "schema"
        if p.get("cp") not in _CP_BY_NAME:
            return "schema"
        ph = p.get("ph")
        if (
            not isinstance(ph, int)
            or isinstance(ph, bool)
            or not 0 <= ph < self.machine.nphases
        ):
            return "schema"
        if not isinstance(p.get("done", False), bool):
            return "schema"
        return None

    # -- Byzantine lie palette -----------------------------------------
    def distort(self, dst, kind, payload):
        """Lie in the state pushes; leave the framework channel alone.

        A Byzantine rank's exported state is arbitrary (the paper's
        ``?`` assignments), and arbitrary values land outside the honest
        wire envelope, so every variant is schema-invalid at a defending
        receiver: condemnation -- never a silent wrong phase count -- is
        the deterministic outcome.  Keyed on the exported protocol
        position, not the attempt, so every retransmission of one state
        lies identically.
        """
        if kind != "push":
            return kind, payload
        from repro.net.faults import _decision

        pick = int(
            _decision(
                self.plan_seed,
                "byz-mb",
                (self.node_id, payload.get("ph"), payload.get("cp")),
                0,
            )
            * 3
        )
        if pick == 0:
            return kind, {**payload, "cp": "?"}
        if pick == 1:
            return kind, {**payload, "ph": self.machine.nphases + 1}
        return kind, {**payload, "sn": "?"}

    # -- crash path ----------------------------------------------------
    def _crash_due(self) -> bool:
        """A strike at ``when`` is due once this rank has completed
        ``when`` barriers -- progress-based, so a seeded plan lands
        mid-run at any machine speed."""
        return bool(
            self._crash_times and self.completed >= self._crash_times[0]
        )

    def _narrate_crash(self) -> None:
        if self._open_phase is not None:
            # Rank 0's in-flight instance dies; MB will re-execute it.
            if self.tracer.enabled:
                self.tracer.phase_end(
                    float(self.clock.tick()), self._open_phase, False
                )
            self._open_phase = None

    async def _apply_crash(self) -> None:
        self._crash_times.pop(0)
        if self._busy_task is not None:
            self._busy_task.cancel()
            self._busy_task = None
        self.machine.reset()
        await self.crash_restart()
        # The reset machine rejoins the ring; MB's own repeat /
        # re-execution machinery takes it from here.
        if self.tracer.enabled:
            self.tracer.recovery(
                float(self.clock.tick()), self.node_id, completed=self.completed
            )

    # -- the protocol --------------------------------------------------
    def _drain_machine_events(self) -> None:
        narrate = self.tracer.enabled and self.node_id == 0
        while self.machine.events:
            event = self.machine.events.pop(0)
            if event == "enter-execute":
                if narrate and self._open_phase is None:
                    self._open_phase = self.machine.ph
                    self.tracer.phase_start(
                        float(self.clock.tick()), self._open_phase
                    )
                if self.timing.work and self._busy_task is None:
                    self.machine.busy = True
                    self._busy_task = self.spawn(self._work())
            elif event == "phase-complete":
                self.completed += 1
                if narrate and self._open_phase is not None:
                    self.tracer.phase_end(
                        float(self.clock.tick()), self._open_phase, True
                    )
                    self._open_phase = None
            elif event == "re-execute":
                self.reexecutions += 1
                if narrate and self._open_phase is not None:
                    self.tracer.phase_end(
                        float(self.clock.tick()), self._open_phase, False
                    )
                    self._open_phase = None

    async def _work(self) -> None:
        await asyncio.sleep(self.timing.work)
        self.machine.busy = False
        self._busy_task = None
        self._wake.set()

    async def _push_loop(self) -> None:
        """Periodic state retransmission -- MB's loss masking.  It keeps
        running after this rank's main loop returns (until the runtime
        stops the node), so the ``done`` flag reliably floods to ranks
        that are still circling."""
        while self._running:
            await asyncio.sleep(self.timing.push_interval)
            await self._push()

    def start_loops(self) -> None:
        super().start_loops()
        self.spawn(self._push_loop())

    async def run_protocol(self) -> None:
        """Drive the machine until the ring has completed ``barriers``
        globally successful phases (rank 0 decides, ``done`` floods)."""
        self.start_loops()
        interval = self.timing.push_interval
        await self._push()
        while True:
            if self.failsafe:
                # Fail-safe stop: close rank 0's in-flight instance as
                # failed and stop progressing -- the ring may end short
                # of ``barriers`` but never wrongly reports one.
                self._narrate_crash()
                return
            if self._byz_times and self.completed >= self._byz_times[0]:
                self._byz_times.pop(0)
                self.activate_byzantine()
            if self._permanent_times and self.completed >= self._permanent_times[0]:
                await self.fail_stop()
                return
            if self._crash_due():
                await self._apply_crash()
                await self._push()
            changed = self.machine.run_enabled()
            self._drain_machine_events()
            if self.node_id == 0 and self.completed >= self.barriers:
                self.machine.done = True
            if self.machine.done:
                # One farewell push; the push loop keeps flooding the
                # flag until every rank has wound down.
                await self._push()
                return
            if changed:
                await self._push()
            await self._wake.wait(interval)
