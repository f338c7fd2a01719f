"""Program MB as a real message-passing implementation.

This is the paper's deployment story made concrete: each rank runs the
MB state machine (sequence number, control position, phase, plus local
copies of its ring neighbours), neighbours exchange *state-push*
messages, and retransmission timers make the pushes idempotent and
loss-tolerant -- nothing but ``comm.send``/``comm.recv`` underneath, no
centralized coordinator.

The phase work happens while a rank is in ``execute``: the rank holds
the virtual token (suppresses its T1/T2) until the work completes,
exactly the RB/MB timing discipline.  Detectable faults are modelled by
a per-rank fault plan: at the planned times the rank's protocol state
resets (``sn := BOT``, ``cp := error``, copies reset), after which the
protocol's own repeat/re-execution machinery masks the loss --
the driver's phase log shows re-executed phases, never skipped or
overlapping ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Mapping, Sequence

from repro.barrier.control import CP
from repro.gc.domains import BOT, TOP
from repro.obs.tracer import ensure_tracer

if TYPE_CHECKING:
    from repro.simmpi.runtime import Comm

#: Message tag for neighbour state pushes.
STATE_TAG = 77


def _ordinary(value: Any) -> bool:
    return value is not BOT and value is not TOP


def _follower_cp(current: CP, upstream: CP) -> CP | None:
    if current is CP.READY and upstream is CP.EXECUTE:
        return CP.EXECUTE
    if current is CP.EXECUTE and upstream is CP.SUCCESS:
        return CP.SUCCESS
    if current is not CP.EXECUTE and upstream is CP.READY:
        return CP.READY
    if current is CP.ERROR or upstream is not current:
        return CP.REPEAT
    return None


@dataclass
class MBMachine:
    """One rank's MB protocol state and transition rules."""

    rank: int
    size: int
    nphases: int
    l_domain: int

    sn: Any = 0
    cp: CP = CP.READY
    ph: int = 0
    lsn_prev: Any = 0
    lcp_prev: CP = CP.READY
    lph_prev: int = 0
    lsn_next: Any = 0
    busy: bool = False  # phase work in progress: hold the token
    done: bool = False  # termination flag (floods from rank 0)

    #: Events produced by steps: "enter-execute", "phase-complete",
    #: "re-execute".
    events: list[str] = field(default_factory=list)

    # ------------------------------------------------------------------
    def on_neighbor_state(
        self, src: int, sn: Any, cp: CP, ph: int, done: bool = False
    ) -> None:
        """Update the local copies (the CPREV / CNEXT actions)."""
        if done:
            # Termination is a global fact originating at rank 0; it
            # floods over the same retransmitted pushes.
            self.done = True
        if src == (self.rank - 1) % self.size:
            if _ordinary(sn) and self.lsn_prev != sn:
                self.lsn_prev = sn
                self.lph_prev = ph
                new = _follower_cp(self.lcp_prev, cp)
                if new is not None:
                    self.lcp_prev = new
        if src == (self.rank + 1) % self.size:
            if sn is TOP:
                self.lsn_next = TOP

    def reset(self) -> None:
        """A detectable fault: reset like the MB fault action."""
        self.sn = BOT
        self.cp = CP.ERROR
        self.lsn_prev = BOT
        self.lsn_next = BOT
        self.lcp_prev = CP.ERROR
        self.busy = False

    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run one enabled local action; True if anything changed."""
        if self.rank == 0:
            if self._t1():
                return True
            if self.sn is TOP:  # T5
                self.sn = 0
                return True
        else:
            if self._t2():
                return True
        if self.rank == self.size - 1:
            if self.sn is BOT:  # T3
                self.sn = TOP
                return True
        else:
            if self.sn is BOT and self.lsn_next is TOP:  # T4
                self.sn = TOP
                return True
        return False

    def run_enabled(self, limit: int = 16) -> bool:
        changed = False
        for _ in range(limit):
            if not self.step():
                break
            changed = True
        return changed

    # ------------------------------------------------------------------
    def _t1(self) -> bool:
        if self.busy:
            return False
        if not _ordinary(self.lsn_prev):
            return False
        if self.sn != self.lsn_prev and _ordinary(self.sn):
            return False
        self.sn = (self.lsn_prev + 1) % self.l_domain
        if (
            self.cp is CP.READY
            and self.lcp_prev is CP.READY
            and self.lph_prev == self.ph
        ):
            self.cp = CP.EXECUTE
            self.events.append("enter-execute")
        elif self.cp is CP.EXECUTE:
            self.cp = CP.SUCCESS
        elif self.cp is CP.SUCCESS:
            if self.lcp_prev is CP.SUCCESS and self.lph_prev == self.ph:
                self.ph = (self.ph + 1) % self.nphases
                self.events.append("phase-complete")
            else:
                self.ph = self.lph_prev
                self.events.append("re-execute")
            self.cp = CP.READY
        elif self.cp is CP.ERROR or self.cp is CP.REPEAT:
            self.ph = self.lph_prev
            self.cp = CP.READY
        return True

    def _t2(self) -> bool:
        if self.busy:
            return False
        if not _ordinary(self.lsn_prev) or self.sn == self.lsn_prev:
            return False
        self.sn = self.lsn_prev
        if self.lph_prev == (self.ph + 1) % self.nphases and self.cp in (
            CP.SUCCESS,
            CP.READY,
        ):
            # The hand-over wave reached this follower: its phase is done.
            self.events.append("phase-complete")
        self.ph = self.lph_prev
        new = _follower_cp(self.cp, self.lcp_prev)
        if new is not None:
            if new is CP.EXECUTE:
                self.events.append("enter-execute")
            self.cp = new
        return True

    def exported_state(self) -> tuple:
        return (self.sn, self.cp, self.ph, self.done)


@dataclass
class MBPhaseLog:
    """What one rank observed: completed phases and re-executions."""

    completed: int = 0
    reexecutions: int = 0
    faults_applied: int = 0


def mb_barrier_program(
    comm: Comm,
    phases: int,
    work_time: float = 0.5,
    nphases: int = 4,
    push_interval: float = 0.05,
    fault_plan: Mapping[int, Sequence[float]] | None = None,
    max_time: float = 10_000.0,
    tracer: Any = None,
) -> Generator[Any, Any, MBPhaseLog]:
    """The per-rank generator: run ``phases`` barrier phases via MB.

    ``fault_plan`` maps rank -> virtual times at which that rank suffers
    a detectable reset.  Returns the rank's :class:`MBPhaseLog`.

    With a ``tracer``, every planned reset emits a ``fault`` event and
    rank 0 narrates its phase instances (``phase_start`` on entering
    execute; ``phase_end`` with the observed success on hand-over,
    re-execution, or a reset striking mid-instance), so the chaos
    guarantee monitors can watch a distributed MB job through the same
    schema as every other engine.

    Rank 0's ``completed`` counts globally successful phases (its T1
    performs the increments) and *drives termination*: when it reaches
    ``phases`` it raises the ``done`` flag, which floods the ring inside
    the retransmitted state pushes.  Followers' counters are advisory --
    under message loss a follower can observe a hand-over late or
    coalesced, so the termination of the job never depends on them.
    Every rank keeps running the protocol (and serving neighbour pushes)
    until the closing barrier releases, so in-flight circulations always
    finish.
    """
    machine = MBMachine(
        rank=comm.rank,
        size=comm.size,
        nphases=nphases,
        l_domain=2 * comm.size,
    )
    log = MBPhaseLog()
    tracer = ensure_tracer(tracer)
    open_phase: int | None = None  # rank 0's in-flight traced instance
    pending_faults = sorted(
        (fault_plan or {}).get(comm.rank, ()), reverse=True
    )
    pred = (comm.rank - 1) % comm.size
    succ = (comm.rank + 1) % comm.size

    def push():
        # The origin rank rides in the payload (recv yields payloads).
        state = (comm.rank,) + machine.exported_state()
        return [
            comm.send(succ, state, tag=STATE_TAG),
            comm.send(pred, state, tag=STATE_TAG),
        ]

    def serve(msg) -> None:
        src, sn, cp, ph, done = msg
        machine.on_neighbor_state(src, sn, cp, ph, done)

    for syscall in push():
        yield syscall

    handle = None
    while True:
        now = yield comm.now()
        if now > max_time:
            raise TimeoutError(
                f"rank {comm.rank}: only {log.completed}/{phases} phases "
                f"by t={now:g}"
            )
        while pending_faults and pending_faults[-1] <= now:
            pending_faults.pop()
            machine.reset()
            log.faults_applied += 1
            if tracer.enabled:
                tracer.fault(now, comm.rank)
                if open_phase is not None:
                    # The reset killed rank 0's in-flight instance; the
                    # protocol will re-execute it.
                    tracer.phase_end(now, open_phase, False)
                    open_phase = None

        changed = machine.run_enabled()
        while machine.events:
            event = machine.events.pop(0)
            if event == "enter-execute":
                if tracer.enabled and comm.rank == 0 and open_phase is None:
                    open_phase = machine.ph
                    tracer.phase_start(now, open_phase)
                machine.busy = True
                yield comm.compute(work_time)
                machine.busy = False
                changed = True
            elif event == "phase-complete":
                log.completed += 1
                if tracer.enabled and comm.rank == 0 and open_phase is not None:
                    tracer.phase_end(now, open_phase, True)
                    open_phase = None
            elif event == "re-execute":
                log.reexecutions += 1
                if tracer.enabled and comm.rank == 0 and open_phase is not None:
                    tracer.phase_end(now, open_phase, False)
                    open_phase = None

        if comm.rank == 0 and log.completed >= phases and not machine.done:
            machine.done = True
            changed = True
        if machine.done and handle is None:
            # Joint termination rides on the engine's (retransmission-
            # masked) barrier, polled non-blockingly so this rank keeps
            # driving the protocol and serving neighbour pushes while
            # stragglers finish.
            handle = yield comm.barrier_enter()
        if handle is not None:
            released = yield comm.barrier_test(handle)
            if released is not None:
                break

        if changed:
            for syscall in push():
                yield syscall
        msg = yield comm.recv(tag=STATE_TAG, timeout=push_interval)
        if msg is not None:
            serve(msg)
        else:
            # Quiet period: retransmit (masks lost pushes).
            for syscall in push():
                yield syscall
    return log
