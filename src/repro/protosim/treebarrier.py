"""Event-driven simulation of the fault-tolerant tree barrier.

This is the timed counterpart of program RB on the Figure 2(c) tree: the
root (process 0) drives *circulations* (waves) down the tree; every node
applies the RB follower rules when the wave reaches it; the wave's
completion time at the root is the maximum over the finals' forwarding
times, so one circulation costs ``h*c`` exactly as in the Section 6
analysis.  A successful phase needs three circulations (ready->execute,
execute->success, success->ready) around one unit of phase work.

Timing models
-------------
``work_model="serialized"`` (default, the paper's accounting): phase work
occupies the window *after* the execute circulation completes, so a
fault-free instance costs ``1 + 3hc`` -- the quantity the Section 6.1
analysis uses.  ``work_model="overlap"`` starts each node's work the
moment it enters execute; the success wave then stalls only for residual
work and a fault-free instance costs ``1 + 2hc`` -- the ablation showing
the paper's overhead figure is partly an artifact of its conservative
accounting.

Early abort
-----------
With ``early_abort=True`` (default), a node that learns the instance is
doomed (its wave input is ``repeat``) abandons its phase work, and the
root abandons its own work when a returning wave already carries
``repeat``; failed instances therefore finish in as little as ``3hc``.
This is exactly the effect the paper cites for the simulated overhead
(Figure 6) undercutting the analytical bound (Figure 4).  With
``early_abort=False`` every instance is charged its full duration and
the simulation reproduces the analytical worst case.

Faults
------
Detectable faults arrive as a Poisson process (rate ``-ln(1-f)``),
striking a uniformly random node: the node's state resets to ``error``
and its in-progress work is lost.  Waves passing an ``error`` node turn
it (and everything downstream) to ``repeat``; the root then re-executes
the current phase, so every barrier still completes correctly -- the
simulation *measures* the cost of that masking, it never violates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Any, Literal

from repro.barrier.control import CP, RB_CP_DOMAIN, follower_cp
from repro.des.core import Simulation
from repro.obs.tracer import ensure_tracer
from repro.protosim.faultenv import DetectableFaultEnv
from repro.protosim.metrics import InstanceStat, PhaseMetrics
from repro.topology.graphs import Topology, kary_tree


@dataclass
class SimConfig:
    """Parameters of one timed barrier simulation."""

    latency: float = 0.01  # the paper's c, per tree hop
    work_time: float = 1.0  # the unit phase-execution time
    fault_frequency: float = 0.0  # the paper's f (detectable faults)
    undetectable_frequency: float = 0.0  # arbitrary-state scrambles
    nphases: int = 1_000_000  # phase counter wrap (large: virtual phases)
    work_model: Literal["serialized", "overlap"] = "serialized"
    early_abort: bool = True
    #: How the root learns a circulation completed: "instant" (the
    #: idealized Fig 2c leaf-root links, as in the paper's h*c
    #: accounting), "star" (real leaf-root links: one hop back plus the
    #: root serially processing one message per final), or "tree" (the
    #: Fig 2d double tree: acknowledgements aggregate up a tree, each
    #: node paying per_message_cost per child -- bounded fan-in).
    readback: Literal["instant", "star", "tree"] = "instant"
    per_message_cost: float = 0.0
    seed: int | None = 0

    def __post_init__(self) -> None:
        if self.latency < 0 or self.work_time <= 0:
            raise ValueError("latency must be >= 0 and work_time > 0")
        if not 0.0 <= self.fault_frequency < 1.0:
            raise ValueError("fault frequency must be in [0, 1)")
        if not 0.0 <= self.undetectable_frequency < 1.0:
            raise ValueError("undetectable frequency must be in [0, 1)")
        if self.readback not in ("instant", "star", "tree"):
            raise ValueError(f"unknown readback model {self.readback!r}")
        if self.per_message_cost < 0:
            raise ValueError("per_message_cost must be >= 0")


@dataclass
class _Node:
    """Per-process protocol state."""

    pid: int
    depth: int
    state: CP = CP.READY
    phase: int = 0
    work_end: float = -1.0  # completion time of in-flight phase work

    def working(self, now: float) -> bool:
        return self.state is CP.EXECUTE and self.work_end > now


class FTTreeBarrierSim:
    """Timed simulation of the fault-tolerant barrier on a tree."""

    def __init__(
        self,
        topology: Topology | None = None,
        nprocs: int | None = None,
        arity: int = 2,
        config: SimConfig | None = None,
        tracer: Any = None,
    ) -> None:
        if topology is None:
            if nprocs is None:
                raise ValueError("give nprocs or topology")
            topology = kary_tree(nprocs, arity)
        self.topology = topology
        self.config = config or SimConfig()
        self.tracer = ensure_tracer(tracer)
        self.sim = Simulation(seed=self.config.seed, tracer=self.tracer)
        depth = topology.depth
        self.nodes = [_Node(pid, depth[pid]) for pid in range(topology.nprocs)]
        self.children = topology.children
        self.finals = set(topology.finals)
        self.height = topology.height

        # Wave bookkeeping.
        self._wave_id = 0
        self._wave_start = 0.0
        self._pending_finals: set[int] = set()
        self._final_done_max = 0.0
        self._root_busy = False  # a deferred root transition is scheduled
        # Tree-readback bookkeeping: per-node count of outstanding child
        # acknowledgements and ack-processing busy horizon, per wave.
        self._ack_waiting: list[int] = [0] * topology.nprocs
        self._ack_busy_until: list[float] = [0.0] * topology.nprocs

        # Instance bookkeeping.  Participation tracks which nodes
        # actually entered execute during the current instance, so a
        # completion forced through by an undetectable scramble can be
        # recognized as incorrect (the Lemma 4.1.4 damage measure).
        self._instance_start: float | None = None
        self._instance_phase = 0
        self._participants: set[int] = set()
        self.stats = PhaseMetrics()
        self.incorrect_completions = 0

        # Fault environments.
        self._fault_env = DetectableFaultEnv(
            self.config.fault_frequency, topology.nprocs, tracer=self.tracer
        )
        self._scramble_env = DetectableFaultEnv(
            self.config.undetectable_frequency, topology.nprocs, tracer=self.tracer
        )
        self.faults_injected = 0
        self.scrambles_injected = 0
        # Earliest unrecovered fault time (for recovery-latency events).
        self._fault_since: float | None = None

        #: Optional hook fired (with the virtual time) whenever the root
        #: observes a start state -- every process ready in one phase --
        #: just before it begins the next instance.  Used by the
        #: recovery experiment, where the start state only exists inside
        #: the root's wave-completion callback.
        self.start_state_hook = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self, phases: int = 100, max_time: float = inf) -> PhaseMetrics:
        """Simulate until ``phases`` barriers complete successfully (or
        ``max_time`` virtual time elapses) and return the metrics."""
        self._schedule_next_fault()
        self._schedule_next_scramble()
        self._root_step()
        self.sim.run(
            until=max_time if max_time != inf else None,
            stop=lambda: self.stats.successful_phases >= phases,
        )
        self.stats.total_time = self.sim.now
        return self.stats

    # ------------------------------------------------------------------
    # Fault environment
    # ------------------------------------------------------------------
    def schedule_fault(self, time: float, pid: int) -> None:
        """Deterministically strike ``pid`` with a detectable fault at
        virtual ``time`` (adversarial fault-timing for the chaos
        campaigns; composes with the random environments)."""
        self._check_target(pid)
        self.sim.at(time, lambda: self._apply_fault(pid))

    def schedule_scramble(self, time: float, pid: int) -> None:
        """Deterministically scramble ``pid`` (an undetectable fault) at
        virtual ``time``; the arbitrary state still draws from the
        simulation's seeded "scrambles" stream."""
        self._check_target(pid)
        self.sim.at(time, lambda: self._apply_scramble(pid))

    def _check_target(self, pid: int) -> None:
        if not 0 <= pid < len(self.nodes):
            raise ValueError(f"bad fault target pid {pid}")

    def _schedule_next_fault(self) -> None:
        t = self._fault_env.next_arrival(self.sim.rng("faults"), self.sim.now)
        if t == inf:
            return
        self.sim.at(t, self._inject_fault)

    def _inject_fault(self) -> None:
        victim = self._fault_env.victim(self.sim.rng("faults"))
        self._apply_fault(victim)
        self._schedule_next_fault()

    def _apply_fault(self, victim: int) -> None:
        node = self.nodes[victim]
        node.state = CP.ERROR
        node.work_end = -1.0  # in-progress work is lost
        self.faults_injected += 1
        if self.tracer.enabled:
            self.tracer.fault(self.sim.now, victim)
            if self._fault_since is None:
                self._fault_since = self.sim.now

    def _schedule_next_scramble(self) -> None:
        t = self._scramble_env.next_arrival(
            self.sim.rng("scrambles"), self.sim.now
        )
        if t == inf:
            return
        self.sim.at(t, self._inject_scramble)

    def _inject_scramble(self) -> None:
        victim = self._scramble_env.victim(self.sim.rng("scrambles"))
        self._apply_scramble(victim)
        self._schedule_next_scramble()

    def _apply_scramble(self, victim: int) -> None:
        """An undetectable fault: arbitrary state at one node."""
        rng = self.sim.rng("scrambles")
        node = self.nodes[victim]
        node.state = RB_CP_DOMAIN.sample(rng)
        node.phase = int(rng.integers(0, min(self.config.nphases, 64)))
        node.work_end = (
            self.sim.now + rng.uniform(0.0, self.config.work_time)
            if node.state is CP.EXECUTE
            else -1.0
        )
        self.scrambles_injected += 1
        if self.tracer.enabled:
            self.tracer.fault(self.sim.now, victim, detectable=False)
            if self._fault_since is None:
                self._fault_since = self.sim.now
        if victim == 0:
            # A scrambled root may have dropped its driving obligation
            # (e.g. it was waiting for its own work); the token layer
            # regenerates the token within one circulation -- model that
            # by re-entering the root's decision after h*c.
            self._abort_instance(self.sim.now)
            self.sim.after(
                self.height * self.config.latency, self._root_step
            )

    # ------------------------------------------------------------------
    # Waves
    # ------------------------------------------------------------------
    def _start_wave(self) -> None:
        """Root launches a circulation carrying its state and phase."""
        root = self.nodes[0]
        self._wave_id += 1
        self._wave_start = self.sim.now
        if self.tracer.enabled:
            # One circulation = one release of the token by the root.
            self.tracer.token_pass(self.sim.now, 0, wave=self._wave_id)
        self._pending_finals = set(self.finals) - {0}
        self._final_done_max = self.sim.now
        if self.config.readback == "tree":
            self._ack_waiting = [len(c) for c in self.children]
            self._ack_busy_until = [self.sim.now] * len(self.nodes)
        wave = self._wave_id
        if not self._pending_finals:
            # Degenerate: the root is the only final (cannot happen for
            # valid topologies, but keep the driver alive).
            self.sim.after(0.0, lambda: self._wave_complete(wave))
            return
        for child in self.children[0]:
            self._send(child, root.state, root.phase, wave)

    def _send(self, pid: int, p_state: CP, p_phase: int, wave: int) -> None:
        self.sim.after(
            self.config.latency,
            lambda: self._on_wave(pid, p_state, p_phase, wave),
        )

    def _on_wave(self, pid: int, p_state: CP, p_phase: int, wave: int) -> None:
        """Apply the RB follower rules at ``pid``; forward downstream."""
        if wave != self._wave_id:
            return  # stale wave (root moved on after a fault recovery)
        node = self.nodes[pid]
        now = self.sim.now
        st = node.state

        if st is CP.EXECUTE and p_state is CP.SUCCESS and node.working(now):
            # The token waits here until the phase's work completes (the
            # success circulation cannot overtake unfinished work).
            self.sim.at(
                node.work_end,
                lambda: self._on_wave(pid, p_state, p_phase, wave),
            )
            return

        node.phase = p_phase
        new = follower_cp(st, p_state)
        if new is not None:
            node.state = new
            if new is CP.EXECUTE:  # ready -> execute: start the work
                node.work_end = self._work_start(now) + self.config.work_time
                self._participants.add(pid)
            elif new is CP.REPEAT:
                node.work_end = -1.0  # abandon doomed work
        # else: states agree -- forward unchanged.

        if pid in self.finals:
            self._final_forwarded(pid, wave)
        else:
            for child in self.children[pid]:
                self._send(child, node.state, node.phase, wave)

    def _work_start(self, entered_at: float) -> float:
        if self.config.work_model == "overlap":
            return entered_at
        # serialized: work occupies the window after the execute
        # circulation completes (the paper's 1 + 3hc accounting).
        return self._wave_start + self.height * self.config.latency

    def _final_forwarded(self, pid: int, wave: int) -> None:
        if self.config.readback == "tree":
            self._subtree_complete(pid, wave)
            return
        self._final_done_max = max(self._final_done_max, self.sim.now)
        self._pending_finals.discard(pid)
        if not self._pending_finals:
            if self.config.readback == "star":
                # One hop back to the root, which serially processes one
                # message per final (the leaf-root star's fan-in cost).
                done_at = (
                    self._final_done_max
                    + self.config.latency
                    + len(self.finals) * self.config.per_message_cost
                )
                self.sim.at(done_at, lambda: self._wave_complete(wave))
            else:
                self._wave_complete(wave)

    # -- tree readback (the Fig 2d double tree) -------------------------
    def _subtree_complete(self, pid: int, wave: int) -> None:
        """``pid``'s whole subtree has processed the wave; ack upward."""
        if wave != self._wave_id:
            return
        if pid == 0:
            self._wave_complete(wave)
            return
        parent = self.topology.parent[pid]
        self.sim.after(
            self.config.latency,
            lambda: self._ack_from_child(parent, wave),
        )

    def _ack_from_child(self, pid: int, wave: int) -> None:
        if wave != self._wave_id:
            return
        # Serial per-message processing: bounded fan-in is exactly what
        # the double tree buys over the star.
        done = (
            max(self.sim.now, self._ack_busy_until[pid])
            + self.config.per_message_cost
        )
        self._ack_busy_until[pid] = done
        self._ack_waiting[pid] -= 1
        if self._ack_waiting[pid] <= 0:
            self.sim.at(done, lambda: self._subtree_complete(pid, wave))

    def _wave_complete(self, wave: int) -> None:
        if wave != self._wave_id:
            return
        self._root_step()

    # ------------------------------------------------------------------
    # Root state machine (RB's T1 update, timed)
    # ------------------------------------------------------------------
    def _root_step(self) -> None:
        """Process 0's T1 in DES time.  Not :func:`~repro.barrier.control.
        root_step`: it aborts doomed execute waves early and keeps ``ph.0``
        on a failed success wave, both of which Figs 6/7 are measured with."""
        root = self.nodes[0]
        now = self.sim.now
        finals = [self.nodes[f] for f in self.finals]

        if root.state is CP.ERROR or root.state is CP.REPEAT:
            # Recover: adopt a final's phase, pull everyone to ready.
            if self.tracer.enabled:
                self.tracer.detect(now, 0, where="root")
            self._abort_instance(now)
            root.phase = finals[0].phase
            root.state = CP.READY
            root.work_end = -1.0
            self._start_wave()
            return

        if root.state is CP.READY:
            if all(
                f.state is CP.READY and f.phase == root.phase for f in finals
            ):
                if self.start_state_hook is not None and all(
                    n.state is CP.READY and n.phase == root.phase
                    for n in self.nodes
                ):
                    self.start_state_hook(now)
                # Begin a new instance of the current phase.
                if self.tracer.enabled:
                    if self._fault_since is not None:
                        # Back in a start state after faults: masking
                        # completed, measure the latency (Figure 7's
                        # quantity for the detectable classes).
                        self.tracer.recovery(
                            now, 0, latency=now - self._fault_since
                        )
                        self._fault_since = None
                    self.tracer.phase_start(now, root.phase)
                self._instance_start = now
                self._instance_phase = root.phase
                self._participants = {0}
                root.state = CP.EXECUTE
                root.work_end = self._work_start_root(now) + self.config.work_time
                self._start_wave()
            else:
                # Keep pulling stragglers (error/repeat) to ready.
                self._start_wave()
            return

        if root.state is CP.EXECUTE:
            doomed = any(
                f.state is not CP.EXECUTE or f.phase != root.phase
                for f in finals
            )
            if doomed and self.config.early_abort:
                if self.tracer.enabled:
                    self.tracer.detect(now, 0, where="execute-wave")
                # The returning execute wave already carries repeat: the
                # instance is doomed, so skip the phase work entirely and
                # launch the repair circulation now.  Its READY carrier
                # flips every still-executing node to repeat (and cancels
                # the node's work) as it passes -- this is what makes
                # failed instances cost ~3hc instead of 1 + 3hc and
                # drives Figure 6 below Figure 4.
                root.work_end = -1.0
                self._abort_instance(now)
                root.state = CP.READY
                self._start_wave()
            elif root.work_end > now:
                self.sim.at(root.work_end, self._root_work_done)
            else:
                root.state = CP.SUCCESS
                self._start_wave()
            return

        if root.state is CP.SUCCESS:
            if all(
                f.state is CP.SUCCESS and f.phase == root.phase for f in finals
            ):
                self._complete_instance(now, success=True)
                root.phase = (root.phase + 1) % self.config.nphases
            else:
                if self.tracer.enabled:
                    self.tracer.detect(now, 0, where="success-wave")
                self._complete_instance(now, success=False)
                # RB: ph.0 := ph.N; under detectable faults the finals'
                # phase equals the root's, so keeping root.phase is the
                # same assignment.  Under scrambles it can differ: then
                # this keeps ph.0 where RB adopts ph.N.
            root.state = CP.READY
            self._start_wave()
            return

    def _work_start_root(self, entered_at: float) -> float:
        if self.config.work_model == "overlap":
            return entered_at
        return entered_at + self.height * self.config.latency

    def _root_work_done(self) -> None:
        root = self.nodes[0]
        if root.state is CP.EXECUTE:
            root.state = CP.SUCCESS
            self._start_wave()
        elif root.state in (CP.ERROR, CP.REPEAT):
            # A fault struck the root while it held the token waiting for
            # its work; recover immediately (the token is here).
            self._root_step()
        # Otherwise a newer wave/decision already superseded this event.

    # ------------------------------------------------------------------
    # Instance accounting
    # ------------------------------------------------------------------
    def _complete_instance(self, now: float, success: bool) -> None:
        if self._instance_start is None:
            return
        if success and len(self._participants) < len(self.nodes):
            # The root declared the barrier complete although some node
            # never entered execute in this instance -- only possible
            # when an undetectable fault forged protocol state (the
            # damage Lemma 4.1.4 bounds).
            self.incorrect_completions += 1
        if self.tracer.enabled:
            # The duration payload is the histogram observation point for
            # the metrics layer (instance-duration distribution, Fig 5/6).
            self.tracer.phase_end(
                now,
                self._instance_phase,
                success,
                duration=now - self._instance_start,
            )
        self.stats.record(
            InstanceStat(
                phase=self._instance_phase,
                start=self._instance_start,
                end=now,
                success=success,
            )
        )
        self._instance_start = None

    def _abort_instance(self, now: float) -> None:
        self._complete_instance(now, success=False)
