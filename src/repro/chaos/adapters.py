"""Engine adapters: one :class:`FaultPlan`, four execution backends.

Each adapter knows how to aim a plan at its engine's existing injection
machinery -- :class:`repro.gc.faults.PlanInjector` for the untimed
guarded-command runs, ``schedule_fault``/``schedule_scramble`` for the
timed tree barrier, ``Runtime.schedule_fault`` for the simulated-MPI
collectives, and per-rank ``fault_plan`` times plus network
:class:`~repro.des.network.LinkFaults` for the message-passing MB over
the discrete-event kernel -- and how to interpret ``when`` (daemon steps
vs. virtual time, declared via :attr:`Adapter.steps` and
:attr:`Adapter.window` so campaigns generate strike times that actually
land inside the run).

Every adapter run wires the guarantee monitors *online* (subscribed to
the tracer before the engine starts) and returns a uniform
:class:`RunOutcome`.  Capabilities differ -- the collective engine only
models detectable resets, the network layer only exists under the DES
targets -- and are declared (:attr:`supports_undetectable`,
:attr:`supports_link`) so campaign generation never asks an engine for a
fault class it cannot express.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.chaos.monitors import GuaranteeViolation, MonitorSet, monitors_for
from repro.chaos.plan import CampaignConfig, FaultPlan
from repro.obs.tracer import Tracer


@dataclass
class RunOutcome:
    """What one plan did to one engine, monitor verdicts included."""

    target: str
    plan: FaultPlan
    reached: bool
    end_time: float
    faults_fired: int
    successful_phases: int
    violations: list[GuaranteeViolation] = field(default_factory=list)
    #: Convergence spans the stabilization monitor measured.
    spans: list[float] = field(default_factory=list)
    #: The run's traced events (merged order for net targets) -- kept
    #: in memory for streaming-vs-post-hoc replay; not serialized.
    events: tuple = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict[str, Any]:
        return {
            "target": self.target,
            "plan": self.plan.to_json(),
            "reached": self.reached,
            "end_time": self.end_time,
            "faults_fired": self.faults_fired,
            "successful_phases": self.successful_phases,
            "violations": [v.to_json() for v in self.violations],
            "spans": list(self.spans),
        }


def _collect(
    target: str,
    plan: FaultPlan,
    monitor_set: MonitorSet,
    tracer: Tracer,
    reached: bool,
    end_time: float,
) -> RunOutcome:
    monitor_set.finish(reached, end_time)
    counters = tracer.counters
    successful = int(counters.get("obs.phases_successful", 0))
    if not successful:
        successful = sum(
            1
            for e in tracer.events
            if e.kind == "phase_end" and e.data.get("success")
        )
    faults = sum(1 for e in tracer.events if e.kind == "fault")
    return RunOutcome(
        target=target,
        plan=plan,
        reached=reached,
        end_time=end_time,
        faults_fired=faults,
        successful_phases=successful,
        violations=monitor_set.violations,
        spans=monitor_set.spans,
        events=tuple(tracer.events),
    )


class Adapter:
    """Base: campaign-facing metadata plus the ``run`` entry point."""

    name = "abstract"
    #: ``when`` is a daemon step (floored) rather than virtual time.
    steps = False
    #: The [start, stop) window strike times should be drawn from so
    #: they land inside a default-config run on this engine.
    window: tuple[float, float] = (1.0, 30.0)
    supports_undetectable = False
    supports_link = False
    #: Section 7 uncorrectable classes: Byzantine lie mode / permanent
    #: fail-stop.  Campaigns downgrade these fault counts to the closest
    #: expressible class on adapters that leave them False.
    supports_byzantine = False
    supports_permanent = False

    def run(self, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Untimed guarded-command engine (CB / RB / RB-tree / MB / intolerant)
# ----------------------------------------------------------------------
class GCAdapter(Adapter):
    """One of the paper's barrier programs under the daemon simulator.

    The plan becomes a :class:`PlanInjector` schedule: each event maps
    to the program's own detectable or undetectable :class:`FaultSpec`,
    so mixed-class schedules replay in a single run.

    ``backend="compiled"`` registers the same program under the
    compiled step path (:mod:`repro.gc.compile`) as ``gc:<key>+compiled``,
    so campaigns exercise both executors -- the chaos workload doubles
    as a soak test of the compiler's fault-resync path.
    """

    steps = True
    supports_undetectable = True

    def __init__(self, program_key: str, backend: str = "interpreter") -> None:
        self.program_key = program_key
        self.backend = backend
        suffix = "+compiled" if backend == "compiled" else ""
        self.name = f"gc:{program_key}{suffix}"

    # program_key -> (program factory, detectable spec, undetectable spec)
    @staticmethod
    def _families() -> dict[str, tuple[Callable, Callable, Callable]]:
        from repro.barrier.cb import (
            cb_detectable_fault,
            cb_undetectable_fault,
            make_cb,
        )
        from repro.barrier.mb import (
            make_mb,
            mb_detectable_fault,
            mb_undetectable_fault,
        )
        from repro.barrier.rb import (
            make_rb,
            rb_detectable_fault,
            rb_undetectable_fault,
        )
        from repro.barrier.trees import make_rb_tree

        return {
            "cb": (
                lambda n, p: make_cb(n, p),
                cb_detectable_fault,
                cb_undetectable_fault,
            ),
            "rb-ring": (
                lambda n, p: make_rb(n, nphases=p),
                rb_detectable_fault,
                rb_undetectable_fault,
            ),
            "rb-tree": (
                lambda n, p: make_rb_tree(n, arity=2, nphases=p),
                rb_detectable_fault,
                rb_undetectable_fault,
            ),
        }

    def _build(self, plan: FaultPlan, cfg: CampaignConfig):
        families = self._families()
        factory, detectable, undetectable = families[self.program_key]
        program = factory(plan.nprocs, cfg.nphases)
        det_spec, undet_spec = detectable(), undetectable()
        schedule = [
            (int(e.when), e.pid, det_spec if e.detectable else undet_spec)
            for e in plan.events
        ]
        return program, schedule

    def run(self, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
        from repro.gc.faults import PlanInjector
        from repro.gc.scheduler import RoundRobinDaemon
        from repro.gc.simulator import Simulator

        program, schedule = self._build(plan, cfg)
        tracer = Tracer()
        monitor_set = MonitorSet(tracer, monitors_for(plan, cfg.nphases))
        injector = (
            PlanInjector(program, schedule, seed=plan.seed) if schedule else None
        )
        sim = Simulator(
            program,
            RoundRobinDaemon(backend=self.backend),
            injector=injector,
            # Monitors read the obs tracer; nobody reads result.trace.
            record_trace=False,
            tracer=tracer,
        )
        result = sim.run(
            max_steps=cfg.max_steps,
            stop=lambda s, _st: tracer.counters.get("obs.phases_successful", 0)
            >= cfg.target_phases,
        )
        return _collect(
            self.name, plan, monitor_set, tracer, result.reached, float(result.steps)
        )


class GCMBAdapter(GCAdapter):
    """MB under the daemon simulator (its own spec pair)."""

    def _build(self, plan: FaultPlan, cfg: CampaignConfig):
        from repro.barrier.mb import (
            make_mb,
            mb_detectable_fault,
            mb_undetectable_fault,
        )

        program = make_mb(plan.nprocs, nphases=cfg.nphases)
        det_spec, undet_spec = mb_detectable_fault(), mb_undetectable_fault()
        schedule = [
            (int(e.when), e.pid, det_spec if e.detectable else undet_spec)
            for e in plan.events
        ]
        return program, schedule


class GCIntolerantAdapter(GCAdapter):
    """The fault-intolerant baseline as the campaigns' positive control.

    Its control domain has no error position, so *every* plan event --
    whatever its declared class -- lands as the whole-state scramble
    (:meth:`FaultSpec.undetectable_all`): the only fault the program can
    even represent, and one it provably cannot survive.  Campaigns
    against this target are expected to report violations; silence here
    means the monitors are blind.
    """

    def __init__(self) -> None:
        super().__init__("intolerant")

    def _build(self, plan: FaultPlan, cfg: CampaignConfig):
        from repro.barrier.intolerant import make_intolerant_barrier
        from repro.gc.faults import FaultSpec

        program = make_intolerant_barrier(plan.nprocs, nphases=max(cfg.nphases, 2))
        scramble = FaultSpec.undetectable_all(program)
        schedule = [(int(e.when), e.pid, scramble) for e in plan.events]
        return program, schedule


class GCFailSafeAdapter(GCAdapter):
    """Section 7's fail-safe program as a chaos target: CB extended
    with the ``up`` auxiliary (:func:`repro.extensions.failsafe.
    make_failsafe_cb`), crashes *uncorrectable* -- no repair fault ever
    fires.  ``crash``-kind plan events map to
    :func:`repro.extensions.crash.crash_fault`; correctable resets and
    scrambles keep CB's own specs, so mixed schedules replay in one
    run.  The expected verdict under the fail-safe monitor is clean:
    the run stops (at most the in-flight phase completes) and never
    wrongly narrates a completion.
    """

    supports_permanent = True

    def __init__(self, backend: str = "interpreter") -> None:
        super().__init__("failsafe", backend)

    def _build(self, plan: FaultPlan, cfg: CampaignConfig):
        from repro.barrier.cb import cb_detectable_fault, cb_undetectable_fault
        from repro.extensions.crash import crash_fault
        from repro.extensions.failsafe import make_failsafe_cb

        program = make_failsafe_cb(plan.nprocs, cfg.nphases)
        det_spec, undet_spec = cb_detectable_fault(), cb_undetectable_fault()
        crash_spec = crash_fault()
        schedule = []
        for e in plan.events:
            if e.kind == "crash":
                spec = crash_spec
            elif e.detectable:
                spec = det_spec
            else:
                spec = undet_spec
            schedule.append((int(e.when), e.pid, spec))
        return program, schedule


class GCByzantineAdapter(GCAdapter):
    """CB with the ``good`` auxiliary and a Byzantine action per
    process (:func:`repro.extensions.crash.with_byzantine`): once a
    ``byzantine``-kind event clears ``good``, that process keeps
    assigning nondeterministic values to its variables.

    Plain CB makes no progress against such a peer -- the others wait
    on its ``x`` forever -- and the phase observer is a global oracle
    (success iff *every* process leaves EXECUTE via SUCCESS), so the
    scramble can stall a run but not trick the narration: the expected
    verdict is fail-safe clean *by stall*.  Narrated wrongful
    completion needs a trusting message layer, which is what the
    ``net:tree+undefended`` control exists to flag.
    """

    supports_byzantine = True

    def __init__(self, backend: str = "interpreter") -> None:
        super().__init__("cb+byzantine", backend)

    def _build(self, plan: FaultPlan, cfg: CampaignConfig):
        from repro.barrier.cb import (
            cb_detectable_fault,
            cb_undetectable_fault,
            make_cb,
        )
        from repro.extensions.crash import byzantine_fault, with_byzantine

        program = with_byzantine(make_cb(plan.nprocs, cfg.nphases))
        det_spec, undet_spec = cb_detectable_fault(), cb_undetectable_fault()
        byz_spec = byzantine_fault()
        schedule = []
        for e in plan.events:
            if e.kind == "byzantine":
                spec = byz_spec
            elif e.detectable:
                spec = det_spec
            else:
                spec = undet_spec
            schedule.append((int(e.when), e.pid, spec))
        return program, schedule


# ----------------------------------------------------------------------
# Timed tree barrier (protosim)
# ----------------------------------------------------------------------
class ProtosimAdapter(Adapter):
    """The timed fault-tolerant tree barrier.

    Detectable events map to :meth:`FTTreeBarrierSim.schedule_fault`,
    undetectable ones to :meth:`~FTTreeBarrierSim.schedule_scramble`;
    ``when`` is virtual time.  With ``work_time = 1.0`` and the random
    environments off, ``target_phases`` fault-free phases span roughly
    ``target_phases`` time units, hence the short window.
    """

    name = "protosim:tree"
    window = (0.2, 4.0)
    supports_undetectable = True

    def run(self, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
        from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig

        tracer = Tracer()
        config = SimConfig(latency=0.01, work_time=1.0, seed=plan.seed)
        monitor_set = MonitorSet(
            tracer, monitors_for(plan, config.nphases)
        )
        sim = FTTreeBarrierSim(nprocs=plan.nprocs, config=config, tracer=tracer)
        for event in plan.events:
            if event.detectable:
                sim.schedule_fault(event.when, event.pid)
            else:
                sim.schedule_scramble(event.when, event.pid)
        stats = sim.run(phases=cfg.target_phases, max_time=cfg.max_time)
        reached = stats.successful_phases >= cfg.target_phases
        return _collect(
            self.name, plan, monitor_set, tracer, reached, float(sim.sim.now)
        )


# ----------------------------------------------------------------------
# Simulated MPI collectives (simmpi)
# ----------------------------------------------------------------------
class SimMPIAdapter(Adapter):
    """A compute+barrier SPMD job on the simulated-MPI runtime.

    The collective engine masks detectable resets by re-executing the
    struck instance (FTMode.TOLERATE); it has no notion of an arbitrary
    state scramble, so the adapter only supports detectable events,
    delivered through :meth:`Runtime.schedule_fault`.
    """

    name = "simmpi:barrier"
    window = (0.2, 4.0)
    supports_link = True

    def run(self, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
        from repro.des.network import LinkFaults
        from repro.simmpi.ftmodes import FTMode
        from repro.simmpi.runtime import Runtime

        tracer = Tracer()
        # Collective ids count up from 0 without wrapping -> nphases=None.
        monitor_set = MonitorSet(tracer, monitors_for(plan, None))
        link = None
        if plan.link is not None and plan.link.any:
            link = LinkFaults(
                loss=plan.link.loss,
                duplication=plan.link.duplication,
                corruption=plan.link.corruption,
            )
        rt = Runtime(
            nprocs=plan.nprocs,
            latency=0.01,
            seed=plan.seed,
            ft_mode=FTMode.TOLERATE,
            link_faults=link,
            tracer=tracer,
        )
        for event in plan.events:
            rt.schedule_fault(event.when, event.pid)

        target = cfg.target_phases

        def worker(comm):
            for _ in range(target):
                yield comm.compute(1.0)
                yield comm.barrier()
            return comm.rank

        reached = True
        try:
            rt.run(worker, until=cfg.max_time)
        except Exception:
            reached = False
        successes = sum(
            1
            for e in tracer.events
            if e.kind == "phase_end" and e.data.get("success")
        )
        reached = reached and successes >= target
        return _collect(
            self.name, plan, monitor_set, tracer, reached, float(rt.sim.now)
        )


# ----------------------------------------------------------------------
# Message-passing MB over the DES kernel (des)
# ----------------------------------------------------------------------
class DesMBAdapter(Adapter):
    """The deployed MB ring on the discrete-event network.

    Faults are the MB machine's own per-rank planned resets (the
    protocol-level detectable fault), and the plan's link rates become
    :class:`LinkFaults` on the DES network -- message loss, duplication
    and corruption underneath a protocol whose retransmitted state
    pushes must mask them.  The monitored tracer is handed to the MB
    program only: the runtime's closing collective (the job's
    termination barrier) is bookkeeping, not a barrier instance of the
    protocol under test.
    """

    name = "des:mb"
    window = (0.5, 8.0)
    supports_link = True

    #: MB machine phase-counter wrap used for the masking monitor.
    nphases = 4

    def run(self, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
        from repro.des.network import LinkFaults
        from repro.simmpi.mb_impl import mb_barrier_program
        from repro.simmpi.runtime import Runtime

        tracer = Tracer()
        monitor_set = MonitorSet(tracer, monitors_for(plan, self.nphases))
        link = None
        if plan.link is not None and plan.link.any:
            link = LinkFaults(
                loss=plan.link.loss,
                duplication=plan.link.duplication,
                corruption=plan.link.corruption,
            )
        rt = Runtime(
            nprocs=plan.nprocs, latency=0.01, seed=plan.seed, link_faults=link
        )
        fault_plan: dict[int, list[float]] = {}
        for event in plan.events:
            fault_plan.setdefault(event.pid, []).append(event.when)

        target = cfg.target_phases

        def worker(comm):
            return mb_barrier_program(
                comm,
                phases=target,
                work_time=0.5,
                nphases=self.nphases,
                fault_plan=fault_plan,
                max_time=cfg.max_time,
                # Every rank reports its planned resets (fault events);
                # only rank 0 narrates phase instances.
                tracer=tracer,
            )

        reached = True
        logs = None
        try:
            logs = rt.run(worker, until=cfg.max_time)
        except Exception:
            reached = False
        if logs is not None and logs[0] is not None:
            reached = reached and logs[0].completed >= target
        return _collect(
            self.name, plan, monitor_set, tracer, reached, float(rt.sim.now)
        )


# ----------------------------------------------------------------------
# Asyncio message-passing runtime (repro.net)
# ----------------------------------------------------------------------
class NetAdapter(Adapter):
    """A protocol on the real asyncio runtime as a chaos target.

    Unlike every other adapter, runs here burn wall clock: nodes are
    asyncio tasks exchanging framed messages over an in-memory fabric,
    link rates and partition windows are injected at the transport by
    :class:`repro.net.faults.FaultyTransport`, and plan events become
    crash-restarts.  The per-node Lamport-stamped traces are merged and
    checked post-run by the same monitor battery
    (:func:`repro.net.trace.check_merged` defers to
    :func:`monitors_for`), so the :class:`RunOutcome` is built straight
    from the :class:`repro.net.runtime.NetResult`.
    """

    steps = False
    #: Tree strikes floor to a round number, MB strikes are
    #: progress-or-time; both land inside a ``target_phases`` run.
    window = (1.0, 4.0)
    supports_undetectable = False
    supports_link = True
    protocol = "tree"
    #: MB machine phase-counter wrap (None => unbounded tree rounds).
    nphases: int | None = None
    #: Wall-clock budget per run; generous next to the ~1s typical run.
    timeout_s = 30.0
    #: Extra barriers past the strike window so a strike landing in the
    #: window's tail still has the clean phases the stabilization
    #: monitor needs to declare convergence before the run ends.
    cooldown = 2
    #: Worker processes; >1 exercises the sharded runtime
    #: (:mod:`repro.net.shard`) as a chaos target.
    shards = 1
    #: The defensive frame layer (strict decode, validation, strikes,
    #: fail-safe degradation); ``False`` is the intolerant control.
    defense = True

    def run(self, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
        import math

        from repro.net.runtime import NetConfig, run_sync

        # Enough rounds that the latest possible strike (window stop)
        # is followed by >= cooldown clean barriers.
        barriers = max(cfg.target_phases, math.ceil(self.window[1])) + self.cooldown
        result = run_sync(
            NetConfig(
                nodes=plan.nprocs,
                barriers=barriers,
                protocol=self.protocol,
                transport="mem",
                nphases=self.nphases or 4,
                seed=plan.seed,
                plan=plan,
                timeout_s=self.timeout_s,
                shards=self.shards,
                defense=self.defense,
            )
        )
        return RunOutcome(
            target=self.name,
            plan=plan,
            reached=result.reached,
            end_time=result.end_time,
            faults_fired=result.faults_fired,
            successful_phases=result.successful_phases,
            violations=list(result.violations),
            spans=list(result.spans),
            events=tuple(result.merged_events),
        )


class NetTreeAdapter(NetAdapter):
    """The distributed tree barrier (arrive/release waves) under chaos."""

    name = "net:tree"
    protocol = "tree"
    nphases = None


class NetMBAdapter(NetAdapter):
    """Program MB on the asyncio ring under chaos."""

    name = "net:mb"
    protocol = "mb"
    nphases = 4


class NetTreeShardedAdapter(NetTreeAdapter):
    """The tree barrier on the process-per-shard runtime under chaos --
    same plans, same monitors, the coordinator/merge path as target.
    Booting two worker processes makes each run hundreds of
    milliseconds, not a few; campaigns should point at it with a small
    ``--runs`` budget (``--jobs`` may spread it: the workers are plain
    children, which a pool worker may start)."""

    name = "net:tree+sharded"
    shards = 2
    timeout_s = 60.0


class NetTreeByzantineAdapter(NetTreeAdapter):
    """The defended tree barrier under the full adversarial surface:
    campaigns may aim Byzantine lie modes and permanent fail-stops (on
    top of resets, corruption and forged frames) at it.  The expected
    verdict is fail-safe clean -- hostile frames quarantine, lying
    peers are condemned, the run degrades into a fail-safe stop, and a
    wrongful completion is never narrated."""

    name = "net:tree+byzantine"
    supports_byzantine = True
    supports_permanent = True


class NetMBByzantineAdapter(NetMBAdapter):
    """Program MB on the asyncio ring under the adversarial surface.
    A Byzantine rank's state pushes land outside the honest wire
    envelope, so the defended ring condemns it and fail-safe stops;
    checked non-strictly (end-of-run rule only) because MB's narration
    is interleaving-dependent."""

    name = "net:mb+byzantine"
    supports_byzantine = True
    supports_permanent = True


class NetTreeUndefendedAdapter(NetTreeAdapter):
    """The adversarial *control*: the same tree protocol with the
    defensive frame layer off (``NetConfig.defense=False``) -- frames
    are trusted, nobody strikes or condemns.  A Byzantine peer's
    inflated round numbers then wrongly complete barrier rounds, which
    the fail-safe monitor is expected to flag; silence here means the
    monitor is blind."""

    name = "net:tree+undefended"
    defense = False
    supports_byzantine = True
    supports_permanent = True


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _registry() -> dict[str, Adapter]:
    adapters: list[Adapter] = [
        GCAdapter("cb"),
        GCAdapter("rb-ring"),
        GCAdapter("rb-tree"),
        GCMBAdapter("mb"),
        GCAdapter("cb", backend="compiled"),
        GCAdapter("rb-ring", backend="compiled"),
        GCAdapter("rb-tree", backend="compiled"),
        GCMBAdapter("mb", backend="compiled"),
        GCIntolerantAdapter(),
        GCFailSafeAdapter(),
        GCByzantineAdapter(),
        GCFailSafeAdapter(backend="compiled"),
        GCByzantineAdapter(backend="compiled"),
        ProtosimAdapter(),
        SimMPIAdapter(),
        DesMBAdapter(),
        NetTreeAdapter(),
        NetMBAdapter(),
        NetTreeShardedAdapter(),
        NetTreeByzantineAdapter(),
        NetMBByzantineAdapter(),
        NetTreeUndefendedAdapter(),
    ]
    return {a.name: a for a in adapters}


#: target name -> adapter instance (all stateless between runs).
ADAPTERS: dict[str, Adapter] = _registry()


def get_adapter(name: str) -> Adapter:
    try:
        return ADAPTERS[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos target {name!r}; known: {sorted(ADAPTERS)}"
        ) from None
