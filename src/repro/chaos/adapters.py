"""Engine adapters: one :class:`FaultPlan`, four execution backends.

A chaos target is a *row*: an :class:`Adapter` holding what a campaign
needs to know about it (how ``when`` is read, the strike window, which
fault classes it can express), the function that runs its engine family
and that family's options.  Each family function knows how to aim a plan
at its engine's existing injection machinery --
:class:`repro.gc.faults.PlanInjector` for the untimed guarded-command
runs, ``schedule_fault``/``schedule_scramble`` for the timed tree
barrier, ``Runtime.schedule_fault`` for the simulated-MPI collectives,
per-rank ``fault_plan`` times plus network
:class:`~repro.des.network.LinkFaults` for the message-passing MB over
the discrete-event kernel, and crash-restarts plus transport faults for
the asyncio runtime -- and how to interpret ``when`` (daemon steps vs.
virtual time, declared via :attr:`Adapter.steps` and
:attr:`Adapter.window` so campaigns generate strike times that actually
land inside the run).

Every simulated run goes through :func:`_monitored`, which wires the
guarantee monitors *online* (subscribed to the tracer before the engine
starts) and returns a uniform :class:`RunOutcome` that keeps only the
protocol events, so it grows with rounds, not steps.  Capabilities differ
-- the collective engine only models detectable resets, the network
layer only exists under the DES and net targets -- and are declared
(:attr:`supports_undetectable`, :attr:`supports_link`) so campaign
generation never asks an engine for a fault class it cannot express.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.chaos.monitors import GuaranteeViolation, MonitorSet, monitors_for
from repro.chaos.plan import CampaignConfig, FaultPlan
from repro.obs.events import ObsEvent
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
    #: The run's :data:`PROTOCOL_KINDS` events (merged order for net
    #: targets) -- in memory for replay and its digest; not serialized.
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


@dataclass(frozen=True)
class Adapter:
    """One chaos target: campaign-facing metadata, the engine family's
    run function, and the family options that tell its targets apart."""

    name: str
    #: The engine family: ``runner(adapter, plan, cfg) -> RunOutcome``.
    runner: Callable[[Adapter, FaultPlan, CampaignConfig], RunOutcome]
    #: ``when`` is a daemon step (floored) rather than virtual time.
    steps: bool = False
    #: The [start, stop) window strike times should be drawn from so
    #: they land inside a default-config run on this engine.
    window: tuple[float, float] = (1.0, 30.0)
    supports_undetectable: bool = False
    supports_link: bool = False
    #: Section 7 uncorrectable classes: Byzantine lie mode / permanent
    #: fail-stop.  Campaigns downgrade these fault counts to the closest
    #: expressible class on adapters that leave them False.
    supports_byzantine: bool = False
    supports_permanent: bool = False
    #: gc: ``(nprocs, nphases) -> (program, {event kind or class ->
    #: FaultSpec})``; imports its barrier module when called, so a run
    #: loads only the program it names.
    program: Callable[[int, int], tuple[Any, dict[str, Any]]] | None = None
    #: gc: the daemon's step path (``"interpreter"`` or ``"compiled"``).
    backend: str = "interpreter"
    #: net: the node protocol (``"tree"`` or ``"mb"``).
    protocol: str = "tree"
    #: net, des: MB machine phase-counter wrap for the masking monitor
    #: (None => unbounded tree rounds).
    nphases: int | None = None
    #: net: worker processes; >1 exercises the sharded runtime
    #: (:mod:`repro.net.shard`) as a chaos target.
    shards: int = 1
    #: net: the defensive frame layer (strict decode, validation,
    #: strikes, fail-safe degradation); ``False`` is the intolerant
    #: control.
    defense: bool = True
    #: net: wall-clock budget per run; generous next to the ~1s typical
    #: run.
    timeout_s: float = 30.0

    def run(self, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
        return self.runner(self, plan, cfg)


def _successes(events: tuple[ObsEvent, ...]) -> int:
    return sum(1 for e in events if e.kind == "phase_end" and e.data.get("success"))


def _monitored(
    adapter: Adapter,
    plan: FaultPlan,
    nphases: int | None,
    body: Callable[[Tracer], tuple[bool, float]],
    min_successes: int = 0,
) -> RunOutcome:
    """Run ``body(tracer) -> (reached, end_time)`` under the plan's
    monitor battery, subscribed before the engine emits anything; short
    of ``min_successes`` successful phases, a run has not reached."""
    tracer = Tracer(capacity=0)
    monitor_set = MonitorSet(tracer, monitors_for(plan, nphases))
    reached, end_time = body(tracer)
    events = monitor_set.events
    if min_successes and _successes(events) < min_successes:
        reached = False
    monitor_set.finish(reached, end_time)
    return RunOutcome(
        target=adapter.name,
        plan=plan,
        reached=reached,
        end_time=end_time,
        faults_fired=sum(1 for e in events if e.kind == "fault"),
        successful_phases=int(tracer.counters.get("obs.phases_successful", 0))
        or _successes(events),
        violations=monitor_set.violations,
        spans=monitor_set.spans,
        events=events,
    )


def _link_faults(plan: FaultPlan):
    """The plan's link rates in the DES network's vocabulary."""
    if plan.link is None or not plan.link.any:
        return None
    from repro.des.network import LinkFaults

    return LinkFaults(
        loss=plan.link.loss,
        duplication=plan.link.duplication,
        corruption=plan.link.corruption,
    )


# ----------------------------------------------------------------------
# Untimed guarded-command engine (CB / RB / RB-tree / MB / intolerant)
# ----------------------------------------------------------------------
def _run_gc(adapter: Adapter, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
    """One of the paper's barrier programs under the daemon simulator.

    The plan becomes a :class:`PlanInjector` schedule: each event maps
    to the spec its row registers for the event's kind, else to the
    program's own detectable or undetectable :class:`FaultSpec`, so
    mixed-class schedules replay in a single run.

    ``backend="compiled"`` runs the same program under the compiled step
    path (:mod:`repro.gc.compile`) as ``gc:<key>+compiled``, so campaigns
    exercise both executors -- the chaos workload doubles as a soak test
    of the compiler's fault-resync path.
    """
    from repro.gc.faults import PlanInjector
    from repro.gc.scheduler import RoundRobinDaemon
    from repro.gc.simulator import Simulator

    program, specs = adapter.program(plan.nprocs, cfg.nphases)
    schedule = [
        (
            int(e.when),
            e.pid,
            specs.get(e.kind)
            or specs["detectable" if e.detectable else "undetectable"],
        )
        for e in plan.events
    ]

    def body(tracer: Tracer) -> tuple[bool, float]:
        sim = Simulator(
            program,
            RoundRobinDaemon(backend=adapter.backend),
            injector=PlanInjector(program, schedule, seed=plan.seed)
            if schedule
            else None,
            # Monitors read the obs tracer; nobody reads result.trace.
            record_trace=False,
            tracer=tracer,
        )
        result = sim.run(
            max_steps=cfg.max_steps,
            stop=lambda s, _st: tracer.counters.get("obs.phases_successful", 0)
            >= cfg.target_phases,
        )
        return result.reached, float(result.steps)

    return _monitored(adapter, plan, cfg.nphases, body)


def _cb_specs() -> dict[str, Any]:
    from repro.barrier.cb import cb_detectable_fault, cb_undetectable_fault

    return {
        "detectable": cb_detectable_fault(),
        "undetectable": cb_undetectable_fault(),
    }


def _rb_specs() -> dict[str, Any]:
    from repro.barrier.rb import rb_detectable_fault, rb_undetectable_fault

    return {
        "detectable": rb_detectable_fault(),
        "undetectable": rb_undetectable_fault(),
    }


def _cb(nprocs: int, nphases: int):
    from repro.barrier.cb import make_cb

    return make_cb(nprocs, nphases), _cb_specs()


def _rb_ring(nprocs: int, nphases: int):
    from repro.barrier.rb import make_rb

    return make_rb(nprocs, nphases=nphases), _rb_specs()


def _rb_tree(nprocs: int, nphases: int):
    from repro.barrier.trees import make_rb_tree

    return make_rb_tree(nprocs, arity=2, nphases=nphases), _rb_specs()


def _mb(nprocs: int, nphases: int):
    """MB under the daemon simulator (its own spec pair)."""
    from repro.barrier.mb import make_mb, mb_detectable_fault, mb_undetectable_fault

    return make_mb(nprocs, nphases=nphases), {
        "detectable": mb_detectable_fault(),
        "undetectable": mb_undetectable_fault(),
    }


def _intolerant(nprocs: int, nphases: int):
    """The fault-intolerant baseline as the campaigns' positive control.

    Its control domain has no error position, so *every* plan event --
    whatever its declared class -- lands as the whole-state scramble
    (:meth:`FaultSpec.undetectable_all`): the only fault the program can
    even represent, and one it provably cannot survive.  Campaigns
    against this target are expected to report violations; silence here
    means the monitors are blind.
    """
    from repro.barrier.intolerant import make_intolerant_barrier
    from repro.gc.faults import FaultSpec

    program = make_intolerant_barrier(nprocs, nphases=max(nphases, 2))
    scramble = FaultSpec.undetectable_all(program)
    return program, {"detectable": scramble, "undetectable": scramble}


def _failsafe(nprocs: int, nphases: int):
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
    from repro.extensions.crash import crash_fault
    from repro.extensions.failsafe import make_failsafe_cb

    return make_failsafe_cb(nprocs, nphases), {**_cb_specs(), "crash": crash_fault()}


def _cb_byzantine(nprocs: int, nphases: int):
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
    from repro.barrier.cb import make_cb
    from repro.extensions.crash import byzantine_fault, with_byzantine

    program = with_byzantine(make_cb(nprocs, nphases))
    return program, {**_cb_specs(), "byzantine": byzantine_fault()}


# ----------------------------------------------------------------------
# Timed tree barrier (protosim)
# ----------------------------------------------------------------------
def _run_protosim(adapter: Adapter, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
    """The timed fault-tolerant tree barrier.

    Detectable events map to :meth:`FTTreeBarrierSim.schedule_fault`,
    undetectable ones to :meth:`~FTTreeBarrierSim.schedule_scramble`;
    ``when`` is virtual time.  With ``work_time = 1.0`` and the random
    environments off, ``target_phases`` fault-free phases span roughly
    ``target_phases`` time units, hence the short window.
    """
    from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig

    config = SimConfig(latency=0.01, work_time=1.0, seed=plan.seed)

    def body(tracer: Tracer) -> tuple[bool, float]:
        sim = FTTreeBarrierSim(nprocs=plan.nprocs, config=config, tracer=tracer)
        for event in plan.events:
            if event.detectable:
                sim.schedule_fault(event.when, event.pid)
            else:
                sim.schedule_scramble(event.when, event.pid)
        stats = sim.run(phases=cfg.target_phases, max_time=cfg.max_time)
        return stats.successful_phases >= cfg.target_phases, float(sim.sim.now)

    return _monitored(adapter, plan, config.nphases, body)


# ----------------------------------------------------------------------
# Simulated MPI collectives (simmpi)
# ----------------------------------------------------------------------
def _run_simmpi(adapter: Adapter, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
    """A compute+barrier SPMD job on the simulated-MPI runtime.

    The collective engine masks detectable resets by re-executing the
    struck instance (FTMode.TOLERATE); it has no notion of an arbitrary
    state scramble, so the target only supports detectable events,
    delivered through :meth:`Runtime.schedule_fault`.
    """
    from repro.simmpi.ftmodes import FTMode
    from repro.simmpi.runtime import Runtime

    target = cfg.target_phases

    def worker(comm):
        for _ in range(target):
            yield comm.compute(1.0)
            yield comm.barrier()
        return comm.rank

    def body(tracer: Tracer) -> tuple[bool, float]:
        rt = Runtime(
            nprocs=plan.nprocs,
            latency=0.01,
            seed=plan.seed,
            ft_mode=FTMode.TOLERATE,
            link_faults=_link_faults(plan),
            tracer=tracer,
        )
        for event in plan.events:
            rt.schedule_fault(event.when, event.pid)
        reached = True
        try:
            rt.run(worker, until=cfg.max_time)
        except Exception:
            reached = False
        return reached, float(rt.sim.now)

    # Collective ids count up from 0 without wrapping -> nphases=None.
    return _monitored(adapter, plan, None, body, min_successes=target)


# ----------------------------------------------------------------------
# Message-passing MB over the DES kernel (des)
# ----------------------------------------------------------------------
def _run_des_mb(adapter: Adapter, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
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
    from repro.simmpi.mb_impl import mb_barrier_program
    from repro.simmpi.runtime import Runtime

    target = cfg.target_phases
    fault_plan: dict[int, list[float]] = {}
    for event in plan.events:
        fault_plan.setdefault(event.pid, []).append(event.when)

    def body(tracer: Tracer) -> tuple[bool, float]:
        rt = Runtime(
            nprocs=plan.nprocs,
            latency=0.01,
            seed=plan.seed,
            link_faults=_link_faults(plan),
        )

        def worker(comm):
            return mb_barrier_program(
                comm,
                phases=target,
                work_time=0.5,
                nphases=adapter.nphases,
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
        return reached, float(rt.sim.now)

    return _monitored(adapter, plan, adapter.nphases, body)


# ----------------------------------------------------------------------
# Asyncio message-passing runtime (repro.net)
# ----------------------------------------------------------------------
#: Extra barriers past the strike window so a strike landing in the
#: window's tail still has the clean phases the stabilization monitor
#: needs to declare convergence before the run ends.
_NET_COOLDOWN = 2


def _run_net(adapter: Adapter, plan: FaultPlan, cfg: CampaignConfig) -> RunOutcome:
    """A protocol on the real asyncio runtime as a chaos target.

    Unlike every other family, runs here burn wall clock: nodes are
    asyncio tasks exchanging framed messages over an in-memory fabric,
    link rates and partition windows are injected at the transport by
    :class:`repro.net.faults.FaultyTransport`, and plan events become
    crash-restarts.  The per-node Lamport-stamped traces are merged and
    checked post-run by the same monitor battery
    (:func:`repro.net.trace.check_merged` defers to
    :func:`monitors_for`), so the :class:`RunOutcome` is built straight
    from the :class:`repro.net.runtime.NetResult`.
    """
    from repro.net.runtime import NetConfig, run_sync

    # Enough rounds that the latest possible strike (window stop)
    # is followed by >= cooldown clean barriers.
    barriers = max(cfg.target_phases, math.ceil(adapter.window[1])) + _NET_COOLDOWN
    result = run_sync(
        NetConfig(
            nodes=plan.nprocs,
            barriers=barriers,
            protocol=adapter.protocol,
            transport="mem",
            nphases=adapter.nphases or 4,
            seed=plan.seed,
            plan=plan,
            timeout_s=adapter.timeout_s,
            shards=adapter.shards,
            defense=adapter.defense,
        )
    )
    return RunOutcome(
        target=adapter.name,
        plan=plan,
        reached=result.reached,
        end_time=result.end_time,
        faults_fired=result.faults_fired,
        successful_phases=result.successful_phases,
        violations=list(result.violations),
        spans=list(result.spans),
        events=tuple(result.merged_events),
    )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def _gc(name: str, program: Callable, **capabilities: bool) -> Adapter:
    return Adapter(
        name,
        _run_gc,
        steps=True,
        supports_undetectable=True,
        program=program,
        **capabilities,
    )


def _registry() -> dict[str, Adapter]:
    cb = _gc("gc:cb", _cb)
    rb_ring = _gc("gc:rb-ring", _rb_ring)
    rb_tree = _gc("gc:rb-tree", _rb_tree)
    mb = _gc("gc:mb", _mb)
    failsafe = _gc("gc:failsafe", _failsafe, supports_permanent=True)
    cb_byzantine = _gc("gc:cb+byzantine", _cb_byzantine, supports_byzantine=True)
    # The distributed tree barrier (arrive/release waves) under chaos.
    # Tree strikes floor to a round number, MB strikes are
    # progress-or-time; both land inside a ``target_phases`` run.
    net_tree = Adapter("net:tree", _run_net, window=(1.0, 4.0), supports_link=True)
    # Program MB on the asyncio ring under chaos.
    net_mb = replace(net_tree, name="net:mb", protocol="mb", nphases=4)
    # Campaigns may aim Byzantine lie modes and permanent fail-stops (on
    # top of resets, corruption and forged frames) at these.
    adversarial = {"supports_byzantine": True, "supports_permanent": True}
    rows = [
        cb,
        rb_ring,
        rb_tree,
        mb,
        replace(cb, name="gc:cb+compiled", backend="compiled"),
        replace(rb_ring, name="gc:rb-ring+compiled", backend="compiled"),
        replace(rb_tree, name="gc:rb-tree+compiled", backend="compiled"),
        replace(mb, name="gc:mb+compiled", backend="compiled"),
        _gc("gc:intolerant", _intolerant),
        failsafe,
        cb_byzantine,
        replace(failsafe, name="gc:failsafe+compiled", backend="compiled"),
        replace(cb_byzantine, name="gc:cb+byzantine+compiled", backend="compiled"),
        Adapter(
            "protosim:tree",
            _run_protosim,
            window=(0.2, 4.0),
            supports_undetectable=True,
        ),
        Adapter(
            "simmpi:barrier", _run_simmpi, window=(0.2, 4.0), supports_link=True
        ),
        Adapter(
            "des:mb", _run_des_mb, window=(0.5, 8.0), supports_link=True, nphases=4
        ),
        net_tree,
        net_mb,
        # The tree barrier on the process-per-shard runtime under chaos
        # -- same plans, same monitors, the coordinator/merge path as
        # target.  Booting two worker processes makes each run hundreds
        # of milliseconds, not a few; campaigns should point at it with
        # a small ``--runs`` budget (``--jobs`` may spread it: the
        # workers are plain children, which a pool worker may start).
        replace(net_tree, name="net:tree+sharded", shards=2, timeout_s=60.0),
        # The defended tree barrier under the full adversarial surface.
        # The expected verdict is fail-safe clean -- hostile frames
        # quarantine, lying peers are condemned, the run degrades into a
        # fail-safe stop, and a wrongful completion is never narrated.
        replace(net_tree, name="net:tree+byzantine", **adversarial),
        # Program MB on the asyncio ring under the adversarial surface.
        # A Byzantine rank's state pushes land outside the honest wire
        # envelope, so the defended ring condemns it and fail-safe
        # stops; checked non-strictly (end-of-run rule only) because
        # MB's narration is interleaving-dependent.
        replace(net_mb, name="net:mb+byzantine", **adversarial),
        # The adversarial *control*: the same tree protocol with the
        # defensive frame layer off (``NetConfig.defense=False``) --
        # frames are trusted, nobody strikes or condemns.  A Byzantine
        # peer's inflated round numbers then wrongly complete barrier
        # rounds, which the fail-safe monitor is expected to flag;
        # silence here means the monitor is blind.
        replace(net_tree, name="net:tree+undefended", defense=False, **adversarial),
    ]
    return {a.name: a for a in rows}


#: target name -> row (immutable; a run keeps no state on it).
ADAPTERS: dict[str, Adapter] = _registry()


def get_adapter(name: str) -> Adapter:
    try:
        return ADAPTERS[name]
    except KeyError:
        raise KeyError(
            f"unknown chaos target {name!r}; known: {sorted(ADAPTERS)}"
        ) from None
