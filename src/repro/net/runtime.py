"""What a distributed run *is*: config in, nodes run, result out.

:func:`run_sync` (and its coroutine :func:`run_async`) is the single
entry point everything above uses -- the ``repro-experiments net run``
CLI, the ``net:tree`` / ``net:mb`` chaos adapters, the benchmarks and
the tests.  Behind it this module owns the run itself, however many
event loops carry it:

* ``_run_group`` is the only place nodes are built, gathered under the
  wall-clock deadline, stopped, closed and read.  It runs the nodes
  behind the ports it is handed -- wrapped in
  :class:`~repro.net.faults.FaultyTransport` when the
  :class:`~repro.chaos.plan.FaultPlan` carries link rates or partition
  windows -- and returns a picklable group report.
* ``_assemble`` is the only place reports and recorded streams become
  a :class:`NetResult`: progress, Lamport merge, replay digest,
  guarantee monitors, ``merged.jsonl``, the scrape-ready summary.

Single-loop is the one-group case: :func:`run_async` builds the fabric
(in-memory, or TCP / Unix sockets over localhost -- real sockets, so
the protocol code is deployment-shaped either way), picks the tracers,
and runs all N nodes as one group in its own loop.  With ``shards > 1``
:mod:`repro.net.shard` decides where nodes run -- it partitions them,
hosts one group per worker process, and hands the collected reports
back to the same ``_assemble``.
"""

from __future__ import annotations

import asyncio
import tempfile
import time as _time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from repro.chaos.monitors import monitors_for
from repro.chaos.plan import FaultPlan
from repro.net.node import Timing
from repro.net.transport import (
    Transport,
    create_mem_transports,
    create_tcp_transports,
)
from repro.net.tree import TreeBarrierNode
from repro.net.trace import check_merged, merge_traces, trace_digest
from repro.obs.events import FAULT, PHASE_END, ObsEvent
from repro.obs.recorder import dump_snapshot
from repro.obs.tracer import NullTracer, Tracer

PROTOCOLS = ("tree", "mb")
TRANSPORTS = ("mem", "tcp", "unix")
SHARD_TRANSPORTS = ("auto", "unix", "tcp")


@dataclass(frozen=True)
class NetConfig:
    """One distributed run, fully specified.

    What a run keeps: its protocol events (``Tracer(0)``), the O(rounds)
    stream the digest, the monitors and :class:`NetResult` read; message
    chatter only when ``trace_dir`` will write it, or in the live rings.

    The telemetry plane: ``live=True`` (implied by ``obs_port``) gives
    each node a flight recorder,
    ``Tracer(capacity=ring_capacity)``, and checks the guarantee monitors
    *while the run executes* (streaming Lamport merge; same verdicts as
    the post-hoc path, gated by test).  ``obs_port`` additionally serves
    ``/metrics``, ``/health`` and ``/spans/recent`` from inside the loop
    (0 = ephemeral port, localhost-only).  ``tracing=False`` runs with
    ``NullTracer`` (the benchmark's baseline column); ``tracer_factory``
    (pid -> tracer) overrides node tracers outright when the plane is
    off.

    Sharding: ``shards > 1`` routes the run to
    :func:`repro.net.shard.run_sharded` -- the node set is partitioned
    across that many worker processes, in-shard traffic stays on memory
    queues (``transport`` must be ``"mem"``), and cross-shard traffic
    rides one :class:`~repro.net.transport.TcpTransport` link per shard
    pair, written once per loop turn (``shard_transport``: ``"auto"``
    picks Unix domain sockets when the platform has them, else TCP).
    Workers keep protocol events (and a ``ring_capacity`` ring when
    live, a flight snapshot's ring under ``trace_dir``) and ship the
    protocol events.  The live HTTP plane and custom tracer
    factories are single-process features and are rejected with
    sharding.
    """

    nodes: int = 5
    barriers: int = 20
    protocol: str = "tree"
    transport: str = "mem"
    arity: int = 2
    nphases: int = 4  # MB phase-counter wrap
    seed: int = 0
    plan: FaultPlan | None = None
    #: The defensive frame layer (strict decode, payload validation,
    #: suspicion strikes, fail-safe degradation).  ``False`` restores
    #: the trusting pre-adversarial receive path -- the intolerant
    #: control that Byzantine chaos campaigns are expected to flag.
    defense: bool = True
    timing: Timing = field(default_factory=Timing)
    max_delay: float = 0.05
    timeout_s: float = 60.0
    trace_dir: str | None = None
    obs_port: int | None = None
    #: Called with the bound obs URL as soon as the HTTP plane is up --
    #: the only way to learn the port when ``obs_port=0`` (ephemeral),
    #: since the run blocks until completion.
    obs_announce: Any = None
    live: bool = False
    ring_capacity: int = 4096
    tracing: bool = True
    tracer_factory: Any = None
    shards: int = 1
    shard_transport: str = "auto"

    def __post_init__(self) -> None:
        if self.nodes < 2:
            raise ValueError("a distributed run needs at least 2 nodes")
        if self.barriers < 1:
            raise ValueError("need at least one barrier round")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; use {PROTOCOLS}")
        if self.transport not in TRANSPORTS:
            raise ValueError(
                f"unknown transport {self.transport!r}; use {TRANSPORTS}"
            )
        if self.plan is not None and self.plan.nprocs != self.nodes:
            raise ValueError(
                f"plan is for {self.plan.nprocs} processes, run has {self.nodes}"
            )
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.shard_transport not in SHARD_TRANSPORTS:
            raise ValueError(
                f"unknown shard_transport {self.shard_transport!r}; "
                f"use {SHARD_TRANSPORTS}"
            )
        if self.shards > 1:
            if self.transport != "mem":
                raise ValueError(
                    "sharded runs keep in-shard traffic on the memory "
                    "transport; use transport='mem' with shards > 1"
                )
            if self.obs_port is not None:
                raise ValueError("the live HTTP plane is single-process; "
                                 "obs_port requires shards=1")
            if self.tracer_factory is not None:
                raise ValueError("tracer_factory is not picklable across "
                                 "shard workers; use shards=1")

    @property
    def live_mode(self) -> bool:
        """The telemetry plane runs when asked for, or when the HTTP
        endpoint needs it."""
        return self.live or self.obs_port is not None


@dataclass
class NetResult:
    """What one run did, monitors included."""

    config: NetConfig
    reached: bool
    completed: int
    successful_phases: int
    faults_fired: int
    digest: str
    #: Lamport time of the last merged event.
    end_time: float
    #: Protocol wall: the slowest group's gather-to-close seconds.
    #: Fabric setup, worker spawn and post-run merge are outside it (a
    #: sharded run reports those in ``metrics_summary["shards"]``).
    wall_s: float
    #: The run degraded into a fail-safe stop (some node condemned a
    #: peer, or died permanently).  A legitimate end state under
    #: uncorrectable faults: the barrier may go unreached, but a
    #: wrongful completion was never reported.
    failsafe_stop: bool = False
    violations: list[Any] = field(default_factory=list)
    spans: list[float] = field(default_factory=list)
    node_stats: dict[int, dict[str, int]] = field(default_factory=dict)
    link_stats: dict[str, int] = field(default_factory=dict)
    #: The Lamport-merged protocol events; every event (message
    #: chatter included) only when ``trace_dir`` wrote them.
    merged_events: list[ObsEvent] = field(default_factory=list)
    trace_paths: list[str] = field(default_factory=list)
    #: Digest + per-guarantee verdicts (+ plane accounting when live) --
    #: everything a scraper needs without recomputing from the trace.
    metrics_summary: dict[str, Any] = field(default_factory=dict)
    obs_url: str | None = None

    @property
    def ok(self) -> bool:
        return (self.reached or self.failsafe_stop) and not self.violations

    def to_json(self) -> dict[str, Any]:
        return {
            "protocol": self.config.protocol,
            "transport": self.config.transport,
            "nodes": self.config.nodes,
            "barriers": self.config.barriers,
            "seed": self.config.seed,
            "reached": self.reached,
            "failsafe_stop": self.failsafe_stop,
            "completed": self.completed,
            "successful_phases": self.successful_phases,
            "faults_fired": self.faults_fired,
            "digest": self.digest,
            "end_time": self.end_time,
            "wall_s": self.wall_s,
            "violations": [v.to_json() for v in self.violations],
            "spans": list(self.spans),
            "node_stats": {str(k): dict(v) for k, v in self.node_stats.items()},
            "link_stats": dict(self.link_stats),
            "trace_paths": list(self.trace_paths),
            "metrics": dict(self.metrics_summary),
        }

    def render(self) -> str:
        lines = [
            f"net run: {self.config.protocol} x{self.config.nodes} over "
            f"{self.config.transport}, {self.config.barriers} barriers "
            f"(seed {self.config.seed})",
            f"  completed={self.completed} reached={self.reached} "
            f"failsafe_stop={self.failsafe_stop} "
            f"faults={self.faults_fired} wall={self.wall_s:.2f}s",
            f"  digest={self.digest}",
        ]
        verdicts = self.metrics_summary.get("verdicts")
        if verdicts:
            pretty = " ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
            lines.append(f"  verdicts: {pretty}")
        if self.obs_url:
            lines.append(f"  obs: {self.obs_url} (live plane)")
        if self.link_stats:
            pretty = " ".join(f"{k}={v}" for k, v in sorted(self.link_stats.items()))
            lines.append(f"  link: {pretty}")
        lines.append(
            "  reliability: "
            + " ".join(
                f"{key}={sum(s.get(key, 0) for s in self.node_stats.values())}"
                for key in ("resends", "dup_filtered", "senders_peak", "senders_open")
            )
        )
        for v in self.violations:
            lines.append(f"  VIOLATION {v}")
        lines.append("RESULT: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _fault_schedules(
    plan: FaultPlan | None,
) -> tuple[dict[int, list[float]], dict[int, list[float]], dict[int, list[float]]]:
    """Per-node strike times split by fault class: ``reset`` events are
    crash-restarts, ``crash`` events are permanent fail-stops, and
    ``byzantine`` events are lie-mode activations."""
    resets: dict[int, list[float]] = {}
    permanents: dict[int, list[float]] = {}
    byzantines: dict[int, list[float]] = {}
    if plan is not None:
        for event in plan.events:
            bucket = {
                "reset": resets,
                "crash": permanents,
                "byzantine": byzantines,
            }[event.kind]
            bucket.setdefault(event.pid, []).append(event.when)
    return resets, permanents, byzantines


def _node_builder(config: NetConfig) -> Callable[[int, Any, Any], tuple[Any, Any]]:
    """``(pid, transport, tracer) -> (node, its main coroutine)``.

    Only the configured protocol's node module is imported: a tree job
    never loads the MB machine.
    """
    plan = config.plan
    crashes, permanents, byzantines = _fault_schedules(plan)
    common: dict[str, Any] = dict(
        barriers=config.barriers,
        timing=config.timing,
        defense=config.defense,
        plan_seed=plan.seed if plan is not None else config.seed,
        fail_stop_aware=bool(permanents),
    )

    if config.protocol == "tree":

        def build(pid: int, transport: Any, tracer: Any) -> tuple[Any, Any]:
            node = TreeBarrierNode(
                pid,
                config.nodes,
                transport,
                arity=config.arity,
                crash_rounds=[max(0, int(w)) for w in crashes.get(pid, ())],
                permanent_rounds=[
                    max(0, int(w)) for w in permanents.get(pid, ())
                ],
                byzantine_rounds=[
                    max(0, int(w)) for w in byzantines.get(pid, ())
                ],
                tracer=tracer,
                **common,
            )
            return node, node.run_rounds()

    else:
        from repro.net.mbnode import MBRingNode

        def build(pid: int, transport: Any, tracer: Any) -> tuple[Any, Any]:
            node = MBRingNode(
                pid,
                config.nodes,
                transport,
                nphases=config.nphases,
                crash_times=crashes.get(pid, ()),
                permanent_times=permanents.get(pid, ()),
                byzantine_times=byzantines.get(pid, ()),
                tracer=tracer,
                **common,
            )
            return node, node.run_protocol()

    return build


def _wrap_faulty(
    config: NetConfig, ports: Mapping[int, Transport], clock: Callable[[], float]
) -> tuple[dict[int, Transport], list[Any]]:
    """``(pid -> transport, the wrappers)``: each of ``ports`` behind a
    :class:`~repro.net.faults.FaultyTransport` when the plan carries
    link rates or partition windows; a crash-only plan leaves the
    fabric untouched and :mod:`repro.net.faults` unloaded.  ``clock``
    reads seconds since the run began -- the timeline partition windows
    are written on."""
    plan = config.plan
    if plan is None or not (
        (plan.link is not None and plan.link.any) or plan.partitions
    ):
        return dict(ports), []
    from repro.net.faults import FaultyTransport

    wrapped: dict[int, Transport] = {
        pid: FaultyTransport(port, plan, clock=clock, max_delay=config.max_delay)
        for pid, port in ports.items()
    }
    return wrapped, list(wrapped.values())


async def _then(node: Any, main: Any, done: Callable[[int], None] | None) -> None:
    try:
        await main
    finally:
        node.stats["senders_open"] = node.senders_open()
        # A finished (or cancelled) node must stop gating the streaming
        # merge watermark.
        if done is not None:
            done(node.node_id)


async def _run_group(
    config: NetConfig,
    ports: Mapping[int, Transport],
    clock: Callable[[], float],
    tracers: Mapping[int, Any],
    on_done: Callable[[int], None] | None = None,
) -> dict[str, Any]:
    """Run the nodes behind ``ports`` to completion in this loop.

    The one place nodes are built, gathered under ``timeout_s``,
    stopped, closed and read: the single-loop runtime calls it with all
    ``config.nodes`` ports, a shard worker with its share.  ``on_done``
    is told each pid whose main coroutine has ended.  The report is
    plain picklable data (a worker ships it over a pipe);
    :func:`_assemble` folds any number of them into the result.
    """
    transports, faulty = _wrap_faulty(config, ports, clock)
    build_node = _node_builder(config)
    nodes: dict[int, Any] = {}
    mains = []
    for pid in ports:
        nodes[pid], main = build_node(pid, transports[pid], tracers[pid])
        mains.append(_then(nodes[pid], main, on_done))

    wall_start = _time.perf_counter()
    gathered = asyncio.gather(*mains)
    timed_out = False
    try:
        await asyncio.wait_for(gathered, config.timeout_s)
    except asyncio.TimeoutError:
        timed_out = True
        gathered.cancel()
        try:
            await gathered
        except (asyncio.CancelledError, Exception):
            pass
    finally:
        for node in nodes.values():
            await node.stop()
        for transport in transports.values():
            await transport.close()
    wall_s = _time.perf_counter() - wall_start

    link_stats: Counter[str] = Counter()
    for wrapper in faulty:
        link_stats.update(wrapper.stats)

    # Per-node trace files: a tracer that keeps every event writes them
    # all, a ring its snapshot segment (header + surviving window), a
    # disabled tracer nothing.
    trace_paths: list[str] = []
    if config.trace_dir is not None:
        out = Path(config.trace_dir)
        out.mkdir(parents=True, exist_ok=True)
        for pid, tracer in tracers.items():
            if not tracer.enabled:
                continue
            if tracer.capacity is None:
                path = out / f"trace-{pid}.jsonl"
                tracer.dump_jsonl(path)
            else:
                path = out / f"flight-{pid}.snapshot.jsonl"
                dump_snapshot(tracer, pid, path)
            trace_paths.append(str(path))

    return {
        "timed_out": timed_out,
        "failsafe_stop": any(
            getattr(node, "failsafe", False) or getattr(node, "dead", False)
            for node in nodes.values()
        ),
        # Tree nodes count rounds, ring nodes completed barriers.
        "rounds": {
            pid: node.round if config.protocol == "tree" else node.completed
            for pid, node in nodes.items()
        },
        "node_stats": {pid: dict(node.stats) for pid, node in nodes.items()},
        "link_stats": dict(link_stats),
        "wall_s": wall_s,
        "trace_paths": trace_paths,
        "rings": {
            str(pid): tracer.ring_stats()
            for pid, tracer in tracers.items()
            if tracer.enabled
        },
    }


def _monitor_args(config: NetConfig) -> tuple[FaultPlan, int | None]:
    """``(plan, nphases)`` as the guarantee monitors take them: an empty
    plan for a fault-free run, and no phase wrap for the tree (whose
    rounds are unbounded)."""
    plan = config.plan if config.plan is not None else FaultPlan(nprocs=config.nodes)
    return plan, None if config.protocol == "tree" else config.nphases


def _assemble(
    config: NetConfig,
    reports: Sequence[Mapping[str, Any]],
    streams: Mapping[int, Sequence[ObsEvent]],
    plane: Any = None,
    obs_url: str | None = None,
) -> NetResult:
    """Fold the group reports and recorded streams into the run's result.

    The one place progress, the merged trace, the replay digest, the
    guarantee verdicts, ``merged.jsonl`` and the :class:`NetResult` are
    computed -- for one group or many.  ``streams`` maps each pid to its
    events in emission order (:func:`_streams`); the digest is always
    theirs.  When the live ``plane`` ran it has already merged and
    monitored while the nodes executed, so the merged trace and the
    verdicts are the plane's (complete) view.  Either way the merged
    trace is the protocol events unless ``trace_dir`` kept every event.
    """
    rounds: dict[int, int] = {}
    node_stats: dict[int, dict[str, int]] = {}
    link_stats: Counter[str] = Counter()
    trace_paths: list[str] = []
    rings: dict[str, dict[str, Any]] = {}
    for report in reports:
        rounds.update(report["rounds"])
        node_stats.update(report["node_stats"])
        link_stats.update(report["link_stats"])
        trace_paths.extend(report["trace_paths"])
        rings.update(report["rings"])
    if config.protocol == "tree":
        completed = min(rounds.values())
        reached = all(r >= config.barriers for r in rounds.values())
    else:
        completed = rounds[0]
        reached = completed >= config.barriers
    reached = reached and not any(report["timed_out"] for report in reports)

    check_plan, nphases = _monitor_args(config)
    if plane is not None:
        plane.finish(reached)
        merged = list(plane.merged)
        violations, spans = list(plane.violations), list(plane.spans)
    else:
        merged = merge_traces(streams)
        violations, spans = check_merged(merged, check_plan, nphases, reached)
    digest = trace_digest(streams)

    if config.trace_dir is not None:
        # Every group's ``_run_group`` has already created the directory.
        merged_path = Path(config.trace_dir) / "merged.jsonl"
        Tracer.from_events(merged).dump_jsonl(merged_path)
        trace_paths.append(str(merged_path))

    return NetResult(
        config=config,
        reached=reached,
        completed=completed,
        # Node 0 narrates the phases, as in every simulated engine.
        successful_phases=sum(
            1
            for e in merged
            if e.kind == PHASE_END and e.pid == 0 and e.data.get("success")
        ),
        faults_fired=sum(1 for e in merged if e.kind == FAULT),
        digest=digest,
        end_time=merged[-1].time if merged else 0.0,
        wall_s=max(report["wall_s"] for report in reports),
        failsafe_stop=any(report["failsafe_stop"] for report in reports),
        violations=list(violations),
        spans=list(spans),
        node_stats=node_stats,
        link_stats=dict(link_stats),
        merged_events=merged,
        trace_paths=trace_paths,
        metrics_summary=_metrics_summary(
            check_plan, nphases, digest, violations, spans, rings, plane
        ),
        obs_url=obs_url,
    )


#: The ring a shard worker writes as its flight snapshot under ``trace_dir``
#: when the plane is off.
SHARD_RING = 65536


def _tracers(
    config: NetConfig, pids: Sequence[int], plane: Any = None
) -> dict[int, Any]:
    """Each node's tracer, for one loop and a shard worker alike.

    Message chatter is kept only where something reads it: the live
    ``plane``'s rings (a shard worker's ring of ``ring_capacity`` when
    live), every event for a single-loop ``trace_dir`` run's
    ``trace-<pid>.jsonl``, a :data:`SHARD_RING` ring for a sharded one's
    flight snapshot.  Every other run keeps its protocol events only
    (``Tracer(0)``); a ``tracer_factory`` decides for itself, and
    ``tracing=False`` is a ``NullTracer``."""
    if plane is not None:
        return {pid: plane.tracer_for(pid) for pid in pids}
    if config.tracer_factory is not None:
        return {pid: config.tracer_factory(pid) for pid in pids}
    if not config.tracing:
        return {pid: NullTracer() for pid in pids}
    capacity: int | None = 0
    if config.shards > 1 and config.live_mode:
        capacity = config.ring_capacity
    elif config.trace_dir is not None:
        capacity = None if config.shards == 1 else SHARD_RING
    return {pid: Tracer(capacity) for pid in pids}


def _streams(tracers: Mapping[int, Any]) -> dict[int, Sequence[ObsEvent]]:
    """Each node's stream for the merge and the digest: every event an
    unbounded tracer kept, else its protocol events."""
    return {
        pid: tracer.events if tracer.capacity is None else tracer.protocol_events
        for pid, tracer in tracers.items()
    }


async def run_async(config: NetConfig) -> NetResult:
    if config.shards > 1:
        from repro.net.shard import run_sharded

        # The sharded coordinator blocks on pipes and process joins;
        # keep this loop responsive while it runs.
        return await asyncio.to_thread(run_sharded, config)
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    pids = range(config.nodes)
    sockdir: tempfile.TemporaryDirectory | None = None
    server = None
    try:
        # -- fabric ----------------------------------------------------
        if config.transport in ("tcp", "unix"):
            if config.transport == "unix":
                # Falls back to TCP on platforms without AF_UNIX.
                sockdir = tempfile.TemporaryDirectory(prefix="net-unix-")
            raw = await create_tcp_transports(
                config.nodes,
                unix_dir=sockdir.name if sockdir is not None else None,
            )
        else:
            raw = create_mem_transports(config.nodes)

        # -- telemetry plane -------------------------------------------
        plane = None
        if config.live_mode:
            from repro.obs.live import LivePlane

            check_plan, nphases = _monitor_args(config)
            plane = LivePlane(
                config.nodes,
                plan=check_plan,
                nphases=nphases,
                ring_capacity=config.ring_capacity,
                keep_messages=config.trace_dir is not None,
            )
            if config.obs_port is not None:
                from repro.obs.http import ObsHttpServer

                server = await ObsHttpServer(plane, port=config.obs_port).start()
                if config.obs_announce is not None:
                    config.obs_announce(server.url)
        tracers = _tracers(config, pids, plane)

        report = await _run_group(
            config,
            dict(enumerate(raw)),
            lambda: loop.time() - t0,
            tracers,
            on_done=plane.mark_done if plane is not None else None,
        )
        return _assemble(
            config,
            [report],
            _streams(tracers),
            plane,
            obs_url=server.url if server is not None else None,
        )
    finally:
        if server is not None:
            await server.stop()
        if sockdir is not None:
            sockdir.cleanup()


def _metrics_summary(
    check_plan: FaultPlan,
    nphases: int | None,
    digest: str,
    violations: list[Any],
    spans: list[float],
    rings: dict[str, dict[str, Any]],
    plane: Any,
) -> dict[str, Any]:
    """The scrape-ready run summary: digest, per-guarantee verdicts and
    every traced node's ring, plus merge accounting when the live plane
    ran."""
    checked = sorted(
        {
            m.guarantee
            for m in monitors_for(check_plan, nphases, strict=nphases is None)
        }
    )
    verdicts = {guarantee: "pass" for guarantee in checked}
    for violation in violations:
        verdicts[violation.guarantee] = "fail"
    summary: dict[str, Any] = {
        "digest": digest,
        "verdicts": verdicts,
        "violations_total": len(violations),
        "stabilization_spans": len(spans),
        "live": plane is not None,
        "rings": rings,
    }
    if plane is not None:
        summary["merged_released"] = plane.merger.released
        summary["spans_finished"] = dict(plane.folder.finished)
    return summary


def run_sync(config: NetConfig) -> NetResult:
    """Run a distributed barrier job to completion (blocking).

    Dispatches transparently: ``shards > 1`` runs the process-per-shard
    coordinator (:func:`repro.net.shard.run_sharded`), everything else
    runs the single-loop path.
    """
    if config.shards > 1:
        from repro.net.shard import run_sharded

        return run_sharded(config)
    return asyncio.run(run_async(config))
