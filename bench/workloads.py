"""The five closed-loop workloads: one seeded, self-verifying unit job each.

A *unit* is one complete run of a real entry point (a gc campaign run, a
``run_sync`` net job, a ``run_load`` wave against a long-lived daemon);
the worker repeats it back-to-back, one in flight, for a fixed duration.
A *round* is one barrier completed by the whole group.  Unit sizes stay
short of the net runtime's resend cliff (see ``bench/README.md``) and are
not to be "fixed" by a PR that claims a gain.

Each workload's ``why`` is copied verbatim into ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any

from repro.chaos import get_adapter
from repro.chaos.plan import (
    CampaignConfig,
    FaultEvent,
    FaultPlan,
    LinkPlan,
    PartitionWindow,
)
from repro.net import NetConfig, run_sync, trace_digest
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.loadgen import LoadConfig, run_load


@dataclass
class UnitFacts:
    """What verification needs from one unit's result."""

    ok: bool
    violations: int
    completed: int
    digest: str
    errors: int = 0
    #: Client-observed arrive->release seconds (serve only).
    latencies: list[float] = field(default_factory=list)


class Workload:
    """One unit job, its verification, and what the ledger reads off it."""

    name: str
    why: str
    #: Rounds one verified unit completes.
    rounds: int

    def start(self, seed: int) -> None:
        """Build inputs from ``seed`` (and boot whatever outlives a unit)."""

    def unit(self, index: int) -> Any:
        raise NotImplementedError

    def facts(self, result: Any) -> UnitFacts:
        raise NotImplementedError

    def counts(self, result: Any, wall_s: float) -> dict[str, float]:
        """Raw counters one unit adds to the ledger (traced pass; called
        after every unit, warm-up included); ``wall_s`` is the unit's wall."""
        return {}

    def side_units(self) -> None:
        """Extra traced-only measurements, outside the timed region."""

    def stop(self) -> None:
        pass

    def verify(self, facts: UnitFacts, expected_digest: str | None) -> list[str]:
        """Reasons this unit does not count; empty means verified.

        ``expected_digest`` is the warm-up unit's digest (None while
        verifying the warm-up itself).
        """
        reasons = []
        if not facts.ok:
            reasons.append("not ok")
        if facts.violations:
            reasons.append(f"{facts.violations} violations")
        if facts.completed != self.rounds:
            reasons.append(f"completed {facts.completed} of {self.rounds} rounds")
        if facts.errors:
            reasons.append(f"{facts.errors} client errors")
        if expected_digest is not None and facts.digest != expected_digest:
            reasons.append(
                f"digest {facts.digest[:12]} != expected {expected_digest[:12]}"
            )
        return reasons


# ----------------------------------------------------------------------
# gc
# ----------------------------------------------------------------------
class GcMbFaulty(Workload):
    name = "gc_mb_faulty"
    why = (
        "Paper's final program MB (8 procs) under 6 detectable + 2 undetectable "
        "faults: daemon step, injector, tracer, online monitors; no frames or "
        "sockets, so only gc, obs.tracer and chaos.monitors work"
    )
    rounds = 400

    def start(self, seed: int) -> None:
        self.adapter = get_adapter("gc:mb")
        self.plan = FaultPlan.generate(
            seed, 8, detectable=6, undetectable=2, start=50, stop=8000, steps=True
        )
        self.config = CampaignConfig(
            nprocs=8, nphases=4, target_phases=self.rounds, max_steps=10**8
        )

    def unit(self, index: int) -> Any:
        return self.adapter.run(self.plan, self.config)

    def facts(self, outcome: Any) -> UnitFacts:
        return UnitFacts(
            ok=outcome.ok and outcome.reached,
            violations=len(outcome.violations),
            completed=outcome.successful_phases,
            # The repo's replay digest (phase/fault/detect/recovery rows).
            digest=trace_digest({0: outcome.events}),
        )

    def side_units(self) -> None:
        # Same plan on the compiled backend; its daemon steps land under
        # ``gc.compile.step`` in the ledger.
        get_adapter("gc:mb+compiled").run(self.plan, self.config)


# ----------------------------------------------------------------------
# net (single loop and sharded)
# ----------------------------------------------------------------------
def _acceptance_plan(seed: int) -> FaultPlan:
    """``tests/test_net_runtime.py::ACCEPTANCE_PLAN`` with the seed substituted."""
    return FaultPlan(
        nprocs=5,
        events=(FaultEvent(pid=2, when=3.0), FaultEvent(pid=4, when=7.0)),
        seed=seed,
        link=LinkPlan(loss=0.15, duplication=0.1, reorder=0.1),
        partitions=(
            PartitionWindow(start=0.4, stop=0.9, groups=((0, 1, 2), (3, 4))),
        ),
    )


class NetWorkload(Workload):
    """A ``run_sync`` tree-barrier job; subclasses are pure data."""

    #: ``NetConfig`` fields beyond barriers/protocol/arity/seed/plan.
    config: dict[str, Any]

    @staticmethod
    def plan(seed: int) -> FaultPlan | None:
        return None

    def start(self, seed: int) -> None:
        self.net_config = NetConfig(
            barriers=self.rounds,
            protocol="tree",
            arity=2,
            seed=seed,
            plan=self.plan(seed),
            **self.config,
        )

    def unit(self, index: int) -> Any:
        return run_sync(self.net_config)

    def facts(self, result: Any) -> UnitFacts:
        return UnitFacts(
            ok=result.ok and result.reached,
            violations=len(result.violations),
            completed=result.completed,
            digest=result.digest,
        )

    def counts(self, result: Any, wall_s: float) -> dict[str, float]:
        out: dict[str, float] = {
            "net.runtime.unit_s": wall_s,
            "net.runtime.protocol_s": result.wall_s,
        }
        for key in ("sent", "resends", "dup_filtered", "hb_sent"):
            out[f"net.node.{key}"] = sum(
                s.get(key, 0) for s in result.node_stats.values()
            )
        for key, value in result.link_stats.items():
            prefix = "net.shard." if key.startswith("xshard_") else "net.faults."
            out[prefix + key] = value
        shards = result.metrics_summary.get("shards")
        if shards:
            walls = shards["shard_walls"]
            out["net.shard.units"] = 1
            out["net.shard.unit_s"] = wall_s
            out["net.shard.coordinator_s"] = shards["coordinator_wall_s"]
            out["net.shard.protocol_s"] = max(walls)
            out["net.shard.skew_s"] = max(walls) - min(walls)
        return out


class NetTreeClean(NetWorkload):
    name = "net_tree_clean"
    why = (
        "Fault-free 8-node tree over unix sockets: encode, socket, strict decode, "
        "dedup, handler, tracer and post-run merge/digest/monitors all on the "
        "critical path; net.faults and net.shard idle"
    )
    rounds = 40
    config = dict(nodes=8, transport="unix")


class NetTreeFaulty(NetWorkload):
    name = "net_tree_faulty"
    why = (
        "PR-5 acceptance run (5 nodes, 2 crash-restarts, loss/dup/reorder, 1 "
        "partition) over mem: resend, dedup-reject, resync, "
        "FaultyTransport; timer-bound, so a clean-path gain that costs recovery shows"
    )
    rounds = 20
    config = dict(nodes=5, transport="mem", timeout_s=45.0)
    plan = staticmethod(_acceptance_plan)


class NetSharded(NetWorkload):
    name = "net_sharded"
    why = (
        "64 nodes over 2 spawned shard processes: spawn/handshake/teardown and "
        "cross-shard links dominate while the single-loop layers do little of "
        "the wall; digest must equal every other unit's"
    )
    rounds = 10
    config = dict(nodes=64, transport="mem", shards=2)


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
class ServeSteady(Workload):
    name = "serve_steady"
    why = (
        "One long-lived daemon on a unix socket, 4 groups x 8 closed-loop clients "
        "x 100 barriers per unit: boundary decode, dedup, group inbox/worker, "
        "outbox; no tracer; un-reaped groups show in peak_rss_mb"
    )
    groups = 4
    clients_per_group = 8
    barriers = 100
    rounds = groups * barriers

    def start(self, seed: int) -> None:
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        self.sockdir = tempfile.mkdtemp(prefix="serve-")
        self.unix_path = f"{self.sockdir}/d.sock"
        # Done groups are never reaped, so the default 64-group ceiling
        # would end the workload after 16 units.
        config = ServeConfig(unix_path=self.unix_path, max_groups=1_000_000)
        self.daemon = self.loop.run_until_complete(ServeDaemon(config).start())
        self._frames_seen = 0

    def unit(self, index: int) -> Any:
        clients = self.groups * self.clients_per_group
        config = LoadConfig(
            groups=self.groups,
            clients_per_group=self.clients_per_group,
            barriers=self.barriers,
            leavers=0,
            crashers=0,
            slow=0,
            byzantine=0,
            probes=0,
            seed=self.seed,
            group_prefix=f"u{index}-",
            client_base=1 + index * clients,
            unix_path=self.unix_path,
        )
        return self.loop.run_until_complete(run_load(config))

    def facts(self, result: Any) -> UnitFacts:
        finished = [o for o in result.outcomes if o["outcome"] == "finished"]
        members = self.groups * self.clients_per_group
        return UnitFacts(
            ok=len(finished) == members,
            violations=0,
            # Every member saw every release <=> every group-round completed.
            completed=len(result.latencies) // self.clients_per_group,
            digest=result.digest,
            errors=len(result.errors),
            latencies=result.latencies,
        )

    def counts(self, result: Any, wall_s: float) -> dict[str, float]:
        frames = self.daemon.stats["frames"]
        delta, self._frames_seen = frames - self._frames_seen, frames
        return {"serve.daemon.frames": delta}

    def stop(self) -> None:
        self.loop.run_until_complete(self.daemon.shutdown())
        self.loop.close()
        shutil.rmtree(self.sockdir, ignore_errors=True)


#: name -> class; a worker instantiates the one it runs.
WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (GcMbFaulty, NetTreeClean, NetTreeFaulty, NetSharded, ServeSteady)
}
