"""The observability suite: what tracing costs and what it must not change.

Runs four seeded workloads -- the guarded-command kernel, the Figure 5
timed tree-barrier sweep point, the Figure 7 perturb-and-recover
experiment and a faulty 5-node ``repro.net`` run -- traced and
untraced, and gates them through :mod:`repro.perf.gate`
(``python benchmarks/bench_overhead.py [--quick]`` writes
``BENCH_obs.json``).  Each workload's deterministic slice holds the
run's trace quantities and histogram quantiles (virtual time, hence
machine-independent; for net only the digest and the plan-driven
quantities) and is compared against ``benchmarks/BASELINE_obs.json``.

The rows (:data:`ROWS`):

- the **NullTracer gates**: with tracing off, engines must make
  (almost) *zero* calls into the tracer -- every recording call is
  guarded by ``if tracer.enabled:``.  A counting NullTracer measures
  unguarded calls per kernel step (``null_tracer``) and per completed
  barrier of a fault-free net run (``net_null_tracer``); the budget is
  :data:`NULL_CALLS_PER_STEP_TOL` (the <5% hot-path budget);
- ``<workload>.tracing_off_vs_on``: a run with tracing off is not
  slower than :data:`WALL_RATIO_LIMIT` x the same run recording --
  compared within one process, so it is machine-independent too.
"""

from __future__ import annotations

import math
import statistics
import time
from functools import partial
from typing import Any, Callable

from repro.obs.causal import _quantile
from repro.obs.tracefold import metrics_from_trace
from repro.obs.summary import summarize
from repro.obs.tracer import NullTracer, Tracer
from repro.perf.gate import Row, Suite

#: The NullTracer budget: unguarded tracer calls per kernel step.
NULL_CALLS_PER_STEP_TOL = 0.05

#: Tracing-off over tracing-on wall time, at most.
WALL_RATIO_LIMIT = 1.5


class CountingNullTracer(NullTracer):
    """A disabled tracer that counts how often it is *called* anyway.

    Engines promise to guard every recording call with ``if
    tracer.enabled:``; any call that reaches these methods is an
    unguarded hot-path hit, which is exactly the overhead the <5% budget
    bounds.  ``enabled`` stays False so guarded paths stay silent.
    """

    def __init__(self) -> None:
        self.calls = 0

    def _count(self, *_args: Any, **_kwargs: Any) -> None:
        self.calls += 1

    emit = phase_start = phase_end = fault = detect = recovery = _count
    token_pass = msg_send = msg_recv = incr = timer_start = _count

    def timer_stop(self, name: str, time: float) -> float:
        self.calls += 1
        return 0.0


# ---------------------------------------------------------------------------
# Workloads (seeded; every quantity below is virtual-time deterministic)
# ---------------------------------------------------------------------------

def run_kernel(tracer: Any) -> dict[str, Any]:
    """Guarded-command RB stepping (the substrate hot loop)."""
    from repro.barrier.rb import make_rb
    from repro.gc.scheduler import RoundRobinDaemon
    from repro.gc.simulator import Simulator

    prog = make_rb(16, nphases=4)
    sim = Simulator(
        prog, RoundRobinDaemon(tracer=tracer), tracer=tracer, record_trace=False
    )
    result = sim.run(max_steps=2_000)
    return {"steps": result.steps}


def run_fig5(tracer: Any) -> dict[str, Any]:
    """One Figure 5 sweep point: timed tree barrier under faults."""
    from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig

    sim = FTTreeBarrierSim(
        nprocs=16,
        config=SimConfig(latency=0.02, fault_frequency=0.1, seed=0),
        tracer=tracer,
    )
    metrics = sim.run(phases=30)
    return {"instances_per_phase": metrics.instances_per_phase}


def run_fig7(tracer: Any) -> dict[str, Any]:
    """The Figure 7 perturb-and-recover experiment."""
    from repro.protosim.recovery import RecoveryExperiment

    exp = RecoveryExperiment(h=3, c=0.02, seed=0, tracer=tracer)
    result = exp.run(trials=8)
    return {"mean_recovery_time": result.mean_time}


WORKLOADS: dict[str, Callable[[Any], dict[str, Any]]] = {
    "kernel": run_kernel,
    "fig5": run_fig5,
    "fig7": run_fig7,
}


def run_net(
    faults: bool = True,
    tracing: bool = True,
    tracer_factory: Callable[[int], Any] | None = None,
) -> Any:
    """A seeded 5-node asyncio net barrier run (crash at round 3).

    The net runtime runs on wall-clock, so event and message counts
    differ between two executions of the same seed; only the projection
    digest and the plan-driven quantities are deterministic, and only
    those reach the gated report.  The null-tracer variant runs
    fault-free so the unguarded-call count has a single possible value.
    """
    from repro.chaos.plan import FaultEvent, FaultPlan
    from repro.net.runtime import NetConfig, run_sync

    plan = (
        FaultPlan(nprocs=5, events=(FaultEvent(pid=2, when=3.0),), seed=7)
        if faults
        else None
    )
    return run_sync(
        NetConfig(
            nodes=5,
            barriers=8,
            seed=7,
            plan=plan,
            timeout_s=30.0,
            tracing=tracing,
            tracer_factory=tracer_factory,
        )
    )


def _deterministic(events: list, native: dict[str, Any]) -> dict[str, Any]:
    s = summarize(events)
    latencies = s.recovery_latencies
    out = {
        "events": s.events,
        "instances": s.instances,
        "successful_phases": s.successful_phases,
        "faults": s.faults,
        "detections": s.detections,
        "recoveries": s.recoveries,
        "token_passes": s.token_passes,
        "messages_sent": s.messages_sent,
        "recovery_latency_p50": _safe(_quantile(latencies, 0.5)),
        "recovery_latency_p90": _safe(_quantile(latencies, 0.9)),
    }
    for key, value in native.items():
        out[key] = _safe(value) if isinstance(value, float) else value
    return out


def _histogram_quantiles(events: list) -> dict[str, Any]:
    registry = metrics_from_trace(events)
    hist = registry["barrier_instance_duration"]
    out: dict[str, Any] = {}
    for result in ("success", "failed"):
        if hist.count(result=result):
            out[f"instance_duration_{result}_p50"] = round(
                hist.quantile(0.5, result=result), 9
            )
            out[f"instance_duration_{result}_p90"] = round(
                hist.quantile(0.9, result=result), 9
            )
    return out


def _safe(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    return value


def _traced(workload: Callable[[Any], dict[str, Any]]) -> tuple[Tracer, Any]:
    tracer = Tracer()
    return tracer, workload(tracer)


def _timed(run: Callable[[], Any], repeats: int) -> tuple[list[float], Any]:
    """Wall times of ``repeats`` calls and the last call's result."""
    times: list[float] = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - start)
    return times, result


def _on_off(traced: list[float], null: list[float]) -> dict[str, Any]:
    """The ratios and wall entries of a traced/untraced pair of runs."""
    on, off = statistics.median(traced), statistics.median(null)
    return {
        "ratios": {"tracing_off_vs_on": off / on},
        "wall": {
            "median_s": on,
            "times_s": traced,
            "null_median_s": off,
            "null_times_s": null,
        },
    }


def _null_gate(calls: int, steps: int) -> dict[str, Any]:
    return {
        "ratios": {"calls_per_step": calls / steps},
        "info": {"calls": calls, "steps": steps},
    }


def measure(repeats: int = 3, quick: bool = False) -> dict[str, Any]:
    """Run every workload into the suite's workload entries."""
    if quick:
        repeats = max(1, min(repeats, 2))
    workloads: dict[str, Any] = {}
    for name, workload in WORKLOADS.items():
        traced, (tracer, native) = _timed(partial(_traced, workload), repeats)
        null, _ = _timed(partial(workload, None), repeats)
        workloads[name] = {
            "deterministic": {
                **_deterministic(tracer.events, native),
                **_histogram_quantiles(tracer.events),
            },
            **_on_off(traced, null),
        }
    # The net runtime workload: wall-clock nondeterminism keeps event
    # and message counts out of the report; digest + plan-driven
    # quantities are the gates (see run_net).
    traced, net = _timed(run_net, repeats)
    null, _ = _timed(partial(run_net, tracing=False), repeats)
    workloads["net"] = {
        "deterministic": {
            "digest": net.digest,
            "reached": net.reached,
            "completed": net.completed,
            "successful_phases": net.successful_phases,
            "faults_fired": net.faults_fired,
            "violations": len(net.violations),
            "verdicts": net.metrics_summary.get("verdicts", {}),
        },
        **_on_off(traced, null),
    }
    counting = CountingNullTracer()
    steps = max(1, run_kernel(counting)["steps"])
    workloads["null_tracer"] = _null_gate(counting.calls, steps)
    counting_net = CountingNullTracer()
    null_net = run_net(faults=False, tracer_factory=lambda _pid: counting_net)
    workloads["net_null_tracer"] = _null_gate(
        counting_net.calls, max(1, null_net.completed)
    )
    return workloads


ROWS = (
    *(
        Row(f"{name}.tracing_off_vs_on", "<=", WALL_RATIO_LIMIT)
        for name in (*WORKLOADS, "net")
    ),
    Row("null_tracer.calls_per_step", "<=", NULL_CALLS_PER_STEP_TOL),
    Row("net_null_tracer.calls_per_step", "<=", NULL_CALLS_PER_STEP_TOL),
)

SUITE = Suite("obs", measure, ROWS)
