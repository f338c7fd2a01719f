"""Extension experiments beyond the paper's figures.

Three sensitivity sweeps on design parameters the paper fixes:

* **arity** -- barrier latency vs tree fan-out at fixed process count
  (the paper uses binary trees; higher fan-out trades height against
  root contention, which the wave model prices as depth only);
* **severity** -- recovery time vs the *fraction* of processes hit by
  the undetectable fault (the paper always perturbs everything);
* **push interval** -- the distributed MB implementation's completion
  time vs its retransmission interval under message loss (the masking
  is free of charge only if the timers are tuned).

Each sweep exposes its grid point as a module-level function routed
through :class:`~repro.experiments.sweep.SweepExecutor`, so the sweeps
parallelize and cache like the figures do.
"""

from __future__ import annotations

from statistics import mean
from typing import Sequence

import numpy as np

from repro.barrier.control import CP, RB_CP_DOMAIN
from repro.des.network import LinkFaults
from repro.experiments.report import ExperimentResult
from repro.experiments.sweep import SweepExecutor, run_grid
from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig
from repro.topology.graphs import kary_tree

ARITY_FN = "repro.experiments.sensitivity:arity_point"
SEVERITY_FN = "repro.experiments.sensitivity:severity_point"
PUSH_FN = "repro.experiments.sensitivity:push_interval_point"
AVAIL_FN = "repro.experiments.sensitivity:availability_point"


def arity_point(nprocs: int, arity: int, c: float, phases: int) -> list:
    topo = kary_tree(nprocs, arity)
    sim = FTTreeBarrierSim(topology=topo, config=SimConfig(latency=c, seed=0))
    metrics = sim.run(phases=phases)
    return [topo.height, metrics.time_per_phase, 1 + 3 * topo.height * c]


def arity_sweep(
    nprocs: int = 64,
    arities: Sequence[int] = (2, 3, 4, 8),
    c: float = 0.02,
    phases: int = 50,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    result = ExperimentResult(
        exp_id="ext-arity",
        title=f"Extension: barrier time vs tree arity ({nprocs} procs)",
        columns=("arity", "height", "time/phase", "1+3hc"),
    )
    grid = [dict(nprocs=nprocs, arity=a, c=c, phases=phases) for a in arities]
    for arity, row in zip(arities, run_grid(ARITY_FN, grid, executor)):
        result.add(arity, *row)
    return result


def severity_point(
    h: int, c: float, fraction: float, trials: int, seed: int, child_base: int
) -> list:
    """Mean/max recovery time at one perturbation fraction.

    Trial ``t`` derives its seed from ``SeedSequence(seed)``'s child
    number ``child_base + t``.  Spawning children by explicit
    ``spawn_key`` reproduces the sequential ``base.spawn(trials)``
    streams the original in-line sweep used, so results are identical
    however the fractions are distributed over workers.
    """
    nprocs = 2**h
    topology = kary_tree(nprocs, 2)
    times = []
    for t in range(trials):
        child = np.random.SeedSequence(
            entropy=seed, spawn_key=(child_base + t,)
        )
        trial_seed = int(child.generate_state(1)[0])
        rng = np.random.default_rng(trial_seed)
        sim = FTTreeBarrierSim(
            topology=topology,
            config=SimConfig(latency=c, early_abort=False, seed=trial_seed),
        )
        victims = rng.choice(
            nprocs, size=max(1, int(round(fraction * nprocs))), replace=False
        )
        for pid in victims:
            node = sim.nodes[pid]
            node.state = RB_CP_DOMAIN.sample(rng)
            node.phase = int(rng.integers(0, 8))
            node.work_end = (
                rng.uniform(0.0, 1.0) if node.state is CP.EXECUTE else -1.0
            )
        recovered_at: list[float] = []
        sim.start_state_hook = lambda t_, _r=recovered_at: _r.append(t_)
        stage1 = float(rng.uniform(0.0, h * c))
        first = sim.nodes[0]
        if all(
            n.state is CP.READY and n.phase == first.phase for n in sim.nodes
        ):
            times.append(stage1)
            continue
        sim.sim.at(stage1, sim._root_step)
        sim.sim.run(stop=lambda: bool(recovered_at), max_events=2_000_000)
        times.append(recovered_at[0])
    return [mean(times), max(times)]


def severity_sweep(
    h: int = 5,
    c: float = 0.01,
    fractions: Sequence[float] = (0.125, 0.25, 0.5, 1.0),
    trials: int = 30,
    seed: int = 0,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Recovery time when only a fraction of the processes is hit."""
    result = ExperimentResult(
        exp_id="ext-severity",
        title=f"Extension: recovery vs perturbation severity (h={h}, c={c:g})",
        columns=("fraction", "mean recovery", "max recovery"),
        notes=[f"{trials} trials per point, seed={seed}"],
    )
    grid = [
        dict(
            h=h,
            c=c,
            fraction=fraction,
            trials=trials,
            seed=seed,
            child_base=i * trials,
        )
        for i, fraction in enumerate(fractions)
    ]
    for fraction, row in zip(fractions, run_grid(SEVERITY_FN, grid, executor)):
        result.add(fraction, *row)
    return result


def push_interval_point(
    nprocs: int, interval: float, loss: float, phases: int, seed: int
) -> list:
    from repro.simmpi import Runtime
    from repro.simmpi.mb_impl import mb_barrier_program

    runtime = Runtime(
        nprocs=nprocs,
        latency=0.01,
        seed=seed,
        link_faults=LinkFaults(loss=loss),
    )
    logs = runtime.run(
        lambda comm, _i=interval: mb_barrier_program(
            comm, phases=phases, push_interval=_i
        )
    )
    assert all(l.completed == phases for l in logs)
    return [runtime.sim.now, runtime.network.messages_sent]


def push_interval_sweep(
    nprocs: int = 4,
    intervals: Sequence[float] = (0.02, 0.05, 0.1, 0.2),
    loss: float = 0.08,
    phases: int = 6,
    seed: int = 0,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Distributed MB: completion time vs retransmission interval."""
    result = ExperimentResult(
        exp_id="ext-push-interval",
        title=f"Extension: distributed MB vs push interval (loss={loss:g})",
        columns=("interval", "completion time", "messages"),
        notes=[f"{nprocs} ranks, {phases} phases, seed={seed}"],
    )
    grid = [
        dict(nprocs=nprocs, interval=i, loss=loss, phases=phases, seed=seed)
        for i in intervals
    ]
    for interval, row in zip(intervals, run_grid(PUSH_FN, grid, executor)):
        result.add(interval, *row)
    return result


def availability_point(h: int, c: float, g: float, phases: int, seed: int) -> list:
    sim = FTTreeBarrierSim(
        nprocs=2**h,
        config=SimConfig(latency=c, undetectable_frequency=g, seed=seed),
    )
    metrics = sim.run(phases=phases, max_time=phases * 40.0)
    return [
        metrics.successful_phases / metrics.total_time,
        sim.scrambles_injected,
        sim.incorrect_completions,
    ]


def availability_sweep(
    h: int = 5,
    c: float = 0.01,
    rates: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2),
    phases: int = 300,
    seed: int = 3,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Operation under *continuous* undetectable perturbation.

    The paper perturbs once and measures recovery (Figure 7); here
    arbitrary-state scrambles keep arriving at rate ``g`` while the
    barrier runs.  Throughput degrades gracefully (the protocol keeps
    re-stabilizing) and incorrectly-completed barriers -- completions a
    scramble forged past the root -- stay rare, the continuous-time
    face of Lemma 4.1.4's bounded damage.
    """
    result = ExperimentResult(
        exp_id="ext-availability",
        title=f"Extension: throughput under continuous scrambles (h={h})",
        columns=("g", "throughput", "scrambles", "incorrect completions"),
        notes=[f"{phases} phases per point, seed={seed}"],
    )
    grid = [dict(h=h, c=c, g=g, phases=phases, seed=seed) for g in rates]
    for g, row in zip(rates, run_grid(AVAIL_FN, grid, executor)):
        result.add(g, *row)
    return result


def run(
    seed: int = 0, executor: SweepExecutor | None = None
) -> ExperimentResult:
    """Bundle the sweeps into one report (CLI entry)."""
    combined = ExperimentResult(
        exp_id="sensitivity",
        title="Extension sweeps: arity / severity / push interval / availability",
        columns=("sweep", "x", "y"),
    )
    for res in (
        arity_sweep(executor=executor),
        severity_sweep(seed=seed, executor=executor),
        push_interval_sweep(seed=seed, executor=executor),
        availability_sweep(executor=executor),
    ):
        for row in res.rows:
            combined.add(res.exp_id, row[0], row[1])
        combined.notes.append(f"{res.exp_id}: {res.title}")
    return combined
