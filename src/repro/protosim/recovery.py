"""The Figure 7 experiment: recovery from undetectable faults.

The program is perturbed to an *arbitrary* state -- every node gets a
random control position and phase, nodes caught in ``execute`` have a
random amount of phase work outstanding -- and we measure the virtual
time until the protocol reaches a start state (all processes ready, one
phase), from where every subsequent computation satisfies the
specification (Lemma 4.1.3).

Stage 1 of the paper's recovery analysis (correcting the sequence
numbers) costs at most ``h*c``; we charge that in full before the root
re-acquires the token.  Stage 2 (correcting ``cp``/``ph``) is simulated
exactly: the root's circulations pull every node through the RB rules,
stalling where perturbed processes must first finish the phase work they
were caught executing.  The analytical envelope is ``5hc`` plus work in
progress; under the paper's operating assumption the recovery stays
within ~1.25 time units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.barrier.control import CP
from repro.obs.tracer import ensure_tracer
from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig
from repro.topology.graphs import kary_tree

_PERTURB_STATES = (CP.READY, CP.EXECUTE, CP.SUCCESS, CP.ERROR, CP.REPEAT)


@dataclass
class RecoveryResult:
    """Recovery times (virtual time units) over the trials."""

    h: int
    c: float
    times: list[float] = field(default_factory=list)

    @property
    def mean_time(self) -> float:
        return mean(self.times) if self.times else float("nan")

    @property
    def max_time(self) -> float:
        return max(self.times) if self.times else float("nan")


class RecoveryExperiment:
    """Repeated perturb-and-recover trials on a binary tree of height h."""

    def __init__(
        self,
        h: int,
        c: float,
        work_time: float = 1.0,
        phase_values: int = 8,
        early_abort: bool = False,
        stage1: str = "uniform",
        seed: int = 0,
        tracer=None,
    ) -> None:
        if h < 1:
            raise ValueError("tree height must be >= 1")
        if stage1 not in ("worst", "uniform", "none"):
            raise ValueError(f"stage1 must be worst/uniform/none, got {stage1!r}")
        # early_abort defaults off here: the paper's RB executes phases
        # atomically, so recovery pays for work in progress.
        self.stage1 = stage1
        self.h = h
        self.c = c
        self.work_time = work_time
        self.phase_values = phase_values
        self.early_abort = early_abort
        self.seed = seed
        # Virtual time restarts at 0 each trial, so recovery events carry
        # an explicit latency (the summarizer prefers it over pairing).
        self.tracer = ensure_tracer(tracer)
        # The paper's process-count mapping: 32 processes <-> h = 5.
        self.nprocs = 2**h
        self.topology = kary_tree(self.nprocs, 2)
        assert self.topology.height == h, "binary tree height mismatch"

    # ------------------------------------------------------------------
    def run_one(self, trial_seed: int) -> float:
        """One perturb-and-recover trial; returns the recovery time."""
        import numpy as np

        config = SimConfig(
            latency=self.c,
            work_time=self.work_time,
            fault_frequency=0.0,
            early_abort=self.early_abort,
            seed=trial_seed,
        )
        sim = FTTreeBarrierSim(
            topology=self.topology, config=config, tracer=self.tracer
        )
        rng = np.random.default_rng(trial_seed)

        # The undetectable fault: arbitrary state at every process.
        for node in sim.nodes:
            node.state = _PERTURB_STATES[int(rng.integers(0, len(_PERTURB_STATES)))]
            node.phase = int(rng.integers(0, self.phase_values))
            if node.state is CP.EXECUTE:
                node.work_end = rng.uniform(0.0, self.work_time)
            else:
                node.work_end = -1.0
        if self.tracer.enabled:
            # The whole-system perturbation (pid None: no single victim).
            self.tracer.fault(
                0.0, None, detectable=False, trial_seed=trial_seed
            )

        # The start state is observed by the root inside its
        # wave-completion callback (it immediately begins the next
        # instance in the same event), so detection goes through the
        # simulator's hook rather than an inter-event predicate.
        recovered_at: list[float] = []
        sim.start_state_hook = lambda t: recovered_at.append(t)

        def all_ready() -> bool:
            first = sim.nodes[0]
            return all(
                n.state is CP.READY and n.phase == first.phase
                for n in sim.nodes
            )

        # Stage 1: sequence-number stabilization, after which the root
        # holds the unique token and stage 2 begins.  The analysis bounds
        # it by one circulation (h*c); from a random sequence-number
        # state the token reaches the root after a uniform fraction of
        # that ("uniform", the default).
        if self.stage1 == "worst":
            stage1 = self.h * self.c
        elif self.stage1 == "uniform":
            stage1 = float(rng.uniform(0.0, self.h * self.c))
        else:
            stage1 = 0.0
        if all_ready():
            return self._record_recovery(stage1, trial_seed)
        sim.sim.at(stage1, sim._root_step)
        sim.sim.run(stop=lambda: bool(recovered_at), max_events=2_000_000)
        if not recovered_at:  # pragma: no cover - protocol failure guard
            raise AssertionError(
                f"no recovery: h={self.h} c={self.c} seed={trial_seed}"
            )
        return self._record_recovery(recovered_at[0], trial_seed)

    def _record_recovery(self, at: float, trial_seed: int) -> float:
        if self.tracer.enabled:
            self.tracer.recovery(at, 0, latency=at, trial_seed=trial_seed)
        return at

    def run(self, trials: int = 50) -> RecoveryResult:
        import numpy as np

        result = RecoveryResult(self.h, self.c)
        base = np.random.SeedSequence(self.seed)
        for i, child in enumerate(base.spawn(trials)):
            trial_seed = int(child.generate_state(1)[0])
            result.times.append(self.run_one(trial_seed))
        return result
