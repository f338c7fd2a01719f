"""Daemons (schedulers) for guarded-command programs.

The paper's computations are *fair interleavings*: in every step some
enabled action executes, and every continuously-enabled action eventually
executes.  Its performance study instead uses *maximal parallel
semantics*: "in each step every process executes one of its enabled
actions unless all its actions are disabled".

Three daemons are provided:

* :class:`RoundRobinDaemon` -- deterministic, trivially fair; good for
  reproducible tests.
* :class:`RandomFairDaemon` -- picks uniformly among all enabled actions;
  fair with probability 1, exercises adversarial-ish interleavings.
* :class:`MaximalParallelDaemon` -- synchronous semantics for the
  performance experiments; all guards/statements evaluate against the
  pre-step snapshot, then all updates apply at once (race free because
  statements only write the owner's variables).

Each daemon has two step bodies and no other fork: the *plain* body
evaluates every guard it needs, every step; the *engine* body steps
through a :class:`~repro.gc.incremental.EnabledIndex` -- the live flag
cache, or its memoizing subclass
:class:`~repro.gc.compile.CompiledProgram` under the compiled backend
-- picked once per program by :func:`_select_engine`.  Traces are
identical whichever body runs.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro._pcg64 import Rng, make_rng
from repro.gc.actions import Action, apply_updates
from repro.gc.incremental import EnabledIndex
from repro.gc.program import Program
from repro.gc.state import State
from repro.obs.tracer import ensure_tracer


#: Round-robin adaptation: engage the live engine's flags once the scan
#: averages this many guard evaluations per step, judged after this many
#: steps.  Break-even is ~2-3 evaluations (the flags cost roughly that
#: much bookkeeping per step); 4 keeps a safety margin.
ROUND_ROBIN_ADAPT_THRESHOLD = 4.0
ROUND_ROBIN_ADAPT_WINDOW = 64

#: What one step reports: ``(action, updates)`` per fired action.
Fired = list[tuple[Action, list[tuple[str, Any]]]]


class Daemon(Protocol):
    """One scheduling step: pick and execute actions, report what fired."""

    def step(self, program: Program, state: State) -> Fired:
        """Execute one step in place; return ``(action, updates)`` pairs.

        An empty list means no action was enabled (the program is silent
        in this state).
        """
        ...


#: Valid values for the daemons' ``backend`` parameter.
BACKENDS = ("interpreter", "compiled")


def _check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend


def _select_engine(
    program: Program, backend: str, incremental: bool = True
) -> EnabledIndex | None:
    """Which step engine drives ``program`` -- decided here and nowhere
    else.  ``backend="compiled"`` always gets the memoizing engine; the
    live engine only pays for itself when ``incremental`` is asked for
    and some action declares its reads; ``None`` means the plain
    evaluate-every-guard body, which is always correct.  The compiled
    backend is imported only here, where it is selected."""
    if _check_backend(backend) == "compiled":
        from repro.gc.compile import CompiledProgram

        return CompiledProgram(program)
    if incremental:
        engine = EnabledIndex(program)
        if engine.has_tracked:
            return engine
    return None


class _EngineMixin:
    """A daemon holds one step engine per program; stepping a different
    program selects again (:func:`_select_engine`).

    ``None`` selects the daemon's plain body -- the reference the
    differential oracle compares against (``incremental=False``) and
    the only path for programs that declare nothing.  Selection order,
    RNG usage and hence traces are identical in both bodies.
    """

    incremental: bool
    backend: str = "interpreter"
    _engine: EnabledIndex | None = None
    _engine_program: Program | None = None

    def _engine_for(self, program: Program) -> EnabledIndex | None:
        if program is not self._engine_program:
            self._engine_program = program
            self._engine = _select_engine(
                program, self.backend, self.incremental
            )
        return self._engine


class RoundRobinDaemon(_EngineMixin):
    """Cycle through processes; at each visit execute the first enabled
    action of that process (actions are tried in declaration order).

    Every continuously-enabled action is executed within ``nprocs`` visits
    of its process (earlier-declared actions may shadow later ones, so
    programs relying on intra-process fairness should order actions so the
    paper's intended priority holds -- all paper programs have mutually
    exclusive guards per process, making this moot).

    Over the live engine the daemon is *adaptive*: it starts with the
    plain scan while counting guard evaluations for
    :data:`ROUND_ROBIN_ADAPT_WINDOW` steps, then decides once -- engage
    the engine's flags (lazy dirty-set invalidation) if the average scan
    length crossed :data:`ROUND_ROBIN_ADAPT_THRESHOLD` evaluations per
    step, or drop back to the plain scan for good (so the counting is
    bounded by the window).  On programs where the token follows the
    scan order (RB on a ring: ~1 evaluation/step) the plain scan is
    already optimal and the cache would be pure overhead; on programs
    with many simultaneously-enabled actions per scan (MB: ~16
    evaluations/step) the flags win severalfold.  The selected action --
    and hence the trace -- is identical in every mode.
    """

    def __init__(
        self,
        start: int = 0,
        tracer: Any = None,
        incremental: bool = True,
        backend: str = "interpreter",
    ) -> None:
        self._next = start
        self.tracer = ensure_tracer(tracer)
        self.incremental = incremental
        self.backend = _check_backend(backend)
        self._engaged = False
        self._declined = False
        self._evals = 0
        self._steps = 0

    def step(self, program: Program, state: State) -> Fired:
        engine = self._engine
        if program is not self._engine_program:
            # New program (or first step): restart the adaptation.  The
            # probe weighs the live engine's bookkeeping against the
            # scan; memoized guards beat the scan even at ~1 evaluation
            # per step, so the compiled engine is ``eager`` -- and
            # without an engine there is nothing to probe for.
            engine = self._engine_for(program)
            self._engaged = engine is not None and engine.eager
            self._declined = engine is None
            self._evals = 0
            self._steps = 0
        if engine is not None and self._engaged:
            return self._step_engine(engine, state)
        n = program.nprocs
        evals = 0
        fired: Fired = []
        for offset in range(n):
            pid = (self._next + offset) % n
            for action in program.processes[pid].actions:
                evals += 1
                if action.enabled(state):
                    fired = [(action, action.execute(state))]
                    self._next = (pid + 1) % n
                    break
            if fired:
                break
        if not self._declined:
            self._evals += evals
            self._steps += 1
            if self._steps >= ROUND_ROBIN_ADAPT_WINDOW:
                # One-shot decision: either the flags pay for themselves
                # or the plain scan resumes with no more bookkeeping.
                if self._evals >= ROUND_ROBIN_ADAPT_THRESHOLD * self._steps:
                    self._engaged = True
                else:
                    self._declined = True
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
            if fired:
                self.tracer.incr("gc.actions_fired")
        return fired

    def _step_engine(self, engine: EnabledIndex, state: State) -> Fired:
        """Same scan, same selection -- flags pulled lazily from the
        engine, so a step touches only the guards the scan reaches."""
        engine.mark_stale(state)
        by_pid = engine.by_pid
        n = len(by_pid)
        fired: Fired = []
        for offset in range(n):
            pid = (self._next + offset) % n
            for idx in by_pid[pid]:
                if engine.is_enabled(idx, state):
                    fired = [(engine.actions[idx], engine.execute(idx, state))]
                    self._next = (pid + 1) % n
                    break
            if fired:
                break
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
            if fired:
                self.tracer.incr("gc.actions_fired")
        return fired


class RandomFairDaemon(_EngineMixin):
    """Pick uniformly at random among all enabled actions.

    The engine body yields the exact same action sequence as full
    evaluation for any program whose declared guards honour the purity
    contract: the enabled *set* is identical, and declared guards never
    draw from the RNG, so the random-choice stream is unchanged.
    """

    def __init__(
        self,
        seed: int | Rng | None = None,
        tracer: Any = None,
        incremental: bool = True,
        backend: str = "interpreter",
    ) -> None:
        self.rng = make_rng(seed)
        self.tracer = ensure_tracer(tracer)
        self.incremental = incremental
        self.backend = _check_backend(backend)

    def step(self, program: Program, state: State) -> Fired:
        engine = self._engine_for(program)
        if engine is not None:
            return self._step_engine(engine, state)
        enabled = [a for a in program.actions() if a.enabled(state, self.rng)]
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
            self.tracer.incr("gc.enabled_actions", len(enabled))
        if not enabled:
            return []
        action = enabled[int(self.rng.integers(0, len(enabled)))]
        ups = action.execute(state, self.rng)
        if self.tracer.enabled:
            self.tracer.incr("gc.actions_fired")
        return [(action, ups)]

    def _step_engine(self, engine: EnabledIndex, state: State) -> Fired:
        engine.refresh(state, self.rng)
        slots = engine.enabled_slots()
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
            self.tracer.incr("gc.enabled_actions", len(slots))
        if not slots:
            return []
        idx = slots[int(self.rng.integers(0, len(slots)))]
        ups = engine.execute(idx, state, self.rng)
        if self.tracer.enabled:
            self.tracer.incr("gc.actions_fired")
        return [(engine.actions[idx], ups)]


class MaximalParallelDaemon(_EngineMixin):
    """Synchronous maximal parallelism (the paper's Section 6 semantics).

    Per step: snapshot the state; for every process with at least one
    enabled action (w.r.t. the snapshot) select one (first-enabled, or
    uniformly when ``random_choice``); evaluate every selected statement
    against the snapshot; apply all updates to the live state.

    The engine body (:meth:`EnabledIndex.step_round`) evaluates the
    stale guards against the live pre-step state (identical to the
    snapshot at that point) and reuses cached flags for the rest;
    selection and statement evaluation are unchanged, so traces match
    full evaluation exactly.
    """

    def __init__(
        self,
        seed: int | Rng | None = None,
        random_choice: bool = False,
        tracer: Any = None,
        incremental: bool = True,
        backend: str = "interpreter",
    ) -> None:
        self.rng = make_rng(seed)
        self.random_choice = random_choice
        self.tracer = ensure_tracer(tracer)
        self.incremental = incremental
        self.backend = _check_backend(backend)

    def select(self, program: Program, snapshot: State) -> list[Action]:
        chosen: list[Action] = []
        for proc in program.processes:
            enabled = [a for a in proc.actions if a.enabled(snapshot, self.rng)]
            if not enabled:
                continue
            if self.random_choice and len(enabled) > 1:
                chosen.append(enabled[int(self.rng.integers(0, len(enabled)))])
            else:
                chosen.append(enabled[0])
        return chosen

    def step(self, program: Program, state: State) -> Fired:
        engine = self._engine_for(program)
        if engine is not None:
            actions = engine.actions
            fired = [
                (actions[i], ups)
                for i, ups in engine.step_round(
                    state, self.rng, self.random_choice
                )
            ]
        else:
            snapshot = state.snapshot()
            fired = [
                (action, action.updates(snapshot, self.rng))
                for action in self.select(program, snapshot)
            ]
            for action, ups in fired:
                apply_updates(state, action.pid, ups)
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
            self.tracer.incr("gc.actions_fired", len(fired))
        return fired


def enabled_actions(program: Program, state: State) -> list[Action]:
    """All enabled actions of ``program`` in ``state`` (helper for the
    explorer and for tests)."""
    return [a for a in program.actions() if a.enabled(state)]


def is_silent(program: Program, state: State) -> bool:
    """True iff no action is enabled (a fixpoint under any daemon)."""
    return not any(a.enabled(state) for a in program.actions())
