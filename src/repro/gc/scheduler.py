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
"""

from __future__ import annotations

from typing import Any, Iterable, Protocol

from repro._pcg64 import Rng, make_rng
from repro.gc.actions import Action, apply_updates
from repro.gc.compile import CompiledProgram
from repro.gc.incremental import EnabledIndex
from repro.gc.program import Program
from repro.gc.state import State
from repro.obs.tracer import ensure_tracer


#: Round-robin adaptation: engage the incremental index once the scan
#: averages this many guard evaluations per step, judged after this many
#: steps.  Break-even is ~2-3 evaluations (the index costs roughly that
#: much bookkeeping per step); 4 keeps a safety margin.
ROUND_ROBIN_ADAPT_THRESHOLD = 4.0
ROUND_ROBIN_ADAPT_WINDOW = 64


class Daemon(Protocol):
    """One scheduling step: pick and execute actions, report what fired."""

    def step(
        self, program: Program, state: State
    ) -> list[tuple[Action, list[tuple[str, Any]]]]:
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


class _IncrementalMixin:
    """Shared cache management for the incremental daemons.

    A daemon holds one :class:`EnabledIndex` per program; stepping a
    different program rebuilds it.  ``incremental=False`` (or a program
    with no declared read-sets) falls back to the historical
    evaluate-every-guard behaviour, which is always correct.

    ``backend="compiled"`` swaps the whole step path for a
    :class:`~repro.gc.compile.CompiledProgram` (memoized guards and
    effects over an array mirror); selection order, RNG usage and hence
    traces are identical to the interpreter.
    """

    incremental: bool
    backend: str = "interpreter"
    _index: EnabledIndex | None = None
    _compiled: CompiledProgram | None = None

    def _index_for(self, program: Program) -> EnabledIndex | None:
        if not self.incremental:
            return None
        index = self._index
        if index is None or index.program is not program:
            index = EnabledIndex(program)
            self._index = index
        return index if index.has_tracked else None

    def _compiled_for(self, program: Program) -> CompiledProgram:
        compiled = self._compiled
        if compiled is None or compiled.program is not program:
            compiled = CompiledProgram(program)
            self._compiled = compiled
        return compiled


class RoundRobinDaemon(_IncrementalMixin):
    """Cycle through processes; at each visit execute the first enabled
    action of that process (actions are tried in declaration order).

    Every continuously-enabled action is executed within ``nprocs`` visits
    of its process (earlier-declared actions may shadow later ones, so
    programs relying on intra-process fairness should order actions so the
    paper's intended priority holds -- all paper programs have mutually
    exclusive guards per process, making this moot).

    With ``incremental`` (the default) the daemon is *adaptive*: it
    starts with the plain scan while counting guard evaluations for
    :data:`ROUND_ROBIN_ADAPT_WINDOW` steps, then decides once -- engage
    an :class:`EnabledIndex` (lazy dirty-set invalidation) if the
    average scan length crossed :data:`ROUND_ROBIN_ADAPT_THRESHOLD`
    evaluations per step, or drop back to the plain scan for good (so
    the counting overhead is bounded by the window).  On programs where
    the token follows the scan order (RB on a ring: ~1 evaluation/step)
    the plain scan is already optimal and the cache would be pure
    overhead; on programs with many simultaneously-enabled actions per
    scan (MB: ~16 evaluations/step) the index wins severalfold.  The
    selected action -- and hence the trace -- is identical in every
    mode.
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
        self._adapt_index: EnabledIndex | None = None

    def step(self, program, state):
        if self.backend == "compiled":
            return self._step_compiled(
                self._compiled_for(program), program, state
            )
        index = self._index_for(program) if self.incremental else None
        if index is not None:
            if index is not self._adapt_index:
                # New program (or first step): restart the adaptation.
                self._adapt_index = index
                self._engaged = False
                self._declined = False
                self._evals = 0
                self._steps = 0
            if self._engaged:
                return self._step_incremental(index, program, state)
            if not self._declined:
                return self._step_adapting(index, program, state)
        n = program.nprocs
        for offset in range(n):
            pid = (self._next + offset) % n
            for action in program.processes[pid].actions:
                if action.enabled(state):
                    ups = action.execute(state)
                    self._next = (pid + 1) % n
                    if self.tracer.enabled:
                        self.tracer.incr("gc.daemon_steps")
                        self.tracer.incr("gc.actions_fired")
                    return [(action, ups)]
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
        return []

    def _step_adapting(self, index: EnabledIndex, program, state):
        """The plain scan, plus the evaluation counting that decides
        when to engage the incremental index."""
        n = program.nprocs
        evals = 0
        fired = None
        for offset in range(n):
            pid = (self._next + offset) % n
            for action in program.processes[pid].actions:
                evals += 1
                if action.enabled(state):
                    ups = action.execute(state)
                    self._next = (pid + 1) % n
                    fired = [(action, ups)]
                    break
            if fired is not None:
                break
        self._evals += evals
        self._steps += 1
        if self._steps >= ROUND_ROBIN_ADAPT_WINDOW:
            # One-shot decision: either the index pays for itself or the
            # plain scan resumes with zero counting overhead.
            if self._evals >= ROUND_ROBIN_ADAPT_THRESHOLD * self._steps:
                self._engaged = True
            else:
                self._declined = True
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
            if fired is not None:
                self.tracer.incr("gc.actions_fired")
        return fired if fired is not None else []

    def _step_compiled(self, compiled: CompiledProgram, program, state):
        """Same scan, same selection -- flags pulled lazily from the
        compiled engine's memoized guards."""
        compiled.mark_stale(state)
        n = program.nprocs
        actions = compiled.actions
        by_pid = compiled.by_pid
        for offset in range(n):
            pid = (self._next + offset) % n
            for idx in by_pid[pid]:
                if compiled.is_enabled(idx, state):
                    ups = compiled.execute(idx, state)
                    self._next = (pid + 1) % n
                    if self.tracer.enabled:
                        self.tracer.incr("gc.daemon_steps")
                        self.tracer.incr("gc.actions_fired")
                    return [(actions[idx], ups)]
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
        return []

    def _step_incremental(self, index: EnabledIndex, program, state):
        index.mark_stale(state)
        n = program.nprocs
        actions = index.actions
        by_pid = index.by_pid
        for offset in range(n):
            pid = (self._next + offset) % n
            for idx in by_pid[pid]:
                if index.is_enabled(idx, state):
                    action = actions[idx]
                    ups = action.execute(state)
                    index.note_fire(idx, ups)
                    index.commit(state)
                    self._next = (pid + 1) % n
                    if self.tracer.enabled:
                        self.tracer.incr("gc.daemon_steps")
                        self.tracer.incr("gc.actions_fired")
                    return [(action, ups)]
        index.commit(state)
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
        return []


class RandomFairDaemon(_IncrementalMixin):
    """Pick uniformly at random among all enabled actions.

    Incremental mode (default) yields the exact same action sequence as
    full evaluation for any program whose declared guards honour the
    purity contract: the enabled *set* is identical, and declared guards
    never draw from the RNG, so the random-choice stream is unchanged.
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

    def _step_compiled(self, compiled: CompiledProgram, state):
        compiled.refresh(state, self.rng)
        slots = compiled.enabled_slots()
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
            self.tracer.incr("gc.enabled_actions", len(slots))
        if not slots:
            return []
        idx = slots[int(self.rng.integers(0, len(slots)))]
        ups = compiled.execute(idx, state, self.rng)
        if self.tracer.enabled:
            self.tracer.incr("gc.actions_fired")
        return [(compiled.actions[idx], ups)]

    def step(self, program, state):
        if self.backend == "compiled":
            return self._step_compiled(self._compiled_for(program), state)
        index = self._index_for(program)
        slots: list[int] | None = None
        if index is not None:
            index.refresh(state, self.rng)
            slots = index.enabled_slots()
            actions = index.actions
            enabled = [actions[i] for i in slots]
        else:
            enabled = [a for a in program.actions() if a.enabled(state, self.rng)]
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
            self.tracer.incr("gc.enabled_actions", len(enabled))
        if not enabled:
            if index is not None:
                index.commit(state)
            return []
        pick = int(self.rng.integers(0, len(enabled)))
        action = enabled[pick]
        ups = action.execute(state, self.rng)
        if index is not None:
            index.note_fire(slots[pick], ups)
            index.commit(state)
        if self.tracer.enabled:
            self.tracer.incr("gc.actions_fired")
        return [(action, ups)]


class MaximalParallelDaemon(_IncrementalMixin):
    """Synchronous maximal parallelism (the paper's Section 6 semantics).

    Per step: snapshot the state; for every process with at least one
    enabled action (w.r.t. the snapshot) select one (first-enabled, or
    uniformly when ``random_choice``); evaluate every selected statement
    against the snapshot; apply all updates to the live state.

    Incremental mode evaluates the stale guards against the live
    pre-step state (identical to the snapshot at that point) and reuses
    cached flags for the rest; selection and statement evaluation are
    unchanged, so traces match full evaluation exactly.
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

    def _select_incremental(
        self, index: EnabledIndex, state: State
    ) -> list[int]:
        index.refresh(state, self.rng)
        pid_of = index.pid_of
        chosen: list[int] = []
        # Enabled slots are sorted and actions are grouped by pid in
        # declaration order, so consecutive runs of equal pid reproduce
        # the per-process iteration of :meth:`select` exactly.
        group: list[int] = []
        cur_pid = -1
        for i in index.enabled_slots():
            pid = pid_of[i]
            if pid != cur_pid:
                if group:
                    chosen.append(self._pick_idx(group))
                group = []
                cur_pid = pid
            group.append(i)
        if group:
            chosen.append(self._pick_idx(group))
        return chosen

    def _step_compiled(self, compiled: CompiledProgram, state):
        """One synchronous round: select per process, evaluate every
        chosen statement against the pre-apply state, then apply --
        the same phase order (and RNG order) as the interpreter.
        Delegated to the engine's round memo, which replays whole
        draw-free rounds off one dict lookup."""
        actions = compiled.actions
        fired = [
            (actions[i], ups)
            for i, ups in compiled.step_round(
                state, self.rng, self.random_choice
            )
        ]
        if self.tracer.enabled:
            self.tracer.incr("gc.daemon_steps")
            self.tracer.incr("gc.actions_fired", len(fired))
        return fired

    def _pick_idx(self, group: list[int]) -> int:
        if self.random_choice and len(group) > 1:
            return group[int(self.rng.integers(0, len(group)))]
        return group[0]

    def step(self, program, state):
        if self.backend == "compiled":
            return self._step_compiled(self._compiled_for(program), state)
        index = self._index_for(program)
        if index is not None:
            chosen_idx = self._select_incremental(index, state)
            snapshot = state.snapshot() if chosen_idx else state
            chosen = [index.actions[i] for i in chosen_idx]
        else:
            snapshot = state.snapshot()
            chosen_idx = []
            chosen = self.select(program, snapshot)
        fired: list[tuple[Action, list[tuple[str, Any]]]] = []
        for action in chosen:
            ups = action.updates(snapshot, self.rng)
            fired.append((action, ups))
        for pos, (action, ups) in enumerate(fired):
            apply_updates(state, action.pid, ups)
            if index is not None:
                index.note_fire(chosen_idx[pos], ups)
        if index is not None:
            index.commit(state)
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
