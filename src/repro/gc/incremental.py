"""The step engine: cached guard enabledness plus the step operations.

Every daemon step of the naive kind re-evaluates every guard of every
process against the full state, although a step writes only a handful of
cells.  When actions declare their guard read-sets
(:attr:`repro.gc.actions.Action.reads`), enabledness can instead be
maintained *incrementally*: keep a cached enabled/disabled flag per
action, track the cells written by the last step, and re-evaluate only
the guards whose declared read-set intersects that dirty set.
Undeclared actions are re-evaluated every step, so the scheme is
correctness-preserving by construction: declaring nothing degenerates to
full evaluation.

:class:`EnabledIndex` is that flag cache -- the only copy of it -- plus
the three operations the daemons and the explorer step through:
``execute`` (one interleaving fire), ``step_round`` (one maximal-parallel
round) and the stateless ``successors``.  Guards and statements run
*live*, the same closures plain full evaluation calls;
:class:`repro.gc.compile.CompiledProgram` subclasses it and overrides
only what memoization changes.  Cells are keyed by integer slot
(``var_index * nprocs + pid``, sorted-name order): numbering only, no
domain is ever enumerated here.

Writes made behind the daemon's back (fault injectors, tests poking the
state) are detected through :attr:`repro.gc.state.State.version`: when
the observed mutation count does not match what the engine recorded
after its own writes, the cache is discarded and every guard is
re-evaluated.

The declaration is a purity contract (see :class:`Action`): a declared
guard must be a deterministic function of exactly its declared cells.
:func:`observed_guard_reads` evaluates a guard under a recording view so
tests can check declarations against actual behaviour.
"""

from __future__ import annotations

from bisect import insort
from typing import Any, Callable

from repro.gc.actions import Action, StateView, apply_updates
from repro.gc.program import Program
from repro.gc.state import State


class EnabledIndex:
    """Cached per-action enabledness with dirty-slot invalidation, and
    the step operations built on it.

    Flag protocol (what the step operations are made of)::

        flags = index.refresh(state, rng)   # start of step
        ... fire actions, apply updates ...
        index.note_fire(idx, updates)       # once per fired action
        index.commit(state)                 # end of step

    ``refresh`` returns a list of booleans aligned with
    :attr:`actions` (the program's actions in declaration order).

    ``__slots__`` is load-bearing: CPython 3.11 stops sharing
    instance-dict keys at 30 attributes and the subclass sits right
    under that cliff (DESIGN.md, "gc: one step engine").
    """

    __slots__ = (
        "program", "actions", "by_pid", "pid_of", "has_tracked", "flags",
        "_nprocs", "_var_index", "_write_slots", "_watchers", "_live",
        "_eval", "_stale", "_lazy_used", "_state", "_expected_version",
        "_dirty", "_enabled",
    )  # fmt: skip

    #: True: the round-robin daemon engages this engine without its probe.
    eager = False

    def __init__(self, program: Program) -> None:
        self.program = program
        self.actions: tuple[Action, ...] = tuple(program.actions())
        n = len(self.actions)
        # Per-process slices into the flat action list (declaration order).
        by_pid: list[tuple[int, ...]] = []
        i = 0
        for proc in program.processes:
            by_pid.append(tuple(range(i, i + len(proc.actions))))
            i += len(proc.actions)
        self.by_pid: tuple[tuple[int, ...], ...] = tuple(by_pid)
        self.pid_of: tuple[int, ...] = tuple(
            a.pid for a in self.actions
        )
        self._nprocs = program.nprocs
        self._var_index: dict[str, int] = {
            name: i
            for i, name in enumerate(
                sorted(d.name for d in program.declarations)
            )
        }
        # Per-action dirty slots from the declared write-set.  ``None``
        # means undeclared (derive slots from the actual update list);
        # an empty tuple means the action *declared* it writes nothing,
        # which is a first-class promise, not a missing declaration.
        self._write_slots: tuple[tuple[int, ...] | None, ...] = tuple(
            None
            if action.writes is None
            else tuple(
                sorted(self._slot(var, action.pid) for var in action.writes)
            )
            for action in self.actions
        )
        #: slot -> actions whose guard reads it.
        self._watchers: dict[int, list[int]] = {}
        #: Actions whose guard is re-evaluated every step (no declared
        #: read-set); sorted, so RNG draws keep declaration order.
        self._live: list[int] = []
        for idx, action in enumerate(self.actions):
            if action.reads is None:
                self._live.append(idx)
                continue
            for var, pid in action.reads:
                self._watchers.setdefault(self._slot(var, pid), []).append(idx)
        #: True when at least one action declares a read-set -- without
        #: any declarations the cache is pure overhead and daemons fall
        #: back to plain full evaluation.
        self.has_tracked = len(self._live) < n
        #: Per-action guard evaluators ``(state, rng) -> bool``: a table,
        #: not an overridable method, so the one flag protocol reaches
        #: each class's guard without an extra frame.
        self._eval: list[Callable[[State, Any], bool]] = [
            a.enabled for a in self.actions
        ]
        self.flags: list[bool] = [False] * n
        self._stale = bytearray(b"\x01" * n)
        self._lazy_used = True
        self._state: State | None = None
        self._expected_version = -1
        self._dirty: set[int] = set()
        #: Sorted indices of enabled actions, maintained across the
        #: eager :meth:`refresh` fast path so daemons read the (small)
        #: enabled set in O(#enabled) instead of scanning every flag.
        #: ``None`` means "recompute on demand" (after rebuilds or lazy
        #: :meth:`is_enabled` use, which mutate flags behind its back).
        self._enabled: list[int] | None = None

    def _slot(self, var: str, pid: int) -> int:
        """Slot of cell ``(var, pid)``.  A name outside the program's
        declarations (a state may carry extra variables) is numbered on
        first sight, after the declared ones."""
        index = self._var_index
        vi = index.get(var)
        if vi is None:
            vi = index[var] = len(index)
        return vi * self._nprocs + pid

    # ------------------------------------------------------------------
    # Flag protocol
    # ------------------------------------------------------------------
    def _rebind(self, state: State) -> None:
        """Adopt ``state`` after first use, a different state object or
        external writes; every flag is about to be re-evaluated."""
        self._state = state

    def refresh(self, state: State, rng: Any = None) -> list[bool]:
        """Bring the enabledness flags up to date with ``state``.

        Guards are (re-)evaluated in declaration order, so any RNG
        consumption by *undeclared* guards happens in the same order as
        under full evaluation (declared guards must not draw).
        """
        evals = self._eval
        flags = self.flags
        stale_bits = self._stale
        if state is not self._state or state.version != self._expected_version:
            self._rebind(state)
            for idx, guard in enumerate(evals):
                flags[idx] = guard(state, rng)
            self._enabled = None
        else:
            stale = set(self._live)
            watchers = self._watchers
            for slot in self._dirty:
                hit = watchers.get(slot)
                if hit is not None:
                    stale.update(hit)
            if self._lazy_used:
                # Entries left stale by earlier mark_stale()/is_enabled().
                stale.update(
                    idx for idx in range(len(stale_bits)) if stale_bits[idx]
                )
            enabled = self._enabled
            for idx in sorted(stale):
                new = evals[idx](state, rng)
                if new != flags[idx]:
                    flags[idx] = new
                    if enabled is not None:
                        if new:
                            insort(enabled, idx)
                        else:
                            enabled.remove(idx)
        if self._lazy_used:
            stale_bits[:] = bytes(len(stale_bits))
            self._lazy_used = False
        self._dirty.clear()
        self._expected_version = state.version
        return flags

    def mark_stale(self, state: State) -> None:
        """Lazy counterpart of :meth:`refresh`: *mark* what the dirty set
        invalidates instead of re-evaluating it, and let the caller pull
        individual flags through :meth:`is_enabled`.

        This is the right shape for scan-based daemons (round-robin)
        that normally touch only one or two guards per step: eagerly
        re-evaluating every watcher of a write would cost more than the
        scan itself.  Entries never visited simply stay stale until a
        scan reaches them.
        """
        stale = self._stale
        self._lazy_used = True
        if state is not self._state or state.version != self._expected_version:
            self._rebind(state)
            stale[:] = b"\x01" * len(stale)
            self._enabled = None
        else:
            for idx in self._live:
                stale[idx] = 1
            watchers = self._watchers
            for slot in self._dirty:
                hit = watchers.get(slot)
                if hit is not None:
                    for idx in hit:
                        stale[idx] = 1
        self._dirty.clear()
        self._expected_version = state.version

    def is_enabled(self, idx: int, state: State, rng: Any = None) -> bool:
        """Cached enabledness of one action, re-evaluating iff stale.

        The stale bit is cleared for every guard, live ones included: a
        second query within a step answers from the flag (no second
        draw), and the next :meth:`mark_stale` / :meth:`refresh` marks
        the live guards again.
        """
        if self._stale[idx]:
            self.flags[idx] = self._eval[idx](state, rng)
            self._stale[idx] = 0
            self._enabled = None
        return self.flags[idx]

    def enabled_slots(self) -> list[int]:
        """Indices of enabled actions, in declaration order.

        Valid only right after an eager :meth:`refresh`.  Maintained
        incrementally across refreshes (a step typically toggles one or
        two flags), recomputed in full only after rebuilds or lazy use.
        The caller must not mutate the returned list.
        """
        enabled = self._enabled
        if enabled is None:
            self._enabled = enabled = [
                idx for idx, on in enumerate(self.flags) if on
            ]
        return enabled

    def select_round(
        self, rng: Any = None, random_choice: bool = False
    ) -> list[int]:
        """Pick one enabled action per process (call after
        :meth:`refresh`): the first enabled, or a uniform draw among the
        process's enabled actions under ``random_choice``."""
        pid_of = self.pid_of
        chosen: list[int] = []
        # Enabled slots are sorted and actions are grouped by pid in
        # declaration order, so consecutive runs of equal pid reproduce
        # the per-process iteration of the plain daemon exactly.
        group: list[int] = []
        cur_pid = -1
        for i in self.enabled_slots():
            pid = pid_of[i]
            if pid != cur_pid:
                if group:
                    chosen.append(_pick(group, rng, random_choice))
                group = []
                cur_pid = pid
            group.append(i)
        if group:
            chosen.append(_pick(group, rng, random_choice))
        return chosen

    def note_fire(self, idx: int, updates: Any) -> None:
        """Record the dirty slots of fired action ``idx``.

        When the action declares a write-set
        (:attr:`~repro.gc.actions.Action.writes`), its precomputed slots
        are dirtied directly and the update list is ignored -- in
        particular a declared-*empty* write-set (``frozenset()``) means
        the action promised its updates never change any cell (the
        heartbeat idiom of rewriting a value already in place), so
        firing it invalidates nothing.  Only ``writes is None`` falls
        back to scanning the actual updates.
        """
        slots = self._write_slots[idx]
        if slots is None:
            pid = self.pid_of[idx]
            for var, _value in updates:
                self._dirty.add(self._slot(var, pid))
        else:
            self._dirty.update(slots)

    def commit(self, state: State) -> None:
        """Record the post-step version so own writes don't invalidate."""
        self._expected_version = state.version

    # ------------------------------------------------------------------
    # Step operations
    # ------------------------------------------------------------------
    def execute(
        self, idx: int, state: State, rng: Any = None
    ) -> list[tuple[str, Any]]:
        """Fire action ``idx`` in place (interleaving semantics): run its
        statement, apply the updates, dirty what it wrote."""
        ups = self.actions[idx].execute(state, rng)
        self.note_fire(idx, ups)
        self._expected_version = state.version
        return ups

    def step_round(
        self, state: State, rng: Any = None, random_choice: bool = False
    ) -> list[tuple[int, list[tuple[str, Any]]]]:
        """One maximal-parallel round in place; returns ``(action index,
        updates)`` pairs in firing order.

        Stale guards are evaluated against the live pre-step state
        (identical to the snapshot at that point); every chosen
        statement is then evaluated against a snapshot before any update
        is applied, exactly as the plain daemon does.
        """
        self.refresh(state, rng)
        chosen = self.select_round(rng, random_choice)
        if not chosen:
            return []
        snapshot = state.snapshot()
        actions = self.actions
        fired = [(i, actions[i].updates(snapshot, rng)) for i in chosen]
        pid_of = self.pid_of
        for i, ups in fired:
            apply_updates(state, pid_of[i], ups)
            self.note_fire(i, ups)
        self._expected_version = state.version
        return fired

    def successors(self, state: State) -> list[State]:
        """One-step successors under nondeterministic interleaving, in
        action order.  Stateless -- a pure loop over the program's
        actions that never touches the flag cache -- so the explorer may
        call it from a thread pool."""
        out = []
        for action in self.program.actions():
            if action.enabled(state):
                succ = state.snapshot()
                action.execute(succ)
                out.append(succ)
        return out


def _pick(group: list[int], rng: Any, random_choice: bool) -> int:
    if random_choice and len(group) > 1:
        return group[int(rng.integers(0, len(group)))]
    return group[0]


class RecordingStateView(StateView):
    """A :class:`StateView` that records every cell a guard reads.

    ``vector`` and ``any_with`` touch the whole per-process vector, so
    they record every pid's cell.  Used by tests to verify that declared
    read-sets cover actual guard behaviour.
    """

    __slots__ = ("observed",)

    def __init__(self, state: Any, pid: int, rng: Any = None) -> None:
        super().__init__(state, pid, rng)
        self.observed: set[tuple[str, int]] = set()

    def my(self, var: str) -> Any:
        self.observed.add((var, self.pid))
        return super().my(var)

    def of(self, var: str, pid: int) -> Any:
        self.observed.add((var, pid))
        return super().of(var, pid)

    def vector(self, var: str) -> tuple:
        self.observed.update((var, pid) for pid in range(self.nprocs))
        return super().vector(var)

    def any_with(self, var: str, value: Any) -> int | None:
        self.observed.update((var, pid) for pid in range(self.nprocs))
        return super().any_with(var, value)


def observed_guard_reads(
    action: Action, state: State, rng: Any = None
) -> set[tuple[str, int]]:
    """The cells ``action``'s guard actually reads in ``state``."""
    view = RecordingStateView(state, action.pid, rng)
    action.guard(view)
    return view.observed


def check_declared_reads(
    program: Program, state: State
) -> list[tuple[Action, set[tuple[str, int]]]]:
    """Return actions whose guard read cells outside their declaration.

    Each offending entry carries the undeclared cells observed in
    ``state``.  An empty list means every declared read-set covered its
    guard's behaviour *in this state* (run over many states for
    confidence; guards may read data-dependently).
    """
    offenders: list[tuple[Action, set[tuple[str, int]]]] = []
    for action in program.actions():
        if action.reads is None:
            continue
        extra = observed_guard_reads(action, state) - set(action.reads)
        if extra:
            offenders.append((action, extra))
    return offenders
