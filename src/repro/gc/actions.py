"""Guarded actions.

An action is ``name :: guard -> statement``.  Guards read the global
state; statements update *only the variables of the owning process* (the
paper's locality discipline, which is also what makes maximal-parallel
execution race free: no two processes ever write the same variable).

To support both interleaving and synchronous semantics, statements are
*pure*: instead of mutating the state they return an :class:`Update`
(a list of ``(variable, value)`` pairs for the owning process).  The
daemon applies updates; under maximal parallelism all guards and all
statements are evaluated against the pre-step snapshot before any update
is applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence


#: One write produced by a statement: ``(variable-name, new-value)``.
#: All writes target the executing process's own variables.
Update = Sequence[tuple[str, Any]]

Guard = Callable[["StateView"], bool]
Statement = Callable[["StateView"], Update]


class StateView:
    """What a guard/statement sees: the global state plus the executing
    process id and an RNG for the paper's nondeterministic choices.

    The paper's guards freely read other processes' variables (that is the
    whole point of the coarse-grain program CB); the view exposes those
    reads but funnels all *writes* through the returned update list.
    """

    __slots__ = ("state", "pid", "rng", "nprocs")

    def __init__(self, state: Any, pid: int, rng: Any = None) -> None:
        self.state = state
        self.pid = pid
        self.rng = rng
        self.nprocs = state.nprocs

    def my(self, var: str) -> Any:
        """Read the executing process's own copy of ``var``."""
        return self.state.get(var, self.pid)

    def of(self, var: str, pid: int) -> Any:
        """Read ``var`` at process ``pid``."""
        return self.state.get(var, pid)

    def vector(self, var: str) -> tuple:
        """Read the whole per-process vector of ``var``."""
        return self.state.vector(var)

    def others(self) -> range:
        """All process ids (the paper's quantifications range over all k,
        including j itself, which is how we quantify too)."""
        return range(self.nprocs)

    def any_with(self, var: str, value: Any) -> int | None:
        """Return some pid whose ``var`` equals ``value`` (the paper's
        ``(any k : cp.k = value : ...)``), or ``None`` if there is none.

        When an RNG is attached the witness is chosen uniformly, modelling
        the specification's nondeterminism; otherwise the first match is
        returned (deterministic daemons).
        """
        matches = [k for k in range(self.nprocs) if self.state.get(var, k) == value]
        if not matches:
            return None
        if self.rng is None or len(matches) == 1:
            return matches[0]
        return matches[int(self.rng.integers(0, len(matches)))]

    def choose(self, values: Sequence[Any]) -> Any:
        """Nondeterministic choice from ``values`` (arbitrary phase pick
        in CB4 when every process is corrupted)."""
        if not values:
            raise ValueError("choose() from empty sequence")
        if self.rng is None or len(values) == 1:
            return values[0]
        return values[int(self.rng.integers(0, len(values)))]


@dataclass(frozen=True)
class Action:
    """A named guarded action owned by one process.

    ``kind`` tags the action for the timed simulator ("comm" actions cost
    the communication latency, "compute" actions cost the phase-execution
    time, "local" actions are free); ``duration`` optionally overrides the
    kind-based cost with a fixed value.

    ``reads`` optionally declares the guard's read-set as a frozenset of
    ``(variable, pid)`` cells.  Declaring it is a *purity contract*: the
    guard's boolean value must be a deterministic function of exactly
    those cells (no RNG draws, no reads outside the set).  The step
    engine (:class:`repro.gc.incremental.EnabledIndex`) uses the
    declaration to skip re-evaluating guards whose cells were untouched
    by the last step; with ``reads=None`` the live engine re-evaluates
    the guard every step (the compiled one learns its read-set), which
    is always correct.
    ``writes`` optionally declares the set of *variable names* the
    statement may write (always at the owning pid, per the locality
    discipline).  Like ``reads`` it is a contract, and it steers the
    live engine only: when declared, a fire dirties exactly the declared
    cells (:meth:`repro.gc.incremental.EnabledIndex.note_fire`) -- a
    declared *empty* set promises the statement's updates never change
    any cell.  ``writes=None`` means undeclared; dirty cells are then
    derived from the update list actually applied, which is always
    correct (and is what the compiled engine does for every action).
    """

    name: str
    pid: int
    guard: Guard
    statement: Statement
    kind: str = field(default="local")
    duration: float | None = field(default=None)
    reads: frozenset[tuple[str, int]] | None = field(default=None)
    writes: frozenset[str] | None = field(default=None)

    def enabled(self, state: Any, rng: Any = None) -> bool:
        return bool(self.guard(StateView(state, self.pid, rng)))

    def updates(self, state: Any, rng: Any = None) -> list[tuple[str, Any]]:
        """Evaluate the statement; returns the writes to apply."""
        result = self.statement(StateView(state, self.pid, rng))
        return list(result) if result is not None else []

    def execute(self, state: Any, rng: Any = None) -> list[tuple[str, Any]]:
        """Interleaving-semantics helper: evaluate and apply in one step."""
        ups = self.updates(state, rng)
        apply_updates(state, self.pid, ups)
        return ups

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Action({self.name}@{self.pid})"


def apply_updates(state: Any, pid: int, updates: Update) -> None:
    """Apply an update list to ``state`` on behalf of process ``pid``."""
    for var, value in updates:
        state.set(var, pid, value)
