"""Processes and programs.

A :class:`Program` bundles variable declarations (shared by all
processes), the per-process action lists, and an initial-state factory.
Programs compose by *superposition* (Section 4.1 superposes the barrier
variables ``cp``/``ph`` on the token-ring program): the superposed program
has the union of the variables and merged actions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro._pcg64 import Rng
from repro.gc.actions import Action
from repro.gc.domains import Domain, check_value
from repro.gc.state import State


@dataclass(frozen=True)
class VariableDecl:
    """Declaration of one per-process variable."""

    name: str
    domain: Domain
    default: Any

    def __post_init__(self) -> None:
        check_value(self.domain, self.name, self.default)


@dataclass(frozen=True)
class Process:
    """A process: a pid plus its actions (guards may read any process)."""

    pid: int
    actions: tuple[Action, ...]

    def __post_init__(self) -> None:
        for action in self.actions:
            if action.pid != self.pid:
                raise ValueError(
                    f"action {action.name!r} owned by {action.pid}, "
                    f"attached to process {self.pid}"
                )

    def enabled_actions(self, state: State, rng: Rng | None = None) -> list[Action]:
        return [a for a in self.actions if a.enabled(state, rng)]


class Program:
    """A guarded-command program over ``nprocs`` processes."""

    def __init__(
        self,
        name: str,
        declarations: Sequence[VariableDecl],
        processes: Sequence[Process],
        initial_state: Callable[["Program"], State] | None = None,
        metadata: dict[str, Any] | None = None,
    ) -> None:
        self.name = name
        self.declarations: tuple[VariableDecl, ...] = tuple(declarations)
        names = [d.name for d in self.declarations]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable declarations in {name!r}")
        self.processes: tuple[Process, ...] = tuple(processes)
        pids = [p.pid for p in self.processes]
        if pids != list(range(len(pids))):
            raise ValueError("processes must be numbered 0..N in order")
        self._initial_state = initial_state
        self.metadata: dict[str, Any] = dict(metadata or {})

    # ------------------------------------------------------------------
    @property
    def nprocs(self) -> int:
        return len(self.processes)

    @property
    def domains(self) -> dict[str, Domain]:
        return {d.name: d.domain for d in self.declarations}

    def actions(self) -> Iterable[Action]:
        for proc in self.processes:
            yield from proc.actions

    def action_named(self, name: str, pid: int) -> Action:
        for action in self.processes[pid].actions:
            if action.name == name:
                return action
        raise KeyError(f"no action {name!r} at process {pid}")

    # ------------------------------------------------------------------
    def initial_state(self) -> State:
        """Build a fresh initial state (a paper 'start state')."""
        if self._initial_state is not None:
            return self._initial_state(self)
        return State.uniform(self)

    def validate_state(self, state: State) -> None:
        """Check every value in ``state`` against its declared domain."""
        for decl in self.declarations:
            for pid in range(self.nprocs):
                check_value(decl.domain, decl.name, state.get(decl.name, pid))

    def arbitrary_state(self, rng: Rng) -> State:
        """A uniformly random state over the declared domains.

        This is exactly the paper's undetectable-fault perturbation applied
        to every process: each variable gets ``?`` from its domain.
        """
        vectors = {
            decl.name: [decl.domain.sample(rng) for _ in range(self.nprocs)]
            for decl in self.declarations
        }
        return State(vectors, self.nprocs)

    # ------------------------------------------------------------------
    def superpose(
        self,
        name: str,
        extra_declarations: Sequence[VariableDecl],
        merge: Callable[[int, tuple[Action, ...]], Sequence[Action]],
        initial_state: Callable[["Program"], State] | None = None,
    ) -> "Program":
        """Superpose new variables/behaviour on this program.

        ``merge`` receives each pid and the underlying actions of that
        process, and returns the superposed action list (typically the
        underlying actions with statements extended in parallel, as in the
        paper's "executes the following statement in parallel with that of
        T1").
        """
        decls = list(self.declarations) + list(extra_declarations)
        processes = [
            Process(p.pid, tuple(merge(p.pid, p.actions))) for p in self.processes
        ]
        return Program(name, decls, processes, initial_state, dict(self.metadata))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Program({self.name!r}, nprocs={self.nprocs}, "
            f"vars={[d.name for d in self.declarations]})"
        )


def parallel(*statements: Callable) -> Callable:
    """Combine statements executed 'in parallel' (same pre-state).

    Each sub-statement sees the same view; their update lists concatenate.
    Later writes to the same variable win, mirroring sequential composition
    inside a single atomic action.
    """

    def combined(view):
        updates: list[tuple[str, Any]] = []
        for stmt in statements:
            result = stmt(view)
            if result:
                updates.extend(result)
        return updates

    return combined
