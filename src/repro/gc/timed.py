"""Timed maximal-parallel execution.

SIEFAST associates "a real-time value with each action to model the time
required to execute that action".  We reproduce that: every action costs
a duration (looked up by the action's ``kind`` tag, overridable per
action), processes execute concurrently, and the simulator advances a
virtual clock.

Semantics
---------
Each process is either *idle* or *busy*.  An idle process whose actions
include an enabled one starts executing it immediately (first-enabled, or
a uniformly random enabled one under ``random_choice``).  The action's
statement applies **atomically at its completion instant**, provided its
guard still holds then; if the world changed and the guard is now false,
the work is wasted and the process goes idle (this is what lets failed
phase instances finish early, the effect the paper credits for the
simulated overhead in Figure 6 undercutting the analytical bound).

Simultaneous completions apply against a common snapshot, giving maximal
parallelism at equal time stamps.  Zero-duration actions are allowed but
bounded per instant to catch non-terminating instantaneous loops.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, Mapping

from repro._pcg64 import Rng, make_rng
from repro.gc.actions import Action, apply_updates
from repro.gc.program import Program
from repro.gc.state import State
from repro.gc.trace import Trace, TraceEvent

DurationFn = Callable[[Action], float]

#: Default costs by action kind: "compute" models executing a phase
#: (the paper's unit time), "comm" models one message hop (latency ``c``),
#: "local" is free.
DEFAULT_KIND_COSTS: dict[str, float] = {"compute": 1.0, "comm": 0.0, "local": 0.0}

_MAX_ZERO_DURATION_ROUNDS = 10_000


def make_duration_fn(
    kind_costs: Mapping[str, float] | None = None,
) -> DurationFn:
    """Build a duration function from per-kind costs.

    An action's explicit ``duration`` attribute wins over its kind cost.
    """
    costs = dict(DEFAULT_KIND_COSTS)
    if kind_costs:
        costs.update(kind_costs)

    def duration(action: Action) -> float:
        if action.duration is not None:
            return float(action.duration)
        return float(costs.get(action.kind, 0.0))

    return duration


@dataclass
class TimedResult:
    """Outcome of a timed run."""

    state: State
    time: float
    completions: int
    stopped_by: str  # "predicate" | "silent" | "max_time"
    trace: Trace = field(default_factory=Trace)
    wasted: int = 0  # completions whose guard had become false

    @property
    def reached(self) -> bool:
        return self.stopped_by == "predicate"


class TimedSimulator:
    """Discrete-event execution of a guarded-command program."""

    def __init__(
        self,
        program: Program,
        durations: DurationFn | Mapping[str, float] | None = None,
        seed: int | Rng | None = None,
        injector: Any = None,
        random_choice: bool = False,
        record_trace: bool = False,
        trace_capacity: int | None = None,
    ) -> None:
        self.program = program
        if durations is None or isinstance(durations, Mapping):
            self.duration_fn = make_duration_fn(durations)
        else:
            self.duration_fn = durations
        self.rng = make_rng(seed)
        self.injector = injector
        self.random_choice = random_choice
        self.record_trace = record_trace
        self.trace_capacity = trace_capacity

    def _pick_action(self, pid: int, state: State) -> Action | None:
        enabled = [
            a
            for a in self.program.processes[pid].actions
            if a.enabled(state, self.rng)
        ]
        if not enabled:
            return None
        if self.random_choice and len(enabled) > 1:
            return enabled[int(self.rng.integers(0, len(enabled)))]
        return enabled[0]

    def run(
        self,
        state: State | None = None,
        max_time: float = 1_000.0,
        stop: Callable[[State, float], bool] | None = None,
    ) -> TimedResult:
        if state is None:
            state = self.program.initial_state()
        trace = Trace(self.trace_capacity)
        n = self.program.nprocs

        # Per-process status: None when idle, else the in-flight action.
        in_flight: list[Action | None] = [None] * n
        heap: list[tuple[float, int, int]] = []  # (finish, tiebreak, pid)
        tick = count()
        now = 0.0
        completions = 0
        wasted = 0
        zero_rounds = 0

        def start_idle_processes() -> bool:
            """Start actions for all idle processes; True if any started."""
            started = False
            for pid in range(n):
                if in_flight[pid] is not None:
                    continue
                action = self._pick_action(pid, state)
                if action is None:
                    continue
                in_flight[pid] = action
                finish = now + self.duration_fn(action)
                heapq.heappush(heap, (finish, next(tick), pid))
                started = True
            return started

        if stop is not None and stop(state, now):
            return TimedResult(state, now, 0, "predicate", trace)

        start_idle_processes()
        while heap:
            finish, _, _ = heap[0]
            if finish > max_time:
                return TimedResult(
                    state, max_time, completions, "max_time", trace, wasted
                )
            if finish > now:
                now = finish
                zero_rounds = 0
            else:
                zero_rounds += 1
                if zero_rounds > _MAX_ZERO_DURATION_ROUNDS:
                    raise RuntimeError(
                        "instantaneous action loop: >10000 zero-duration "
                        "completions at one time stamp"
                    )

            if self.injector is not None:
                for ev in self.injector.maybe_inject(state, completions, now):
                    if self.record_trace:
                        trace.append(ev)

            # Gather all completions at this instant; evaluate against a
            # common snapshot (maximal parallelism at equal timestamps).
            batch: list[int] = []
            while heap and heap[0][0] <= now:
                _, _, pid = heapq.heappop(heap)
                batch.append(pid)
            snapshot = state.snapshot()
            for pid in batch:
                action = in_flight[pid]
                in_flight[pid] = None
                assert action is not None
                if action.enabled(snapshot, self.rng):
                    ups = action.updates(snapshot, self.rng)
                    apply_updates(state, pid, ups)
                    completions += 1
                    if self.record_trace:
                        trace.append(
                            TraceEvent(
                                step=completions,
                                pid=pid,
                                action=action.name,
                                updates=tuple(ups),
                                time=now,
                            )
                        )
                else:
                    wasted += 1

            if stop is not None and stop(state, now):
                return TimedResult(state, now, completions, "predicate", trace, wasted)

            start_idle_processes()

        return TimedResult(state, now, completions, "silent", trace, wasted)
