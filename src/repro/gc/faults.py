"""Fault environments.

Section 2 of the paper represents each fault as an action:

* a **detectable** fault assigns *reset* values -- the barrier programs
  reset ``cp := error`` (and ``sn := BOT`` in the ring refinements) while
  the phase gets an arbitrary value;
* an **undetectable** fault assigns nondeterministically chosen values
  from the variable domains.

A :class:`FaultSpec` captures the effect (which variables get reset
values, which get arbitrary ones); a schedule decides *when* faults fire
(one-shot, per-step Bernoulli as in the untimed runs, or exponential
arrivals calibrated so that ``P(no fault in duration d) = (1-f)^d``,
matching the paper's analytical model); the :class:`FaultInjector`
combines specs, schedules and process targeting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

from repro._pcg64 import Rng, make_rng
from repro.gc.program import Program
from repro.gc.state import State
from repro.gc.trace import TraceEvent


@dataclass(frozen=True)
class FaultSpec:
    """The effect of one fault class at one process.

    ``resets`` maps variable names to fixed reset values (the detectable
    fault's ``cp := error``); ``randomized`` lists variables that receive a
    uniformly random in-domain value (the paper's ``?``).
    """

    name: str
    resets: Mapping[str, Any] = field(default_factory=dict)
    randomized: Sequence[str] = field(default_factory=tuple)
    detectable: bool = True

    def apply(
        self, program: Program, state: State, pid: int, rng: Rng
    ) -> list[tuple[str, Any]]:
        """Perturb ``state`` at ``pid``; return the writes performed."""
        domains = program.domains
        writes: list[tuple[str, Any]] = []
        for var in self.randomized:
            value = domains[var].sample(rng)
            state.set(var, pid, value)
            writes.append((var, value))
        for var, value in self.resets.items():
            state.set(var, pid, value)
            writes.append((var, value))
        return writes

    @classmethod
    def undetectable_all(cls, program: Program, name: str = "undetectable") -> "FaultSpec":
        """A transient corruption of *every* variable of one process."""
        return cls(
            name=name,
            randomized=tuple(d.name for d in program.declarations),
            detectable=False,
        )


class Schedule(Protocol):
    """Decides whether a fault fires at a given (step, time).

    A schedule that draws a distribution the core generator does not
    reproduce sets ``needs_numpy_rng = True``; :class:`FaultInjector`
    then seeds numpy's generator for it.
    """

    def fires(self, step: int, time: float, rng: Rng) -> bool: ...


@dataclass
class OneShotSchedule:
    """Fire exactly once, at a fixed step."""

    at_step: int
    _done: bool = field(default=False, init=False)

    def fires(self, step: int, time: float, rng: Rng) -> bool:
        if not self._done and step >= self.at_step:
            self._done = True
            return True
        return False


@dataclass
class BernoulliSchedule:
    """Fire independently with probability ``p`` at every step."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability out of range: {self.p}")

    def fires(self, step: int, time: float, rng: Rng) -> bool:
        return self.p > 0 and rng.random() < self.p


@dataclass
class ExponentialSchedule:
    """Exponential inter-arrival times in *virtual time*.

    The rate is derived from the paper's per-unit-time fault frequency
    ``f`` as ``lambda = -ln(1 - f)`` so that the probability of no fault
    in a duration ``d`` equals ``(1 - f)**d``, which is exactly the term
    appearing in the Section 6.1 analysis.
    """

    frequency: float
    _next: float = field(default=-1.0, init=False)

    #: ``exponential`` is numpy's ziggurat sampler, which the core
    #: generator does not reproduce.
    needs_numpy_rng = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.frequency < 1.0:
            raise ValueError(
                f"fault frequency must lie in [0, 1): {self.frequency}"
            )

    @property
    def rate(self) -> float:
        return 0.0 if self.frequency == 0.0 else -log(1.0 - self.frequency)

    def fires(self, step: int, time: float, rng: Any) -> bool:
        if self.frequency == 0.0:
            return False
        if self._next < 0.0:
            self._next = time + rng.exponential(1.0 / self.rate)
        if time >= self._next:
            self._next = time + rng.exponential(1.0 / self.rate)
            return True
        return False


class FaultInjector:
    """Fires fault specs at scheduled points against random processes."""

    def __init__(
        self,
        program: Program,
        spec: FaultSpec,
        schedule: Schedule,
        targets: Sequence[int] | None = None,
        seed: int | Rng | None = None,
        max_faults: int | None = None,
    ) -> None:
        self.program = program
        self.spec = spec
        self.schedule = schedule
        self.targets = tuple(targets) if targets is not None else tuple(
            range(program.nprocs)
        )
        if not self.targets:
            raise ValueError("fault injector needs at least one target")
        self.rng = make_rng(seed)
        if self.rng is not seed and getattr(schedule, "needs_numpy_rng", False):
            # Built from a seed, for a schedule that draws more than the
            # core generator offers: numpy's generator of that seed is the
            # same PCG64 stream, with ``exponential``.
            from numpy.random import default_rng as numpy_default_rng

            self.rng = numpy_default_rng(seed)
        self.max_faults = max_faults
        self.count = 0

    def maybe_inject(
        self, state: State, step: int, time: float = 0.0
    ) -> Iterable[TraceEvent]:
        """Fire zero or one fault for this step; yield trace events."""
        if self.max_faults is not None and self.count >= self.max_faults:
            return
        if not self.schedule.fires(step, time, self.rng):
            return
        pid = self.targets[int(self.rng.integers(0, len(self.targets)))]
        writes = self.spec.apply(self.program, state, pid, self.rng)
        self.count += 1
        yield TraceEvent(
            step=step,
            pid=pid,
            action=f"fault:{self.spec.name}",
            updates=tuple(writes),
            time=time,
            is_fault=True,
            detectable=self.spec.detectable,
        )


class ScriptedInjector:
    """Deterministic fault injection from an explicit schedule.

    ``schedule`` is a sequence of ``(step, pid)`` pairs: the spec is
    applied to ``pid`` at the first injection opportunity at or after
    ``step``.  Unlike :class:`FaultInjector`, both the timing and the
    victims are fixed up front, which is what the cross-implementation
    conformance suite needs -- the *same* seeded schedule replayed
    against CB, RB, RB' and MB.  The spec's ``?``-randomized variables
    still draw from ``seed``.
    """

    def __init__(
        self,
        program: Program,
        spec: FaultSpec,
        schedule: Sequence[tuple[int, int]],
        seed: int | Rng | None = None,
    ) -> None:
        self.program = program
        self.spec = spec
        self.schedule = sorted(schedule)
        for step, pid in self.schedule:
            if not 0 <= pid < program.nprocs:
                raise ValueError(f"scheduled fault at bad pid {pid}")
            if step < 0:
                raise ValueError(f"scheduled fault at negative step {step}")
        self.rng = make_rng(seed)
        self.count = 0
        self._next = 0

    def maybe_inject(
        self, state: State, step: int, time: float = 0.0
    ) -> Iterable[TraceEvent]:
        """Fire every scheduled fault due at or before ``step``."""
        while self._next < len(self.schedule) and self.schedule[self._next][0] <= step:
            _due, pid = self.schedule[self._next]
            self._next += 1
            writes = self.spec.apply(self.program, state, pid, self.rng)
            self.count += 1
            yield TraceEvent(
                step=step,
                pid=pid,
                action=f"fault:{self.spec.name}",
                updates=tuple(writes),
                time=time,
                is_fault=True,
                detectable=self.spec.detectable,
            )

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.schedule)


class PlanInjector:
    """Deterministic injection with a *per-event* fault spec.

    The chaos campaigns replay one serialized schedule that mixes fault
    classes (detectable resets and undetectable scrambles) in a single
    run, which :class:`ScriptedInjector` cannot express -- it carries one
    spec for the whole schedule.  ``schedule`` here is a sequence of
    ``(step, pid, spec)`` triples; each entry fires its own spec at the
    first opportunity at or after ``step``, and the emitted trace event
    is stamped with that spec's detectability.
    """

    def __init__(
        self,
        program: Program,
        schedule: Sequence[tuple[int, int, FaultSpec]],
        seed: int | Rng | None = None,
    ) -> None:
        self.program = program
        self.schedule = sorted(schedule, key=lambda e: (e[0], e[1]))
        for step, pid, spec in self.schedule:
            if not 0 <= pid < program.nprocs:
                raise ValueError(f"scheduled fault at bad pid {pid}")
            if step < 0:
                raise ValueError(f"scheduled fault at negative step {step}")
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"schedule entry needs a FaultSpec, got {spec!r}")
        self.rng = make_rng(seed)
        self.count = 0
        self._next = 0

    def maybe_inject(
        self, state: State, step: int, time: float = 0.0
    ) -> Iterable[TraceEvent]:
        """Fire every scheduled fault due at or before ``step``."""
        while self._next < len(self.schedule) and self.schedule[self._next][0] <= step:
            _due, pid, spec = self.schedule[self._next]
            self._next += 1
            writes = spec.apply(self.program, state, pid, self.rng)
            self.count += 1
            yield TraceEvent(
                step=step,
                pid=pid,
                action=f"fault:{spec.name}",
                updates=tuple(writes),
                time=time,
                is_fault=True,
                detectable=spec.detectable,
            )

    @property
    def exhausted(self) -> bool:
        return self._next >= len(self.schedule)


class MultiInjector:
    """Compose several independent injectors (e.g. detectable at one rate
    and undetectable at another)."""

    def __init__(self, injectors: Sequence[FaultInjector]) -> None:
        self.injectors = list(injectors)

    def maybe_inject(
        self, state: State, step: int, time: float = 0.0
    ) -> Iterable[TraceEvent]:
        for injector in self.injectors:
            yield from injector.maybe_inject(state, step, time)

    @property
    def count(self) -> int:
        return sum(inj.count for inj in self.injectors)
