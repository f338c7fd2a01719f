"""Fault arrival processes for the timed simulations.

The paper's fault frequency ``f`` is defined against unit time (the
phase-execution time): the probability that no fault occurs during a
duration ``d`` is ``(1 - f)**d``.  That makes fault arrivals a Poisson
process with rate ``lambda = -ln(1 - f)`` per unit time, which is what
:class:`DetectableFaultEnv` draws.  Each arrival strikes a uniformly
random process.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf, log
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:
    import numpy as np


@dataclass
class DetectableFaultEnv:
    """Exponential fault arrivals over ``nprocs`` processes.

    With a ``tracer``, the environment counts its arrival draws
    (``faultenv.draws``) and victim picks (``faultenv.victims``) so a
    trace records how much fault pressure a run was configured for --
    the injection sites themselves emit the ``fault`` events.
    """

    frequency: float
    nprocs: int
    tracer: Any = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.frequency < 1.0:
            raise ValueError(f"fault frequency must be in [0, 1): {self.frequency}")
        if self.nprocs < 1:
            raise ValueError("need at least one process")

    @property
    def rate(self) -> float:
        """Arrival rate: ``-ln(1 - f)`` per unit time."""
        return 0.0 if self.frequency == 0.0 else -log(1.0 - self.frequency)

    def arrivals(
        self, rng: np.random.Generator, until: float
    ) -> Iterator[tuple[float, int]]:
        """Yield ``(time, victim_pid)`` pairs with time < ``until``."""
        rate = self.rate
        if rate == 0.0:
            return
        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate)
            if t >= until:
                return
            if self.tracer is not None and self.tracer.enabled:
                self.tracer.incr("faultenv.draws")
                self.tracer.incr("faultenv.victims")
            yield t, int(rng.integers(0, self.nprocs))

    def next_arrival(self, rng: np.random.Generator, now: float) -> float:
        """One draw: the next arrival time after ``now`` (inf if f=0)."""
        rate = self.rate
        if rate == 0.0:
            return inf
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.incr("faultenv.draws")
        return now + rng.exponential(1.0 / rate)

    def victim(self, rng: np.random.Generator) -> int:
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.incr("faultenv.victims")
        return int(rng.integers(0, self.nprocs))
