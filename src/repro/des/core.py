"""Event queue and virtual clock.

Deterministic given the seed: ties in event time break by insertion
order, and randomness flows through named, independently-seeded RNG
streams (so adding a consumer of randomness never perturbs another
stream's draws -- a standard reproducibility idiom for simulation
studies).
"""

from __future__ import annotations

import heapq
import zlib
from dataclasses import dataclass, field
from itertools import count
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError
from repro.obs.tracer import ensure_tracer

if TYPE_CHECKING:
    import numpy as np


@dataclass(order=True)
class Event:
    """One scheduled callback.

    ``cancel()`` is idempotent and safe at any point in the event's
    life: before it runs (the event is skipped and stops counting as
    pending), after it ran, or after it was already cancelled (both
    no-ops).  Cancelled entries stay in the owning simulation's heap --
    removal from the middle of a heap is O(n) -- and are skipped on pop;
    the simulation compacts the heap once they outnumber live entries.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _sim: Any = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._note_cancel(self)
            self._sim = None


class Simulation:
    """A discrete-event simulation: schedule callbacks, run the clock."""

    def __init__(self, seed: Any = None, tracer: Any = None) -> None:
        import numpy as np

        self._heap: list[Event] = []
        self._seq = count()
        self._now = 0.0
        #: The simulation owns the virtual clock, so it also carries the
        #: tracer: everything built on the kernel (network, runtimes)
        #: reads ``sim.tracer`` to emit at ``sim.now``.
        self.tracer = ensure_tracer(tracer)
        self._seed_seq = (
            seed
            if isinstance(seed, np.random.SeedSequence)
            else np.random.SeedSequence(seed)
        )
        self._streams: dict[str, np.random.Generator] = {}
        self.events_processed = 0
        #: Cancelled events still sitting in the heap.  Tracked so
        #: :attr:`pending` is O(1) (``len(heap) - cancelled``) instead
        #: of an O(n) heap scan -- simulations poll it in stop
        #: conditions, which made the old scan quadratic over a run.
        #: Counting cancellations rather than live events keeps the
        #: bookkeeping entirely on the (rare) cancel path; the hot
        #: schedule/pop path pays nothing.
        self._cancelled = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def rng(self, stream: str = "default") -> np.random.Generator:
        """Named RNG stream, seeded independently of all other streams."""
        gen = self._streams.get(stream)
        if gen is None:
            import numpy as np

            # Stable across interpreter launches (Python's str hash is
            # salted; that would silently break run-to-run determinism).
            key = zlib.crc32(stream.encode("utf-8"))
            child = np.random.SeedSequence(
                entropy=self._seed_seq.entropy,
                spawn_key=(key,),
            )
            gen = np.random.default_rng(child)
            self._streams[stream] = gen
        return gen

    # ------------------------------------------------------------------
    def at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} < now ({self._now})"
            )
        event = Event(time, next(self._seq), callback, False, self)
        heapq.heappush(self._heap, event)
        return event

    def after(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self.at(self._now + delay, callback)

    # ------------------------------------------------------------------
    def _note_cancel(self, event: Event) -> None:
        """Called (once) by :meth:`Event.cancel` while still scheduled."""
        self._cancelled += 1
        # Compact once cancelled entries dominate: sift the survivors
        # into a fresh heap (O(live)) instead of popping each corpse
        # (O(n log n) spread over future steps, plus held memory).
        if len(self._heap) > 64 and 2 * self._cancelled > len(self._heap):
            self._heap = [e for e in self._heap if not e.cancelled]
            heapq.heapify(self._heap)
            self._cancelled = 0

    def step(self) -> bool:
        """Process one event; return False when the queue is empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                self._cancelled -= 1
                continue
            # Detach before running: a late cancel() must not count
            # toward the heap's cancelled entries once the event left it.
            event._sim = None
            self._now = event.time
            event.callback()
            self.events_processed += 1
            return True
        return False

    def run(
        self,
        until: float | None = None,
        stop: Callable[[], bool] | None = None,
        max_events: int = 10_000_000,
    ) -> float:
        """Run until the queue drains, ``until`` is reached, or ``stop``
        returns True; returns the final virtual time."""
        for _ in range(max_events):
            if stop is not None and stop():
                return self._now
            if not self._heap:
                return self._now
            if until is not None and self._heap[0].time > until:
                self._now = until
                return self._now
            self.step()
        raise SimulationError(f"exceeded max_events={max_events}")

    @property
    def pending(self) -> int:
        """Scheduled, not-yet-cancelled events (O(1))."""
        return len(self._heap) - self._cancelled
