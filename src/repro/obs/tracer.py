"""Tracer: structured events, monotonic counters, virtual-time timers.

Engines take an optional ``tracer=`` argument and hold
:data:`NULL_TRACER` when none is given.  The null tracer exposes the
full recording API as no-ops with ``enabled = False``, so hot paths pay
one attribute check (``if tracer.enabled:``) when tracing is off -- the
<5% overhead budget of the observability layer.

Timers run on the caller's clock (virtual time): ``timer_start(name, t)``
/ ``timer_stop(name, t)`` accumulate elapsed virtual time and a stop
count per name, which is how recovery latencies and per-instance costs
are measured without wall-clock noise.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, Sequence

from repro.obs.events import (
    DETECT,
    FAULT,
    MSG_RECV,
    MSG_SEND,
    PHASE_END,
    PHASE_START,
    PROTOCOL_KINDS,
    QUARANTINE,
    RECOVERY,
    TOKEN_PASS,
    ObsEvent,
)


class ObsError(ValueError):
    """Misuse of the tracing API (e.g. stopping a timer never started)."""


class NullTracer:
    """The disabled tracer: every recording call is a no-op.

    ``enabled`` is False, so engines can skip building event payloads
    entirely; read-only views are empty.
    """

    enabled = False
    capacity: int | None = 0  # keeps nothing
    protocol_events: Sequence[ObsEvent] = ()

    # -- events --------------------------------------------------------
    def emit(self, kind: str, time: float, pid: int | None = None, **data: Any) -> None:
        pass

    def phase_start(
        self, time: float, phase: int, pid: int | None = 0, **data: Any
    ) -> None:
        pass

    def phase_end(
        self,
        time: float,
        phase: int,
        success: bool,
        pid: int | None = 0,
        **data: Any,
    ) -> None:
        pass

    def fault(
        self, time: float, pid: int | None, detectable: bool = True, **data: Any
    ) -> None:
        pass

    def detect(self, time: float, pid: int | None = 0, **data: Any) -> None:
        pass

    def recovery(self, time: float, pid: int | None = 0, **data: Any) -> None:
        pass

    def token_pass(
        self, time: float, src: int = 0, dst: int | None = None, **data: Any
    ) -> None:
        pass

    def msg_send(
        self, time: float, src: int, dst: int, tag: int = 0, **data: Any
    ) -> None:
        pass

    def msg_recv(
        self, time: float, src: int, dst: int, tag: int = 0, **data: Any
    ) -> None:
        pass

    def quarantine(
        self,
        time: float,
        pid: int | None,
        reason: str,
        peer: int | None = None,
        **data: Any,
    ) -> None:
        pass

    # -- counters / timers ---------------------------------------------
    def incr(self, name: str, amount: int | float = 1) -> None:
        pass

    def timer_start(self, name: str, time: float) -> None:
        pass

    def timer_stop(self, name: str, time: float) -> float:
        return 0.0

    def timer_cancel(self, name: str) -> bool:
        return False

    # -- listeners ------------------------------------------------------
    def subscribe(self, listener: Any) -> None:
        pass

    def unsubscribe(self, listener: Any) -> None:
        pass

    # -- views ---------------------------------------------------------
    @property
    def events(self) -> list[ObsEvent]:
        return []

    @property
    def counters(self) -> dict[str, int | float]:
        return {}

    @property
    def timers(self) -> dict[str, tuple[float, int]]:
        return {}

    @property
    def open_timers(self) -> dict[str, float]:
        return {}


#: The shared disabled tracer (engines default to this instance).
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: "Tracer | NullTracer | None") -> "Tracer | NullTracer":
    """Normalize an optional ``tracer=`` argument: None -> NULL_TRACER."""
    return NULL_TRACER if tracer is None else tracer


class Tracer(NullTracer):
    """The recording tracer; ``capacity`` is what it keeps.

    ``None``: every event, in emission order.  ``N >= 0``: every
    protocol event (O(rounds)) in :attr:`protocol_events`, plus the last
    N events of any kind in a ring, drops accounted -- so the replay
    digest, the Lamport merge and the monitors' trace prefixes survive
    ring overflow.  ``0`` is "protocol events only": a run nobody asked
    to write message chatter for (a chaos run, a net run without
    ``trace_dir``).
    """

    enabled = True

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("tracer capacity must be None or >= 0")
        self.capacity = capacity
        self._events: list[ObsEvent] | deque[ObsEvent] = (
            [] if capacity is None else deque(maxlen=capacity)
        )
        #: Every protocol event, kept past the ring (``capacity`` not None).
        self.protocol_events: list[ObsEvent] = []
        self.appended = 0  # events ever emitted
        self._counters: dict[str, int | float] = {}
        #: name -> (accumulated elapsed, stop count)
        self._timers: dict[str, tuple[float, int]] = {}
        self._timer_open: dict[str, float] = {}
        #: live subscribers, each called with every emitted ObsEvent
        self._listeners: list[Any] = []

    # -- events --------------------------------------------------------
    def emit(self, kind: str, time: float, pid: int | None = None, **data: Any) -> None:
        """Record one event (``kind`` must be a known event kind); the
        subscribers are called after it is stored."""
        event = ObsEvent(kind, time, pid, data)
        self.appended += 1
        self._events.append(event)
        if self.capacity is not None and kind in PROTOCOL_KINDS:
            self.protocol_events.append(event)
        if self._listeners:
            for listener in self._listeners:
                listener(event)

    def phase_start(
        self, time: float, phase: int, pid: int | None = 0, **data: Any
    ) -> None:
        self.emit(PHASE_START, time, pid, phase=phase, **data)

    def phase_end(
        self,
        time: float,
        phase: int,
        success: bool,
        pid: int | None = 0,
        **data: Any,
    ) -> None:
        self.emit(PHASE_END, time, pid, phase=phase, success=bool(success), **data)

    def fault(
        self, time: float, pid: int | None, detectable: bool = True, **data: Any
    ) -> None:
        self.emit(FAULT, time, pid, detectable=bool(detectable), **data)

    def detect(self, time: float, pid: int | None = 0, **data: Any) -> None:
        self.emit(DETECT, time, pid, **data)

    def recovery(self, time: float, pid: int | None = 0, **data: Any) -> None:
        self.emit(RECOVERY, time, pid, **data)

    def token_pass(
        self, time: float, src: int = 0, dst: int | None = None, **data: Any
    ) -> None:
        if dst is not None:
            data["dst"] = dst
        self.emit(TOKEN_PASS, time, src, **data)

    def msg_send(
        self, time: float, src: int, dst: int, tag: int = 0, **data: Any
    ) -> None:
        self.emit(MSG_SEND, time, src, dst=dst, tag=tag, **data)

    def msg_recv(
        self, time: float, src: int, dst: int, tag: int = 0, **data: Any
    ) -> None:
        self.emit(MSG_RECV, time, dst, src=src, tag=tag, **data)

    def quarantine(
        self,
        time: float,
        pid: int | None,
        reason: str,
        peer: int | None = None,
        **data: Any,
    ) -> None:
        """A frame was rejected by the defensive layer at ``pid``."""
        if peer is not None:
            data["peer"] = peer
        self.emit(QUARANTINE, time, pid, reason=reason, **data)

    # -- counters ------------------------------------------------------
    def incr(self, name: str, amount: int | float = 1) -> None:
        """Add ``amount`` to the monotonic counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    # -- timers --------------------------------------------------------
    def timer_start(self, name: str, time: float) -> None:
        if name in self._timer_open:
            raise ObsError(f"timer {name!r} already running")
        self._timer_open[name] = time

    def timer_stop(self, name: str, time: float) -> float:
        start = self._timer_open.pop(name, None)
        if start is None:
            raise ObsError(f"timer {name!r} was never started")
        if time < start:
            raise ObsError(
                f"timer {name!r} stopped at {time} before its start {start}"
            )
        elapsed = time - start
        total, count = self._timers.get(name, (0.0, 0))
        self._timers[name] = (total + elapsed, count + 1)
        return elapsed

    def timer_cancel(self, name: str) -> bool:
        """Discard a running timer without recording it (e.g. a wave
        superseded by recovery).  Returns whether it was open."""
        return self._timer_open.pop(name, None) is not None

    # -- listeners ------------------------------------------------------
    def subscribe(self, listener: Any) -> None:
        """Call ``listener(event)`` for every event emitted from now on
        (the live wiring for :class:`repro.obs.tracefold.MetricsObserver`)."""
        self._listeners.append(listener)

    def unsubscribe(self, listener: Any) -> None:
        self._listeners.remove(listener)

    # -- views ---------------------------------------------------------
    @property
    def events(self) -> list[ObsEvent]:
        """Every event, or a ring's surviving window (oldest first)."""
        events = self._events
        return events if isinstance(events, list) else list(events)

    @property
    def dropped(self) -> int:
        """Events emitted but no longer kept (``appended - retained``)."""
        return self.appended - len(self._events)

    def ring_stats(self) -> dict[str, Any]:
        """``appended``/``dropped``/``retained``/``capacity``: the one
        shape of a run's ``metrics_summary["rings"]`` entries."""
        return {
            "appended": self.appended,
            "dropped": self.dropped,
            "retained": len(self._events),
            "capacity": self.capacity,
        }

    @property
    def counters(self) -> dict[str, int | float]:
        return self._counters

    @property
    def timers(self) -> dict[str, tuple[float, int]]:
        """``{name: (accumulated elapsed, stop count)}``."""
        return self._timers

    @property
    def open_timers(self) -> dict[str, float]:
        """Timers started but not yet stopped: ``{name: start time}``.

        Anything still here at end of run was silently unaccounted
        before; :meth:`TraceSummary.render` now lists these names."""
        return dict(self._timer_open)

    # -- export --------------------------------------------------------
    def dump_jsonl(self, path: Any) -> int:
        """Write the events to ``path`` in JSONL; returns the line count."""
        from repro.obs.jsonl import write_jsonl

        return write_jsonl(self._events, path)

    @classmethod
    def from_events(cls, events: Iterable[ObsEvent]) -> "Tracer":
        """A tracer pre-loaded with ``events`` (e.g. read back from JSONL)."""
        tracer = cls()
        tracer._events.extend(events)
        tracer.appended = len(tracer._events)
        return tracer
