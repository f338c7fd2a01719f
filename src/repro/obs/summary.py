"""Reduce a trace to the paper's quantities.

:func:`summarize` turns any event sequence -- whichever engine produced
it -- into the numbers the paper reports: instances per successful phase
(Figures 3/5), recovery latency after perturbation (Figure 7), token
circulations and messages per barrier (the Section 6 overhead terms).
Because every engine emits the same schema, the summary is also the
cross-implementation conformance currency: two engines agree on a
quantity iff their summaries do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf, nan
from typing import Any, Iterable

from repro.obs.events import (
    DETECT,
    FAULT,
    MSG_RECV,
    MSG_SEND,
    PHASE_END,
    PHASE_START,
    RECOVERY,
    TOKEN_PASS,
    ObsEvent,
)


@dataclass
class TraceSummary:
    """The paper's quantities, reduced from one trace."""

    events: int = 0
    total_time: float = 0.0
    #: Completed instances (phase attempts with a recorded end).
    instances: int = 0
    successful_phases: int = 0
    faults: int = 0
    detectable_faults: int = 0
    detections: int = 0
    recoveries: int = 0
    token_passes: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    recovery_latencies: list[float] = field(default_factory=list)
    #: Names of timers still running when the trace was summarized
    #: (populated when the caller passes ``open_timers=`` -- typically
    #: ``summarize(tracer.events, open_timers=tracer.open_timers)``).
    open_timers: tuple[str, ...] = ()

    @property
    def failed_instances(self) -> int:
        return self.instances - self.successful_phases

    @property
    def instances_per_phase(self) -> float:
        """Instances per successful phase (1.0 fault-free); ``inf`` when
        no phase ever succeeded -- consistent with
        :attr:`repro.protosim.metrics.PhaseMetrics.instances_per_phase`."""
        if self.successful_phases == 0:
            return inf
        return self.instances / self.successful_phases

    @property
    def messages_per_barrier(self) -> float:
        if self.successful_phases == 0:
            return inf
        return self.messages_sent / self.successful_phases

    @property
    def mean_recovery_latency(self) -> float:
        if not self.recovery_latencies:
            return nan
        return sum(self.recovery_latencies) / len(self.recovery_latencies)

    def render(self) -> str:
        """Human-readable report (the ``trace-report`` CLI output)."""
        lines = [
            f"Trace summary: {self.events} events over {self.total_time:g} "
            "virtual time units",
            f"  instances (attempts)  : {self.instances}",
            f"  successful phases     : {self.successful_phases}",
            f"  failed instances      : {self.failed_instances}",
            f"  instances per phase   : {self.instances_per_phase:.6g}",
            f"  faults (detectable)   : {self.faults} ({self.detectable_faults})",
            f"  detections            : {self.detections}",
            f"  recoveries            : {self.recoveries}",
            f"  mean recovery latency : {self.mean_recovery_latency:.6g}",
            f"  token passes          : {self.token_passes}",
            f"  messages sent / recv  : {self.messages_sent} / "
            f"{self.messages_received}",
            f"  messages per barrier  : {self.messages_per_barrier:.6g}",
        ]
        if self.open_timers:
            lines.append(
                "  open timers (leaked)  : " + ", ".join(self.open_timers)
            )
        return "\n".join(lines)


class PendingFaults:
    """Per-pid pending-fault bookkeeping for recovery attribution.

    The earlier single-scalar ``pending_fault`` merged *overlapping*
    faults at different pids into one episode, so a recovery targeted at
    one pid consumed (and mis-timed) the other pid's fault.  This keeps
    one FIFO of unrecovered fault times per pid, plus a global arrival
    order for the system-wide fallback:

    - a recovery whose ``pid`` has a pending fault closes the earliest
      fault *at that pid* only;
    - otherwise (pid-less recoveries, or root-observed recoveries with no
      fault of their own) it is system-wide: its latency is measured from
      the globally earliest pending fault and the whole episode clears,
      matching the paper's return-to-start-state semantics.
    """

    def __init__(self) -> None:
        self._seq = 0
        #: pid -> [(arrival seq, fault time, tag)], FIFO per pid
        self._by_pid: dict[int | None, list[tuple[int, float, Any]]] = {}

    def add(self, pid: int | None, time: float, tag: Any = None) -> None:
        """Record a fault; ``tag`` is opaque and comes back from
        :meth:`resolve` with the recovery that closes it."""
        self._by_pid.setdefault(pid, []).append((self._seq, time, tag))
        self._seq += 1

    def __bool__(self) -> bool:
        return any(self._by_pid.values())

    def resolve(self, pid: int | None, time: float) -> tuple[float, Any] | None:
        """``(latency, tag)`` of the fault a recovery at ``pid``/``time``
        closes (None if nothing was pending); applies the clearing rules
        above."""
        queue = self._by_pid.get(pid)
        if pid is not None and queue:
            _, fault_time, tag = queue.pop(0)
            if not queue:
                del self._by_pid[pid]
            return time - fault_time, tag
        earliest = min(
            (q[0] for q in self._by_pid.values() if q), default=None
        )
        self._by_pid.clear()
        if earliest is None:
            return None
        return time - earliest[1], earliest[2]

    def clear(self) -> None:
        self._by_pid.clear()


def summarize(
    events: Iterable[ObsEvent], open_timers: Iterable[str] = ()
) -> TraceSummary:
    """Reduce ``events`` (any engine, any order-preserving source).

    ``open_timers`` (typically ``tracer.open_timers``) names timers that
    were still running; they are carried into the summary so the report
    surfaces leaked measurements instead of silently dropping them.
    """
    summary = TraceSummary(open_timers=tuple(sorted(open_timers)))
    pending = PendingFaults()
    for event in events:
        summary.events += 1
        if event.time > summary.total_time:
            summary.total_time = event.time
        kind = event.kind
        if kind == PHASE_END:
            summary.instances += 1
            if event.data.get("success"):
                summary.successful_phases += 1
        elif kind == PHASE_START:
            pass  # instances are counted at their end (open ones pending)
        elif kind == FAULT:
            summary.faults += 1
            if event.data.get("detectable", True):
                summary.detectable_faults += 1
            pending.add(event.pid, event.time)
        elif kind == DETECT:
            summary.detections += 1
        elif kind == RECOVERY:
            summary.recoveries += 1
            latency = event.data.get("latency")
            if latency is not None:
                # An explicit latency is authoritative; the recovery is
                # the engine's return-to-start-state, closing the episode.
                pending.clear()
            else:
                resolved = pending.resolve(event.pid, event.time)
                latency = resolved[0] if resolved is not None else None
            if latency is not None:
                summary.recovery_latencies.append(float(latency))
        elif kind == TOKEN_PASS:
            summary.token_passes += 1
        elif kind == MSG_SEND:
            summary.messages_sent += 1
        elif kind == MSG_RECV:
            summary.messages_received += 1
    return summary
