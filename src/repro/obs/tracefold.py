"""Folding trace events into a :class:`~repro.obs.metrics.MetricsRegistry`.

Two population paths share one vocabulary:

- **live**: ``observer = MetricsObserver(); observer.attach(tracer)``
  folds every event into the registry as the engine emits it;
- **offline**: ``metrics_from_trace(read_jsonl(path))`` replays an
  exported trace into a fresh registry.
"""

from __future__ import annotations

import math
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
from repro.obs.metrics import MetricsRegistry
from repro.obs.summary import PendingFaults


#: Default bucket layouts, in virtual time units (phase work is 1.0).
DEFAULT_BUCKETS: dict[str, tuple[float, ...]] = {
    "recovery_latency": (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5, 5.0, 10.0),
    "instance_duration": (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0),
    "token_circulation_time": (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0),
    "message_latency": (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0),
}


class MetricsObserver:
    """Fold trace events into a :class:`MetricsRegistry`.

    Works live (``observer.attach(tracer)`` subscribes to every emitted
    event) or offline (``observer.observe_all(events)`` over a JSONL
    read-back); both paths produce identical registries for the same
    event sequence.

    ``per_pid`` adds a ``pid`` label to fault counts and recovery
    latencies; ``per_phase`` adds a ``phase`` label to instance
    durations.  Both default off to keep label cardinality bounded on
    big sweeps.

    Recovery latencies are attributed with the same per-pid
    pending-fault rules as :func:`repro.obs.summary.summarize`, and the
    latency histogram is classed ``detectable`` / ``undetectable`` /
    ``unattributed`` by the fault that opened the episode -- the
    Figure 7 distinction.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        per_pid: bool = False,
        per_phase: bool = False,
        prefix: str = "barrier",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.per_pid = per_pid
        self.per_phase = per_phase
        r = self.registry
        p = prefix
        fault_labels = ("klass",) + (("pid",) if per_pid else ())
        phase_labels = ("result",) + (("phase",) if per_phase else ())
        self.events_total = r.counter(
            f"{p}_events_total", "trace events seen", ("kind",)
        )
        self.phases_total = r.counter(
            f"{p}_phase_instances_total",
            "barrier instances (attempts) by outcome",
            phase_labels,
        )
        self.faults_total = r.counter(
            f"{p}_faults_total", "injected faults by class", fault_labels
        )
        self.detections_total = r.counter(
            f"{p}_detections_total", "protocol fault detections"
        )
        self.recoveries_total = r.counter(
            f"{p}_recoveries_total", "returns to a start state after faults"
        )
        self.token_passes_total = r.counter(
            f"{p}_token_passes_total", "token/wave releases"
        )
        self.messages_total = r.counter(
            f"{p}_messages_total", "messages by direction", ("direction",)
        )
        self.recovery_latency = r.histogram(
            f"{p}_recovery_latency",
            "fault-to-start-state latency (virtual time)",
            DEFAULT_BUCKETS["recovery_latency"],
            ("klass",) + (("pid",) if per_pid else ()),
        )
        self.instance_duration = r.histogram(
            f"{p}_instance_duration",
            "barrier instance duration (virtual time)",
            DEFAULT_BUCKETS["instance_duration"],
            phase_labels,
        )
        self.token_circulation_time = r.histogram(
            f"{p}_token_circulation_time",
            "gap between consecutive token releases at one source",
            DEFAULT_BUCKETS["token_circulation_time"],
        )
        self.message_latency = r.histogram(
            f"{p}_message_latency",
            "send-to-delivery latency (virtual time)",
            DEFAULT_BUCKETS["message_latency"],
        )
        self.instances_per_phase = r.gauge(
            f"{p}_instances_per_phase",
            "instances per successful phase (finalized)",
        )
        self.messages_per_barrier = r.gauge(
            f"{p}_messages_per_barrier",
            "messages sent per successful phase (finalized)",
        )

        # Attribution state: each pending fault is tagged with its class,
        # which labels the latency of the recovery that closes it.
        self._pending = PendingFaults()
        self._open_phase_start: dict[int, float] = {}
        self._last_token_release: dict[int, float] = {}
        self._instances = 0
        self._successes = 0
        self._messages_sent = 0

    # -- wiring ---------------------------------------------------------
    def attach(self, tracer: Any) -> "MetricsObserver":
        """Subscribe to a live :class:`~repro.obs.tracer.Tracer`."""
        tracer.subscribe(self)
        return self

    def observe_all(self, events: Iterable[ObsEvent]) -> "MetricsObserver":
        for event in events:
            self(event)
        return self

    # -- event folding ---------------------------------------------------
    def __call__(self, event: ObsEvent) -> None:
        kind = event.kind
        data = event.data
        self.events_total.inc(kind=kind)
        if kind == PHASE_START:
            phase = data.get("phase")
            if phase is not None:
                self._open_phase_start[int(phase)] = event.time
        elif kind == PHASE_END:
            self._instances += 1
            success = bool(data.get("success"))
            if success:
                self._successes += 1
            labels: dict[str, Any] = {
                "result": "success" if success else "failed"
            }
            if self.per_phase:
                labels["phase"] = data.get("phase", "?")
            self.phases_total.inc(**labels)
            duration = data.get("duration")
            if duration is None:
                phase = data.get("phase")
                start = self._open_phase_start.pop(int(phase), None) if (
                    phase is not None
                ) else None
                if start is not None:
                    duration = event.time - start
            elif data.get("phase") is not None:
                self._open_phase_start.pop(int(data["phase"]), None)
            if duration is not None and math.isfinite(float(duration)):
                self.instance_duration.observe(float(duration), **labels)
        elif kind == FAULT:
            klass = "detectable" if data.get("detectable", True) else "undetectable"
            labels = {"klass": klass}
            if self.per_pid:
                labels["pid"] = event.pid if event.pid is not None else "sys"
            self.faults_total.inc(**labels)
            self._pending.add(event.pid, event.time, klass)
        elif kind == DETECT:
            self.detections_total.inc()
        elif kind == RECOVERY:
            self.recoveries_total.inc()
            latency, klass = self._resolve_recovery(event)
            if latency is not None and math.isfinite(latency):
                labels = {"klass": klass}
                if self.per_pid:
                    labels["pid"] = event.pid if event.pid is not None else "sys"
                self.recovery_latency.observe(latency, **labels)
        elif kind == TOKEN_PASS:
            self.token_passes_total.inc()
            src = event.pid if event.pid is not None else 0
            last = self._last_token_release.get(src)
            if last is not None and event.time > last:
                self.token_circulation_time.observe(event.time - last)
            self._last_token_release[src] = event.time
        elif kind == MSG_SEND:
            self._messages_sent += 1
            self.messages_total.inc(direction="sent")
        elif kind == MSG_RECV:
            self.messages_total.inc(direction="recv")
            latency = data.get("latency")
            if latency is not None and math.isfinite(float(latency)):
                self.message_latency.observe(float(latency))

    def _resolve_recovery(self, event: ObsEvent) -> tuple[float | None, str]:
        resolved = self._pending.resolve(event.pid, event.time)
        latency, klass = resolved if resolved is not None else (None, "unattributed")
        explicit = event.data.get("latency")
        if explicit is not None:
            # An explicit latency is authoritative and closes the whole
            # episode; the resolved fault still names the class.
            self._pending.clear()
            latency = float(explicit)
        return latency, klass

    # -- finalization ----------------------------------------------------
    def finalize(self) -> MetricsRegistry:
        """Set the ratio gauges from the accumulated counts and return
        the registry (idempotent; call after the run / replay)."""
        if self._successes:
            self.instances_per_phase.set(self._instances / self._successes)
            self.messages_per_barrier.set(self._messages_sent / self._successes)
        elif self._instances or self._messages_sent:
            self.instances_per_phase.set(math.inf)
            self.messages_per_barrier.set(math.inf)
        return self.registry


def metrics_from_trace(
    events: Iterable[ObsEvent],
    per_pid: bool = False,
    per_phase: bool = False,
) -> MetricsRegistry:
    """Replay an event sequence (e.g. a JSONL read-back) into a fresh
    registry -- the offline population path."""
    observer = MetricsObserver(per_pid=per_pid, per_phase=per_phase)
    observer.observe_all(events)
    return observer.finalize()
