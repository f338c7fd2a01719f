"""The live telemetry plane: streaming merge, in-loop monitors, spans.

Post-hoc checking (PR-5) buffers every node's full trace, merges once at
the end, and only then runs the PR-4 guarantee monitors.  This module
does the same work *while the nodes run*, with bounded per-node memory:

* :class:`StreamingMerger` -- a k-way merge with per-stream watermarks.
  Each node's Lamport-stamped events arrive strictly time-increasing
  (every emission ticks the clock), so an event can be released as soon
  as every stream's watermark has passed its time; released events come
  out in exactly :func:`repro.net.trace.merge_traces` order
  (``(time, pid, per-stream index, stream pid)``), proven equal by test.
* :class:`LivePlane` -- wires per-node flight recorders (each a
  :class:`~repro.obs.tracer.Tracer` ring of ``ring_capacity`` events)
  into one merger and fans the merged stream out to the PR-4
  :class:`MonitorSet` (fed directly, no tracer), the
  :class:`~repro.obs.spans.SpanFolder`, and a
  :class:`~repro.obs.tracefold.MetricsObserver` -- so violations
  surface mid-run with the span that was open when they fired, and
  ``/metrics`` can be scraped while barriers are still completing.

The post-hoc path (:func:`repro.net.trace.check_merged`) remains the
oracle: :func:`run_monitors_streaming` replays recorded streams through
this machinery so tests can assert verdict-identical behaviour.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.events import (
    DETECT,
    FAULT,
    PHASE_END,
    PHASE_START,
    PROTOCOL_KINDS,
    RECOVERY,
    ObsEvent,
)
from repro.obs.tracefold import MetricsObserver
from repro.obs.spans import SpanFolder
from repro.obs.tracer import Tracer


def monitor_filter(event: ObsEvent) -> bool:
    """The :func:`repro.net.trace.monitor_stream` predicate, one event
    at a time: node 0's phase narration plus everyone's
    fault/detect/recovery."""
    if event.kind in (PHASE_START, PHASE_END):
        return event.pid == 0
    return event.kind in (FAULT, DETECT, RECOVERY)


class StreamingMerger:
    """Watermarked k-way merge of per-stream Lamport-ordered events.

    ``push(stream_pid, event)`` buffers the event and advances that
    stream's watermark; anything strictly below the minimum watermark is
    released to ``sink`` in merged order.  Because each stream's times
    are strictly increasing, no later push can sort before a released
    event.  ``mark(stream_pid, time)`` advances a watermark without an
    event (a finished or crashed stream would otherwise gate everyone);
    ``close()`` flushes the remainder.
    """

    def __init__(
        self, pids: Iterable[int], sink: Callable[[ObsEvent], None]
    ) -> None:
        pid_list = list(pids)
        if not pid_list:
            raise ValueError("streaming merger needs at least one stream")
        self.sink = sink
        self._watermarks: dict[int, float] = {p: float("-inf") for p in pid_list}
        self._idx: dict[int, int] = {p: 0 for p in pid_list}
        # Heap entries are (time, event-pid key, per-stream idx, stream
        # pid, event) -- the first four fields are merge_traces' total
        # order (stream pid last: its stable sort visits streams in
        # ascending pid), and (stream pid, idx) is unique so comparison
        # never reaches the event.
        self._heap: list[tuple[float, int, int, int, ObsEvent]] = []
        self.released = 0
        self.closed = False

    @property
    def watermark(self) -> float:
        return min(self._watermarks.values())

    @property
    def pending(self) -> int:
        return len(self._heap)

    def push(self, stream_pid: int, event: ObsEvent) -> None:
        if self.closed:
            raise RuntimeError("merger is closed")
        idx = self._idx[stream_pid]
        self._idx[stream_pid] = idx + 1
        pid_key = -1 if event.pid is None else event.pid
        heapq.heappush(self._heap, (event.time, pid_key, idx, stream_pid, event))
        if event.time > self._watermarks[stream_pid]:
            self._watermarks[stream_pid] = event.time
        self._drain()

    def mark(self, stream_pid: int, time: float) -> None:
        """Promise that ``stream_pid`` will never emit at or below
        ``time`` again (stream finished: use ``float('inf')``)."""
        if time > self._watermarks[stream_pid]:
            self._watermarks[stream_pid] = time
            self._drain()

    def _drain(self) -> None:
        wm = self.watermark
        while self._heap and self._heap[0][0] < wm:
            self._release()

    def _release(self) -> None:
        event = heapq.heappop(self._heap)[4]
        self.released += 1
        self.sink(event)

    def close(self) -> None:
        """End of all streams: flush everything still buffered."""
        self.closed = True
        while self._heap:
            self._release()


class LivePlane:
    """Flight recorders + streaming merge + in-loop monitors + spans.

    One per run.  ``tracer_for(pid)`` hands each node its bounded
    recorder; every emitted event flows (via the recorder's listener
    fan-out, so ring overflow never loses it) into the merger, and the
    merged order feeds:

    * the guarantee monitors (filtered by :func:`monitor_filter`,
      exactly the post-hoc ``monitor_stream``), collecting
      :attr:`live_violations` as ``(violation, span context)`` pairs the
      moment they fire;
    * the span folder (phase narration from node 0, everything else
      from everyone);
    * a metrics observer over the full merged stream (optional);
    * :attr:`merged`, the merged protocol events (O(rounds), what
      :class:`~repro.net.runtime.NetResult` reports), or every merged
      event with ``keep_messages`` (a run that writes ``merged.jsonl``).

    ``finish(reached)`` closes the merger, lets monitors and folder
    report end-of-stream obligations, and finalizes metrics.  Each
    recorder keeps its protocol events past the ring, so
    :func:`repro.net.trace.trace_digest` over them equals the digest of
    the *full* streams even when the rings have overflowed.
    """

    def __init__(
        self,
        nodes: int,
        plan: Any = None,
        nphases: int | None = None,
        ring_capacity: int = 4096,
        recent_spans: int = 256,
        metrics: bool = True,
        keep_messages: bool = False,
        span_sink: Callable[..., None] | None = None,
        violation_sink: Callable[..., None] | None = None,
    ) -> None:
        from repro.chaos.monitors import MonitorSet, monitors_for
        from repro.chaos.plan import FaultPlan

        check_plan = plan if plan is not None else FaultPlan(nprocs=nodes)
        self.nodes = nodes
        self.recorders: dict[int, Tracer] = {
            pid: Tracer(ring_capacity) for pid in range(nodes)
        }
        self.merger = StreamingMerger(range(nodes), self._on_merged)
        self.monitor_set = MonitorSet(
            None, monitors_for(check_plan, nphases, strict=nphases is None)
        )
        self.folder = SpanFolder(recent=recent_spans, sink=span_sink)
        self.observer: MetricsObserver | None = (
            MetricsObserver() if metrics else None
        )
        self.violation_sink = violation_sink
        #: The merged protocol events -- every merged event with
        #: ``keep_messages`` (a ``trace_dir`` run writes them all).
        self.merged: list[ObsEvent] = []
        self.keep_messages = keep_messages
        #: ``(violation, span-context dict | None)`` in firing order.
        self.live_violations: list[tuple[Any, dict[str, Any] | None]] = []
        self._per_monitor_seen = [0] * len(self.monitor_set.monitors)
        self._last_monitor_time = 0.0
        self._last_time = 0.0
        self.finished = False
        for pid, recorder in self.recorders.items():
            recorder.subscribe(self._listener(pid))

    # -- node-facing API -----------------------------------------------
    def tracer_for(self, pid: int) -> Tracer:
        return self.recorders[pid]

    def _listener(self, stream_pid: int) -> Callable[[ObsEvent], None]:
        def listen(event: ObsEvent) -> None:
            self.merger.push(stream_pid, event)

        return listen

    def mark_done(self, pid: int) -> None:
        """A node's stream ended; stop letting it gate the watermark."""
        self.merger.mark(pid, float("inf"))

    # -- merged-stream fan-out -----------------------------------------
    def _on_merged(self, event: ObsEvent) -> None:
        self._last_time = event.time
        if self.keep_messages or event.kind in PROTOCOL_KINDS:
            self.merged.append(event)
        if self.observer is not None:
            self.observer(event)
        # Span folding wants the narrated phases plus everyone's
        # activity; monitors want exactly the monitor stream.
        if event.kind in (PHASE_START, PHASE_END):
            if event.pid == 0:
                self.folder.feed(event)
                self._feed_monitors(event)
        else:
            self.folder.feed(event)
            if event.kind in (FAULT, DETECT, RECOVERY):
                self._feed_monitors(event)

    def _feed_monitors(self, event: ObsEvent) -> None:
        self._last_monitor_time = event.time
        self.monitor_set.feed(event)
        for i, monitor in enumerate(self.monitor_set.monitors):
            fresh = len(monitor.violations) - self._per_monitor_seen[i]
            if fresh <= 0:
                continue
            self._per_monitor_seen[i] = len(monitor.violations)
            context = self.folder.context()
            for violation in monitor.violations[-fresh:]:
                self.live_violations.append((violation, context))
                if self.violation_sink is not None:
                    self.violation_sink(violation, context)

    # -- end of run ----------------------------------------------------
    def finish(self, reached: bool) -> None:
        """Close the merger and settle end-of-stream obligations.
        Idempotent; mirrors ``check_merged``'s finalization exactly."""
        if self.finished:
            return
        self.finished = True
        self.merger.close()
        self.monitor_set.finish(reached, self._last_monitor_time)
        for i, monitor in enumerate(self.monitor_set.monitors):
            fresh = len(monitor.violations) - self._per_monitor_seen[i]
            if fresh > 0:
                self._per_monitor_seen[i] = len(monitor.violations)
                for violation in monitor.violations[-fresh:]:
                    self.live_violations.append((violation, None))
                    if self.violation_sink is not None:
                        self.violation_sink(violation, None)
        self.folder.finish(self._last_time)
        if self.observer is not None:
            self.observer.finalize()

    # -- results -------------------------------------------------------
    @property
    def violations(self) -> list[Any]:
        return self.monitor_set.violations

    @property
    def spans(self) -> list[float]:
        return self.monitor_set.spans

    def ring_stats(self) -> dict[int, dict[str, Any]]:
        return {pid: rec.ring_stats() for pid, rec in sorted(self.recorders.items())}

    def health(self) -> dict[str, Any]:
        wm = self.merger.watermark
        return {
            "status": "finished" if self.finished else "running",
            "nodes": self.nodes,
            "watermark": None if wm == float("-inf") else wm,
            "merged_released": self.merger.released,
            "merge_pending": self.merger.pending,
            "violations": sum(
                len(m.violations) for m in self.monitor_set.monitors
            ),
            "spans_finished": dict(self.folder.finished),
            "rings": {str(p): s for p, s in self.ring_stats().items()},
        }

    def metrics_text(self) -> str:
        """Prometheus 0.0.4 exposition of the run so far: the observer's
        barrier metrics plus the plane's own gauges."""
        from repro.obs.metrics import MetricsRegistry

        registry = (
            self.observer.registry if self.observer is not None
            else MetricsRegistry()
        )
        appended = registry.gauge(
            "plane_recorder_appended", "events ever emitted per node", ("pid",)
        )
        dropped = registry.gauge(
            "plane_recorder_dropped", "ring-evicted events per node", ("pid",)
        )
        for pid, stats in self.ring_stats().items():
            appended.set(stats["appended"], pid=pid)
            dropped.set(stats["dropped"], pid=pid)
        released = registry.gauge(
            "plane_merged_released", "events released by the streaming merger"
        )
        released.set(self.merger.released)
        violations = registry.gauge(
            "plane_violations", "guarantee violations observed so far"
        )
        violations.set(
            sum(len(m.violations) for m in self.monitor_set.monitors)
        )
        spans_done = registry.gauge(
            "plane_spans_finished", "finished spans by kind", ("kind",)
        )
        for kind, count in self.folder.finished.items():
            spans_done.set(count, kind=kind)
        return registry.render_prometheus()


# ---------------------------------------------------------------------------
# Offline replays of the streaming path (the equivalence oracle's twin)
# ---------------------------------------------------------------------------


def run_monitors_streaming(
    streams: Mapping[int, Sequence[ObsEvent]],
    plan: Any,
    nphases: int | None,
    reached: bool,
) -> tuple[list[Any], list[float]]:
    """Feed recorded per-node streams through the *streaming* machinery
    (watermarked merge, directly-fed monitors) and return
    ``(violations, spans)`` -- the quantities
    :func:`repro.net.trace.check_merged` computes post-hoc.  Streams are
    pushed round-robin to exercise out-of-order buffering.
    """
    from repro.chaos.monitors import MonitorSet, monitors_for

    monitor_set = MonitorSet(
        None, monitors_for(plan, nphases, strict=nphases is None)
    )
    last_time = 0.0

    def sink(event: ObsEvent) -> None:
        nonlocal last_time
        if monitor_filter(event):
            last_time = event.time
            monitor_set.feed(event)

    merger = StreamingMerger(sorted(streams), sink)
    depth = max((len(s) for s in streams.values()), default=0)
    for i in range(depth):
        for pid in sorted(streams):
            stream = streams[pid]
            if i < len(stream):
                merger.push(pid, stream[i])
    merger.close()
    monitor_set.finish(reached, last_time)
    return monitor_set.violations, monitor_set.spans
