"""Cross-node trace merging, replay digests, and post-run monitoring.

Every node traces into its own :class:`~repro.obs.tracer.Tracer` with
Lamport-clock timestamps.  After the run the per-node JSONL streams are
merged into one causality-respecting sequence (:func:`merge_traces`)
and fed through the PR-4 guarantee monitors (:func:`check_merged`) --
the distributed runtime is checked by exactly the machinery that checks
the simulated engines.

:func:`trace_digest` is the replay identity: a SHA-256 over the
*deterministic projection* of the per-node streams -- protocol events
(phase/fault/detect/recovery) with their payload fields, in each node's
own emission order, with pids sorted and timestamps excluded.  For the
round-quantized tree protocol this projection is a pure function of
``(plan, config)``, so two runs of the same seed produce the same
digest even though wall-clock interleavings (and hence Lamport values)
differ.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.chaos.monitors import MonitorSet, monitors_for
from repro.chaos.plan import FaultPlan
from repro.obs.events import (
    DETECT,
    FAULT,
    PHASE_END,
    PHASE_START,
    PROTOCOL_KINDS,
    RECOVERY,
    ObsEvent,
)
from repro.obs.recorder import digest_of_rows, projection_row

__all__ = [
    "PROTOCOL_KINDS",
    "merge_traces",
    "trace_digest",
    "monitor_stream",
    "check_merged",
]


def merge_traces(
    streams: Mapping[int, Sequence[ObsEvent]]
) -> list[ObsEvent]:
    """One total order over all nodes' events.

    Sorted by ``(lamport time, pid, per-node index)`` -- Lamport stamps
    make the order causality-respecting, the pid and index break ties
    deterministically for any given set of streams.
    """
    keyed = []
    for pid in sorted(streams):
        for idx, event in enumerate(streams[pid]):
            keyed.append((event.time, -1 if event.pid is None else event.pid, idx, event))
    keyed.sort(key=lambda item: item[:3])
    return [item[3] for item in keyed]


def trace_digest(streams: Mapping[int, Sequence[ObsEvent]]) -> str:
    """SHA-256 hex digest of the deterministic projection."""
    rows_by_pid: dict[int, list[list]] = {}
    for pid in sorted(streams):
        rows_by_pid[pid] = [
            projection_row(event, pid)
            for event in streams[pid]
            if event.kind in PROTOCOL_KINDS
        ]
    return digest_of_rows(rows_by_pid)


def monitor_stream(merged: Iterable[ObsEvent]) -> list[ObsEvent]:
    """What the guarantee monitors should see: node 0's phase narration
    (one narrator, as in every simulated engine) plus everyone's
    fault/detect/recovery events."""
    out = []
    for event in merged:
        if event.kind in (PHASE_START, PHASE_END):
            if event.pid == 0:
                out.append(event)
        elif event.kind in (FAULT, DETECT, RECOVERY):
            out.append(event)
    return out


def check_merged(
    merged: Sequence[ObsEvent],
    plan: FaultPlan,
    nphases: int | None,
    reached: bool,
):
    """Run the chaos guarantee monitors over a merged trace post-run.

    Returns ``(violations, spans)`` -- the stabilization spans are the
    Figure 7 quantity measured over Lamport time.
    """
    # Strict fail-safe checking (success-after-fault) only where Lamport
    # causality is exact: the tree's round-quantized faults.  MB's
    # concurrent completions make lamport comparison unreliable there.
    monitor_set = MonitorSet(
        None, monitors_for(plan, nphases, strict=nphases is None)
    )
    events = monitor_stream(merged)
    for event in events:
        monitor_set.feed(event)
    monitor_set.finish(reached, events[-1].time if events else 0.0)
    return monitor_set.violations, monitor_set.spans
