"""Hierarchical spans folded incrementally from the flat event stream.

The tracer schema is deliberately flat -- eight event kinds, one record
each -- which is perfect for digests and conformance but hostile to a
human watching a live run.  :class:`SpanFolder` rebuilds the hierarchy
*online*, event by event, with bounded state:

* a **barrier span** per narrated round (``phase_start`` ..
  ``phase_end``), status ``ok`` / ``failed``;
* a **participation span** per (round, pid) covering that node's
  message activity inside the round, parented under the barrier span;
* a **fault chain span** per injected fault -- fault -> detect ->
  recovery -> first clean successful phase.  The chains are the ones
  :func:`repro.obs.causal.build_chains` reports, because both read the
  one online fold, :class:`repro.obs.causal.ChainFolder`: a span mirrors
  its chain's fields as they are set.  The span closes at the first
  clean phase end, so its duration is the chain's ``total_latency`` and
  its ``recovery_latency`` attr is the Figure 7 quantity, measured as
  the chain closes rather than post-hoc.

Finished spans go to a bounded ``recent`` ring (the ``/spans/recent``
endpoint body) and to an optional ``sink`` callback (the ``obs tail``
feed); ``keep_all=True`` additionally retains every finished span for
offline analysis.  Only *open* spans are held otherwise, so the folder
is safe to run for arbitrarily long streams.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.obs.causal import ChainFolder, FaultChain
from repro.obs.events import (
    DETECT,
    FAULT,
    MSG_RECV,
    MSG_SEND,
    PHASE_END,
    PHASE_START,
    TOKEN_PASS,
    RECOVERY,
    ObsEvent,
)

BARRIER = "barrier"
PARTICIPATION = "participation"
FAULT_CHAIN = "fault-chain"


@dataclass
class Span:
    """One folded span (times are the stream's virtual/Lamport time)."""

    span_id: int
    kind: str  # BARRIER | PARTICIPATION | FAULT_CHAIN
    name: str
    start: float
    pid: int | None = None
    parent_id: int | None = None
    end: float | None = None
    status: str = "open"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "pid": self.pid,
            "parent_id": self.parent_id,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def render(self) -> str:
        dur = "" if self.duration is None else f" dur={self.duration:g}"
        pid = "" if self.pid is None else f" pid={self.pid}"
        return f"[{self.start:>10g}] {self.kind:<13} {self.name:<14} {self.status}{pid}{dur}"


class SpanFolder:
    """Fold a (merged) event stream into spans, one event at a time."""

    def __init__(
        self,
        recent: int = 256,
        sink: Callable[[Span], None] | None = None,
        keep_all: bool = False,
        participation: bool = True,
    ) -> None:
        self.recent: deque[Span] = deque(maxlen=recent)
        self.sink = sink
        self.completed: list[Span] | None = [] if keep_all else None
        self.participation = participation
        self._next_id = 1
        #: Counters by span kind, finished spans only.
        self.finished: dict[str, int] = {BARRIER: 0, PARTICIPATION: 0, FAULT_CHAIN: 0}
        self.started: dict[str, int] = dict(self.finished)
        # -- open state ------------------------------------------------
        self._open_round: Span | None = None
        #: pid -> (first time, last time, event count) inside the round.
        self._round_activity: dict[int, tuple[float, float, int]] = {}
        self._chains = ChainFolder()
        #: ``id(chain)`` -> its span, for the chains still open.
        self._chain_spans: dict[int, Span] = {}

    # -- plumbing ------------------------------------------------------
    def _open(self, kind: str, name: str, start: float, **kw: Any) -> Span:
        span = Span(span_id=self._next_id, kind=kind, name=name, start=start, **kw)
        self._next_id += 1
        self.started[kind] = self.started.get(kind, 0) + 1
        return span

    def _finish(self, span: Span, end: float, status: str) -> None:
        span.end = end
        span.status = status
        self.finished[span.kind] = self.finished.get(span.kind, 0) + 1
        self.recent.append(span)
        if self.completed is not None:
            self.completed.append(span)
        if self.sink is not None:
            self.sink(span)

    @property
    def open_spans(self) -> list[Span]:
        out: list[Span] = []
        if self._open_round is not None:
            out.append(self._open_round)
        for chain in self._chains.unrecovered + self._chains.recovered:
            out.append(self._chain_spans[id(chain)])
        return out

    def recent_dicts(self) -> list[dict[str, Any]]:
        return [span.to_dict() for span in self.recent]

    def context(self) -> dict[str, Any] | None:
        """The most relevant span right now: the open barrier round if
        any, else the most recently finished span -- what a violation
        surfaced at this moment should be attached to."""
        if self._open_round is not None:
            return self._open_round.to_dict()
        if self.recent:
            return self.recent[-1].to_dict()
        return None

    # -- folding -------------------------------------------------------
    def feed(self, event: ObsEvent) -> None:
        kind = event.kind
        if kind == PHASE_START:
            if self._open_round is not None:
                # An instance started over a still-open one (the masking
                # monitor flags this); close what we had so the feed
                # stays consistent.
                self._close_round(event.time, "interrupted", None)
            phase = event.data.get("phase")
            self._open_round = self._open(
                BARRIER, f"round-{phase}", event.time, pid=event.pid,
                attrs={"phase": phase},
            )
            self._round_activity = {}
        elif kind == PHASE_END:
            success = bool(event.data.get("success"))
            self._close_round(event.time, "ok" if success else "failed", event)
            self._fold_chains(event)
        elif kind in (FAULT, DETECT, RECOVERY):
            self._fold_chains(event)
        elif self.participation and kind in (MSG_SEND, MSG_RECV, TOKEN_PASS):
            if self._open_round is not None and event.pid is not None:
                first, _, count = self._round_activity.get(
                    event.pid, (event.time, event.time, 0)
                )
                self._round_activity[event.pid] = (first, event.time, count + 1)

    def _fold_chains(self, event: ObsEvent) -> None:
        """Feed the chain fold; open, update or finish each chain's span."""
        for chain in self._chains.feed(event):
            span = self._chain_spans.get(id(chain))
            if span is None:  # a fault opened this chain
                self._chain_spans[id(chain)] = self._open(
                    FAULT_CHAIN,
                    f"fault@{event.time:g}",
                    event.time,
                    pid=event.pid,
                    parent_id=self._open_round.span_id if self._open_round else None,
                    attrs=_chain_attrs(chain),
                )
                continue
            span.attrs.update(_chain_attrs(chain))
            if chain.clean_phase_time is not None:
                del self._chain_spans[id(chain)]
                self._finish(span, event.time, "recovered")

    def _close_round(
        self, time: float, status: str, event: ObsEvent | None
    ) -> None:
        round_span = self._open_round
        if round_span is None:
            return
        self._open_round = None
        for pid in sorted(self._round_activity):
            first, last, count = self._round_activity[pid]
            part = self._open(
                PARTICIPATION,
                f"{round_span.name}/p{pid}",
                first,
                pid=pid,
                parent_id=round_span.span_id,
                attrs={"events": count},
            )
            self._finish(part, last, "ok")
        self._round_activity = {}
        if event is not None:
            round_span.attrs["success"] = bool(event.data.get("success"))
        self._finish(round_span, time, status)

    def feed_all(self, events: Iterable[ObsEvent]) -> "SpanFolder":
        for event in events:
            self.feed(event)
        return self

    def finish(self, time: float) -> None:
        """End of stream: close whatever is still open, honestly."""
        if self._open_round is not None:
            self._close_round(time, "unfinished", None)
        for chain in self._chains.unrecovered:
            self._finish(self._chain_spans[id(chain)], time, "unrecovered")
        for chain in self._chains.recovered:
            self._finish(self._chain_spans[id(chain)], time, "recovered-no-clean-phase")
        self._chains = ChainFolder()
        self._chain_spans = {}


def _chain_attrs(chain: FaultChain) -> dict[str, Any]:
    """A fault-chain span's attrs: the fields its chain has so far."""
    attrs: dict[str, Any] = {
        "detectable": chain.detectable,
        "fault_time": chain.fault_time,
    }
    if chain.detect_time is not None:
        attrs["detect_time"] = chain.detect_time
        attrs["detection_latency"] = chain.detection_latency
    if chain.recovery_time is not None:
        attrs["recovery_time"] = chain.recovery_time
        attrs["system_wide_recovery"] = chain.system_wide_recovery
        attrs["recovery_latency"] = chain.recovery_latency
    if chain.clean_phase_time is not None:
        attrs["clean_phase_time"] = chain.clean_phase_time
        attrs["total_latency"] = chain.total_latency
    return attrs
