"""Per-node flight recorders: bounded trace memory with accounting.

A :class:`FlightRecorder` is a drop-in :class:`~repro.obs.tracer.Tracer`
whose event store is a ring buffer: the last ``capacity`` events are
kept, older ones are dropped, and the drops are *accounted* (``appended``
/ ``dropped`` counters) so telemetry loss is observable instead of
silent.  Live consumers -- the streaming monitors, span folder and
metrics observer of :mod:`repro.obs.live` -- subscribe with the normal
:meth:`~repro.obs.tracer.Tracer.subscribe` API and therefore see *every*
event at emission time; only the retrospective view is bounded.  That is
what lets a 1000-node ``repro.net`` run trace forever without telemetry
becoming the memory bound.

Because the ring forgets, the recorder separately accumulates the
*digest projection* of its protocol events (phase/fault/detect/recovery
rows -- a few machine words each, O(rounds) not O(messages)), so the
timestamp-free replay digest of :func:`repro.net.trace.trace_digest` is
byte-identical with the flight recorder enabled.

``snapshot()``/``dump_snapshot()`` emit a self-describing JSONL segment:
a header object carrying the ring accounting followed by the surviving
events, read back with :func:`read_snapshot`.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.events import PROTOCOL_KINDS, ObsEvent
from repro.obs.tracer import Tracer

#: Header marker of a snapshot segment's first line.
SNAPSHOT_KIND = "flight-recorder-snapshot"


def projection_row(event: ObsEvent, stream_pid: int) -> list:
    """One digest-projection row: the timestamp-free, deterministic view
    of a protocol event as seen from the stream of node ``stream_pid``.

    Must stay bit-compatible with what
    :func:`repro.net.trace.trace_digest` hashes from a full trace.
    """
    return [
        event.kind,
        stream_pid,
        event.data.get("phase"),
        event.data.get("success"),
        event.data.get("detectable"),
        event.data.get("peer"),
    ]


def digest_of_rows(rows_by_pid: Mapping[int, Sequence[list]]) -> str:
    """SHA-256 over per-node projection rows, pids in sorted order --
    identical to hashing the full-trace projection."""
    proj = [row for pid in sorted(rows_by_pid) for row in rows_by_pid[pid]]
    body = json.dumps(proj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(body).hexdigest()


class FlightRecorder(Tracer):
    """A tracer whose retained history is a bounded ring.

    ``pid`` names the node this recorder belongs to; when given, the
    digest projection of every protocol event is accumulated in
    :attr:`rows` (survives ring overflow).  ``protocol_log=True``
    additionally retains the *full* protocol events (timestamps and
    payloads included) in :attr:`protocol_events` -- still O(rounds),
    and exactly what a sharded worker ships back so the coordinator can
    Lamport-merge and monitor streams whose message-level history was
    ring-truncated.  Counters and timers behave exactly like the base
    tracer (they are already O(names), not O(events)).
    """

    def __init__(
        self,
        capacity: int = 4096,
        pid: int | None = None,
        protocol_log: bool = False,
    ) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self.pid = pid
        self._ring: deque[ObsEvent] = deque()
        #: Total events ever emitted through this recorder.
        self.appended = 0
        #: Events evicted from the ring (``appended - len(ring)``).
        self.dropped = 0
        #: Digest-projection rows of the protocol events (kept forever).
        self.rows: list[list] = []
        #: Full protocol events (kept forever) when ``protocol_log``.
        self.protocol_log = protocol_log
        self.protocol_events: list[ObsEvent] = []

    # -- recording -----------------------------------------------------
    def _keep(self, event: ObsEvent) -> None:
        """Ring with drop accounting instead of the unbounded list."""
        self.appended += 1
        if len(self._ring) >= self.capacity:
            self._ring.popleft()
            self.dropped += 1
        self._ring.append(event)
        if event.kind in PROTOCOL_KINDS:
            if self.pid is not None:
                self.rows.append(projection_row(event, self.pid))
            if self.protocol_log:
                self.protocol_events.append(event)

    # -- views ---------------------------------------------------------
    @property
    def events(self) -> list[ObsEvent]:
        """The surviving window (oldest first)."""
        return list(self._ring)

    # -- snapshot ------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The self-describing header of a snapshot segment."""
        return {
            "kind": SNAPSHOT_KIND,
            "version": 1,
            "pid": self.pid,
            "capacity": self.capacity,
            "appended": self.appended,
            "dropped": self.dropped,
            "retained": len(self._ring),
            #: Absolute index (in emission order) of the first retained
            #: event -- a reader can tell exactly which prefix is gone.
            "first_index": self.dropped,
        }

    def dump_snapshot(self, path_or_file: Any) -> int:
        """Write header + surviving events as one JSONL segment; returns
        the retained-event count."""
        from repro.obs.jsonl import write_jsonl

        header = json.dumps(self.snapshot(), sort_keys=True, separators=(",", ":"))
        if hasattr(path_or_file, "write"):
            path_or_file.write(header + "\n")
            return write_jsonl(self._ring, path_or_file)
        path = Path(path_or_file)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            return write_jsonl(self._ring, fh)

    def dump_jsonl(self, path: Any) -> int:
        """Events-only JSONL of the surviving window (base-tracer API)."""
        from repro.obs.jsonl import write_jsonl

        return write_jsonl(self._ring, path)


def read_snapshot(path_or_file: Any) -> tuple[dict[str, Any], list[ObsEvent]]:
    """Read back a :meth:`FlightRecorder.dump_snapshot` segment."""
    if hasattr(path_or_file, "read"):
        lines: Iterable[str] = path_or_file.read().splitlines()
    else:
        lines = Path(path_or_file).read_text(encoding="utf-8").splitlines()
    it = iter(lines)
    try:
        header = json.loads(next(it))
    except StopIteration:
        raise ValueError("empty snapshot file") from None
    if header.get("kind") != SNAPSHOT_KIND:
        raise ValueError(
            f"not a flight-recorder snapshot (header kind {header.get('kind')!r})"
        )
    import io

    from repro.obs.jsonl import read_jsonl

    events = read_jsonl(io.StringIO("\n".join(it)))
    return header, events
