"""Flight-recorder files and the replay digest's rows.

A node's flight recorder is a ``Tracer(capacity=N)``: the last N events
in a ring, the drops accounted (``appended`` / ``dropped``), every
protocol event kept apart in ``protocol_events``.  Live consumers -- the
streaming monitors, span folder and metrics observer of
:mod:`repro.obs.live` -- subscribe and see *every* event at emission
time; only the retrospective view is bounded.  That is what lets a
1000-node ``repro.net`` run trace forever without telemetry becoming
the memory bound.

This module holds what is written and hashed from such a tracer:
:func:`dump_snapshot` emits a self-describing JSONL segment (a header
object carrying the ring accounting, then the surviving events), read
back with :func:`read_snapshot`; :func:`projection_row` and
:func:`digest_of_rows` are the timestamp-free replay digest that
:func:`repro.net.trace.trace_digest` computes over protocol events --
which a ring keeps whole, so the digest is byte-identical with the
flight recorder enabled.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.events import ObsEvent
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


def dump_snapshot(tracer: Tracer, pid: int | None, path_or_file: Any) -> int:
    """Write node ``pid``'s ``tracer`` as one snapshot segment -- the
    header line (its ring accounting) then the events it kept; returns
    the kept-event count."""
    from repro.obs.jsonl import write_jsonl

    header = {
        "kind": SNAPSHOT_KIND,
        "version": 1,
        "pid": pid,
        **tracer.ring_stats(),
        #: Absolute index (in emission order) of the first retained
        #: event -- a reader can tell exactly which prefix is gone.
        "first_index": tracer.dropped,
    }
    line = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(line)
        return write_jsonl(tracer.events, path_or_file)
    path = Path(path_or_file)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(line)
        return write_jsonl(tracer.events, fh)


def read_snapshot(path_or_file: Any) -> tuple[dict[str, Any], list[ObsEvent]]:
    """Read back a :func:`dump_snapshot` segment."""
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
