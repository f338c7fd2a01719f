"""Structural gate: a trace row is built in one place.

``Tracer.emit`` is the only ``ObsEvent(...)`` call under ``repro/obs``
outside the schema module itself, and ``FlightRecorder`` changes what
is *kept* (``_keep``), never how an event is made -- so every path
(plain, ring, sharded, live) gets the same row, and ``bench/layers.py``
times all of them by patching ``Tracer.emit``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.obs import FlightRecorder, Tracer

OBS_SRC = Path(__file__).resolve().parent.parent / "src" / "repro" / "obs"


def test_one_obsevent_construction_site():
    sites = []
    for path in sorted(OBS_SRC.glob("*.py")):
        if path.name == "events.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "ObsEvent"
            ):
                sites.append(f"{path.name}:{node.lineno}")
    assert len(sites) == 1 and sites[0].startswith("tracer.py:"), sites


def test_flight_recorder_only_overrides_retention():
    assert FlightRecorder.emit is Tracer.emit
    assert "_keep" in vars(FlightRecorder)


def test_listeners_see_an_event_after_it_is_stored():
    recorder = FlightRecorder(capacity=2, pid=0, protocol_log=True)
    for tracer in (Tracer(), recorder):
        stored = []
        tracer.subscribe(lambda event: stored.append(tracer.events[-1] is event))
        tracer.phase_start(0.0, 0)
        tracer.token_pass(0.5, 0)
        tracer.phase_end(1.0, 0, True)
        assert stored == [True, True, True]
    assert (recorder.appended, recorder.dropped) == (3, 1)
    kept = ["phase_start", "phase_end"]
    assert [row[0] for row in recorder.rows] == kept
    assert [event.kind for event in recorder.protocol_events] == kept
