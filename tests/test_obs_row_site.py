"""Structural gate: a trace row is built, and kept, in one place.

``Tracer.emit`` is the only ``ObsEvent(...)`` call under ``repro/obs``
outside the schema module itself, and no class under ``repro``
subclasses ``Tracer``: what is kept is its ``capacity`` argument, never
a subclass -- so every path (plain, ring, sharded, live, chaos) gets the
same row, and ``bench/layers.py`` times all of them by patching
``Tracer.emit``.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.obs import Tracer

REPRO_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
OBS_SRC = REPRO_SRC / "obs"


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


def test_no_class_subclasses_tracer():
    subclasses = []
    for path in sorted(REPRO_SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                (isinstance(base, ast.Name) and base.id == "Tracer")
                or (isinstance(base, ast.Attribute) and base.attr == "Tracer")
                for base in node.bases
            ):
                subclasses.append(f"{path.relative_to(REPRO_SRC)}:{node.name}")
    assert subclasses == []


def test_listeners_see_an_event_after_it_is_stored():
    ring = Tracer(capacity=2)
    for tracer in (Tracer(), ring):
        stored = []
        tracer.subscribe(lambda event: stored.append(tracer.events[-1] is event))
        tracer.phase_start(0.0, 0)
        tracer.token_pass(0.5, 0)
        tracer.phase_end(1.0, 0, True)
        assert stored == [True, True, True]
    assert (ring.appended, ring.dropped) == (3, 1)
    assert [event.kind for event in ring.events] == ["token_pass", "phase_end"]
    kept = ["phase_start", "phase_end"]
    assert [event.kind for event in ring.protocol_events] == kept
