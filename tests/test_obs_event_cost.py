"""What one trace row costs, and that making it cheap changed nothing
else (DESIGN.md, "obs: what a trace row costs").

The byte count is the exactly-repeating figure behind the ``peak_rss_mb``
claim on ``gc_mb_faulty``: 201 B per payload-less event before the row
was slotted and its empty payload shared, 97 B after.
"""

from __future__ import annotations

import copy
import gc
import io
import pickle
import tracemalloc

import pytest

from repro.obs import Tracer
from repro.obs.events import EVENT_KINDS, PHASE_END, TOKEN_PASS, ObsEvent
from repro.obs.jsonl import read_jsonl, write_jsonl

BARE = ObsEvent(TOKEN_PASS, 1.5, 3)
LOADED = ObsEvent(PHASE_END, 2.5, 0, {"phase": 4, "success": True})


def test_payloadless_event_fits_in_112_bytes():
    """Object + its slot in the tracer's list + the ``float`` it holds."""
    n = 10_000
    tracer = Tracer()
    tracer.token_pass(0.5, 3)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            tracer.token_pass(i + 0.5, 3)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tracer.events) == n + 1
    assert (after - before) / n <= 112


@pytest.mark.parametrize(
    "make", [Tracer, lambda: Tracer(capacity=4096)], ids=["Tracer", "ring"]
)
def test_row_is_slotted_frozen_and_shares_its_empty_payload(make):
    tracer = make()
    tracer.token_pass(1.0, 2)
    tracer.detect(2.0)
    tracer.phase_end(3.0, 0, True)
    first, second, loaded = tracer.events
    assert not hasattr(first, "__dict__")
    assert first.data is second.data is ObsEvent(TOKEN_PASS, 0.0).data
    assert loaded.data == {"phase": 0, "success": True}
    with pytest.raises(AttributeError):
        first.time = 9.0
    with pytest.raises(TypeError, match="read-only"):
        first.data["x"] = 1
    with pytest.raises(TypeError, match="read-only"):
        first.data.update(x=1)
    assert second.data == {} and len(second.data) == 0


@pytest.mark.parametrize("event", [BARE, LOADED], ids=["bare", "loaded"])
def test_every_copy_of_an_event_equals_it(event):
    # ... including, for the bare one, a twin built with ``data={}``.
    assert event == ObsEvent(event.kind, event.time, event.pid, dict(event.data))
    copies = [
        pickle.loads(pickle.dumps(event, protocol=2)),
        pickle.loads(pickle.dumps(event, protocol=pickle.HIGHEST_PROTOCOL)),
        copy.deepcopy(event),
        ObsEvent.from_dict(event.to_dict()),
    ]
    buffer = io.StringIO()
    write_jsonl([event], buffer)
    buffer.seek(0)
    copies += read_jsonl(buffer)
    for other in copies:
        assert other == event
        assert other.to_dict() == event.to_dict()
    if not event.data:
        # The shared payload stays shared across pickle and deepcopy.
        assert all(other.data is event.data for other in copies)


def test_validation_keeps_its_messages():
    with pytest.raises(ValueError) as err:
        ObsEvent("nonsense", 0.0)
    assert str(err.value) == (
        f"unknown event kind 'nonsense'; known: {sorted(EVENT_KINDS)}"
    )
    with pytest.raises(ValueError) as err:
        ObsEvent(TOKEN_PASS, 0.0, 1, {"t": 3, "kind": "x", "ok": 1})
    assert str(err.value) == "reserved keys in event data: ['kind', 't']"
