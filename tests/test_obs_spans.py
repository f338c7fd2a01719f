"""Span folding: the live hierarchy rebuilt over the flat event stream.

The :class:`SpanFolder` must agree with the post-hoc causal analysis
(:func:`repro.obs.causal.build_chains`): one fault-chain span per fault,
with the same attribution (per-pid FIFO recoveries, global-order
detects, system-wide fallback) and the same latencies.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.obs import Tracer
from repro.obs.causal import build_chains
from repro.obs.spans import BARRIER, FAULT_CHAIN, PARTICIPATION, SpanFolder


def narrated_trace() -> list:
    """Two rounds; a detected fault in round 0 recovers and becomes
    clean at round 1's successful end."""
    t = Tracer()
    t.phase_start(1.0, 0)
    t.msg_send(1.5, 1, 0)
    t.msg_recv(1.6, 1, 0)
    t.fault(2.0, 2, detectable=True)
    t.detect(2.5, 0, peer=2)
    t.recovery(3.0, 2)
    t.phase_end(4.0, 0, False)
    t.phase_start(4.5, 1)
    t.msg_send(4.6, 2, 0)
    t.phase_end(5.0, 1, True)
    return t.events


def folded(events, **kw) -> SpanFolder:
    folder = SpanFolder(keep_all=True, **kw).feed_all(events)
    folder.finish(events[-1].time if events else 0.0)
    return folder


def spans_of(folder: SpanFolder, kind: str) -> list:
    assert folder.completed is not None
    return [s for s in folder.completed if s.kind == kind]


def test_barrier_spans_carry_status_and_phase():
    folder = folded(narrated_trace())
    rounds = spans_of(folder, BARRIER)
    assert [s.status for s in rounds] == ["failed", "ok"]
    assert [s.attrs["phase"] for s in rounds] == [0, 1]
    assert rounds[0].duration == pytest.approx(3.0)
    assert folder.open_spans == []


def test_participation_spans_nest_under_their_round():
    folder = folded(narrated_trace())
    rounds = {s.span_id: s for s in spans_of(folder, BARRIER)}
    parts = spans_of(folder, PARTICIPATION)
    assert parts, "message activity inside a round must fold"
    for part in parts:
        assert part.parent_id in rounds
        assert part.attrs["events"] >= 1
    # msg_send(1.5, src=1) and msg_recv pid=dst=0 in round 0;
    # msg_send(4.6, src=2) in round 1.
    assert {(p.pid, p.parent_id == parts[0].parent_id) for p in parts} == {
        (0, True),
        (1, True),
        (2, False),
    }


def test_fault_chain_matches_causal_attribution():
    events = narrated_trace()
    folder = folded(events)
    (chain,) = build_chains(events)
    (span,) = spans_of(folder, FAULT_CHAIN)
    assert span.status == "recovered"
    assert span.pid == chain.pid == 2
    assert span.attrs["detect_time"] == chain.detect_time
    assert span.attrs["recovery_time"] == chain.recovery_time
    assert span.attrs["recovery_latency"] == chain.recovery_latency
    assert span.attrs["clean_phase_time"] == chain.clean_phase_time
    assert span.attrs["total_latency"] == chain.total_latency
    assert span.duration == pytest.approx(chain.total_latency)


def test_fault_chain_agreement_on_interleaved_faults():
    """Two faults on different pids + one pid-less system recovery: the
    folder's chains must mirror build_chains field for field."""
    t = Tracer()
    t.phase_start(1.0, 0)
    t.fault(2.0, 1, detectable=True)
    t.fault(2.5, 3, detectable=False)
    t.detect(3.0, 0, peer=1)
    t.recovery(4.0, None, latency=1.25)  # system-wide, explicit latency
    t.phase_end(5.0, 0, False)
    t.phase_start(5.5, 1)
    t.phase_end(6.0, 1, True)
    events = t.events

    chains = build_chains(events)
    folder = folded(events)
    spans = sorted(spans_of(folder, FAULT_CHAIN), key=lambda s: s.start)
    assert len(spans) == len(chains) == 2
    for span, chain in zip(spans, chains):
        assert span.start == chain.fault_time
        assert span.pid == chain.pid
        assert span.attrs["detectable"] == chain.detectable
        assert span.attrs.get("detect_time") == chain.detect_time
        assert span.attrs["recovery_time"] == chain.recovery_time
        assert span.attrs["system_wide_recovery"] == chain.system_wide_recovery
        assert span.attrs["recovery_latency"] == chain.recovery_latency
        assert span.attrs["total_latency"] == chain.total_latency


def test_unrecovered_fault_closes_honestly_at_finish():
    t = Tracer()
    t.phase_start(1.0, 0)
    t.fault(2.0, 1)
    t.phase_end(3.0, 0, False)
    folder = folded(t.events)
    (span,) = spans_of(folder, FAULT_CHAIN)
    assert span.status == "unrecovered"
    (chain,) = build_chains(t.events)
    assert chain.recovery_time is None


def test_interrupted_round_is_closed_by_the_next_start():
    t = Tracer()
    t.phase_start(1.0, 0)
    t.phase_start(2.0, 1)  # round 0 never ended
    t.phase_end(3.0, 1, True)
    folder = folded(t.events)
    rounds = spans_of(folder, BARRIER)
    assert [s.status for s in rounds] == ["interrupted", "ok"]


def test_recent_ring_is_bounded_and_counters_are_not():
    t = Tracer()
    for r in range(20):
        t.phase_start(float(2 * r + 1), r)
        t.phase_end(float(2 * r + 2), r, True)
    folder = SpanFolder(recent=4).feed_all(t.events)
    assert len(folder.recent) == 4
    assert folder.finished[BARRIER] == 20
    assert folder.started[BARRIER] == 20
    names = [d["name"] for d in folder.recent_dicts()]
    assert names == ["round-16", "round-17", "round-18", "round-19"]


def test_context_prefers_the_open_round():
    t = Tracer()
    t.phase_start(1.0, 0)
    folder = SpanFolder().feed_all(t.events)
    ctx = folder.context()
    assert ctx is not None and ctx["kind"] == BARRIER and ctx["end"] is None
    t.phase_end(2.0, 0, True)
    folder.feed(t.events[-1])
    ctx = folder.context()
    assert ctx is not None and ctx["status"] == "ok"


def test_span_render_and_sink():
    seen = []
    t = Tracer()
    t.phase_start(1.0, 0)
    t.phase_end(2.0, 0, True)
    SpanFolder(sink=seen.append).feed_all(t.events)
    (span,) = seen
    text = span.render()
    assert "barrier" in text and "round-0" in text and "ok" in text


PIDS = st.sampled_from([None, 0, 1, 2])
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("fault"), PIDS, st.booleans()),
        st.tuples(st.just("detect")),
        st.tuples(
            st.just("recovery"),
            PIDS,
            st.one_of(st.none(), st.floats(0.0, 10.0, allow_nan=False)),
        ),
        st.tuples(st.just("phase_start")),
        st.tuples(st.just("phase_end"), st.booleans()),
    ),
    max_size=40,
)


def _stream(steps) -> list:
    t = Tracer()
    phase = 0
    for i, step in enumerate(steps):
        time = 1.0 + 0.5 * i
        if step[0] == "fault":
            t.fault(time, step[1], detectable=step[2])
        elif step[0] == "detect":
            t.detect(time, 0)
        elif step[0] == "recovery":
            if step[2] is None:
                t.recovery(time, step[1])
            else:
                t.recovery(time, step[1], latency=step[2])
        elif step[0] == "phase_start":
            t.phase_start(time, phase)
        else:
            t.phase_end(time, phase, step[1])
            phase += 1
    return t.events


def _chain_status(chain) -> str:
    if chain.clean_phase_time is not None:
        return "recovered"
    if chain.recovery_time is not None:
        return "recovered-no-clean-phase"
    return "unrecovered"


@given(steps=STEPS)
def test_fault_chain_spans_equal_build_chains_on_random_streams(steps):
    """On any stream of faults (pid-less or not), detects, pid-matched
    and system-wide recoveries (with and without an explicit latency)
    and phase boundaries, the folder's fault-chain spans are
    ``build_chains``, field by field and on status."""
    events = _stream(steps)
    chains = build_chains(events)
    spans = sorted(spans_of(folded(events), FAULT_CHAIN), key=lambda s: s.span_id)
    assert len(spans) == len(chains)
    for span, chain in zip(spans, chains):
        assert span.start == chain.fault_time
        assert span.pid == chain.pid
        assert span.status == _chain_status(chain)
        if span.status == "recovered":
            assert span.end == chain.clean_phase_time
        got = {key: span.attrs.get(key) for key in (
            "detectable", "detect_time", "detection_latency",
            "recovery_time", "recovery_latency", "clean_phase_time",
            "total_latency",
        )}
        assert got == {
            "detectable": chain.detectable,
            "detect_time": chain.detect_time,
            "detection_latency": chain.detection_latency,
            "recovery_time": chain.recovery_time,
            "recovery_latency": chain.recovery_latency,
            "clean_phase_time": chain.clean_phase_time,
            "total_latency": chain.total_latency,
        }
        if chain.recovery_time is not None:
            assert span.attrs["system_wide_recovery"] == chain.system_wide_recovery
