"""The live telemetry plane: flight recorders, the streaming merge,
in-loop monitors/metrics, and the HTTP endpoint -- including mid-run
scrapes of a real net run."""

from __future__ import annotations

import asyncio
import json
import random
import socket

import pytest

from repro.chaos.plan import FaultEvent, FaultPlan, LinkPlan
from repro.net import NetConfig, Timing, check_merged, merge_traces, run_sync, trace_digest
from repro.net.runtime import run_async
from repro.obs import Tracer, parse_prometheus_text
from repro.obs.live import LivePlane, StreamingMerger, run_monitors_streaming
from repro.obs.recorder import dump_snapshot, read_snapshot

PLAN = FaultPlan(
    nprocs=5,
    events=(FaultEvent(pid=2, when=3.0), FaultEvent(pid=4, when=7.0)),
    seed=42,
    link=LinkPlan(loss=0.1, duplication=0.05),
)


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
def test_ring_bounds_and_accounting():
    rec = Tracer(capacity=8)
    for i in range(30):
        rec.token_pass(float(i + 1), src=0, dst=1)
    assert len(rec.events) == 8
    assert rec.appended == 30
    assert rec.dropped == 22
    assert [e.time for e in rec.events] == [float(i) for i in range(23, 31)]


def test_digest_survives_ring_overflow():
    """Protocol events are kept outside the ring, so the replay digest
    is identical to an unbounded tracer's."""
    full = Tracer()
    rec = Tracer(capacity=4)
    for r in range(25):
        for t in (full, rec):
            t.phase_start(float(3 * r + 1), r)
            t.token_pass(float(3 * r + 2), src=0, dst=1)
            t.phase_end(float(3 * r + 3), r, r % 5 != 0)
    assert rec.dropped > 0
    assert trace_digest({0: rec.protocol_events}) == trace_digest({0: full.events})


def test_snapshot_round_trip(tmp_path):
    rec = Tracer(capacity=4)
    for i in range(10):
        rec.token_pass(float(i + 1), src=3, dst=0)
    path = tmp_path / "flight.jsonl"
    assert dump_snapshot(rec, 3, path) == 4
    header, events = read_snapshot(path)
    assert header["pid"] == 3
    assert header["appended"] == 10
    assert header["dropped"] == header["first_index"] == 6
    assert header["retained"] == len(events) == 4
    assert [e.time for e in events] == [e.time for e in rec.events]


def test_snapshot_rejects_plain_jsonl(tmp_path):
    path = tmp_path / "not-a-snapshot.jsonl"
    Tracer().dump_jsonl(path)
    path.write_text('{"kind": "token_pass", "time": 1.0}\n')
    with pytest.raises(ValueError):
        read_snapshot(path)


# ----------------------------------------------------------------------
# Streaming merge
# ----------------------------------------------------------------------
def _lamport_streams(seed: int, nodes: int = 4, events: int = 60):
    """Seeded per-node streams with strictly increasing times, sharing
    tie timestamps across nodes to exercise the pid tie-break."""
    rng = random.Random(seed)
    streams = {}
    for pid in range(nodes):
        t = Tracer()
        clock = 0.0
        for _ in range(events):
            clock += float(rng.randint(1, 3))
            t.token_pass(clock, src=pid, dst=(pid + 1) % nodes)
        streams[pid] = t.events
    return streams


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_streaming_merge_equals_batch_merge(seed):
    streams = _lamport_streams(seed)
    out = []
    merger = StreamingMerger(streams, out.append)
    # Interleave pushes in a seeded random stream order.
    rng = random.Random(seed + 100)
    cursors = {pid: 0 for pid in streams}
    while any(cursors[p] < len(streams[p]) for p in streams):
        pid = rng.choice([p for p in streams if cursors[p] < len(streams[p])])
        merger.push(pid, streams[pid][cursors[pid]])
        cursors[pid] += 1
    merger.close()
    assert out == merge_traces(streams)
    assert merger.released == sum(len(s) for s in streams.values())


def test_watermark_release_is_strict():
    """An event releases only when every stream has advanced past it --
    a quiet stream holds the merge until marked."""
    out = []
    merger = StreamingMerger([0, 1], out.append)
    t = Tracer()
    t.token_pass(1.0, src=0)
    t.token_pass(5.0, src=0)
    merger.push(0, t.events[0])
    merger.push(0, t.events[1])
    assert out == []  # stream 1 could still emit at t < 1
    merger.mark(1, 2.0)
    assert [e.time for e in out] == [1.0]
    merger.mark(1, float("inf"))
    # Stream 0's own watermark is 5.0: its last event is not *strictly*
    # below the minimum, so only close() may flush it.
    assert [e.time for e in out] == [1.0]
    merger.close()
    assert [e.time for e in out] == [1.0, 5.0]


def test_push_after_close_raises():
    merger = StreamingMerger([0], lambda e: None)
    merger.close()
    t = Tracer()
    t.token_pass(1.0, src=0)
    with pytest.raises(RuntimeError):
        merger.push(0, t.events[0])


# ----------------------------------------------------------------------
# The live plane on a real net run
# ----------------------------------------------------------------------
def _live_config(**kw):
    defaults = dict(
        nodes=5, barriers=10, seed=42, plan=PLAN, timeout_s=45.0,
        live=True, ring_capacity=64,
    )
    defaults.update(kw)
    return NetConfig(**defaults)


def test_live_run_digest_matches_full_stream_projection():
    """Ring capacity 64 forces overflow on every node, yet the digest
    equals the full-trace projection digest rebuilt from the merged
    stream (the acceptance criterion: tracing truncation never changes
    the replay digest)."""
    result = run_sync(_live_config())
    assert result.reached
    summary = result.metrics_summary
    assert summary["live"] is True
    assert any(r["dropped"] > 0 for r in summary["rings"].values())
    streams: dict[int, list] = {pid: [] for pid in range(5)}
    for event in result.merged_events:
        streams[event.pid if event.pid is not None else 0].append(event)
    assert result.digest == trace_digest(streams)


def test_a_live_run_keeps_o_rounds():
    """``ring_capacity`` bounds what a live run keeps end to end: every
    event still flows through the streaming merge, but only the
    protocol events stay merged."""
    barriers = 40
    result = run_sync(
        NetConfig(nodes=8, barriers=barriers, live=True, ring_capacity=16)
    )
    assert result.ok
    assert len(result.merged_events) == 2 * barriers  # clean: no faults
    rings = result.metrics_summary["rings"].values()
    assert all(ring["retained"] <= 16 for ring in rings)
    appended = sum(ring["appended"] for ring in rings)
    assert result.metrics_summary["merged_released"] == appended
    assert appended > 20 * barriers


def test_live_verdicts_equal_post_hoc_on_the_same_stream():
    """The PR's equivalence criterion, on one run's merged stream: the
    streaming monitors (fed in watermark order mid-run) and the post-hoc
    ``check_merged`` oracle report identical violations and spans."""
    result = run_sync(_live_config())
    post_violations, post_spans = check_merged(
        result.merged_events, PLAN, None, result.reached
    )
    assert [v.to_json() for v in result.violations] == [
        v.to_json() for v in post_violations
    ]
    assert result.spans == post_spans

    streams: dict[int, list] = {pid: [] for pid in range(5)}
    for event in result.merged_events:
        streams[event.pid if event.pid is not None else 0].append(event)
    re_violations, re_spans = run_monitors_streaming(
        streams, PLAN, None, result.reached
    )
    assert [v.to_json() for v in re_violations] == [
        v.to_json() for v in post_violations
    ]
    assert re_spans == post_spans


def test_live_violating_run_fires_streaming_monitors():
    """A crash-only plan with a timeout too short to finish: masking's
    'stalled' verdict must surface identically live and post-hoc."""
    plan = FaultPlan(
        nprocs=4,
        events=(FaultEvent(pid=1, when=1.0), FaultEvent(pid=2, when=2.0)),
        seed=5,
    )
    result = run_sync(
        NetConfig(
            nodes=4, barriers=40, seed=5, plan=plan, live=True,
            timing=Timing(work=0.05), timeout_s=0.6,
        )
    )
    assert not result.reached
    guarantees = {v.guarantee for v in result.violations}
    assert "masking" in guarantees
    assert result.metrics_summary["verdicts"]["masking"] == "fail"
    post_violations, _ = check_merged(
        result.merged_events, plan, None, result.reached
    )
    assert [v.to_json() for v in result.violations] == [
        v.to_json() for v in post_violations
    ]


def test_metrics_summary_in_result_json_and_render():
    result = run_sync(_live_config(barriers=5))
    payload = result.to_json()
    assert payload["metrics"]["digest"] == result.digest
    assert set(payload["metrics"]["verdicts"]) == {"stabilization"}
    text = result.render()
    assert "verdicts:" in text
    assert f"digest={result.digest}" in text


def test_live_plane_metrics_text_parses_as_prometheus():
    plane = LivePlane(2, ring_capacity=4)
    rec0, rec1 = plane.tracer_for(0), plane.tracer_for(1)
    rec0.phase_start(1.0, 0)
    for i in range(10):
        rec1.token_pass(float(i + 2), src=1, dst=0)
    rec0.phase_end(13.0, 0, True)
    plane.mark_done(0)
    plane.mark_done(1)
    plane.finish(True)
    samples = parse_prometheus_text(plane.metrics_text())
    assert samples['plane_recorder_appended{pid="1"}'] == 10.0
    assert samples['plane_recorder_dropped{pid="1"}'] == 6.0
    assert samples["plane_merged_released"] == 12.0
    assert samples["plane_violations"] == 0.0
    assert samples['plane_spans_finished{kind="barrier"}'] == 1.0
    health = plane.health()
    assert health["status"] == "finished"
    assert health["rings"]["1"]["dropped"] == 6


# ----------------------------------------------------------------------
# The in-loop HTTP endpoint, scraped mid-run
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


async def _fetch(port: int, path: str) -> tuple[int, str]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(f"GET {path} HTTP/1.0\r\n\r\n".encode())
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split()[1]), body.decode()


async def _run_and_scrape(config: NetConfig, paths: list[str]):
    task = asyncio.create_task(run_async(config))
    scraped: dict[str, tuple[int, str]] = {}
    for _ in range(500):
        if task.done():
            break
        try:
            status, body = await _fetch(config.obs_port, "/health")
        except OSError:
            await asyncio.sleep(0.01)
            continue
        if status == 200 and json.loads(body)["status"] == "running":
            scraped["/health"] = (status, body)
            for path in paths:
                scraped[path] = await _fetch(config.obs_port, path)
            break
        await asyncio.sleep(0.01)
    return await task, scraped


def test_http_endpoints_serve_mid_run():
    config = _live_config(
        barriers=12, obs_port=_free_port(), timing=Timing(work=0.02)
    )
    result, scraped = asyncio.run(
        _run_and_scrape(config, ["/metrics", "/spans/recent", "/nope"])
    )
    assert result.reached
    assert result.obs_url == f"http://127.0.0.1:{config.obs_port}"
    assert scraped, "the run finished before a single mid-run scrape"
    health = json.loads(scraped["/health"][1])
    assert health["status"] == "running" and health["nodes"] == 5
    status, metrics = scraped["/metrics"]
    assert status == 200
    samples = parse_prometheus_text(metrics)
    assert "plane_merged_released" in samples
    status, spans_body = scraped["/spans/recent"]
    assert status == 200
    spans = json.loads(spans_body)
    assert set(spans) == {"recent", "open", "violations"}
    assert scraped["/nope"][0] == 404


def test_live_trace_dir_writes_flight_snapshots(tmp_path):
    out = tmp_path / "flight"
    result = run_sync(
        _live_config(barriers=5, trace_dir=str(out), ring_capacity=16)
    )
    assert result.reached
    names = sorted(p.name for p in out.iterdir())
    assert names == ["flight-0.snapshot.jsonl"] + [
        f"flight-{i}.snapshot.jsonl" for i in range(1, 5)
    ] + ["merged.jsonl"]
    header, events = read_snapshot(out / "flight-2.snapshot.jsonl")
    assert header["capacity"] == 16
    assert len(events) <= 16
    assert header["appended"] == header["dropped"] + len(events)
    # merged.jsonl is the whole merged run, message chatter included.
    merged = [json.loads(line) for line in (out / "merged.jsonl").open()]
    assert len(merged) == len(result.merged_events)
    assert any(row["kind"] == "msg_send" for row in merged)
