"""The sharded runtime (repro.net.shard).

The load-bearing claims, in test form:

* :func:`partition_nodes` keeps protocol edges local -- O(shards) cross
  edges for the tree, exactly ``shards`` for the ring -- and always
  produces a total, surjective pid -> shard map;
* **replay determinism survives process boundaries**: a sharded run
  under a seeded drop+delay+crash plan produces the *same* trace digest
  as the single-loop runtime, and two sharded runs with one seed are
  digest-identical (fault decisions are pure sender-side hashes, event
  times are Lamport stamps);
* the batching codec (``append_frame`` + ``pack_record``) survives
  arbitrary re-chunking of a coalesced stream, and receiver-side dedup
  stays exactly-once when duplicates of one identity arrive via
  different shards and across incarnation bumps;
* a shard's listener trusts a record only from the shard its source
  lives on: anything else drops that one connection, quietly;
* a worker boots as its own program: whatever the launcher's
  ``__main__`` is (stdin, an unguarded script, a pool worker), it is not
  run again; a dead worker is reported with who and how, and on every
  path no child outlives -- or is left un-reaped by -- the run.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.plan import CampaignConfig, FaultEvent, FaultPlan, LinkPlan
from repro.experiments.cli import main as cli_main
from repro.net import (
    DedupIndex,
    FrameDecoder,
    NetConfig,
    ShardFabric,
    Timing,
    append_frame,
    cross_edges,
    encode_canonical,
    pack_record,
    partition_nodes,
    run_sync,
    unpack_record,
)
from repro.net.frames import MAX_FRAME
from repro.net.transport import _HELLO_KIND
from tests.test_adversarial_net import ADVERSARIAL_PLAN

SHARD_PLAN = FaultPlan(
    nprocs=16,
    seed=42,
    events=(FaultEvent(pid=3, when=2.0), FaultEvent(pid=7, when=4.0)),
    link=LinkPlan(loss=0.15, delay=0.2, duplication=0.05),
)


def _config(**overrides):
    base = dict(
        nodes=16, barriers=6, seed=42, plan=SHARD_PLAN, timeout_s=60.0
    )
    base.update(overrides)
    return NetConfig(**base)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
def test_partition_single_shard_is_trivial():
    assert partition_nodes(7, 1) == [0] * 7


def test_partition_tree_1024_by_8_has_o_shards_cross_edges():
    """The 1024-node acceptance topology: arity-8 tree over 8 shards
    cuts only 7 of the 1023 tree edges."""
    part = partition_nodes(1024, 8, "tree", arity=8)
    assert len(part) == 1024
    assert set(part) == set(range(8))
    assert cross_edges(part, "tree", arity=8) == 7


def test_partition_ring_is_contiguous_arcs():
    part = partition_nodes(12, 4, "mb")
    assert part == sorted(part)  # contiguous arcs
    assert cross_edges(part, "mb") == 4


@given(
    nodes=st.integers(min_value=2, max_value=400),
    shards=st.integers(min_value=1, max_value=16),
    arity=st.sampled_from([1, 2, 3, 4, 8]),
)
# The cut lands on the last level with a root count that is no multiple
# of the shard count: dealing roots in equal runs split every sibling
# group and sent 37-45 of these trees' 62-67 edges across shards.
@example(nodes=63, shards=10, arity=8)
@example(nodes=64, shards=9, arity=8)
@example(nodes=64, shards=10, arity=8)
@example(nodes=68, shards=11, arity=8)
@settings(max_examples=120, deadline=None)
def test_partition_properties(nodes, shards, arity):
    """Total, surjective, root-on-shard-0, and O(shards) cross edges --
    for every tree shape, including ragged and degenerate (arity-1)."""
    eff = min(shards, nodes)
    for protocol in ("tree", "mb"):
        part = partition_nodes(nodes, shards, protocol, arity)
        assert len(part) == nodes
        assert part[0] == 0
        assert set(part) == set(range(eff))
    tree_cross = cross_edges(partition_nodes(nodes, shards, "tree", arity), "tree", arity)
    assert tree_cross <= 4 * eff  # O(shards), never O(nodes)
    ring_cross = cross_edges(partition_nodes(nodes, shards, "mb"), "mb")
    assert ring_cross == (eff if eff > 1 else 0)


def test_partition_tree_cross_edge_bound_holds_on_the_whole_domain():
    """The property's domain is small enough to walk: all 31 920 points."""
    over = [
        (nodes, shards, arity, crossing)
        for nodes in range(2, 401)
        for shards in range(1, 17)
        for arity in (1, 2, 3, 4, 8)
        if (crossing := cross_edges(
            partition_nodes(nodes, shards, "tree", arity), "tree", arity
        )) > 4 * min(shards, nodes)
    ]
    assert not over


def test_partition_of_the_bench_sharded_shape_is_two_halves():
    """``bench``'s ``net_sharded`` unit (64 nodes, 2 shards, arity 2):
    the root and its left subtree on shard 0, the right subtree on 1 --
    the root's right edge is the only one that crosses."""
    part = partition_nodes(64, 2, "tree", 2)
    assert part[:3] == [0, 0, 1]
    assert cross_edges(part, "tree", 2) == 1


# ----------------------------------------------------------------------
# Batching codec + dedup (the cross-shard wire format)
# ----------------------------------------------------------------------
@given(
    records=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=1023),
            st.integers(min_value=0, max_value=1023),
            st.binary(min_size=0, max_size=120),
        ),
        min_size=1,
        max_size=30,
    ),
    chunk=st.integers(min_value=1, max_value=97),
)
@settings(max_examples=60, deadline=None)
def test_coalesced_records_survive_any_rechunking(records, chunk):
    """A cross-shard burst -- many routing records coalesced into one
    buffer -- decodes identically however the socket re-chunks it."""
    buffer = bytearray()
    for src, dst, body in records:
        append_frame(buffer, pack_record(src, dst, body))
    stream = bytes(buffer)
    decoder = FrameDecoder()
    out = []
    for i in range(0, len(stream), chunk):
        out.extend(decoder.feed(stream[i : i + chunk]))
    assert [unpack_record(f) for f in out] == records


@given(
    arrivals=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=3),   # src
            st.integers(min_value=0, max_value=2),   # incarnation
            st.integers(min_value=0, max_value=15),  # seq
        ),
        min_size=1,
        max_size=40,
    ).flatmap(lambda keys: st.permutations(keys + keys))
)
@settings(max_examples=60, deadline=None)
def test_dedup_exactly_once_across_shard_paths_and_incarnations(arrivals):
    """Every identity arrives (at least) twice -- as if once via the
    local queue and once via a cross-shard link, in arbitrary order,
    across incarnation bumps -- and is accepted exactly once."""
    index = DedupIndex()
    accepted = [key for key in arrivals if index.accept(*key)]
    assert sorted(accepted) == sorted(set(arrivals))


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**6), max_value=10**6)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)


@given(obj=_json_values)
@settings(max_examples=80, deadline=None)
def test_encode_canonical_matches_json_dumps(obj):
    """The hot-path encoder is byte-identical to the canonical
    ``json.dumps`` form -- frame digests must not shift."""
    assert encode_canonical(obj) == json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    )


# ----------------------------------------------------------------------
# The cross-shard listener trusts what it can check
# ----------------------------------------------------------------------
def _frames(*bodies: bytes) -> bytes:
    buffer = bytearray()
    for body in bodies:
        append_frame(buffer, body)
    return bytes(buffer)


def _hello(shard: int) -> bytes:
    return json.dumps({"k": _HELLO_KIND, "node": shard}).encode()


#: What a dialer may send shard 0 of partition ``[0, 0, 1, 1]`` instead
#: of a peer shard's records.
HOSTILE_STREAMS = {
    "no hello": _frames(pack_record(2, 0, b"{}")),
    "src on the receiving shard": _frames(_hello(1), pack_record(1, 0, b"{}")),
    "hello names the receiving shard": _frames(_hello(0), pack_record(1, 0, b"{}")),
    "src out of range": _frames(_hello(1), pack_record(9, 0, b"{}")),
    "dst on another shard": _frames(_hello(1), pack_record(2, 3, b"{}")),
    "truncated routing header": _frames(_hello(1), b"abc"),
    "oversized length header": _frames(_hello(1)) + struct.pack(">I", MAX_FRAME + 1),
}


@pytest.mark.parametrize("stream", sorted(HOSTILE_STREAMS))
def test_fabric_listener_drops_an_inauthentic_link(stream):
    """A record is delivered only if its source lives on the shard the
    link's HELLO named.  Anything else drops that connection -- counted
    in ``quarantined``, with no traceback -- and a peer shard's link is
    still heard afterwards."""

    async def scenario():
        errors: list[dict] = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        fabric = ShardFabric(0, [0, 0, 1, 1], unix_path=None)
        host, _, port = (await fabric.start())[len("tcp://"):].rpartition(":")
        try:
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(HOSTILE_STREAMS[stream])
            assert await asyncio.wait_for(reader.read(), 5.0) == b""  # hung up
            writer.close()
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(_frames(_hello(1), pack_record(2, 1, b"ok")))
            assert await fabric.ports[1].recv(timeout=5.0) == (2, b"ok")
            writer.close()
            return fabric, [fabric.ports[0].drain(), fabric.ports[1].drain()], errors
        finally:
            await fabric.close()

    fabric, leftovers, errors = asyncio.run(scenario())
    assert fabric.quarantined == 1
    assert leftovers == [0, 0]
    assert errors == []


# ----------------------------------------------------------------------
# Replay determinism across process boundaries
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def single_loop_run():
    """``run_sync(_config())``, the single-loop side both comparisons
    below hold the sharded runs to, run once for the module."""
    return run_sync(_config())


def test_sharded_matches_single_loop_digest_and_replays(single_loop_run):
    """The PR's two acceptance criteria in one (expensive) run triplet:
    sharded == single-loop digest under a seeded drop+delay+crash plan,
    and two same-seed sharded runs are digest-identical."""
    single = single_loop_run
    shard_a = run_sync(_config(shards=4))
    shard_b = run_sync(_config(shards=4))
    for result in (single, shard_a, shard_b):
        assert result.reached
        assert result.violations == []
        assert result.faults_fired == 2
    assert single.digest == shard_a.digest == shard_b.digest
    assert shard_a.link_stats["dropped"] > 0
    # The topology was actually cut: cross-shard links carried records.
    shards_meta = shard_a.metrics_summary["shards"]
    assert shards_meta["count"] == 4
    assert shards_meta["partition_cross_edges"] > 0
    assert shard_a.link_stats["xshard_records"] > 0
    assert shard_a.link_stats["xshard_flushes"] <= shard_a.link_stats["xshard_records"]


def _adversarial_config(**overrides):
    return NetConfig(
        nodes=5, barriers=8, seed=7, plan=ADVERSARIAL_PLAN, timeout_s=30.0, **overrides
    )


@pytest.mark.parametrize("config", [_config, _adversarial_config])
def test_sharded_result_equals_single_loop_on_every_deterministic_field(
    config, request
):
    """One pipeline, so everything in a ``NetResult`` that is a function
    of ``(plan, config)`` agrees across the process cut -- not only the
    digest.  Timing-dependent fields (link stats, resend counts, span
    values, Lamport end time) legitimately differ between interleavings
    and are left alone."""
    if config is _config:
        single = request.getfixturevalue("single_loop_run")
    else:
        single = run_sync(config())
    sharded = run_sync(config(shards=2))

    def deterministic(result):
        return {
            "digest": result.digest,
            "reached": result.reached,
            "completed": result.completed,
            "successful_phases": result.successful_phases,
            "faults_fired": result.faults_fired,
            "failsafe_stop": result.failsafe_stop,
            "violations": [v.guarantee for v in result.violations],
            "spans": len(result.spans),
            "verdicts": result.metrics_summary["verdicts"],
        }

    assert deterministic(single) == deterministic(sharded)
    assert single.ok and single.faults_fired > 0


@pytest.mark.parametrize("shards", [1, 2])
def test_merged_trace_is_written_whenever_trace_dir_is_set(tmp_path, shards):
    """``tracing=False`` leaves the per-node files out, never the merged
    one -- on either path (the sharded coordinator used to skip it)."""
    result = run_sync(
        NetConfig(
            nodes=4, barriers=2, shards=shards, timeout_s=45.0,
            tracing=False, trace_dir=str(tmp_path),
        )
    )
    assert result.reached
    assert [p.name for p in tmp_path.iterdir()] == ["merged.jsonl"]
    assert result.trace_paths == [str(tmp_path / "merged.jsonl")]


@pytest.mark.parametrize("shard_transport", ["unix", "tcp"])
def test_clean_sharded_frame_budget_equals_single_loop(shard_transport):
    """Cutting the tree across processes adds no frame: 16 nodes in 2
    shards send the single-loop run's 3 per edge per round, resend
    nothing, and narrate the same digest -- over either link.  The
    resend timer is a second, so a round that is merely slow (a loaded
    runner, a gen-2 collection) is not taken for a lost frame: in a
    clean run a longer resend only stops timer-driven resends."""
    gc.collect()
    slow = Timing(resend=1.0, resend_max=1.0)
    single = run_sync(_config(plan=None, timing=slow))
    sharded = run_sync(
        _config(plan=None, timing=slow, shards=2, shard_transport=shard_transport)
    )
    assert sharded.metrics_summary["shards"]["transport"] == shard_transport
    for result in (single, sharded):
        assert result.ok and result.reached
        stats = result.node_stats.values()
        assert sum(s["resends"] for s in stats) == 0
        assert sum(s["sent"] - s["hb_sent"] for s in stats) == 3 * 15 * 6
    assert single.digest == sharded.digest


def test_sharded_live_run_rings_overflow_and_keep_the_digest():
    """``live=True`` with shards: every worker traces into rings of
    ``ring_capacity``, which overflow, and ships the protocol events they
    keep whole -- so the digest is the single-loop run's."""
    single = run_sync(NetConfig(nodes=8, barriers=4))
    live = run_sync(
        NetConfig(nodes=8, barriers=4, shards=2, live=True, ring_capacity=16)
    )
    assert single.ok and live.ok
    assert live.digest == single.digest
    rings = live.metrics_summary["rings"]
    assert sorted(rings, key=int) == [str(pid) for pid in range(8)]
    assert any(ring["dropped"] > 0 for ring in rings.values())


def test_rings_read_the_same_on_every_path():
    """``metrics_summary["rings"]`` has one shape, single-loop live and
    sharded: a scraper reading ``retained`` works on both."""
    single = run_sync(NetConfig(nodes=4, barriers=3, live=True, ring_capacity=16))
    sharded = run_sync(NetConfig(nodes=4, barriers=3, shards=2))
    for result, capacity in ((single, 16), (sharded, 0)):
        assert result.ok
        rings = result.metrics_summary["rings"]
        assert sorted(rings, key=int) == ["0", "1", "2", "3"]
        for ring in rings.values():
            assert set(ring) == {"appended", "dropped", "retained", "capacity"}
            assert ring["capacity"] == capacity
            assert ring["retained"] == ring["appended"] - ring["dropped"]
            assert ring["retained"] <= capacity


def test_a_single_loop_run_reports_its_rings_without_the_plane():
    """``rings`` is in every run's summary, not only live or sharded
    ones: a plain single-loop run traces each node into ``Tracer(0)``."""
    result = run_sync(NetConfig(nodes=8, barriers=40, transport="unix", seed=3))
    assert result.ok
    rings = result.metrics_summary["rings"]
    assert sorted(rings, key=int) == [str(pid) for pid in range(8)]
    for ring in rings.values():
        assert ring["capacity"] == 0 and ring["retained"] == 0
        assert ring["dropped"] == ring["appended"] > 0


def test_mb_sharded_with_crash():
    plan = FaultPlan(
        nprocs=6, seed=9, events=(FaultEvent(pid=2, when=1.0),)
    )
    result = run_sync(
        NetConfig(
            nodes=6, barriers=4, protocol="mb", seed=9, plan=plan,
            shards=2, timeout_s=60.0,
        )
    )
    assert result.ok
    assert result.faults_fired == 1
    kinds = {e.kind for e in result.merged_events}
    assert "fault" in kinds and "recovery" in kinds


def test_sharded_trace_dir_layout(tmp_path):
    out = tmp_path / "traces"
    result = run_sync(
        NetConfig(
            nodes=6, barriers=3, shards=2, timeout_s=45.0,
            trace_dir=str(out),
        )
    )
    assert result.ok
    names = sorted(p.name for p in out.iterdir())
    assert names == [
        "flight-0.snapshot.jsonl",
        "flight-1.snapshot.jsonl",
        "flight-2.snapshot.jsonl",
        "flight-3.snapshot.jsonl",
        "flight-4.snapshot.jsonl",
        "flight-5.snapshot.jsonl",
        "merged.jsonl",
    ]
    merged = (out / "merged.jsonl").read_text().strip().splitlines()
    assert len(merged) == len(result.merged_events)
    # Merged order is Lamport-sorted even though six recorders in two
    # processes produced the events.
    times = [e.time for e in result.merged_events]
    assert times == sorted(times)


def test_sharded_config_validation():
    with pytest.raises(ValueError):
        NetConfig(nodes=4, shards=0)
    with pytest.raises(ValueError):
        NetConfig(nodes=4, shards=2, transport="tcp")
    with pytest.raises(ValueError):
        NetConfig(nodes=4, shards=2, obs_port=0)
    with pytest.raises(ValueError):
        NetConfig(nodes=4, shard_transport="ipc")


# ----------------------------------------------------------------------
# Chaos target + CLI
# ----------------------------------------------------------------------
def test_sharded_chaos_adapter_run():
    from repro.chaos import get_adapter

    adapter = get_adapter("net:tree+sharded")
    assert adapter.shards > 1
    cfg = CampaignConfig(
        targets=("net:tree+sharded",), runs=1, nprocs=8, target_phases=3,
        detectable=1, shrink=False,
    )
    plan = FaultPlan(nprocs=8, events=(FaultEvent(pid=5, when=1.0),), seed=3)
    outcome = adapter.run(plan, cfg)
    assert outcome.ok
    assert outcome.reached
    assert outcome.faults_fired == 1


def test_cli_net_run_sharded(capsys):
    rc = cli_main(
        [
            "net", "run", "--nodes", "8", "--barriers", "3",
            "--shards", "2", "--seed", "3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "RESULT: PASS" in out
    assert "digest=" in out
    assert "xshard_records" in out


# ----------------------------------------------------------------------
# Worker boot: the launcher's __main__ is none of a worker's business
# ----------------------------------------------------------------------
SRC = Path(__file__).resolve().parent.parent / "src"

#: The job of the boot and failure probes, run in child interpreters.
SMALL = dict(nodes=8, barriers=3, transport="mem", shards=2, timeout_s=60.0)

PROGRAM = """
from repro.net import NetConfig, run_sync
{guard}print("digest", run_sync(NetConfig(**{config!r})).digest)
"""


def _python(*args, **kwargs):
    """Run a child interpreter that finds ``repro`` and nothing else of ours."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env,
        timeout=120, **kwargs,
    )


@pytest.fixture(scope="module")
def single_loop_digest():
    return run_sync(NetConfig(**{**SMALL, "shards": 1})).digest


def test_sharded_run_from_a_program_on_stdin(single_loop_digest):
    """``python - <<EOF``: there is no file a worker could run again."""
    proc = _python("-", input=PROGRAM.format(guard="", config=SMALL))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["digest", single_loop_digest]


@pytest.mark.parametrize(
    "guard", ["", 'if __name__ == "__main__":\n    '], ids=["unguarded", "guarded"]
)
def test_sharded_run_does_not_rerun_its_launcher(tmp_path, single_loop_digest, guard):
    """A script -- with or without a ``__main__`` guard -- is executed
    once: its module body leaves one line, not one per process."""
    log = tmp_path / "executed.log"
    script = tmp_path / "launcher.py"
    script.write_text(
        f"open({str(log)!r}, 'a').write('module body\\n')\n"
        + PROGRAM.format(guard=guard, config=SMALL)
    )
    proc = _python(str(script))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["digest", single_loop_digest]
    assert log.read_text() == "module body\n"


def test_sharded_target_runs_inside_a_pool():
    """Pool workers are daemonic and may not start ``multiprocessing``
    children; a shard worker is not one.  Same campaign, same outcomes."""
    from repro.chaos.campaign import run_campaign
    from repro.experiments.sweep import SweepExecutor

    cfg = CampaignConfig(
        targets=("net:tree+sharded",), runs=2, seed=3, nprocs=4,
        target_phases=3, detectable=1, shrink=False,
    )
    pooled = run_campaign(cfg, executor=SweepExecutor(jobs=2))
    serial = run_campaign(cfg)
    assert pooled.ok and not pooled.infrastructure_failures, pooled.render()

    def deterministic(outcome):
        # Lamport end time and span lengths depend on the interleaving.
        return {
            **outcome, "end_time": None, "spans": len(outcome["spans"]),
        }

    assert [deterministic(o) for o in pooled.outcomes] == [
        deterministic(o) for o in serial.outcomes
    ]


def test_boot_walls_are_reported_per_shard():
    meta = run_sync(NetConfig(**SMALL)).metrics_summary["shards"]
    assert set(meta) >= {  # bench/workloads.py reads the old five
        "count", "transport", "partition_cross_edges", "shard_walls",
        "boot_walls", "coordinator_wall_s",
    }
    assert len(meta["boot_walls"]) == len(meta["shard_walls"]) == meta["count"] == 2
    for boot in meta["boot_walls"]:
        assert isinstance(boot, float) and 0.0 < boot <= meta["coordinator_wall_s"]


# ----------------------------------------------------------------------
# Failure paths: who died, how, and nobody left behind
# ----------------------------------------------------------------------
#: Runs ``SMALL`` (argv[2] overrides) with the last shard's worker killed
#: at the start of the wait named by argv[1] ("" = nobody is killed), then
#: reports the error, each worker's exit status and whether any child --
#: running or zombie -- is left.
FAILURE_PROBE = """
import json, os, signal, sys, time
from repro.net import NetConfig, run_sync, shard

kill_at, overrides = sys.argv[1], json.loads(sys.argv[2])
workers = []
real_recv = shard._pipe_recv

def recv(pending, deadline, what):
    if not workers:
        workers.extend(pending)
    if what == kill_at and workers[-1].proc.poll() is None:
        workers[-1].proc.send_signal(signal.SIGKILL)
    return real_recv(pending, deadline, what)

shard._pipe_recv = recv
started = time.monotonic()
try:
    run_sync(NetConfig(**{**%r, **overrides}))
    error = None
except RuntimeError as exc:
    error = str(exc)
elapsed = time.monotonic() - started
try:
    os.waitpid(-1, os.WNOHANG)
    children_left = True
except ChildProcessError:
    children_left = False
print(json.dumps({
    "error": error, "elapsed": elapsed, "children_left": children_left,
    "statuses": [w.proc.returncode for w in workers],
}))
""" % (SMALL,)


def _failure_probe(kill_at="", **overrides):
    proc = _python("-c", FAILURE_PROBE, kill_at, json.dumps(overrides))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_clean_run_leaves_no_process_behind():
    seen = _failure_probe()
    assert seen["error"] is None
    assert seen["statuses"] == [0, 0]
    assert not seen["children_left"]  # no worker, tracker or fork server


@pytest.mark.parametrize("what", ["address handshake", "shard result"])
def test_killed_worker_is_named_with_its_signal(what):
    """SIGKILL before the handshake and between ``go`` and ``result``:
    the error says which shard and how, long before ``timeout_s``; the
    sibling sees its channel close and leaves by itself (status 1, not
    the -15 of the coordinator's last-resort ``terminate``)."""
    seen = _failure_probe(what)
    assert seen["error"] == (
        f"shard 1 worker exited with status -9 (SIGKILL) before sending {what}"
    )
    assert seen["statuses"] == [1, -9]
    assert seen["elapsed"] < 0.5 * SMALL["timeout_s"]
    assert not seen["children_left"]


def test_worker_exception_arrives_with_its_traceback(tmp_path):
    """A worker that raises ships the traceback; the coordinator raises
    it under the shard's name and still reaps everyone."""
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    seen = _failure_probe(trace_dir=str(blocker / "traces"))
    assert seen["error"].startswith("shard ")
    assert "worker failed:\nTraceback (most recent call last)" in seen["error"]
    assert "_worker_async" in seen["error"]
    assert "NotADirectoryError" in seen["error"]
    assert seen["statuses"] == [1, 1]
    assert not seen["children_left"]


def test_control_channel_carries_more_than_a_wire_frame():
    """A full-mode shard's pickled protocol log outgrows the wire codec's
    1 MiB ``MAX_FRAME`` (a limit against hostile peers, which a worker is
    not): 3 MiB cross the socketpair whole, read against a deadline."""
    from multiprocessing.connection import Connection

    from repro.net.frames import MAX_FRAME
    from repro.net.shard import _pipe_recv, _Worker

    ours, theirs = socket.socketpair()
    worker = _Worker(0, None, Connection(ours.detach()), 0.0)
    peer = Connection(theirs.detach())
    message = ("result", {"events": os.urandom(3 * MAX_FRAME)})
    sender = threading.Thread(target=peer.send, args=(message,))
    sender.start()
    pending = [worker]
    assert _pipe_recv(pending, time.monotonic() + 30.0, "shard result") == (
        worker, message,
    )
    sender.join()
    assert pending == []
    with pytest.raises(TimeoutError, match="shard result from shard 0"):
        _pipe_recv([worker], time.monotonic() + 0.05, "shard result")
    peer.close()
    worker.conn.close()
