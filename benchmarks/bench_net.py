"""Distributed-runtime benchmarks and the sharding perf gate.

Two roles (mirroring ``bench_perf.py``):

* under pytest, asserts the runtime's CI contract -- the frame
  encoder's hot path is byte-stable and not slower than naive
  ``json.dumps``, and the n=16 replay digests (single-loop, sharded,
  sharded-repeat) are identical within the run *and* exactly equal to
  the committed ``BASELINE_net.json``;
* as a script (``python benchmarks/bench_net.py [--quick]``), runs
  :data:`SUITE` through :func:`repro.perf.gate.main`: writes
  ``BENCH_net.json`` at the repo root and exits non-zero if the gate
  fails (``--update-baseline`` rewrites ``benchmarks/BASELINE_net.json``).

Wall-clock numbers are recorded, never gated against the baseline --
machines differ.  What *is* gated (:data:`ROWS`):

* deterministic quantities exactly -- the frame-corpus digest and the
  n=16 trace digests are pure functions of (plan, config), identical in
  ``--quick`` and full mode, so both gate against one baseline;
* within-run ratios, machine-independent because both sides ran in
  this process:

  - the canonical encoder is >= :data:`ENCODER_MIN_RATIO` x per-call
    ``json.dumps`` on the message corpus;
  - the three n=16 digests agree (replay determinism across process
    boundaries);
  - the **headline**: at n=256 over real sockets, the sharded runtime
    (8 process shards, batched cross-shard links) sustains >=
    :data:`SHARD_HEADLINE_SPEEDUP` x the barrier throughput of the
    single-loop socket runtime.  Both sides send exactly the
    protocol's 3(n-1) frames a round and resend nothing (the 0.4 s
    timer is never crossed), and since ``TcpTransport`` writes each
    link once per loop turn both sides batch their writes.  What the
    ratio measures now is parallelism: eight loops that each carry 32
    nodes, on however many cores the box has, against one loop that
    carries all 256 on one core.  On the 2-core build box the ceiling
    of that is 2x plus whatever the shorter per-loop queues give back
    (measured 2.15-2.92x: 0.87-1.92 s vs 0.40-0.66 s for 20 rounds;
    while the single loop paid a write syscall per message it was
    2.5-3.4x, both sides slower: 1.8 s vs 0.7 s).  The floor is what
    two cores against one can be held to on a noisy box, not the best
    case; both absolute walls are in the report, which is where a
    slow-down of either side shows.  ``--quick`` runs a smaller
    n=64 x 10 point and only sanity-gates the ratio (>=
    :data:`QUICK_MIN_RATIO`): a tenth of a second of protocol wall is
    too short to hold a floor to.

The full run also records the scale curve -- sharded barrier latency /
throughput at n=64, 256 and 1024 (the 1024-node acceptance topology:
arity-8 tree over 8 shards) -- informational, never gated.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.chaos.plan import FaultEvent, FaultPlan, LinkPlan
from repro.net import NetConfig, encode_canonical, run_sync
from repro.net.node import Timing
from repro.perf.gate import Row, Suite, load_json, main

#: Within-run ratio gates (see module docstring).
ENCODER_MIN_RATIO = 1.05
SHARD_HEADLINE_SPEEDUP = 1.3
QUICK_MIN_RATIO = 0.6

#: The n=16 replay workload: drop + delay + dup + two crash-restarts.
DIGEST_PLAN = FaultPlan(
    nprocs=16,
    seed=42,
    events=(FaultEvent(pid=3, when=2.0), FaultEvent(pid=7, when=4.0)),
    link=LinkPlan(loss=0.15, delay=0.2, duplication=0.05),
)

#: Deep-tree timers, identical on both sides of the headline ratio
#: (also the 1024-node EXPERIMENTS.md recipe).  Under the default
#: 40 ms timer a single-loop n=256 round (~140 ms over memory queues)
#: honestly outlasts the timer and a fifth of the protocol frames are
#: resends of merely-late ones (10 rounds: 12 498 sent, 2 690 resends,
#: budget 7 650); at 0.4 s neither side of the headline resends at all
#: (n=256 x 20: both send the 15 300-frame budget, the single loop in
#: 2-4 s, 8 shards in ~1 s), so the ratio compares runtimes, not timer
#: luck.
SCALE_TIMING = Timing(
    resend=0.4, backoff=2.0, resend_max=2.0, hb_interval=2.0,
    finish_timeout=6.0,
)
HEADLINE_TIMING = SCALE_TIMING


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _frame_corpus() -> list[dict]:
    return [
        {
            "k": "arrive", "s": i % 64, "d": (i * 7) % 64, "q": i,
            "i": i % 3, "l": i * 3,
            "p": {"round": i % 50, "phase": i % 4},
        }
        for i in range(200)
    ]


def bench_frames(repeats: int) -> dict:
    """Encoder hot path vs per-call ``json.dumps``, plus byte-stability."""
    corpus = _frame_corpus()
    loops = 400

    def timed(encode) -> float:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(loops):
                for obj in corpus:
                    encode(obj)
            best = min(best, time.perf_counter() - t0)
        return best

    naive_s = timed(
        lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
    )
    hot_s = timed(encode_canonical)
    digest = hashlib.sha256(
        "\n".join(encode_canonical(obj) for obj in corpus).encode()
    ).hexdigest()
    return {
        "deterministic": {"corpus_digest": digest},
        "ratios": {"encode_speedup": naive_s / hot_s if hot_s else 0.0},
        "wall": {"naive_s": naive_s, "hot_s": hot_s},
    }


def _digest_config(shards: int) -> NetConfig:
    return NetConfig(
        nodes=16, barriers=6, seed=42, plan=DIGEST_PLAN, shards=shards,
        timeout_s=60.0,
    )


def bench_digests() -> dict:
    """Replay determinism across process boundaries, exactly gated."""
    single = run_sync(_digest_config(shards=1))
    shard = run_sync(_digest_config(shards=4))
    shard_repeat = run_sync(_digest_config(shards=4))
    ok = all(r.ok for r in (single, shard, shard_repeat))
    return {
        "deterministic": {
            "single_digest": single.digest,
            "sharded_digest": shard.digest,
            "all_ok": ok,
        },
        "ratios": {
            "sharded_equals_single": single.digest == shard.digest,
            "sharded_replays": shard.digest == shard_repeat.digest,
        },
        "wall": {
            "single_s": single.wall_s,
            "sharded_s": shard.wall_s,
            "xshard_records": shard.link_stats.get("xshard_records", 0),
            "xshard_flushes": shard.link_stats.get("xshard_flushes", 0),
        },
    }


def _throughput_point(
    nodes: int,
    barriers: int,
    *,
    transport: str,
    shards: int,
    arity: int,
    timing: Timing,
    timeout_s: float,
) -> dict:
    start = time.perf_counter()
    result = run_sync(
        NetConfig(
            nodes=nodes,
            barriers=barriers,
            arity=arity,
            transport=transport,
            shards=shards,
            timing=timing,
            timeout_s=timeout_s,
            tracing=False,  # raw protocol throughput, no telemetry tax
        )
    )
    wall = time.perf_counter() - start
    protocol_wall = result.wall_s or wall
    return {
        "nodes": nodes,
        "barriers": barriers,
        "arity": arity,
        "transport": transport if shards == 1 else f"sharded:{shards}",
        "reached": result.reached,
        "completed": result.completed,
        "wall_s": wall,
        "protocol_wall_s": protocol_wall,
        "barriers_per_s": result.completed / protocol_wall
        if protocol_wall
        else 0.0,
        "round_latency_s": protocol_wall / result.completed
        if result.completed
        else float("inf"),
        "xshard_records": result.link_stats.get("xshard_records", 0),
        "xshard_flushes": result.link_stats.get("xshard_flushes", 0),
    }


def bench_headline(quick: bool) -> dict:
    """Sharded vs single-loop sockets at n=256 (n=64 when ``quick``).

    The single-loop side runs the plain socket transport (every node
    in one loop, one write per link per loop turn); the sharded side
    runs the same node count over process shards.  Both sides share
    :data:`HEADLINE_TIMING`, so the ratio measures the runtime, not the
    knobs.
    """
    if quick:
        nodes, barriers, shards, timeout_s = 64, 10, 4, 60.0
    else:
        nodes, barriers, shards, timeout_s = 256, 20, 8, 100.0
    kwargs = dict(
        arity=2, timing=HEADLINE_TIMING, timeout_s=timeout_s,
        barriers=barriers,
    )
    single = _throughput_point(nodes, transport="unix", shards=1, **kwargs)
    sharded = _throughput_point(nodes, transport="mem", shards=shards, **kwargs)
    ratio = (
        sharded["barriers_per_s"] / single["barriers_per_s"]
        if single["barriers_per_s"]
        else float("inf")
    )
    return {
        "ratios": {
            "sharded_vs_single_loop": ratio,
            "sharded_reached": sharded["reached"],
        },
        "info": {
            "nodes": nodes,
            "shards": shards,
            "single": single,
            "sharded": sharded,
        },
    }


def bench_scale_curve(quick: bool) -> dict:
    """Sharded latency/throughput up to the 1024-node acceptance point."""
    points = [
        _throughput_point(
            64, 10, transport="mem", shards=4, arity=2,
            timing=Timing(), timeout_s=60.0,
        ),
        _throughput_point(
            256, 5, transport="mem", shards=8, arity=4,
            timing=SCALE_TIMING, timeout_s=120.0,
        ),
    ]
    if not quick:
        points.append(
            _throughput_point(
                1024, 3, transport="mem", shards=8, arity=8,
                timing=SCALE_TIMING, timeout_s=240.0,
            )
        )
    return {"info": {"points": points}}


def measure(repeats: int = 3, quick: bool = False) -> dict:
    return {
        "frames": bench_frames(repeats=max(1, repeats)),
        "digests": bench_digests(),
        "headline": bench_headline(quick),
        "scale_curve": bench_scale_curve(quick),
    }


ROWS = (
    Row("frames.encode_speedup", ">=", ENCODER_MIN_RATIO),
    Row("digests.sharded_equals_single", "==", True),
    Row("digests.sharded_replays", "==", True),
    Row("digests.all_ok", "==", True),
    Row(
        "headline.sharded_vs_single_loop", ">=", SHARD_HEADLINE_SPEEDUP,
        quick=QUICK_MIN_RATIO,
    ),
    Row("headline.sharded_reached", "==", True),
)

SUITE = Suite("net", measure, ROWS)


# ---------------------------------------------------------------------------
# pytest contract (cheap: no headline/scale runs)
# ---------------------------------------------------------------------------

def test_encoder_hot_path():
    frames = bench_frames(repeats=2)
    assert frames["ratios"]["encode_speedup"] >= ENCODER_MIN_RATIO, frames
    base = load_json(SUITE.baseline_path)["workloads"]["frames"]
    assert frames["deterministic"] == base["deterministic"]


def test_digests_match_committed_baseline():
    digests = bench_digests()
    assert digests["ratios"]["sharded_equals_single"]
    assert digests["ratios"]["sharded_replays"]
    base = load_json(SUITE.baseline_path)["workloads"]["digests"]
    assert digests["deterministic"] == base["deterministic"]


if __name__ == "__main__":
    sys.exit(main(SUITE, sys.argv[1:]))
