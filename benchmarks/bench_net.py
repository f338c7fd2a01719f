"""Distributed-runtime benchmarks and the sharding perf gate.

Three roles (mirroring ``bench_perf.py`` / :mod:`repro.perf.bench`):

* under pytest, asserts the runtime's CI contract -- the frame
  encoder's hot path is byte-stable and not slower than naive
  ``json.dumps``, and the n=16 replay digests (single-loop, sharded,
  sharded-repeat) are identical within the run *and* exactly equal to
  the committed ``BASELINE_net.json``;
* as a script (``python benchmarks/bench_net.py [--quick]``), runs the
  full workload set, writes ``BENCH_net.json`` at the repo root, and
  exits non-zero if the gate fails;
* ``--update-baseline`` rewrites ``benchmarks/BASELINE_net.json`` from
  the current run.

Gating philosophy (same as :mod:`repro.perf.bench`): wall-clock numbers
are recorded, never gated against the baseline -- machines differ.
What *is* gated:

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

import argparse
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
from repro.obs.regress import GateCheck, GateResult, load_json, write_report

OUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_net.json"
BASELINE_PATH = Path(__file__).resolve().parent / "BASELINE_net.json"

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
            "sharded_equals_single": float(single.digest == shard.digest),
            "sharded_replays": float(shard.digest == shard_repeat.digest),
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
        "ratios": {"sharded_vs_single_loop": ratio},
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


def measure(quick: bool = False, repeats: int = 3) -> dict:
    report: dict = {"version": 2, "quick": quick, "workloads": {}}
    report["workloads"]["frames"] = bench_frames(repeats=max(1, repeats))
    report["workloads"]["digests"] = bench_digests()
    report["workloads"]["headline"] = bench_headline(quick)
    report["workloads"]["scale_curve"] = bench_scale_curve(quick)
    return report


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

def compare_reports(report: dict, baseline: dict | None = None) -> GateResult:
    """Within-run ratio gates, plus exact baseline equality when given."""
    checks: list[GateCheck] = []
    workloads = report.get("workloads", {})

    frames = workloads.get("frames", {})
    ratio = frames.get("ratios", {}).get("encode_speedup", 0.0)
    checks.append(
        GateCheck(
            "frames.encode_speedup",
            ratio >= ENCODER_MIN_RATIO,
            f"hot encoder {ratio:.3f}x naive json.dumps "
            f"(floor {ENCODER_MIN_RATIO})",
        )
    )

    digests = workloads.get("digests", {})
    for key in ("sharded_equals_single", "sharded_replays"):
        value = digests.get("ratios", {}).get(key, 0.0)
        checks.append(
            GateCheck(
                f"digests.{key}",
                value == 1.0,
                "digest identical" if value == 1.0 else "digest MISMATCH",
            )
        )
    checks.append(
        GateCheck(
            "digests.all_ok",
            bool(digests.get("deterministic", {}).get("all_ok")),
            "all three runs reached with zero violations",
        )
    )

    headline = workloads.get("headline", {})
    ratio = headline.get("ratios", {}).get("sharded_vs_single_loop", 0.0)
    floor = QUICK_MIN_RATIO if report.get("quick") else SHARD_HEADLINE_SPEEDUP
    label = "sanity floor" if report.get("quick") else "headline floor"
    checks.append(
        GateCheck(
            "headline.sharded_vs_single_loop",
            ratio >= floor,
            f"sharded {ratio:.2f}x single-loop sockets ({label} {floor})",
        )
    )
    sharded_point = headline.get("info", {}).get("sharded", {})
    checks.append(
        GateCheck(
            "headline.sharded_reached",
            bool(sharded_point.get("reached")),
            f"sharded completed {sharded_point.get('completed')}"
            f"/{sharded_point.get('barriers')} barriers",
        )
    )

    if baseline is not None:
        for name, base_wl in baseline.get("workloads", {}).items():
            cur_wl = workloads.get(name, {})
            for key, base_value in base_wl.get("deterministic", {}).items():
                cur_value = cur_wl.get("deterministic", {}).get(key)
                checks.append(
                    GateCheck(
                        f"baseline.{name}.{key}",
                        cur_value == base_value,
                        f"current={cur_value!r} baseline={base_value!r} "
                        "(exact)",
                    )
                )
    return GateResult(checks)


def baseline_from(report: dict) -> dict:
    """The committed slice: deterministic quantities only."""
    return {
        "version": report["version"],
        "workloads": {
            name: {"deterministic": wl["deterministic"]}
            for name, wl in report["workloads"].items()
            if wl.get("deterministic")
        },
    }


# ---------------------------------------------------------------------------
# pytest contract (cheap: no headline/scale runs)
# ---------------------------------------------------------------------------

def test_encoder_hot_path():
    frames = bench_frames(repeats=2)
    assert frames["ratios"]["encode_speedup"] >= ENCODER_MIN_RATIO, frames
    assert (
        frames["deterministic"]["corpus_digest"]
        == load_json(BASELINE_PATH)["workloads"]["frames"]["deterministic"][
            "corpus_digest"
        ]
    )


def test_digests_match_committed_baseline():
    digests = bench_digests()
    assert digests["ratios"]["sharded_equals_single"] == 1.0
    assert digests["ratios"]["sharded_replays"] == 1.0
    base = load_json(BASELINE_PATH)["workloads"]["digests"]["deterministic"]
    assert digests["deterministic"] == base


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/bench_net.py",
        description="distributed-runtime perf harness + sharding gate",
    )
    parser.add_argument("--out", default=str(OUT_PATH), help="report path")
    parser.add_argument(
        "--baseline", default=str(BASELINE_PATH), help="committed baseline"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="n=64 headline with a sanity floor instead of the n=256 "
        "gate; skips the 1024-node curve point",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the baseline's deterministic slice from this run",
    )
    args = parser.parse_args(argv)

    report = measure(quick=args.quick, repeats=args.repeats)
    out = write_report(report, args.out)
    print(f"wrote {out}")
    for point in report["workloads"]["scale_curve"]["info"]["points"]:
        print(
            f"  scale n={point['nodes']:4d} {point['transport']:>9s}: "
            f"{point['round_latency_s'] * 1e3:8.1f} ms/barrier  "
            f"{point['barriers_per_s']:6.2f} barriers/s  "
            f"{'ok' if point['reached'] else 'NOT REACHED'}"
        )
    if args.update_baseline:
        base = write_report(baseline_from(report), args.baseline)
        print(f"baseline updated: {base}")
        gate = compare_reports(report)
    else:
        baseline_path = Path(args.baseline)
        if not baseline_path.exists():
            print(f"no baseline at {baseline_path}; run --update-baseline first")
            return 1
        gate = compare_reports(report, load_json(baseline_path))
    print(gate.render())
    return 0 if gate.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
