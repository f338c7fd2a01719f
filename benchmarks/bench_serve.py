"""Barrier-service benchmarks and the serve perf gate.

Two roles (mirroring ``bench_net.py``):

* under pytest, asserts the service's CI contract -- the seeded load
  generator replays to an identical digest on a fresh daemon, and both
  the client-side digest and the server-side outcome digest exactly
  equal the committed ``BASELINE_serve.json``;
* as a script (``python benchmarks/bench_serve.py [--quick]``), boots
  an in-process daemon, runs the digest and latency workloads through
  :func:`repro.perf.gate.main`: writes ``BENCH_serve.json`` at the repo
  root and exits non-zero if the gate fails (``--update-baseline``
  rewrites ``benchmarks/BASELINE_serve.json``).

Wall-clock latencies are recorded, never gated against the baseline --
machines differ.  What *is* gated (:data:`ROWS`):

* deterministic quantities exactly -- the loadgen replay digest and the
  daemon's logical outcome digest are pure functions of (config, seed),
  identical in ``--quick`` and full mode, so both gate against one
  committed baseline;
* within-run ratios, machine-independent because both sides ran in this
  process: the p99/p50 barrier-completion-latency tail ratio stays
  under :data:`TAIL_MAX_RATIO` (a generous bound -- it catches resend
  storms and scheduling collapse, not CI jitter), and the two
  back-to-back digest runs agree.
"""

from __future__ import annotations

import asyncio
import hashlib
import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.net.frames import encode_canonical
from repro.perf.gate import Row, Suite, load_json, main
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.loadgen import LoadConfig, LoadResult, run_load

#: p99/p50 barrier-completion tail bound (within-run; generous on
#: purpose -- crash-restart reconnects and scripted slow clients sit in
#: the tail by design, CI machines jitter, and the gate exists to catch
#: collapse, not noise).
TAIL_MAX_RATIO = 200.0

#: The digest workload: fixed size in both quick and full mode, so one
#: committed baseline covers both (determinism must not depend on
#: scale).
DIGEST_CONFIG = dict(
    groups=2,
    clients_per_group=10,
    barriers=6,
    seed=42,
    leavers=1,
    crashers=1,
    slow=1,
    byzantine=1,
    probes=2,
    timeout_s=60.0,
)


async def _daemon_run(config_kwargs: dict) -> tuple[LoadResult, dict]:
    """One loadgen run against a fresh in-process daemon; returns the
    client-side result and the daemon's logical outcome slice."""
    daemon = await ServeDaemon(ServeConfig(port=0)).start()
    port = int(daemon.address.rsplit(":", 1)[1])
    try:
        result = await run_load(LoadConfig(port=port, **config_kwargs))
        outcomes = daemon.outcomes()
    finally:
        await daemon.shutdown()
    return result, outcomes


def _outcome_digest(outcomes: dict) -> str:
    return hashlib.sha256(encode_canonical(outcomes).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def bench_digests() -> dict:
    """Replay determinism over real sockets, exactly gated: two
    back-to-back seeded runs on fresh daemons must agree with each
    other (within-run) and with the committed baseline (exact)."""
    first, first_outcomes = asyncio.run(_daemon_run(DIGEST_CONFIG))
    second, second_outcomes = asyncio.run(_daemon_run(DIGEST_CONFIG))
    clean = not first.errors and not second.errors
    return {
        "deterministic": {
            "loadgen_digest": first.digest,
            "server_outcome_digest": _outcome_digest(first_outcomes),
            "clean": clean,
        },
        "ratios": {
            "replay_identical": first.digest == second.digest,
            "server_replay_identical": (
                _outcome_digest(first_outcomes)
                == _outcome_digest(second_outcomes)
            ),
        },
        "wall": {"first_s": first.wall_s, "second_s": second.wall_s},
    }


def bench_latency(quick: bool) -> dict:
    """Barrier-completion latency under churn at the serve-smoke scale
    (client-observed arrive -> release, all members, all rounds)."""
    if quick:
        kwargs = dict(
            groups=2, clients_per_group=12, barriers=8, seed=7,
            leavers=1, crashers=1, slow=1, byzantine=1, probes=2,
            timeout_s=60.0,
        )
    else:
        kwargs = dict(
            groups=3, clients_per_group=50, barriers=20, seed=7,
            leavers=2, crashers=2, slow=2, byzantine=1, probes=2,
            timeout_s=120.0,
        )
    start = time.perf_counter()
    result, outcomes = asyncio.run(_daemon_run(kwargs))
    wall = time.perf_counter() - start
    p50 = result.quantile(0.50)
    p99 = result.quantile(0.99)
    all_done = all(g["done"] for g in outcomes.values())
    return {
        "ratios": {
            "tail_p99_over_p50": p99 / p50 if p50 else float("inf"),
            "clean_run": not result.errors and all_done,
        },
        "info": {
            "groups": kwargs["groups"],
            "clients_per_group": kwargs["clients_per_group"],
            "barriers": kwargs["barriers"],
            "rounds_measured": len(result.latencies),
            "outcome_counts": result.to_dict()["outcome_counts"],
        },
        "wall": {
            "p50_s": p50,
            "p99_s": p99,
            "total_s": wall,
            "loadgen_s": result.wall_s,
        },
    }


def measure(repeats: int = 3, quick: bool = False) -> dict:
    return {"digests": bench_digests(), "latency": bench_latency(quick)}


ROWS = (
    Row("digests.replay_identical", "==", True),
    Row("digests.server_replay_identical", "==", True),
    Row("digests.clean", "==", True),
    Row("latency.tail_p99_over_p50", "<=", TAIL_MAX_RATIO),
    Row("latency.clean_run", "==", True),
    Row("latency.rounds_measured", ">=", 1),
)

SUITE = Suite("serve", measure, ROWS)


# ---------------------------------------------------------------------------
# pytest contract (cheap: the digest workload only)
# ---------------------------------------------------------------------------

def test_serve_digests_match_committed_baseline():
    digests = bench_digests()
    assert digests["ratios"]["replay_identical"]
    assert digests["ratios"]["server_replay_identical"]
    base = load_json(SUITE.baseline_path)["workloads"]["digests"]
    assert digests["deterministic"] == base["deterministic"]


if __name__ == "__main__":
    sys.exit(main(SUITE, sys.argv[1:]))
