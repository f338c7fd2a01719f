"""Adversarial-surface benchmarks: what the defense layer costs and
what it provably does not change.

Two roles (mirroring ``bench_net.py``):

* under pytest, asserts the adversarial CI contract -- the canonical
  corruption + forge + Byzantine + permanent-crash run replays
  digest-identically (twice, and sharded vs single-loop) and ends in a
  fail-safe stop with zero violations;
* as a script (``python benchmarks/bench_adversarial.py``), runs
  :data:`SUITE` through :func:`repro.perf.gate.main`: writes
  ``BENCH_adversarial.json`` at the repo root and exits non-zero if a
  row fails.

All rows (:data:`ROWS`) are within-run (machine-independent); there is
no committed baseline file.  Wall-clock numbers -- the defense tax,
quarantine throughput under hostile pressure -- are recorded, never
gated:

* **replay**: the adversarial digest is a pure function of
  (plan, config) -- equal across two runs and across the process-shard
  boundary, with ``failsafe_stop`` and zero violations everywhere;
* **transparency**: on a clean run the defensive layer (strict decode,
  validation, strikes) changes *no* protocol decision -- defense
  on/off digests are byte-identical, its cost is wall time only;
* **pressure**: under rising corruption + forgery rates the run still
  completes with zero violations, quarantining instead of raising; the
  per-rate digests are replay-stable.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.chaos.plan import FaultEvent, FaultPlan, LinkPlan
from repro.net import NetConfig, run_sync
from repro.perf.gate import Row, Suite, main

#: The canonical adversarial schedule (also pinned by
#: ``tests/test_adversarial_net.py`` and the CI ``byzantine-quick``
#: job): a Byzantine lie mode, a permanent fail-stop, hostile links.
ADVERSARIAL_PLAN = FaultPlan(
    nprocs=5,
    events=(
        FaultEvent(when=2.0, pid=3, detectable=False, kind="byzantine"),
        FaultEvent(when=3.0, pid=4, kind="crash"),
    ),
    seed=7,
    link=LinkPlan(corruption=0.05, forge=0.05),
)


def _adversarial_config(shards: int = 1) -> NetConfig:
    return NetConfig(
        nodes=5,
        barriers=8,
        seed=7,
        plan=ADVERSARIAL_PLAN,
        shards=shards,
        timeout_s=60.0,
    )


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def bench_adversarial_replay() -> dict:
    """The canonical adversarial run: twice single-loop, once sharded."""
    first = run_sync(_adversarial_config())
    second = run_sync(_adversarial_config())
    sharded = run_sync(_adversarial_config(shards=2))
    runs = (first, second, sharded)
    violations = sum(len(r.violations) for r in runs)
    return {
        "deterministic": {
            "digest": first.digest,
            "fail_safe": all(r.ok and r.failsafe_stop for r in runs),
        },
        "ratios": {
            "replays": first.digest == second.digest,
            "sharded_equals_single": first.digest == sharded.digest,
            "no_violations": violations == 0,
        },
        "info": {"violations": violations},
        "wall": {
            "single_s": first.wall_s,
            "sharded_s": sharded.wall_s,
            "corrupted": first.link_stats.get("corrupted", 0),
            "forged": first.link_stats.get("forged", 0),
        },
    }


def bench_defense_tax(repeats: int) -> dict:
    """Clean-run wall time with the defensive layer on vs off.

    The layer must be *observationally free*: same digest either way
    (it never changes a protocol decision on honest traffic); the only
    difference allowed is the wall-clock tax of strict decode and
    validation, which this workload measures."""

    def config(defense: bool) -> NetConfig:
        return NetConfig(
            nodes=8, barriers=6, seed=21, timeout_s=30.0, defense=defense
        )

    def best(defense: bool) -> tuple[float, str, bool]:
        wall, digest, ok = float("inf"), "", True
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = run_sync(config(defense))
            wall = min(wall, time.perf_counter() - t0)
            digest, ok = result.digest, ok and result.ok
        return wall, digest, ok

    on_s, on_digest, on_ok = best(True)
    off_s, off_digest, off_ok = best(False)
    return {
        "deterministic": {
            "digest_invariant": on_digest == off_digest,
            "both_ok": on_ok and off_ok,
        },
        "ratios": {"defense_tax": on_s / off_s if off_s else 0.0},
        "wall": {"defense_on_s": on_s, "defense_off_s": off_s},
    }


def bench_hostile_pressure() -> dict:
    """Completion and replay stability under rising hostile-link rates."""
    points = []
    stable = True
    clean = True
    for rate in (0.05, 0.15):
        plan = FaultPlan(
            nprocs=5, seed=13, link=LinkPlan(corruption=rate, forge=rate)
        )

        def run():
            return run_sync(
                NetConfig(
                    nodes=5, barriers=8, seed=13, plan=plan, timeout_s=30.0
                )
            )

        first, second = run(), run()
        stable = stable and first.digest == second.digest
        clean = clean and first.ok and not first.violations
        quarantined = sum(
            s.get("quarantined", 0) for s in first.node_stats.values()
        )
        points.append(
            {
                "rate": rate,
                "ok": first.ok,
                "wall_s": first.wall_s,
                "corrupted": first.link_stats.get("corrupted", 0),
                "forged": first.link_stats.get("forged", 0),
                "quarantined": quarantined,
            }
        )
    return {
        "deterministic": {"replay_stable": stable, "all_clean": clean},
        "info": {"points": points},
    }


def measure(repeats: int = 3, quick: bool = False) -> dict:
    return {
        "replay": bench_adversarial_replay(),
        "defense": bench_defense_tax(repeats),
        "pressure": bench_hostile_pressure(),
    }


ROWS = (
    Row("replay.replays", "==", True),
    Row("replay.sharded_equals_single", "==", True),
    Row("replay.fail_safe", "==", True),
    Row("replay.no_violations", "==", True),
    Row("defense.digest_invariant", "==", True),
    Row("defense.both_ok", "==", True),
    Row("pressure.replay_stable", "==", True),
    Row("pressure.all_clean", "==", True),
)

SUITE = Suite("adversarial", measure, ROWS, baseline=False)


# ---------------------------------------------------------------------------
# pytest contract (the replay workload only; the rest is script mode)
# ---------------------------------------------------------------------------

def test_adversarial_replay_contract():
    replay = bench_adversarial_replay()
    assert replay["ratios"]["replays"]
    assert replay["ratios"]["sharded_equals_single"]
    assert replay["ratios"]["no_violations"]
    assert replay["deterministic"]["fail_safe"]


if __name__ == "__main__":
    sys.exit(main(SUITE, sys.argv[1:]))
