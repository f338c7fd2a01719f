"""The computation suite: what the three optimization layers buy.

Three workloads, mirroring the three optimization layers:

* **kernel** -- daemon stepping throughput on RB (ring of 8) and MB
  (ring of 8), each daemon in three modes: full guard evaluation
  (``incremental=False``), incremental, and the compiled backend
  (``backend="compiled"``).  All runs must visit the *identical* trace
  (checked via a digest of the final state); the within-run throughput
  ratio incremental/full is the speedup the dirty-set machinery buys,
  and compiled/incremental is the further speedup of the memoized
  array-mirror engine.
* **explorer** -- exhaustive reachability over CB's full state product
  under the interpreter and the compiled backend; both must agree on
  the state and edge counts.
* **sweep** -- a small Figure 5 grid through
  :class:`~repro.experiments.sweep.SweepExecutor`: serial, parallel
  (``jobs=4``) and warm-cache runs must merge to bit-identical rows,
  and the warm-cache rerun must beat the cold run by the gated factor.

Gated through :mod:`repro.perf.gate` (``python benchmarks/bench_perf.py
[--quick]`` writes ``BENCH_perf.json``): every deterministic quantity
(step/fired counts, state digests, state-space sizes, merged-row
digests) exactly against ``benchmarks/BASELINE_perf.json``, and
:data:`ROWS` -- the identity checks plus within-run ratio floors:

- the best incremental daemon on the RB n=8 kernel is >=
  :data:`RB8_HEADLINE_SPEEDUP` x full evaluation;
- the best compiled daemon on the MB n=8 kernel is >=
  :data:`MB8_COMPILED_HEADLINE_SPEEDUP` x its incremental run, and
  compiled runs are never below :data:`COMPILED_MIN_RATIO` x
  incremental on any kernel workload;
- eager incremental daemons (randomfair, maxpar) are never slower than
  full evaluation (ratio >= :data:`EAGER_MIN_RATIO`);
- the adaptive round-robin daemon costs at most a bounded counting
  overhead on scan-friendly programs (ratio >= :data:`ADAPTIVE_MIN_RATIO`)
  and must win on MB where it engages (>= :data:`MB8_ROUNDROBIN_MIN_RATIO`);
- the warm sweep cache is >= :data:`WARM_CACHE_SPEEDUP` x faster than
  the cold run.

A ratio is a best-of-repeats time against a best-of-repeats time, and
each repeat runs every mode in turn -- full and incremental as
interleaved pairs (three a repeat on RB, whose round-robin ratio sits
near 1.0), a compiled one as back-to-back runs that fill the
incremental run's time: a change in the machine's speed lands on both
sides of a ratio, not on one.  ``--quick`` runs the same
suite: deterministic quantities come from fixed step counts, and the
ratio floors hold only over all ``--repeats`` (default 3).
"""

from __future__ import annotations

import gc
import hashlib
import json
import tempfile
import time
from typing import Any, Callable

from repro.perf.gate import Row, Suite

#: Within-run ratio floors (see module docstring).
RB8_HEADLINE_SPEEDUP = 1.5
EAGER_MIN_RATIO = 1.0
ADAPTIVE_MIN_RATIO = 0.7
MB8_ROUNDROBIN_MIN_RATIO = 1.2
WARM_CACHE_SPEEDUP = 2.0
MB8_COMPILED_HEADLINE_SPEEDUP = 3.0
COMPILED_MIN_RATIO = 0.7

#: Kernel steps per measured run (identical in --quick mode: the
#: deterministic quantities must not depend on the mode).  Long enough
#: that the compiled backend's one-time learning phase (every distinct
#: round of the steady-state cycle memoized once) is amortized the way
#: it is in real sweeps, which run millions of steps per process count.
KERNEL_STEPS = 24_000


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

def _make_rb8():
    from repro.barrier.rb import make_rb

    return make_rb(8, nphases=4)


def _make_mb8():
    from repro.barrier.mb import make_mb

    return make_mb(8)


KERNEL_PROGRAMS: dict[str, Callable[[], Any]] = {
    "rb8": _make_rb8,
    "mb8": _make_mb8,
}


def _make_daemon(name: str, mode: str):
    from repro.gc.scheduler import (
        MaximalParallelDaemon,
        RandomFairDaemon,
        RoundRobinDaemon,
    )

    if mode == "compiled":
        kwargs: dict[str, Any] = {"backend": "compiled"}
    else:
        kwargs = {"incremental": mode == "incremental"}
    if name == "roundrobin":
        return RoundRobinDaemon(**kwargs)
    if name == "randomfair":
        return RandomFairDaemon(seed=11, **kwargs)
    if name == "maxpar":
        return MaximalParallelDaemon(seed=11, random_choice=True, **kwargs)
    raise ValueError(name)


KERNEL_DAEMONS = ("roundrobin", "randomfair", "maxpar")

#: Kernel execution modes.
KERNEL_MODES = ("full", "incremental", "compiled")

#: Interleaved full/incremental pairs per repeat.  On RB the round-robin
#: daemon declines the live engine, so its ratio is ~1.0 against a 0.7
#: floor and is the one row timing noise can flip: with one pair a
#: repeat, three slow incremental runs were enough (0.69 once, 0.94-1.01
#: in reruns).  Three pairs a repeat make that nine, at ~2 s a daemon.
KERNEL_PAIRS = {"rb8": 3, "mb8": 1}


def _state_digest(state: Any) -> str:
    """Stable cross-process digest of a state (``hash()`` is not)."""
    return hashlib.sha256(repr(state.key()).encode()).hexdigest()[:16]


def _run_kernel_once(
    prog_name: str, daemon_name: str, mode: str
) -> tuple[float, dict[str, Any]]:
    program = KERNEL_PROGRAMS[prog_name]()
    state = program.initial_state()
    daemon = _make_daemon(daemon_name, mode)
    fired = 0
    # The collector's schedule is a function of every earlier run's
    # garbage: a full collection it owes them lands inside whichever
    # run trips it (30-40 ms inside a 65 ms compiled MB n=8 run on a
    # 2-core x86 VM).  Pay it here, so a run is charged for its own
    # allocations only.
    gc.collect()
    start = time.perf_counter()
    for _ in range(KERNEL_STEPS):
        fired += len(daemon.step(program, state))
    elapsed = time.perf_counter() - start
    facts = {
        "steps": KERNEL_STEPS,
        "fired": fired,
        "state_digest": _state_digest(state),
    }
    return elapsed, facts


def bench_kernel(repeats: int) -> dict[str, Any]:
    """Every program x daemon in every mode; each mode keeps its best
    time.  A repeat runs :data:`KERNEL_PAIRS` full/incremental pairs, each
    pair in the other order from the last, so neither mode always runs
    first; then a compiled sample fills the last incremental run's time:
    a compiled MB n=8 run lasts ~65 ms against the interpreter's ~250 ms,
    and timed alone its best-of-repeats rarely escapes a slow phase of
    the box that the interpreter's longer runs average over."""
    deterministic: dict[str, Any] = {}
    ratios: dict[str, Any] = {}
    wall: dict[str, Any] = {}
    for prog_name in KERNEL_PROGRAMS:
        for daemon_name in KERNEL_DAEMONS:
            times = dict.fromkeys(KERNEL_MODES, float("inf"))
            facts: dict[str, dict[str, Any]] = {}
            pairs = 0
            for _ in range(repeats):
                window_s = 0.0
                for _ in range(KERNEL_PAIRS[prog_name]):
                    order = ("full", "incremental")
                    for mode in order if pairs % 2 == 0 else order[::-1]:
                        elapsed, facts[mode] = _run_kernel_once(
                            prog_name, daemon_name, mode
                        )
                        times[mode] = min(times[mode], elapsed)
                        if mode == "incremental":
                            window_s = elapsed
                    pairs += 1
                runs, total = 0, 0.0
                while runs == 0 or total < window_s:
                    elapsed, facts["compiled"] = _run_kernel_once(
                        prog_name, daemon_name, "compiled"
                    )
                    runs, total = runs + 1, total + elapsed
                times["compiled"] = min(times["compiled"], total / runs)
            name = f"{prog_name}/{daemon_name}"
            deterministic[name] = {
                **facts["incremental"],
                "trace_identical": facts["full"] == facts["incremental"],
                "compiled_identical": facts["compiled"] == facts["incremental"],
            }
            wall[name] = {f"{mode}_s": times[mode] for mode in KERNEL_MODES}
            wall[name]["steps_per_s_incremental"] = (
                KERNEL_STEPS / times["incremental"]
            )
            ratios[name] = {
                "ratio": times["full"] / times["incremental"],
                "compiled_ratio": times["incremental"] / times["compiled"],
            }
    for prog_name, key, ratio in (
        ("rb8", "headline_speedup", "ratio"),
        ("mb8", "compiled_headline_speedup", "compiled_ratio"),
    ):
        ratios[prog_name] = {
            key: max(ratios[f"{prog_name}/{d}"][ratio] for d in KERNEL_DAEMONS)
        }
    return {"deterministic": deterministic, "ratios": ratios, "wall": wall}


def bench_explorer(repeats: int) -> dict[str, Any]:
    from repro.barrier.cb import make_cb
    from repro.gc.explore import Explorer

    program = make_cb(4)
    walls: dict[str, float] = {}
    counts: dict[str, tuple[int, int]] = {}
    for label in ("interpreter", "compiled"):
        best = float("inf")
        for _ in range(repeats):
            explorer = Explorer(program, backend=label)
            roots = explorer.full_state_space()
            start = time.perf_counter()
            result = explorer.reachable(roots)
            best = min(best, time.perf_counter() - start)
            counts[label] = (
                len(result.states),
                sum(len(s) for s in result.transitions.values()),
            )
        walls[label] = best
    name = "cb4-full-space"
    return {
        "deterministic": {
            name: {
                "states": counts["interpreter"][0],
                "edges": counts["interpreter"][1],
                "compiled_identical": counts["compiled"] == counts["interpreter"],
            }
        },
        "ratios": {
            name: {
                "compiled_ratio": walls["interpreter"] / walls["compiled"],
            }
        },
        "wall": {name: {f"{label}_s": wall for label, wall in walls.items()}},
    }


#: The fig5 grid used by the sweep benchmark (small but not trivial).
SWEEP_KWARGS = dict(
    h=3,
    f_values=(0.0, 0.01, 0.05),
    c_values=(0.0, 0.01),
    phases=60,
    seed=0,
)


def bench_sweep() -> dict[str, Any]:
    from repro.experiments import fig5
    from repro.experiments.sweep import SweepExecutor

    def rows_of(executor):
        result = fig5.run(executor=executor, **SWEEP_KWARGS)
        return result.rows

    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        serial_rows = rows_of(SweepExecutor(jobs=1, cache_dir=cache_dir))
        cold_s = time.perf_counter() - start

        start = time.perf_counter()
        parallel_rows = rows_of(SweepExecutor(jobs=4))
        parallel_s = time.perf_counter() - start

        warm_executor = SweepExecutor(jobs=4, cache_dir=cache_dir)
        start = time.perf_counter()
        warm_rows = rows_of(warm_executor)
        warm_s = time.perf_counter() - start
        hits = warm_executor.last_stats["hits"]

    digest = hashlib.sha256(
        json.dumps(serial_rows, sort_keys=True).encode()
    ).hexdigest()[:16]
    name = "fig5-small"
    return {
        "deterministic": {
            name: {
                "rows_digest": digest,
                "identical_serial_parallel": serial_rows == parallel_rows,
                "identical_serial_cached": serial_rows == warm_rows,
                "cache_hits": hits,
            }
        },
        "ratios": {
            name: {
                "bit_identical": serial_rows == parallel_rows == warm_rows,
                "warm_cache_speedup": cold_s / warm_s,
            }
        },
        "wall": {
            name: {
                "cold_serial_s": cold_s,
                "cold_jobs4_s": parallel_s,
                "warm_jobs4_s": warm_s,
            }
        },
    }


def measure(repeats: int = 3, quick: bool = False) -> dict[str, Any]:
    """Run every workload into the suite's workload entries (``quick``
    changes nothing: the ratios need every repeat)."""
    return {
        "kernel": bench_kernel(repeats),
        "explorer": bench_explorer(repeats),
        "sweep": bench_sweep(),
    }


#: Incremental/full floor per kernel workload.
KERNEL_FLOORS = {
    "rb8/roundrobin": ADAPTIVE_MIN_RATIO,
    "rb8/randomfair": EAGER_MIN_RATIO,
    "rb8/maxpar": EAGER_MIN_RATIO,
    "mb8/roundrobin": MB8_ROUNDROBIN_MIN_RATIO,
    "mb8/randomfair": EAGER_MIN_RATIO,
    "mb8/maxpar": EAGER_MIN_RATIO,
}

ROWS = (
    Row("kernel.rb8.headline_speedup", ">=", RB8_HEADLINE_SPEEDUP),
    Row(
        "kernel.mb8.compiled_headline_speedup", ">=",
        MB8_COMPILED_HEADLINE_SPEEDUP,
    ),
    *(
        row
        for name, floor in KERNEL_FLOORS.items()
        for row in (
            Row(f"kernel.{name}.ratio", ">=", floor),
            Row(f"kernel.{name}.trace_identical", "==", True),
            Row(f"kernel.{name}.compiled_ratio", ">=", COMPILED_MIN_RATIO),
            Row(f"kernel.{name}.compiled_identical", "==", True),
        )
    ),
    Row("explorer.cb4-full-space.compiled_identical", "==", True),
    Row("sweep.fig5-small.bit_identical", "==", True),
    Row("sweep.fig5-small.warm_cache_speedup", ">=", WARM_CACHE_SPEEDUP),
)

SUITE = Suite("perf", measure, ROWS)
