"""Run the round-cost benchmark: ``python3 -m bench.run``.

With ``--workload W`` (how the driver calls it) one workload is measured
and the last stdout line is the result object ``BENCHMARK.json``
describes.  Without it all five run, their slices interleaved
(A B C D E A B C D E ...) so a slow spell of the shared machine lands on
every workload, and the last line maps workload name to result.

A run is a few *slices*, each a fresh ``bench.worker`` process that sets
up, warms up, then repeats the unit job for its share of ``--seconds``.
``--trace 0``: three untraced slices and four set-up-only ones -> the
end-to-end metrics.
``--trace 1``: one untraced slice (round costs, the base) and one traced
slice of the same length -> the per-layer ledger.
Exit status is 1 if any unit failed verification.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Iterator

from bench import OUT, ROOT, SRC
from bench.layers import LAYER_METRICS, Ledger

#: (name, unit) of the end-to-end metrics, all better lower.  The three
#: timing metrics ISSUE 12 lists beside them (``round_ms``,
#: ``round_p50_ms``, ``cpu_ms_per_round``) and ``fail_ratio`` head the
#: per-layer list instead: see "Machine noise" in ``bench/README.md``.
END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Set-ups per ``--trace 0`` run beyond the three timed slices' own.  One
#: set-up is half a second of CPU on a box whose speed moves by tens of
#: percent from one second to the next; the median of seven holds still.
EXTRA_SETUPS = 4

#: A worker gets this long beyond its timed seconds (set-up, the unit in
#: flight at the deadline, the report) before its process group is killed
#: and the slice counted as failed; seven of them must fit the driver's 180 s.
SLICE_GRACE_S = 20.0

#: AF_UNIX paths hold ~107 bytes and the runtime appends ~32 of its own.
MAX_TMPDIR_LEN = 70


def slice_plan(seconds: float, trace: bool) -> list[tuple[bool, float]]:
    """(traced, seconds) of each slice of one run; 0 seconds = set-up only."""
    if trace:
        return [(False, seconds / 2), (True, seconds / 2)]
    return [(False, seconds / 3)] * 3 + [(False, 0.0)] * EXTRA_SETUPS


def _worker_env() -> dict[str, str]:
    """The driver's contract: a run writes only inside its checkout.  The
    program puts its unix sockets under ``tempfile.gettempdir()``, so
    workers get a TMPDIR in ``bench/out`` -- unless the checkout sits so
    deep that binding a socket there would fail."""
    env = dict(os.environ)
    tmp = OUT / "tmp"
    if len(str(tmp)) <= MAX_TMPDIR_LEN:
        tmp.mkdir(parents=True, exist_ok=True)
        env["TMPDIR"] = str(tmp)
    return env


def run_slice(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool,
    expect_digest: str | None = None,
) -> dict[str, Any]:
    """One worker process, in a process group of its own; its report."""
    cmd = [
        sys.executable, "-m", "bench.worker",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(traced)),
        "--spawned-at", repr(time.monotonic()),
    ]  # fmt: skip
    if expect_digest:
        cmd += ["--expect-digest", expect_digest]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_worker_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )  # fmt: skip
    try:
        out, _ = proc.communicate(timeout=seconds + SLICE_GRACE_S)
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        # Also reaps shard grandchildren a dead or hung worker left behind.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0 or not out.strip():
        # Crashed or hung: one failed unit whose time counts, no rounds.
        elapsed = time.perf_counter() - started
        return {
            "workload": workload,
            "traced": traced,
            "setup_s": elapsed,
            "kernel_s": 0.0,
            "warmup_s": 0.0,
            "rounds_per_unit": 0,
            "units": [{"wall_s": elapsed, "cpu_s": 0.0, "latencies": [],
                       "reasons": [f"worker exited {proc.returncode}"]}],
            "peak_rss_mb": 0.0,
        }  # fmt: skip
    return json.loads(out.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# From slice reports to metrics
# ----------------------------------------------------------------------
def round_costs(slices: list[dict[str, Any]]) -> dict[str, Any]:
    """What a round cost over the units of ``slices``, as measured.

    A failed unit's time counts, its rounds do not: a failure, a slow
    unit or a resend storm can only make these numbers worse.
    """
    units = [(u, s["rounds_per_unit"]) for s in slices for u in s["units"]]
    good = [(u, r) for u, r in units if not u["reasons"]]
    rounds = sum(r for _, r in good)
    latencies = sorted(x for u, _ in good for x in u["latencies"])
    if latencies:
        samples = [x * 1e3 for x in latencies]
    else:
        samples = [u["wall_s"] / r * 1e3 for u, r in good]
    wall = sum(u["wall_s"] for u, _ in units)
    cpu = sum(u["cpu_s"] for u, _ in units)
    return {
        "attempted": len(units),
        "failed": len(units) - len(good),
        "reasons": sorted({r for u, _ in units for r in u["reasons"]}),
        "rounds": rounds,
        "wall_s": wall,
        "latencies": latencies,
        "round_ms": wall / rounds * 1e3 if rounds else 0.0,
        "round_p50_ms": statistics.median(samples) if samples else 0.0,
        "p50_samples": len(samples),
        "cpu_ms_per_round": cpu / rounds * 1e3 if rounds else 0.0,
    }


def end_to_end(slices: list[dict[str, Any]]) -> dict[str, Any]:
    """The result object for ``--trace 0`` (plus round costs for print)."""
    costs = round_costs(slices)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in slices),
        "peak_rss_mb": max(s["peak_rss_mb"] for s in slices),
    }
    return {
        "correct": costs["failed"] == 0,
        "attempted": costs["attempted"],
        "failed": costs["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in END_TO_END},
        "notes": costs,
    }


def per_layer(slices: list[dict[str, Any]]) -> dict[str, Any]:
    """The result object for ``--trace 1``."""
    costs = round_costs(slices)
    base = [s for s in slices if not s["traced"]]
    untraced = round_costs(base)
    untraced["warmup_unit_ms"] = statistics.fmean(s["warmup_s"] for s in base) * 1e3
    untraced["kernel_ms"] = statistics.fmean(s["kernel_s"] for s in base) * 1e3
    traced = round_costs([s for s in slices if s["traced"]])
    raw = next((s["ledger"] for s in slices if "ledger" in s), None) or {
        "totals": {}, "counters": {}, "not_busy": [],
    }  # fmt: skip
    ledger = Ledger(
        totals=raw["totals"],
        counters=raw["counters"],
        not_busy=set(raw["not_busy"]),
        rounds=traced["rounds"],
        unit_wall_s=traced["wall_s"],
        latencies=traced["latencies"],
        traced_round_ms=traced["round_ms"],
        untraced=untraced,
        fail_ratio=costs["failed"] / costs["attempted"],
    )
    return {
        "correct": costs["failed"] == 0,
        "attempted": costs["attempted"],
        "failed": costs["failed"],
        "metrics": {
            name: {"value": formula(ledger), "unit": unit}
            for name, unit, formula in LAYER_METRICS
        },
        "notes": costs,
    }


def measure(
    workloads: list[str],
    seed: int,
    seconds: float,
    trace: bool,
    expect_digest: str | None = None,
) -> dict[str, dict[str, Any]]:
    """Run every workload's slices, interleaved; name -> result object."""
    plan = slice_plan(seconds, trace)
    slices: dict[str, list[dict[str, Any]]] = {w: [] for w in workloads}
    for traced, share in plan:
        for workload in workloads:
            slices[workload].append(
                run_slice(workload, seed, share, traced, expect_digest)
            )
    summarize = per_layer if trace else end_to_end
    return {w: summarize(slices[w]) for w in workloads}


def render(workload: str, result: dict[str, Any], trace: bool) -> Iterator[str]:
    notes = result["notes"]
    yield (
        f"{workload}: {result['attempted']} units, {notes['rounds']} verified "
        f"rounds, fail_ratio {result['failed'] / result['attempted']:.3f}"
    )
    for reason in notes["reasons"]:
        yield f"  FAILED: {reason}"
    row = "  {:<40} {:>14.4f} {}{}".format
    for name, metric in result["metrics"].items():
        yield row(name, metric["value"], metric["unit"], "")
    if not trace:
        # As measured in this run; their machine-readable home is --trace 1.
        for name in ("round_ms", "round_p50_ms", "cpu_ms_per_round"):
            extra = ""
            if name == "round_p50_ms":
                extra = f"  ({notes['p50_samples']} samples)"
            yield row(name, notes[name], "ms", extra + "  (no bound)")


def main(argv: list[str] | None = None) -> int:
    # The names come from the contract file, not from bench.workloads:
    # importing the program here would add its RSS and import time to
    # every worker this process forks.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    WORKLOADS = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", "--duration", type=float, default=10.0, dest="seconds",
        help="timed seconds per workload (default 10)",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
        help="1 = traced pass: per-layer ledger instead of end-to-end metrics",
    )  # fmt: skip
    parser.add_argument(
        "--expect-digest", default=None,
        help="verify every unit against this digest, not the warm-up unit's",
    )  # fmt: skip
    args = parser.parse_args(argv)
    # A terminated run must take its worker with it (see run_slice's finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    names = [args.workload] if args.workload else WORKLOADS
    results = measure(
        names, args.seed, args.seconds, bool(args.trace), args.expect_digest
    )
    for name in names:
        print("\n".join(render(name, results[name], bool(args.trace))))
    for result in results.values():
        del result["notes"]
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    if not (SRC / "repro").is_dir():
        sys.exit(f"bench: the program's source is missing ({SRC / 'repro'})")
    sys.exit(main())
