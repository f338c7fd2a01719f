"""One slice of one workload, in a fresh process.

``bench.run`` starts this module once per slice and reads one JSON line,
the slice report, from its stdout.  Set-up is everything from the
parent's spawn (``--spawned-at``, the parent's ``time.monotonic()``:
that clock is shared by all processes of one boot) until the first unit
could start: interpreter start, imports, inputs built, daemon booted.
Then come **one untimed warm-up unit** and the timed units, back-to-back,
one in flight, until ``--seconds`` have passed (at least one; with
``--seconds 0``, a set-up-only slice, not even the warm-up); each is
verified outside its own timing.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from typing import Any

from bench import OUT
from bench.layers import Recorder, install
from bench.workloads import WORKLOADS, Workload


#: ``setup_s`` is reported in seconds of a machine on which
#: :func:`kernel_pass` takes this long.  The constant only fixes the unit;
#: it is the ratio to the passes timed right after the set-up that takes
#: this box's drifting speed out of the one timing that carries a bound.
KERNEL_PASS_S = 0.010

#: Passes timed after each set-up (~0.3 s).
KERNEL_PASSES = 30


def kernel_pass() -> float:
    """One pass of a fixed pure-Python kernel; its wall seconds."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(60_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        acc ^= (i * 2654435761) & 0xFFFFFFFF
    return time.perf_counter() - started


def _cpu_seconds() -> tuple[float, float]:
    """CPU so far: (this process, its reaped children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    """Largest resident set any one process of this slice reached.

    ``ru_maxrss`` of a freshly exec'ed process starts at its parent's
    peak, so this process reads its own high-water mark from ``/proc``
    (Linux); reaped children only matter when they outgrew it.
    """
    own_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    own_kib = int(line.split()[1])
    except OSError:
        pass
    kids_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, kids_kib) / 1024.0


def run_unit(
    workload: Workload,
    index: int,
    expected_digest: str | None,
    rec: Recorder | None,
) -> dict[str, Any]:
    """Run and verify unit ``index``; timing covers the unit job only."""
    if rec is not None:
        rec.unit = index
    own0, kids0 = _cpu_seconds()
    t0 = time.perf_counter()
    result = workload.unit(index)
    wall = time.perf_counter() - t0
    own1, kids1 = _cpu_seconds()
    facts = workload.facts(result)
    reasons = workload.verify(facts, expected_digest)
    if rec is not None:
        rec.count("children_cpu_s", kids1 - kids0)
        for name, value in workload.counts(result, wall).items():
            rec.count(name, value)
    return {
        "wall_s": wall,
        "cpu_s": (own1 - own0) + (kids1 - kids0),
        "reasons": reasons,
        "digest": facts.digest,
        "latencies": facts.latencies,
    }


def run_slice(
    workload: Workload,
    seed: int,
    seconds: float,
    traced: bool,
    expect_digest: str | None,
    spawned_at: float,
) -> dict[str, Any]:
    """Set up, then time units; the slice report."""
    rec = None
    if traced:
        rec = Recorder()
        install(rec)
    workload.start(seed)
    try:
        setup_s = time.monotonic() - spawned_at
        kernel_s = statistics.fmean(kernel_pass() for _ in range(KERNEL_PASSES))
        units: list[dict[str, Any]] = []
        warmup_s = 0.0
        if seconds > 0:  # 0 = a set-up-only slice
            warm = run_unit(workload, 0, expect_digest, rec)
            warmup_s = warm["wall_s"]
            if rec is not None:
                # The ledger describes timed units only.
                rec.totals.clear()
                rec.counters.clear()
                rec.spans.clear()
            if warm["reasons"]:
                # Nothing trustworthy to compare against: report and stop.
                units.append(warm)
            else:
                expected = expect_digest or warm["digest"]
                deadline = time.perf_counter() + seconds
                while not units or time.perf_counter() < deadline:
                    units.append(run_unit(workload, len(units) + 1, expected, rec))
        report: dict[str, Any] = {
            "workload": workload.name,
            "traced": traced,
            "setup_s": setup_s * KERNEL_PASS_S / kernel_s,
            "kernel_s": kernel_s,
            "warmup_s": warmup_s,
            "rounds_per_unit": workload.rounds,
            "units": [{k: v for k, v in u.items() if k != "digest"} for u in units],
            "peak_rss_mb": _peak_rss_mb(),
        }
        if rec is not None:
            # Side measurements add only span names the timed units never
            # produced, and those stay out of the busy sum; everything
            # else remains a picture of timed units.
            totals = {name: list(total) for name, total in rec.totals.items()}
            counters = dict(rec.counters)
            spans, dropped = list(rec.spans), rec.dropped
            workload.side_units()
            side = rec.totals.keys() - totals.keys()
            totals.update((name, rec.totals[name]) for name in side)
            report["ledger"] = {
                "totals": totals,
                "counters": counters,
                "not_busy": sorted(rec.waits | side),
            }
            OUT.mkdir(parents=True, exist_ok=True)
            with open(OUT / f"trace_{workload.name}.json", "w") as fh:
                json.dump(
                    {
                        "workload": workload.name,
                        "seed": seed,
                        "fields": ["id", "name", "start", "end", "parent", "unit"],
                        "spans_dropped": dropped,
                        "spans": spans,
                    },
                    fh,
                )
        return report
    finally:
        workload.stop()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect-digest", default=None)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    # The report owns stdout; anything the program prints goes to stderr.
    channel = sys.stdout
    sys.stdout = sys.stderr
    report = run_slice(
        WORKLOADS[args.workload](),
        args.seed,
        args.seconds,
        bool(args.trace),
        args.expect_digest,
        args.spawned_at,
    )
    channel.write(json.dumps(report) + "\n")
    channel.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
