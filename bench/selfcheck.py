"""Noise self-check: is the benchmark steady enough for its own bounds?

``python3 -m bench.selfcheck --sets 2`` does what the driver does before
it accepts the benchmark: per set, run ``BENCHMARK.json``'s command ten
times on every workload, each time with another seed, and take
for each end-to-end metric the interquartile range of those values as a
share of their median (the *spread*).  Then compare sets: a later set's
median may not be worse than the first's by more than the metric's bound
(the *drift*).

Breaches (exit status 1): a spread above its bound (``setup_s`` is
exempt from the spread rule, as in the driver), a drift above its bound,
any failed unit.  Spreads above a third of the bound are marked ``~``:
allowed, but the metric deserves more work per run.  A metric that cannot
meet its bound is fixed by lengthening or redefining it, or demoted to
the layer list.  Writes ``bench/out/noise.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from typing import Any

from bench import OUT, ROOT

#: Runs (seeds) per workload and set, as in the driver.
RUNS = 10


def run_once(command: list[str], workload: str, seed: int, seconds: int) -> dict:
    """One driver-style invocation; its last stdout line, parsed."""
    proc = subprocess.run(
        command
        + ["--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"],  # fmt: skip
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=180,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["exit"] = proc.returncode
    return result


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def collect(
    spec: dict, sets: int, breaches: list[str]
) -> list[dict[str, dict[str, list[float]]]]:
    """``values[set][workload][metric]`` -> one value per run; workloads
    alternate inside a run index so a slow spell lands on all of them."""
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    started = time.perf_counter()
    values = []
    for set_index in range(sets):
        table = {w: {m: [] for m in metrics} for w in workloads}
        for run in range(RUNS):
            seed = 1 + set_index * RUNS + run
            for workload in workloads:
                result = run_once(
                    spec["command"], workload, seed, spec["run_seconds"]
                )
                if result["exit"] != 0 or result["failed"] or not result["correct"]:
                    breaches.append(
                        f"set {set_index + 1} {workload} seed {seed}: "
                        f"{result['failed']}/{result['attempted']} units failed"
                    )
                for metric in metrics:
                    table[workload][metric].append(result["metrics"][metric]["value"])
            print(
                f"set {set_index + 1} run {run + 1}/{RUNS} done "
                f"({time.perf_counter() - started:.0f} s)",
                flush=True,
            )
        values.append(table)
    return values


def judge(
    workload: str, metric: str, bound: float, samples: list[list[float]],
    breaches: list[str],
) -> dict[str, Any]:  # fmt: skip
    """One table row: per-set median and spread, drift, and their flags."""
    medians = [statistics.median(v) for v in samples]
    spreads = [spread(v) for v in samples]
    # All metrics are better lower: positive drift is "got worse".
    drift = max((m - medians[0]) / medians[0] for m in medians)
    flags = []
    for i, s in enumerate(spreads):
        breach = metric != "setup_s" and s > bound
        if breach:
            breaches.append(
                f"{workload} {metric}: spread {s:.3f} of set {i + 1} > bound {bound}"
            )
        flags.append("!" if breach else "~" if s > bound / 3 else " ")
    if drift > bound:
        breaches.append(f"{workload} {metric}: drift {drift:.3f} > bound {bound}")
    cells = " ".join(
        f"{m:>10.4f} {s:>7.3f}{f}" for m, s, f in zip(medians, spreads, flags)
    )
    print(
        f"{workload:<16} {metric:<18} {bound:>6.2f} {cells} "
        f"{drift:>+8.3f}{'!' if drift > bound else ''}"
    )
    return {
        "workload": workload, "metric": metric, "bound": bound,
        "medians": medians, "spreads": spreads, "drift": drift, "values": samples,
    }  # fmt: skip


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.sets < 1:
        parser.error("need --sets >= 1")

    breaches: list[str] = []
    values = collect(spec, args.sets, breaches)
    heads = " ".join(
        f"{'median' + str(i + 1):>10} {'spread' + str(i + 1):>8}"
        for i in range(args.sets)
    )
    print(f"\n{'workload':<16} {'metric':<18} {'bound':>6} {heads} {'drift':>8}")
    rows = [
        judge(
            w["name"], m["name"], m["bound"],
            [table[w["name"]][m["name"]] for table in values], breaches,
        )  # fmt: skip
        for w in spec["workloads"]
        for m in spec["end_to_end"]
    ]
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "noise.json").write_text(
        json.dumps(
            {"sets": args.sets, "runs": RUNS, "seconds": spec["run_seconds"],
             "rows": rows, "breaches": breaches},
            indent=1,
        )  # fmt: skip
    )
    print(f"\n{len(breaches)} breaches" + "".join(f"\n  {b}" for b in breaches))
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
