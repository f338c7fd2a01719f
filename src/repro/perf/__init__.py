"""Performance benchmarks and the perf-regression gate.

This package measures the three optimization layers this repo ships --
incremental guard evaluation in the daemons, the explorer fast path,
and the cached/parallel experiment sweeps -- and gates them against the
committed baseline (``benchmarks/BASELINE_perf.json``).

See :mod:`repro.perf.bench` for the workloads and the gating rules;
``python -m repro.perf.bench`` (or ``python benchmarks/bench_perf.py``)
runs everything and writes ``BENCH_perf.json``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.perf.bench import (
        BASELINE_PATH,
        BENCH_PATH,
        compare_reports,
        measure,
    )

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bench": ("BASELINE_PATH", "BENCH_PATH", "compare_reports", "measure"),
    },
)

__all__ = [
    "BASELINE_PATH",
    "BENCH_PATH",
    "compare_reports",
    "measure",
]
