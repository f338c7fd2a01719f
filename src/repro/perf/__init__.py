"""Performance benchmarks and the one regression gate.

:mod:`repro.perf.gate` holds the gate every benchmark suite shares (one
report layout, one baseline rule, one CLI); :mod:`repro.perf.bench` is
the computation suite -- incremental guard evaluation in the daemons,
the explorer fast path, and the cached/parallel experiment sweeps.
``python benchmarks/bench_perf.py`` runs it and writes
``BENCH_perf.json``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.perf.gate import Row, Suite, compare, main, run

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "gate": ("Row", "Suite", "compare", "main", "run"),
    },
)

__all__ = ["Row", "Suite", "compare", "main", "run"]
