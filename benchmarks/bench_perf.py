"""Computation-layer perf benchmarks and the regression gate.

Two roles (mirroring ``bench_overhead.py``):

* under pytest, asserts the perf contract of the incremental daemons,
  the explorer fast path, and the cached sweeps -- identical semantics
  plus the within-run speedup floors -- and the deterministic
  quantities against the committed ``BASELINE_perf.json``;
* as a script (``python benchmarks/bench_perf.py [--quick]``), runs
  :data:`repro.perf.bench.SUITE` through :func:`repro.perf.gate.main`:
  writes ``BENCH_perf.json`` and exits non-zero if the gate fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.perf import gate
from repro.perf.bench import SUITE


@pytest.fixture(scope="module")
def report():
    return gate.run(SUITE)


def _rows(*words: str) -> tuple[gate.Row, ...]:
    return tuple(r for r in SUITE.rows if any(w in r.path for w in words))


def test_traces_and_representations_identical(report):
    """The optimizations must not change any observable result."""
    rows = _rows("identical")
    assert rows, "identity rows missing from the table"
    result = gate.compare(report, rows)
    assert result.ok, result.render()


def test_within_run_speedups(report):
    """Ratio floors: headline RB speedup, eager daemons never slower,
    warm sweep cache >= 2x (all within-run, machine-independent)."""
    rows = _rows("ratio", "speedup")
    assert rows, "ratio rows missing from the table"
    result = gate.compare(report, rows)
    assert result.ok, result.render()


def test_gate_against_committed_baseline(report):
    assert SUITE.baseline_path.exists(), "benchmarks/BASELINE_perf.json missing"
    result = gate.compare(
        report, SUITE.rows, gate.load_json(SUITE.baseline_path)
    )
    assert result.ok, result.render()


if __name__ == "__main__":
    sys.exit(gate.main(SUITE, sys.argv[1:]))
