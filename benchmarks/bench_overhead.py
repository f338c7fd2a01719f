"""Observability overhead benchmarks and the regression gate.

Two roles:

* under pytest, asserts the observability layer's perf contract -- the
  NullTracer <5% hot-path budget and the deterministic quantities
  against the committed ``BASELINE_obs.json``;
* as a script (``python benchmarks/bench_overhead.py [--quick]``), runs
  :data:`repro.obs.regress.SUITE` through :func:`repro.perf.gate.main`:
  writes ``BENCH_obs.json`` and exits non-zero if the gate fails.
"""

from __future__ import annotations

import sys
from pathlib import Path

if __name__ == "__main__":  # script mode: make src/ importable
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import pytest

from repro.obs import regress
from repro.obs.regress import SUITE, CountingNullTracer
from repro.perf import gate


@pytest.fixture(scope="module")
def report():
    return gate.run(SUITE, repeats=1, quick=True)


def test_null_tracer_overhead_gate():
    """With tracing off, the kernel makes ~zero tracer calls per step."""
    counting = CountingNullTracer()
    result = regress.run_kernel(counting)
    calls_per_step = counting.calls / max(1, result["steps"])
    assert calls_per_step <= regress.NULL_CALLS_PER_STEP_TOL, (
        f"{calls_per_step:.3f} unguarded tracer calls per step -- a "
        "recording call lost its 'if tracer.enabled:' guard"
    )


def test_net_null_tracer_overhead_gate():
    """With tracing off, the net runtime makes ~zero tracer calls per
    barrier round -- the protocol-level narration calls (phase, fault,
    detect, recovery) are guarded like the per-message hot path."""
    counting = CountingNullTracer()
    result = regress.run_net(faults=False, tracer_factory=lambda _pid: counting)
    calls_per_step = counting.calls / max(1, result.completed)
    assert calls_per_step <= regress.NULL_CALLS_PER_STEP_TOL, (
        f"{calls_per_step:.3f} unguarded tracer calls per barrier round -- "
        "a net narration call lost its 'if tracer.enabled:' guard"
    )


def test_gate_against_committed_baseline(report):
    assert SUITE.baseline_path.exists(), "benchmarks/BASELINE_obs.json missing"
    rows = tuple(r for r in SUITE.rows if "tracing_off_vs_on" not in r.path)
    result = gate.compare(report, rows, gate.load_json(SUITE.baseline_path))
    assert result.ok, result.render()


def test_tracing_off_not_slower_than_on(report):
    """Self-relative wall check: recording must cost something >= 0.

    The limit is looser than the gate's row (1.5) because this runs a
    single repeat per mode -- enough to catch NullTracer doing real
    work, without flaking on scheduler noise.
    """
    ratios = [
        entry["ratios"]["tracing_off_vs_on"]
        for entry in report["workloads"].values()
        if "tracing_off_vs_on" in entry.get("ratios", {})
    ]
    assert len(ratios) == 4, "wall ratios missing"
    assert max(ratios) <= 3.0, ratios


if __name__ == "__main__":
    sys.exit(gate.main(SUITE, sys.argv[1:]))
