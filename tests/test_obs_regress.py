"""The observability suite: report structure, the gate on an
unmodified tree, and the NullTracer <5% overhead budget."""

import copy
import json

import pytest

from repro.obs import regress
from repro.obs.regress import SUITE, CountingNullTracer, run_kernel
from repro.perf import gate


@pytest.fixture(scope="module")
def report():
    return gate.run(SUITE, repeats=1, quick=True)


#: The wall-free rows: single-repeat timings are too noisy to gate.
DET_ROWS = tuple(r for r in SUITE.rows if "tracing_off_vs_on" not in r.path)


class TestCountingNullTracer:
    def test_stays_disabled_but_counts(self):
        t = CountingNullTracer()
        assert not t.enabled
        t.emit("fault", 0.0, 1)
        t.phase_start(0.0, 0)
        t.incr("x")
        assert t.timer_stop("t", 1.0) == 0.0
        assert t.calls == 4

    def test_kernel_makes_no_unguarded_calls(self):
        t = CountingNullTracer()
        result = run_kernel(t)
        assert result["steps"] > 0
        # Every hot-path recording call is guarded by tracer.enabled,
        # so a disabled tracer must see (essentially) zero calls.
        assert t.calls / result["steps"] <= regress.NULL_CALLS_PER_STEP_TOL


class TestMeasure:
    def test_report_structure(self, report):
        assert report["version"] == gate.VERSION and report["quick"]
        workloads = report["workloads"]
        assert set(workloads) == {
            "kernel", "fig5", "fig7", "net", "null_tracer", "net_null_tracer"
        }
        for name in ("kernel", "fig5", "fig7", "net"):
            assert workloads[name]["wall"]["median_s"] > 0
            assert workloads[name]["ratios"]["tracing_off_vs_on"] > 0
        # Virtual-time workloads gate on event counts; the net run is
        # wall-clock scheduled, so only plan-driven quantities appear.
        for name in ("kernel", "fig5", "fig7"):
            assert workloads[name]["deterministic"]["events"] > 0
        for name in ("kernel", "fig5"):
            assert workloads[name]["deterministic"]["instances"] > 0
        assert workloads["fig5"]["deterministic"]["instances_per_phase"] >= 1.0
        assert workloads["fig7"]["deterministic"]["recoveries"] > 0
        net = workloads["net"]["deterministic"]
        assert len(net["digest"]) == 64
        assert net["faults_fired"] == 1 and net["violations"] == 0
        assert "events" not in net
        for name in ("null_tracer", "net_null_tracer"):
            ratios = workloads[name]["ratios"]
            assert ratios["calls_per_step"] <= regress.NULL_CALLS_PER_STEP_TOL

    def test_deterministic_sections_reproduce(self, report):
        again = gate.run(SUITE, repeats=1, quick=True)
        assert gate.baseline_slice(again) == gate.baseline_slice(report)

    def test_fig5_quantiles_present(self, report):
        det = report["workloads"]["fig5"]["deterministic"]
        assert "instance_duration_success_p50" in det
        assert det["instance_duration_success_p50"] > 0

    def test_report_round_trips_as_json(self, report, tmp_path):
        path = gate.write_report(report, tmp_path / "bench.json")
        assert gate.load_json(path) == json.loads(json.dumps(report))


class TestCompare:
    def test_self_comparison_passes(self, report):
        baseline = gate.baseline_slice(copy.deepcopy(report))
        result = gate.compare(report, DET_ROWS, baseline)
        assert result.ok, result.render()

    def test_gate_passes_against_committed_baseline(self, report):
        # The acceptance criterion: an unmodified tree passes the gate
        # against the baseline committed in benchmarks/.
        assert SUITE.baseline_path.exists(), "benchmarks/BASELINE_obs.json missing"
        baseline = gate.load_json(SUITE.baseline_path)
        result = gate.compare(report, DET_ROWS, baseline)
        assert result.ok, result.render()

    def test_semantic_drift_trips_the_gate(self, report):
        drifted = copy.deepcopy(report)
        det = drifted["workloads"]["fig5"]["deterministic"]
        det["instances_per_phase"] *= 1.10  # 10% drift >> 1% tolerance
        result = gate.compare(drifted, (), gate.baseline_slice(report))
        assert [c.name for c in result.failures] == [
            "baseline.fig5.instances_per_phase"
        ]

    def test_drift_within_tolerance_passes(self, report):
        drifted = copy.deepcopy(report)
        det = drifted["workloads"]["fig5"]["deterministic"]
        det["instances_per_phase"] *= 1.001
        assert gate.compare(drifted, (), gate.baseline_slice(report)).ok

    def test_null_tracer_budget_trips(self, report):
        noisy = copy.deepcopy(report)
        noisy["workloads"]["null_tracer"]["ratios"]["calls_per_step"] = 0.5
        result = gate.compare(noisy, DET_ROWS)
        assert [c.name for c in result.failures] == [
            "null_tracer.calls_per_step"
        ]

    def test_missing_workload_fails(self, report):
        partial = copy.deepcopy(report)
        del partial["workloads"]["fig7"]
        result = gate.compare(partial, (), gate.baseline_slice(report))
        failing = [c.name for c in result.failures]
        assert failing and all(n.startswith("baseline.fig7.") for n in failing)

    def test_wall_ratio_row_is_self_relative(self, report):
        # One row per timed workload, bounding tracing-off over
        # tracing-on wall time measured in this process; no baseline
        # clock enters it.
        rows = [r for r in SUITE.rows if r.path.endswith("tracing_off_vs_on")]
        assert [r.path.split(".")[0] for r in rows] == [
            "kernel", "fig5", "fig7", "net"
        ]
        assert {(r.op, r.bound) for r in rows} == {("<=", 1.5)}
        slow = copy.deepcopy(report)
        slow["workloads"]["fig5"]["ratios"]["tracing_off_vs_on"] = 1.6
        result = gate.compare(slow, tuple(rows))
        assert [c.name for c in result.failures] == ["fig5.tracing_off_vs_on"]

    def test_render_lists_every_check(self, report):
        result = gate.compare(
            report, DET_ROWS, gate.baseline_slice(report)
        )
        text = result.render()
        assert "0 failing" in text
        assert "null_tracer.calls_per_step" in text


class TestMain:
    def test_update_baseline_then_gate(self, tmp_path, capsys):
        out = tmp_path / "BENCH_obs.json"
        base = tmp_path / "BASELINE.json"
        # Three repeats: the wall rows gate medians, not single runs.
        argv = ["--repeats", "3", "--out", str(out), "--baseline", str(base)]
        gate.main(SUITE, [*argv, "--update-baseline"])
        assert out.exists() and base.exists()
        assert gate.load_json(base) == gate.baseline_slice(gate.load_json(out))
        capsys.readouterr()
        # A second identical run gates clean against that baseline.
        code = gate.main(SUITE, argv)
        assert code == 0
        assert "0 failing" in capsys.readouterr().out

    def test_missing_baseline_is_an_error(self, tmp_path, capsys):
        code = gate.main(
            SUITE,
            [
                "--quick", "--repeats", "1",
                "--out", str(tmp_path / "b.json"),
                "--baseline", str(tmp_path / "nope.json"),
            ],
        )
        assert code == 1
        assert "--update-baseline" in capsys.readouterr().out
