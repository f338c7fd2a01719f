"""Causal fault chains: attribution under overlapping faults, the
per-class latency distributions, and the report CLI on every engine."""

import json
import math

import pytest

from repro.obs import Tracer, build_chains, causal_report
from repro.obs.causal import _quantile
from repro.obs.jsonl import write_jsonl


class TestBuildChains:
    def test_single_fault_full_chain(self):
        t = Tracer()
        t.phase_start(0.0, 0)
        t.fault(1.0, 3, detectable=True)
        t.detect(1.4, 0)
        t.recovery(2.0, 3)
        t.phase_end(2.5, 0, True)
        (chain,) = build_chains(t.events)
        assert chain.pid == 3
        assert chain.klass == "detectable"
        assert chain.detection_latency == pytest.approx(0.4)
        assert chain.recovery_latency == pytest.approx(1.0)
        assert chain.total_latency == pytest.approx(1.5)
        assert chain.complete
        assert not chain.system_wide_recovery

    def test_overlapping_faults_attributed_per_pid(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.fault(1.2, 5)
        t.recovery(1.5, 5)  # pid 5 recovers first, out of arrival order
        t.recovery(2.0, 2)
        a, b = build_chains(t.events)
        assert (a.pid, a.recovery_latency) == (2, pytest.approx(1.0))
        assert (b.pid, b.recovery_latency) == (5, pytest.approx(0.3))

    def test_fifo_within_one_pid(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.fault(3.0, 2)
        t.recovery(4.0, 2)
        t.recovery(4.5, 2)
        a, b = build_chains(t.events)
        assert a.recovery_latency == pytest.approx(3.0)
        assert b.recovery_latency == pytest.approx(1.5)

    def test_system_wide_recovery_closes_all_open_chains(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.fault(1.5, 4)
        t.recovery(3.0, 0)  # pid 0 has no fault of its own -> system-wide
        a, b = build_chains(t.events)
        assert a.system_wide_recovery and b.system_wide_recovery
        # Each chain measures from its *own* fault time.
        assert a.recovery_latency == pytest.approx(2.0)
        assert b.recovery_latency == pytest.approx(1.5)

    def test_explicit_latency_overrides_difference(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.recovery(9.0, 2, latency=0.25)
        (chain,) = build_chains(t.events)
        assert chain.recovery_latency == pytest.approx(0.25)

    def test_explicit_latency_on_system_wide_goes_to_earliest(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.fault(2.0, 4)
        t.recovery(5.0, 0, latency=4.0)
        a, b = build_chains(t.events)
        assert a.recovery_latency == pytest.approx(4.0)
        assert b.recovery_latency == pytest.approx(3.0)

    def test_detect_goes_to_earliest_undetected_chain(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.fault(1.5, 4)
        t.detect(2.0, 0)
        t.detect(2.2, 0)
        a, b = build_chains(t.events)
        assert a.detect_time == 2.0
        assert b.detect_time == 2.2

    def test_clean_phase_requires_success(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.recovery(2.0, 2)
        t.phase_end(2.5, 0, False)  # failed instance is not "clean"
        t.phase_end(3.0, 0, True)
        (chain,) = build_chains(t.events)
        assert chain.clean_phase_time == 3.0
        assert chain.total_latency == pytest.approx(2.0)

    def test_unrecovered_fault_stays_open(self):
        t = Tracer()
        t.fault(1.0, 2, detectable=False)
        (chain,) = build_chains(t.events)
        assert chain.recovery_time is None
        assert chain.recovery_latency is None
        assert not chain.complete


class TestQuantile:
    def test_empty_is_nan(self):
        assert math.isnan(_quantile([], 0.5))

    def test_interpolates(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert _quantile(vals, 0.0) == 1.0
        assert _quantile(vals, 1.0) == 4.0
        assert _quantile(vals, 0.5) == pytest.approx(2.5)


class TestCausalReport:
    def mixed_trace(self):
        t = Tracer()
        t.fault(1.0, 2, detectable=True)
        t.detect(1.2, 0)
        t.recovery(1.5, 2)
        t.phase_end(2.0, 0, True)
        t.fault(3.0, 4, detectable=False)
        t.recovery(4.0, 4)
        t.phase_end(5.0, 0, True)
        t.fault(6.0, 1, detectable=True)  # never recovered
        return t.events

    def test_per_class_stats(self):
        report = causal_report(self.mixed_trace())
        det = report.by_class["detectable"]
        und = report.by_class["undetectable"]
        assert (det.chains, det.detected, det.recovered) == (2, 1, 1)
        assert (und.chains, und.recovered, und.complete) == (1, 1, 1)
        assert det.mean_recovery_latency == pytest.approx(0.5)
        assert und.mean_recovery_latency == pytest.approx(1.0)
        assert report.unrecovered == 1

    def test_render_mentions_both_classes(self):
        text = causal_report(self.mixed_trace()).render()
        assert "3 fault chains" in text
        assert "1 never recovered" in text
        assert "detectable" in text and "undetectable" in text
        assert "recovery latency" in text

    def test_render_empty_trace(self):
        assert "no faults" in causal_report([]).render()

    def test_to_json_is_serializable(self):
        report = causal_report(self.mixed_trace())
        data = json.loads(json.dumps(report.to_json(), allow_nan=False))
        assert len(data["chains"]) == 3
        assert data["by_class"]["detectable"]["chains"] == 2
        # The unrecovered chain has null latencies, not NaN.
        assert data["chains"][2]["recovery_latency"] is None


def _des_trace():
    from repro.protosim.recovery import RecoveryExperiment

    tracer = Tracer()
    exp = RecoveryExperiment(h=2, c=0.02, seed=1, tracer=tracer)
    exp.run(trials=4)
    return tracer.events


def _simmpi_trace():
    from repro.simmpi import FTMode, Runtime

    tracer = Tracer()
    rt = Runtime(
        nprocs=4, latency=0.01, seed=0, ft_mode=FTMode.TOLERATE, tracer=tracer
    )
    rt.schedule_fault(1.005, rank=2)

    def worker(comm):
        for _ in range(3):
            yield comm.compute(1.0)
            yield comm.barrier()

    rt.run(worker)
    return tracer.events


def _protosim_trace():
    from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig

    tracer = Tracer()
    sim = FTTreeBarrierSim(
        nprocs=8,
        config=SimConfig(latency=0.02, fault_frequency=0.3, seed=2),
        tracer=tracer,
    )
    sim.run(phases=20)
    return tracer.events


def _gc_trace():
    from repro.barrier.rb import make_rb, rb_detectable_fault
    from repro.gc.faults import BernoulliSchedule, FaultInjector
    from repro.gc.scheduler import RoundRobinDaemon
    from repro.gc.simulator import Simulator

    tracer = Tracer()
    prog = make_rb(4, nphases=2)
    injector = FaultInjector(
        prog,
        rb_detectable_fault(),
        BernoulliSchedule(0.01),
        seed=3,
        max_faults=3,
    )
    sim = Simulator(
        prog, RoundRobinDaemon(tracer=tracer), injector=injector,
        record_trace=False, tracer=tracer,
    )
    sim.run(max_steps=4_000)
    return tracer.events


ENGINE_TRACES = {
    "des": _des_trace,
    "simmpi": _simmpi_trace,
    "protosim": _protosim_trace,
    "gc": _gc_trace,
}


class TestReportsOnEveryEngine:
    """Acceptance: metrics-report and causal-report work on traces from
    all four engines, and the Prometheus output parses."""

    @pytest.fixture(params=sorted(ENGINE_TRACES))
    def trace_path(self, request, tmp_path):
        events = ENGINE_TRACES[request.param]()
        assert events, f"{request.param} produced an empty trace"
        path = tmp_path / f"{request.param}.jsonl"
        write_jsonl(events, path)
        return path

    def test_cli_reports_run_and_prom_parses(self, trace_path, capsys):
        from repro.experiments.cli import main as cli_main
        from repro.obs import parse_prometheus_text

        assert cli_main(["metrics-report", str(trace_path)]) == 0
        assert "barrier_events_total" in capsys.readouterr().out

        assert cli_main(["metrics-report", str(trace_path), "--format", "prom"]) == 0
        samples = parse_prometheus_text(capsys.readouterr().out)
        assert any(k.startswith("barrier_events_total") for k in samples)

        assert cli_main(["metrics-report", str(trace_path), "--format", "json"]) == 0
        assert "barrier_events_total" in json.loads(capsys.readouterr().out)

        assert cli_main(["causal-report", str(trace_path)]) == 0
        assert "fault chains" in capsys.readouterr().out

        assert cli_main(["causal-report", str(trace_path), "--format", "json"]) == 0
        assert "chains" in json.loads(capsys.readouterr().out)

    def test_chains_recover_in_fault_traces(self):
        # The protosim workload injects detectable faults and recovers
        # every one of them within the run.
        report = causal_report(_protosim_trace())
        det = report.by_class.get("detectable")
        assert det is not None and det.chains > 0
        assert det.recovered == det.chains
        assert all(lat >= 0 for lat in det.recovery_latencies)
