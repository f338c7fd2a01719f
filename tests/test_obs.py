"""The observability layer: tracer semantics, JSONL round trips, and
trace-derived metrics agreeing with every engine's native numbers."""

import io
import math

import pytest

from repro.obs import (
    EVENT_KINDS,
    FAULT,
    MSG_RECV,
    MSG_SEND,
    NULL_TRACER,
    PHASE_END,
    PHASE_START,
    RECOVERY,
    TOKEN_PASS,
    NullTracer,
    ObsError,
    ObsEvent,
    Tracer,
    ensure_tracer,
    read_jsonl,
    summarize,
    write_jsonl,
)


class TestObsEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            ObsEvent(kind="nope", time=0.0)

    def test_reserved_data_keys_rejected(self):
        with pytest.raises(ValueError, match="reserved"):
            ObsEvent(kind=FAULT, time=0.0, pid=1, data={"t": 3.0})

    def test_dict_round_trip(self):
        ev = ObsEvent(kind=MSG_SEND, time=1.5, pid=2, data={"dst": 3, "tag": 7})
        d = ev.to_dict()
        assert d == {"kind": "msg_send", "t": 1.5, "pid": 2, "dst": 3, "tag": 7}
        assert ObsEvent.from_dict(d) == ev

    def test_none_pid_omitted_from_dict(self):
        ev = ObsEvent(kind=FAULT, time=0.0, pid=None, data={"detectable": False})
        d = ev.to_dict()
        assert "pid" not in d
        assert ObsEvent.from_dict(d).pid is None

    def test_schema_is_the_paper_kinds_plus_quarantine(self):
        assert len(EVENT_KINDS) == 9
        assert "quarantine" in EVENT_KINDS


class TestTracer:
    def test_events_kept_in_emission_order(self):
        t = Tracer()
        t.phase_start(0.0, 0)
        t.fault(0.3, 2)
        t.detect(0.4, 0)
        t.phase_end(0.5, 0, False)
        t.recovery(0.6, 0)
        t.token_pass(0.7, src=1, dst=2)
        t.msg_send(0.8, 1, 2, tag=4)
        t.msg_recv(0.9, 1, 2, tag=4)
        kinds = [e.kind for e in t.events]
        assert kinds == [
            "phase_start",
            "fault",
            "detect",
            "phase_end",
            "recovery",
            "token_pass",
            "msg_send",
            "msg_recv",
        ]
        assert [e.time for e in t.events] == sorted(e.time for e in t.events)
        # Helper payloads land in data, envelope in kind/time/pid.
        assert t.events[1].data == {"detectable": True}
        assert t.events[5].data == {"dst": 2}
        assert t.events[7].pid == 2 and t.events[7].data["src"] == 1

    def test_counters_accumulate(self):
        t = Tracer()
        t.incr("a")
        t.incr("a", 2)
        t.incr("b", 0.5)
        assert t.counters == {"a": 3, "b": 0.5}

    def test_timers_accumulate_elapsed_and_count(self):
        t = Tracer()
        t.timer_start("x", 1.0)
        assert t.timer_stop("x", 1.5) == pytest.approx(0.5)
        t.timer_start("x", 2.0)
        assert t.timer_stop("x", 4.0) == pytest.approx(2.0)
        total, count = t.timers["x"]
        assert total == pytest.approx(2.5)
        assert count == 2

    def test_timer_misuse_raises(self):
        t = Tracer()
        with pytest.raises(ObsError, match="never started"):
            t.timer_stop("x", 1.0)
        t.timer_start("x", 1.0)
        with pytest.raises(ObsError, match="already running"):
            t.timer_start("x", 2.0)
        with pytest.raises(ObsError, match="before its start"):
            t.timer_stop("x", 0.5)

    def test_open_timers_view(self):
        t = Tracer()
        t.timer_start("wave", 1.0)
        t.timer_start("phase", 2.0)
        t.timer_stop("phase", 3.0)
        assert t.open_timers == {"wave": 1.0}
        # The view is a copy: mutating it must not touch the tracer.
        t.open_timers.clear()
        assert t.open_timers == {"wave": 1.0}
        assert NULL_TRACER.open_timers == {}

    def test_timer_cancel_discards_without_recording(self):
        t = Tracer()
        t.timer_start("wave", 1.0)
        assert t.timer_cancel("wave") is True
        assert t.timer_cancel("wave") is False
        assert t.open_timers == {} and t.timers == {}
        t.timer_start("wave", 5.0)  # no "already running"
        assert t.timer_stop("wave", 6.0) == pytest.approx(1.0)

    def test_open_timers_surface_in_summary_render(self):
        t = Tracer()
        t.phase_start(0.0, 0)
        t.timer_start("recovery.window", 0.5)
        s = summarize(t.events, open_timers=t.open_timers)
        assert s.open_timers == ("recovery.window",)
        assert "open timers (leaked)  : recovery.window" in s.render()
        # And absent when everything was stopped.
        assert "open timers" not in summarize(t.events).render()

    def test_subscribe_sees_every_event_live(self):
        t = Tracer()
        seen = []
        t.subscribe(seen.append)
        t.phase_start(0.0, 0)
        t.fault(0.5, 2)
        assert [e.kind for e in seen] == ["phase_start", "fault"]
        t.unsubscribe(seen.append)
        t.detect(0.6)
        assert len(seen) == 2

    def test_from_events(self):
        evs = [ObsEvent(PHASE_START, 0.0, 0, {"phase": 0})]
        t = Tracer.from_events(evs)
        assert t.events == evs

    def test_capacity_zero_keeps_protocol_events_only(self):
        t = Tracer(capacity=0)
        seen = []
        t.subscribe(seen.append)
        t.phase_start(0.0, 0)
        t.token_pass(0.1, src=0, dst=1)
        t.incr("obs.phases_successful")
        assert t.enabled and t.events == []
        assert [e.kind for e in t.protocol_events] == ["phase_start"]
        assert (t.appended, t.dropped) == (2, 2)
        assert t.ring_stats() == {
            "appended": 2, "dropped": 2, "retained": 0, "capacity": 0
        }
        assert [e.kind for e in seen] == ["phase_start", "token_pass"]
        assert t.counters == {"obs.phases_successful": 1}


class TestNullTracer:
    def test_everything_is_a_noop(self):
        n = NullTracer()
        assert n.enabled is False
        n.phase_start(0.0, 0)
        n.phase_end(1.0, 0, True)
        n.fault(0.0, 1)
        n.detect(0.0)
        n.recovery(0.0)
        n.token_pass(0.0)
        n.msg_send(0.0, 0, 1)
        n.msg_recv(0.0, 0, 1)
        n.incr("x")
        n.timer_start("x", 0.0)
        assert n.timer_stop("x", 1.0) == 0.0  # no error, no record
        assert n.events == []
        assert n.counters == {}
        assert n.timers == {}

    def test_ensure_tracer(self):
        assert ensure_tracer(None) is NULL_TRACER
        t = Tracer()
        assert ensure_tracer(t) is t
        assert ensure_tracer(NULL_TRACER) is NULL_TRACER


class TestJsonl:
    def sample_events(self):
        t = Tracer()
        t.phase_start(0.0, 0)
        t.fault(0.73, 3, detectable=True, name="fault:detectable")
        t.phase_end(1.06, 0, False)
        t.fault(1.1, None, detectable=False)
        t.recovery(2.0, 0, latency=0.9)
        return t.events

    def test_round_trip_via_path(self, tmp_path):
        events = self.sample_events()
        path = tmp_path / "trace.jsonl"
        assert write_jsonl(events, path) == len(events)
        assert read_jsonl(path) == events

    def test_round_trip_via_file_object(self):
        events = self.sample_events()
        buf = io.StringIO()
        write_jsonl(events, buf)
        buf.seek(0)
        assert read_jsonl(buf) == events

    def test_dump_jsonl_returns_count(self, tmp_path):
        t = Tracer.from_events(self.sample_events())
        assert t.dump_jsonl(tmp_path / "t.jsonl") == len(t.events)

    def test_blank_lines_ignored(self):
        events = self.sample_events()
        buf = io.StringIO()
        write_jsonl(events, buf)
        text = "\n" + buf.getvalue().replace("\n", "\n\n")
        assert read_jsonl(io.StringIO(text)) == events

    def test_bad_line_reports_line_number(self):
        buf = io.StringIO('{"kind":"fault","t":0.0}\nnot json\n')
        with pytest.raises(ValueError, match="line 2"):
            read_jsonl(buf)

    def test_nonfinite_payloads_round_trip_as_valid_json(self):
        import json

        t = Tracer()
        t.recovery(1.0, 0, latency=math.inf)
        t.recovery(2.0, 0, latency=-math.inf)
        t.recovery(3.0, 0, latency=math.nan)
        buf = io.StringIO()
        write_jsonl(t.events, buf)
        text = buf.getvalue()
        # Strict JSON: a parser that rejects Infinity/NaN must accept it.
        def no_constants(name):
            raise AssertionError(f"bare non-finite token {name!r} in output")

        for line in text.splitlines():
            json.loads(line, parse_constant=no_constants)
        events = read_jsonl(io.StringIO(text))
        assert events[0].data["latency"] == math.inf
        assert events[1].data["latency"] == -math.inf
        assert math.isnan(events[2].data["latency"])

    def test_summarize_and_metrics_survive_nonfinite_read_back(self):
        from repro.obs import metrics_from_trace

        t = Tracer()
        t.fault(0.5, 1)
        t.recovery(1.0, 1, latency=math.inf)
        t.phase_start(1.0, 0)
        t.phase_end(2.0, 0, True)
        buf = io.StringIO()
        write_jsonl(t.events, buf)
        buf.seek(0)
        events = read_jsonl(buf)
        s = summarize(events)
        assert s.recovery_latencies == [math.inf]
        assert math.isinf(s.mean_recovery_latency)
        registry = metrics_from_trace(events)  # inf latency is skipped
        assert registry["barrier_recovery_latency"].count(klass="detectable") == 0
        assert registry["barrier_phase_instances_total"].value(result="success") == 1


class TestSummarize:
    def test_counts_and_ratios(self):
        t = Tracer()
        t.phase_start(0.0, 0)
        t.phase_end(1.0, 0, False)
        t.phase_start(1.0, 0)
        t.phase_end(2.0, 0, True)
        t.phase_start(2.0, 1)
        t.phase_end(3.0, 1, True)
        t.fault(0.5, 1)
        t.token_pass(1.5, 0)
        t.msg_send(0.1, 0, 1)
        t.msg_send(0.2, 1, 0)
        t.msg_recv(0.2, 0, 1)
        s = summarize(t.events)
        assert s.events == len(t.events)
        assert s.total_time == 3.0
        assert s.instances == 3
        assert s.successful_phases == 2
        assert s.failed_instances == 1
        assert s.instances_per_phase == pytest.approx(1.5)
        assert s.faults == 1 and s.detectable_faults == 1
        assert s.token_passes == 1
        assert s.messages_sent == 2 and s.messages_received == 1
        assert s.messages_per_barrier == pytest.approx(1.0)

    def test_no_success_is_inf(self):
        t = Tracer()
        t.phase_start(0.0, 0)
        t.phase_end(1.0, 0, False)
        s = summarize(t.events)
        assert math.isinf(s.instances_per_phase)
        assert math.isinf(s.messages_per_barrier)
        assert math.isnan(s.mean_recovery_latency)

    def test_recovery_latency_pairs_first_unmatched_fault(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.fault(1.2, 3)  # second fault before recovery: same episode
        t.recovery(1.8, 0)
        t.fault(5.0, 1)
        t.recovery(5.4, 0)
        s = summarize(t.events)
        assert s.recoveries == 2
        assert s.recovery_latencies == pytest.approx([0.8, 0.4])
        assert s.mean_recovery_latency == pytest.approx(0.6)

    def test_explicit_latency_wins_over_pairing(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.recovery(9.0, 0, latency=0.25)
        s = summarize(t.events)
        assert s.recovery_latencies == [0.25]

    def test_overlapping_faults_attributed_per_pid(self):
        # Regression: a single pending_fault scalar merged overlapping
        # faults at different pids -- the second fault's latency was
        # either wrong or dropped entirely.
        t = Tracer()
        t.fault(1.0, 2)
        t.fault(1.2, 3)  # overlaps the pid-2 fault
        t.recovery(1.5, 2)  # pid 2 recovers: pairs its own fault only
        t.recovery(1.9, 3)  # pid 3 recovers its own, not pid 2's leftovers
        s = summarize(t.events)
        assert s.recovery_latencies == pytest.approx([0.5, 0.7])

    def test_per_pid_fifo_within_one_pid(self):
        t = Tracer()
        t.fault(1.0, 2)
        t.fault(2.0, 2)
        t.recovery(2.5, 2)
        t.recovery(3.0, 2)
        s = summarize(t.events)
        assert s.recovery_latencies == pytest.approx([1.5, 1.0])

    def test_pidless_fault_resolved_by_global_recovery(self):
        t = Tracer()
        t.fault(1.0, None, detectable=False)  # whole-system perturbation
        t.fault(1.5, 4)
        t.recovery(2.0, 0)  # root recovery: earliest fault globally
        s = summarize(t.events)
        assert s.recovery_latencies == pytest.approx([1.0])
        # ...and the episode cleared: a later recovery has nothing to pair.
        t.recovery(9.0, 0)
        assert summarize(t.events).recovery_latencies == pytest.approx([1.0])

    def test_render_mentions_the_paper_quantities(self):
        out = summarize([]).render()
        assert "instances per phase" in out
        assert "recovery latency" in out
        assert "messages per barrier" in out


class TestTreeBarrierTraces:
    """The timed protocol simulator: trace-derived PhaseMetrics must
    reproduce the engine's native metrics."""

    def run_traced(self, fault_frequency, seed, phases=40):
        from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig

        tracer = Tracer()
        sim = FTTreeBarrierSim(
            nprocs=8,
            config=SimConfig(
                latency=0.02, fault_frequency=fault_frequency, seed=seed
            ),
            tracer=tracer,
        )
        return sim.run(phases=phases), tracer

    @pytest.mark.parametrize("freq", [0.0, 0.1, 0.3])
    def test_trace_reproduces_native_metrics(self, freq):
        from repro.protosim.metrics import metrics_from_events

        native, tracer = self.run_traced(freq, seed=5)
        derived = metrics_from_events(tracer.events)
        assert derived.instances == native.instances
        assert derived.total_instances == native.total_instances
        assert derived.successful_phases == native.successful_phases
        assert derived.instances_per_phase == pytest.approx(
            native.instances_per_phase, abs=1e-9
        )

    def test_summary_agrees_with_native(self):
        native, tracer = self.run_traced(0.2, seed=11)
        s = summarize(tracer.events)
        assert s.instances == native.total_instances
        assert s.successful_phases == native.successful_phases
        assert s.instances_per_phase == pytest.approx(
            native.instances_per_phase, abs=1e-9
        )
        # One wave release per instance.
        assert s.token_passes >= native.total_instances

    def test_fault_events_precede_their_recovery(self):
        _native, tracer = self.run_traced(0.3, seed=3)
        faults = [e for e in tracer.events if e.kind == FAULT]
        recoveries = [e for e in tracer.events if e.kind == RECOVERY]
        assert faults, "expected faults at frequency 0.3"
        if recoveries:
            assert all(lat >= 0 for lat in summarize(tracer.events).recovery_latencies)


class TestRuntimeTraces:
    """The simulated-MPI engine: trace counts vs RuntimeStats."""

    def test_traced_run_matches_stats(self):
        from repro.simmpi import FTMode, Runtime

        tracer = Tracer()
        rt = Runtime(
            nprocs=8, latency=0.01, seed=0, ft_mode=FTMode.TOLERATE, tracer=tracer
        )
        for dt, rank in [(1.005, 0), (1.02, 5), (2.2, 3)]:
            rt.schedule_fault(dt, rank=rank)

        def worker(comm):
            for _ in range(4):
                yield comm.compute(1.0)
                yield comm.barrier()
            return comm.rank

        rt.run(worker)
        s = summarize(tracer.events)
        assert s.faults == rt.stats.faults_injected == 3
        # collectives_completed counts per-rank completions; phase events
        # are per collective instance.
        assert s.successful_phases * 8 == rt.stats.collectives_completed
        assert s.instances == s.successful_phases + rt.stats.instances_retried
        assert s.messages_sent == rt.stats.messages_sent
        assert s.recoveries >= 1  # masked instances recovered
        assert s.detections >= 1

    def test_single_rank_runs_emit_phases(self):
        from repro.simmpi import Runtime

        tracer = Tracer()
        rt = Runtime(nprocs=1, seed=0, tracer=tracer)

        def worker(comm):
            yield comm.barrier()
            yield comm.barrier()
            return 0

        rt.run(worker)
        s = summarize(tracer.events)
        assert s.instances == s.successful_phases == 2

    def test_untraced_run_records_nothing(self):
        from repro.simmpi import Runtime

        rt = Runtime(nprocs=4, seed=0)
        assert rt.tracer is NULL_TRACER

        def worker(comm):
            yield comm.barrier()
            return 0

        rt.run(worker)
        assert rt.tracer.events == []


class TestRecoveryTraces:
    def test_recovery_events_carry_the_measured_latencies(self):
        from repro.protosim.recovery import RecoveryExperiment

        tracer = Tracer()
        exp = RecoveryExperiment(h=2, c=0.05, seed=0, tracer=tracer)
        result = exp.run(trials=5)
        s = summarize(tracer.events)
        assert s.recoveries == 5
        assert s.recovery_latencies == pytest.approx(result.times)
        assert s.mean_recovery_latency == pytest.approx(result.mean_time)
        # Every trial perturbs the whole system: one undetectable fault.
        assert s.faults == 5 and s.detectable_faults == 0


class TestGcTraces:
    """The untimed guarded-command engine: observer-derived phase events."""

    def run_cb(self, nprocs=3, nphases=2, target=4):
        from repro.barrier.cb import make_cb
        from repro.gc.scheduler import RoundRobinDaemon
        from repro.gc.simulator import Simulator

        tracer = Tracer()
        prog = make_cb(nprocs, nphases)
        sim = Simulator(prog, RoundRobinDaemon(tracer=tracer), tracer=tracer)
        result = sim.run(
            max_steps=5_000,
            stop=lambda s, _st: tracer.counters.get("obs.phases_successful", 0)
            >= target,
        )
        return result, tracer

    def test_fault_free_cb_is_one_instance_per_phase(self):
        result, tracer = self.run_cb()
        assert result.reached
        s = summarize(tracer.events)
        assert s.successful_phases == 4
        assert s.instances_per_phase == 1.0
        assert s.faults == 0
        assert tracer.counters["obs.instances"] == 4
        assert tracer.counters["gc.daemon_steps"] == result.steps

    def test_spec_oracle_agrees_with_trace(self):
        from repro.barrier.spec import BarrierSpecChecker

        result, tracer = self.run_cb()
        report = BarrierSpecChecker(nprocs=3, nphases=2).check(result.trace)
        assert report.safety_ok
        s = summarize(tracer.events)
        assert s.successful_phases == report.phases_completed


class TestTraceReportCli:
    def make_trace(self, tmp_path):
        from repro.protosim.metrics import metrics_from_events
        from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig

        tracer = Tracer()
        sim = FTTreeBarrierSim(
            nprocs=8,
            config=SimConfig(latency=0.02, fault_frequency=0.25, seed=9),
            tracer=tracer,
        )
        native = sim.run(phases=30)
        path = tmp_path / "trace.jsonl"
        tracer.dump_jsonl(path)
        return path, native, metrics_from_events(tracer.events)

    def test_report_reproduces_engine_metric(self, tmp_path, capsys):
        from repro.experiments.cli import main as cli_main

        path, native, derived = self.make_trace(tmp_path)
        assert derived.instances_per_phase == pytest.approx(
            native.instances_per_phase, abs=1e-9
        )
        assert cli_main(["trace-report", str(path)]) == 0
        out = capsys.readouterr().out
        expected = f"instances per phase   : {native.instances_per_phase:.6g}"
        assert expected in out

    def test_report_round_trips_through_jsonl(self, tmp_path):
        path, _native, derived = self.make_trace(tmp_path)
        s = summarize(read_jsonl(path))
        assert s.instances_per_phase == pytest.approx(
            derived.instances_per_phase, abs=1e-9
        )

    def test_missing_path_is_an_argparse_error(self, capsys):
        from repro.experiments.cli import main as cli_main

        with pytest.raises(SystemExit) as exc:
            cli_main(["trace-report"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "requires a JSONL trace path" in err
        assert "usage:" in err  # argparse usage, not a bare traceback
