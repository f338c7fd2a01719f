"""The metrics registry: instruments, labels, Prometheus exposition,
and live-vs-offline observer equivalence on real engine traces."""

import json
import math

import pytest

from repro.obs import (
    MetricsError,
    MetricsObserver,
    MetricsRegistry,
    PromSample,
    Tracer,
    metrics_from_trace,
    parse_exposition,
    parse_prometheus_text,
    render_exposition,
)


class TestCounter:
    def test_inc_and_value(self):
        r = MetricsRegistry()
        c = r.counter("requests_total", "requests", ("code",))
        c.inc(code=200)
        c.inc(2, code=200)
        c.inc(code=500)
        assert c.value(code=200) == 3
        assert c.value(code=500) == 1
        assert c.value(code=404) == 0

    def test_counter_cannot_decrease(self):
        c = MetricsRegistry().counter("n", "")
        with pytest.raises(MetricsError, match="cannot decrease"):
            c.inc(-1)

    def test_wrong_labels_rejected(self):
        c = MetricsRegistry().counter("n", "", ("pid",))
        with pytest.raises(MetricsError, match="takes labels"):
            c.inc()
        with pytest.raises(MetricsError, match="takes labels"):
            c.inc(pid=1, phase=2)

    def test_remove_drops_one_label_set(self):
        r = MetricsRegistry()
        c = r.counter("done_total", "", ("group",))
        c.inc(3, group="a")
        c.inc(group="b")
        c.remove(group="a")
        c.remove(group="never-seen")  # idempotent
        assert [name for name, _ in c.samples()] == ['done_total{group="b"}']
        assert 'group="a"' not in r.render_prometheus()
        assert c.value(group="a") == 0
        with pytest.raises(MetricsError, match="takes labels"):
            c.remove()

    def test_gauge_can_set_and_go_down(self):
        g = MetricsRegistry().gauge("temp", "")
        g.set(5.0)
        g.set(-2.5)
        assert g.value() == -2.5


class TestHistogram:
    def make(self):
        return MetricsRegistry().histogram(
            "lat", "latency", buckets=(0.1, 0.5, 1.0), labelnames=("klass",)
        )

    def test_buckets_get_inf_appended(self):
        h = self.make()
        assert h.buckets == (0.1, 0.5, 1.0, math.inf)

    def test_bad_buckets_rejected(self):
        r = MetricsRegistry()
        with pytest.raises(MetricsError, match="needs buckets"):
            r.histogram("h1", "", buckets=())
        with pytest.raises(MetricsError, match="increasing"):
            r.histogram("h2", "", buckets=(1.0, 0.5))

    def test_observe_and_cumulative(self):
        h = self.make()
        for v in (0.05, 0.3, 0.3, 0.7, 2.0):
            h.observe(v, klass="d")
        assert h.count(klass="d") == 5
        assert h.sum(klass="d") == pytest.approx(3.35)
        assert h.cumulative(klass="d") == [
            (0.1, 1),
            (0.5, 3),
            (1.0, 4),
            (math.inf, 5),
        ]
        assert h.count(klass="other") == 0

    def test_quantile_interpolates(self):
        h = self.make()
        for v in (0.05, 0.3, 0.3, 0.7, 2.0):
            h.observe(v, klass="d")
        assert math.isnan(h.quantile(0.5, klass="missing"))
        p50 = h.quantile(0.5, klass="d")
        assert 0.1 <= p50 <= 0.5
        # Everything in the +Inf bucket clamps to the last finite bound.
        assert h.quantile(1.0, klass="d") == 1.0
        with pytest.raises(MetricsError, match="out of"):
            h.quantile(1.5, klass="d")

    def test_per_pid_and_per_phase_labels(self):
        r = MetricsRegistry()
        h = r.histogram(
            "dur", "", buckets=(1.0, 2.0), labelnames=("pid", "phase")
        )
        h.observe(0.5, pid=0, phase=3)
        h.observe(1.5, pid=1, phase=3)
        assert h.count(pid=0, phase=3) == 1
        assert h.count(pid=1, phase=3) == 1
        text = r.render_prometheus()
        assert 'dur_bucket{pid="0",phase="3",le="1"} 1' in text


class TestRegistry:
    def test_reregistration_is_idempotent(self):
        r = MetricsRegistry()
        a = r.counter("x", "help", ("l",))
        b = r.counter("x", "help", ("l",))
        assert a is b

    def test_conflicting_registration_rejected(self):
        r = MetricsRegistry()
        r.counter("x", "")
        with pytest.raises(MetricsError, match="already registered"):
            r.gauge("x", "")
        with pytest.raises(MetricsError, match="already registered"):
            r.counter("x", "", ("l",))

    def test_unknown_metric_lookup(self):
        r = MetricsRegistry()
        with pytest.raises(MetricsError, match="no metric"):
            r["nope"]

    def test_to_json_is_json_serializable_with_inf_gauges(self):
        r = MetricsRegistry()
        r.gauge("ratio", "").set(math.inf)
        text = json.dumps(r.to_json())
        assert "Infinity" not in text.replace('"+Inf"', "")
        assert json.loads(text)["ratio"]["values"][0]["value"] == "+Inf"


class TestPrometheusExposition:
    def sample_registry(self):
        r = MetricsRegistry()
        c = r.counter("barrier_faults_total", "faults", ("klass",))
        c.inc(3, klass="detectable")
        h = r.histogram("lat", "latency", buckets=(0.5, 1.0))
        h.observe(0.25)
        h.observe(0.75)
        r.gauge("ipp", "instances per phase").set(1.5)
        return r

    def test_format_shape(self):
        text = self.sample_registry().render_prometheus()
        assert "# HELP barrier_faults_total faults" in text
        assert "# TYPE barrier_faults_total counter" in text
        assert 'barrier_faults_total{klass="detectable"} 3' in text
        assert "# TYPE lat histogram" in text
        assert 'lat_bucket{le="0.5"} 1' in text
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="+Inf"} 2' in text
        assert "lat_sum 1" in text
        assert "lat_count 2" in text
        assert "# TYPE ipp gauge" in text
        assert text.endswith("\n")

    def test_parses(self):
        samples = parse_prometheus_text(
            self.sample_registry().render_prometheus()
        )
        assert samples['barrier_faults_total{klass="detectable"}'] == 3
        assert samples['lat_bucket{le="+Inf"}'] == 2
        assert samples["ipp"] == 1.5

    def test_parser_rejects_garbage(self):
        with pytest.raises(MetricsError, match="bad sample"):
            parse_prometheus_text("no_value_here\n")
        with pytest.raises(MetricsError, match="bad value"):
            parse_prometheus_text("x not_a_number\n")
        with pytest.raises(MetricsError, match="bad comment"):
            parse_prometheus_text("# NOPE x y\n")

    def test_label_escaping(self):
        r = MetricsRegistry()
        r.counter("c", "", ("name",)).inc(name='we"ird\nvalue')
        text = r.render_prometheus()
        assert '\\"' in text and "\\n" in text
        parse_prometheus_text(text)


class TestMetricsObserver:
    def synthetic_events(self):
        t = Tracer()
        t.phase_start(0.0, 0)
        t.fault(0.4, 2)
        t.detect(0.5, 0)
        t.phase_end(1.0, 0, False, duration=1.0)
        t.phase_start(1.0, 0)
        t.recovery(1.2, 2)
        t.phase_end(2.0, 0, True, duration=1.0)
        t.token_pass(0.0, src=0)
        t.token_pass(1.0, src=0)
        t.msg_send(0.1, 0, 1)
        t.msg_recv(0.2, 0, 1, latency=0.1)
        return t.events

    def test_counts_and_histograms(self):
        registry = metrics_from_trace(self.synthetic_events())
        assert registry["barrier_faults_total"].value(klass="detectable") == 1
        assert registry["barrier_detections_total"].value() == 1
        assert registry["barrier_recoveries_total"].value() == 1
        assert (
            registry["barrier_phase_instances_total"].value(result="failed")
            == 1
        )
        dur = registry["barrier_instance_duration"]
        assert dur.count(result="success") == 1
        assert dur.count(result="failed") == 1
        # Recovery latency attributed to the detectable pid-2 fault.
        lat = registry["barrier_recovery_latency"]
        assert lat.count(klass="detectable") == 1
        assert lat.sum(klass="detectable") == pytest.approx(0.8)
        # Token circulation: the 0->1 gap at src 0.
        assert registry["barrier_token_circulation_time"].count() == 1
        assert registry["barrier_message_latency"].count() == 1
        assert registry["barrier_messages_per_barrier"].value() == 1.0
        assert registry["barrier_instances_per_phase"].value() == 2.0

    def test_live_equals_offline(self):
        from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig

        tracer = Tracer()
        live = MetricsObserver().attach(tracer)
        sim = FTTreeBarrierSim(
            nprocs=8,
            config=SimConfig(latency=0.02, fault_frequency=0.2, seed=4),
            tracer=tracer,
        )
        sim.run(phases=25)
        assert (
            live.finalize().to_json()
            == metrics_from_trace(tracer.events).to_json()
        )

    def test_per_pid_and_per_phase_options(self):
        registry = metrics_from_trace(
            self.synthetic_events(), per_pid=True, per_phase=True
        )
        assert (
            registry["barrier_faults_total"].value(klass="detectable", pid=2)
            == 1
        )
        assert (
            registry["barrier_phase_instances_total"].value(
                result="success", phase=0
            )
            == 1
        )
        lat = registry["barrier_recovery_latency"]
        assert lat.count(klass="detectable", pid=2) == 1

    def test_duration_derived_when_payload_absent(self):
        t = Tracer()
        t.phase_start(1.0, 7)
        t.phase_end(3.5, 7, True)  # no duration payload
        registry = metrics_from_trace(t.events)
        dur = registry["barrier_instance_duration"]
        assert dur.count(result="success") == 1
        assert dur.sum(result="success") == pytest.approx(2.5)

    def test_no_success_ratios_are_inf(self):
        t = Tracer()
        t.phase_start(0.0, 0)
        t.phase_end(1.0, 0, False)
        registry = metrics_from_trace(t.events)
        assert math.isinf(registry["barrier_instances_per_phase"].value())


class TestEngineTraces:
    """metrics-report inputs from each engine actually populate."""

    def test_simmpi_trace_populates_messages_and_durations(self):
        from repro.simmpi import FTMode, Runtime

        tracer = Tracer()
        rt = Runtime(
            nprocs=4, latency=0.01, seed=0, ft_mode=FTMode.TOLERATE,
            tracer=tracer,
        )
        rt.schedule_fault(1.005, rank=2)

        def worker(comm):
            for _ in range(3):
                yield comm.compute(1.0)
                yield comm.barrier()
            return comm.rank

        rt.run(worker)
        registry = metrics_from_trace(tracer.events)
        assert registry["barrier_messages_total"].value(direction="sent") > 0
        assert registry["barrier_message_latency"].count() > 0
        assert registry["barrier_instance_duration"].count(result="success") == 3
        assert registry["barrier_faults_total"].value(klass="detectable") == 1

    def test_gc_trace_populates_step_durations(self):
        from repro.barrier.cb import make_cb
        from repro.gc.scheduler import RoundRobinDaemon
        from repro.gc.simulator import Simulator

        tracer = Tracer()
        prog = make_cb(3, 2)
        sim = Simulator(prog, RoundRobinDaemon(tracer=tracer), tracer=tracer)
        sim.run(
            max_steps=5_000,
            stop=lambda s, _st: tracer.counters.get("obs.phases_successful", 0)
            >= 4,
        )
        registry = metrics_from_trace(tracer.events)
        dur = registry["barrier_instance_duration"]
        assert dur.count(result="success") == 4
        assert dur.sum(result="success") > 0  # durations in daemon steps


class TestExpositionRoundTrip:
    """Structured parse/render round-trips (the scrape-side contract):
    expose -> parse -> expose must be byte-identical, through escaped
    label values and non-finite sample values."""

    def weird_registry(self):
        r = MetricsRegistry()
        c = r.counter("weird_total", 'help with \\ and\nnewline', ("name",))
        c.inc(2, name='quote " backslash \\ newline \n tab\t')
        c.inc(1, name="plain")
        g = r.gauge("extremes", "non-finite values", ("which",))
        g.set(float("inf"), which="pos")
        g.set(float("-inf"), which="neg")
        g.set(float("nan"), which="nan")
        g.set(0.1 + 0.2, which="repr")
        return r

    def test_escaped_labels_round_trip_byte_identical(self):
        text = self.weird_registry().render_prometheus()
        entries = parse_exposition(text)
        assert render_exposition(entries) == text
        # And once more through the already-canonical form.
        assert render_exposition(parse_exposition(render_exposition(entries))) == text

    def test_escaped_label_values_survive_parsing(self):
        text = self.weird_registry().render_prometheus()
        samples = [e[1] for e in parse_exposition(text) if e[0] == "sample"]
        values = {dict(s.labels).get("name") for s in samples if s.name == "weird_total"}
        assert 'quote " backslash \\ newline \n tab\t' in values

    def test_non_finite_values_round_trip(self):
        text = self.weird_registry().render_prometheus()
        flat = parse_prometheus_text(text)
        assert flat['extremes{which="pos"}'] == float("inf")
        assert flat['extremes{which="neg"}'] == float("-inf")
        assert math.isnan(flat['extremes{which="nan"}'])
        assert "+Inf" in text and "-Inf" in text and "NaN" in text

    def test_help_escaping_round_trips(self):
        text = self.weird_registry().render_prometheus()
        entries = parse_exposition(text)
        helps = {name: body for kind, name, body in
                 (e for e in entries if e[0] == "help")}
        assert helps["weird_total"] == 'help with \\ and\nnewline'

    def test_sample_key_is_canonical(self):
        sample = PromSample(
            name="m", labels=(("a", 'x"y'),), value=1.0, raw_value="1"
        )
        assert sample.key == 'm{a="x\\"y"}'
        assert sample.render() == 'm{a="x\\"y"} 1'

    def test_duplicate_samples_rejected_flat(self):
        text = 'm{a="1"} 2\nm{a="1"} 3\n'
        with pytest.raises(MetricsError, match="duplicate"):
            parse_prometheus_text(text)

    def test_unknown_type_kind_rejected(self):
        with pytest.raises(MetricsError):
            parse_exposition("# TYPE m sometype\n")


hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_label_values = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=20
)
_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
_special = st.sampled_from([float("inf"), float("-inf"), float("nan")])


@settings(max_examples=100, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(_label_values, st.one_of(_finite, _special)),
        min_size=1,
        max_size=6,
        unique_by=lambda p: p[0],
    )
)
def test_exposition_round_trip_hypothesis(pairs):
    """Any label value (escapes included) and any sample value
    (non-finite included) survives expose -> parse -> expose
    byte-identically."""
    registry = MetricsRegistry()
    gauge = registry.gauge("fuzz", "fuzzed gauge", ("v",))
    for value, number in pairs:
        gauge.set(number, v=value)
    text = registry.render_prometheus()
    entries = parse_exposition(text)
    assert render_exposition(entries) == text
    parsed = {
        dict(e[1].labels)["v"]: e[1].value
        for e in entries
        if e[0] == "sample"
    }
    for value, number in pairs:
        got = parsed[value]
        assert got == number or (math.isnan(got) and math.isnan(number))
