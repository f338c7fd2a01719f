"""Unified structured tracing & metrics (the observability layer).

Every execution engine -- the discrete-event kernel and network
(:mod:`repro.des`), the simulated MPI runtime (:mod:`repro.simmpi`), the
timed protocol simulations (:mod:`repro.protosim`) and the untimed
guarded-command simulator (:mod:`repro.gc`) -- accepts an optional
``tracer=`` and emits the same typed event schema, so one summarizer
(:func:`summarize`) reduces any run to the paper's quantities and the
conformance suite can compare implementations event-for-event.

Quick start::

    from repro.obs import Tracer, summarize
    from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig

    tracer = Tracer()
    sim = FTTreeBarrierSim(nprocs=32, config=SimConfig(fault_frequency=0.05),
                           tracer=tracer)
    sim.run(phases=100)
    tracer.dump_jsonl("trace.jsonl")
    print(summarize(tracer.events).render())
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.events import (
        DETECT,
        EVENT_KINDS,
        FAULT,
        MSG_RECV,
        MSG_SEND,
        PHASE_END,
        PHASE_START,
        PROTOCOL_KINDS,
        RECOVERY,
        TOKEN_PASS,
        ObsEvent,
    )
    from repro.obs.causal import (
        CausalReport,
        FaultChain,
        build_chains,
        causal_report,
    )
    from repro.obs.jsonl import iter_jsonl, read_jsonl, write_jsonl
    from repro.obs.metrics import (
        Counter, Gauge, Histogram, MetricsError, MetricsRegistry,
    )
    from repro.obs.tracefold import MetricsObserver, metrics_from_trace
    from repro.obs.exposition import (
        PromSample,
        parse_exposition,
        parse_prometheus_text,
        render_exposition,
    )
    from repro.obs.summary import TraceSummary, summarize
    from repro.obs.tracer import NULL_TRACER, NullTracer, ObsError, Tracer, ensure_tracer
    from repro.obs.observer import BarrierPhaseObserver
    from repro.obs.recorder import (
        SNAPSHOT_KIND,
        digest_of_rows,
        dump_snapshot,
        projection_row,
        read_snapshot,
    )
    from repro.obs.spans import Span, SpanFolder
    from repro.obs.live import (
        LivePlane,
        StreamingMerger,
        monitor_filter,
        run_monitors_streaming,
    )
    from repro.obs.http import ObsHttpServer

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "events": (
            "DETECT", "EVENT_KINDS", "FAULT", "MSG_RECV", "MSG_SEND", "PHASE_END",
            "PHASE_START", "PROTOCOL_KINDS", "RECOVERY", "TOKEN_PASS", "ObsEvent",
        ),
        "causal": ("CausalReport", "FaultChain", "build_chains", "causal_report"),
        "jsonl": ("iter_jsonl", "read_jsonl", "write_jsonl"),
        "metrics": ("Counter", "Gauge", "Histogram", "MetricsError", "MetricsRegistry"),
        "tracefold": ("MetricsObserver", "metrics_from_trace"),
        "exposition": (
            "PromSample", "parse_exposition", "parse_prometheus_text",
            "render_exposition",
        ),
        "summary": ("TraceSummary", "summarize"),
        "tracer": ("NULL_TRACER", "NullTracer", "ObsError", "Tracer", "ensure_tracer"),
        "observer": ("BarrierPhaseObserver",),
        "recorder": (
            "SNAPSHOT_KIND", "digest_of_rows", "dump_snapshot", "projection_row",
            "read_snapshot",
        ),
        "spans": ("Span", "SpanFolder"),
        "live": (
            "LivePlane", "StreamingMerger", "monitor_filter", "run_monitors_streaming",
        ),
        "http": ("ObsHttpServer",),
    },
)

__all__ = [
    "ObsEvent",
    "EVENT_KINDS",
    "PHASE_START",
    "PHASE_END",
    "FAULT",
    "DETECT",
    "RECOVERY",
    "TOKEN_PASS",
    "MSG_SEND",
    "MSG_RECV",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "ObsError",
    "ensure_tracer",
    "BarrierPhaseObserver",
    "TraceSummary",
    "summarize",
    "write_jsonl",
    "read_jsonl",
    "iter_jsonl",
    "MetricsRegistry",
    "MetricsObserver",
    "MetricsError",
    "Counter",
    "Gauge",
    "Histogram",
    "metrics_from_trace",
    "parse_prometheus_text",
    "parse_exposition",
    "render_exposition",
    "PromSample",
    "FaultChain",
    "CausalReport",
    "build_chains",
    "causal_report",
    # live telemetry plane
    "PROTOCOL_KINDS",
    "SNAPSHOT_KIND",
    "dump_snapshot",
    "projection_row",
    "digest_of_rows",
    "read_snapshot",
    "Span",
    "SpanFolder",
    "StreamingMerger",
    "LivePlane",
    "monitor_filter",
    "run_monitors_streaming",
    "ObsHttpServer",
]
