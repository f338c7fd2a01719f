"""The traced pass: spans around each layer's public functions, and the
per-layer ledger computed from them.

Nothing under ``src/`` knows about this module.  :func:`install` patches
timing wrappers onto the layer entry points of *this process* (a worker
started for one traced slice), so wrappers never reach spawned shard
workers -- the ``net.shard.*`` metrics come from what ``NetResult``
reports instead.

A span is ``(id, name, start, end, parent id, unit)``.  The parent is
whichever span was open in the same asyncio task (or the task that
spawned it) when the call began.  A span's *self time* is its duration
minus the time its children spent inside it.  Spans around coroutines
that suspend (``recv``, client ``connect``/``join``) are *waits*: their
time overlaps other tasks' work, so they are reported but never summed
into the busy total behind ``unattributed_share``.
"""

from __future__ import annotations

import functools
import inspect
from contextvars import ContextVar
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

#: Spans kept verbatim per slice; totals cover every span regardless.
SPAN_LIMIT = 20_000

US, MS = 1e6, 1e3

#: The open span of the current task: ``[span id, child seconds, open]``.
_CURRENT: ContextVar[list | None] = ContextVar("bench_span", default=None)


class Recorder:
    """In-memory span store + running totals for one traced slice."""

    def __init__(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.waits: set[str] = set()
        self.dropped = 0
        self.unit = 0
        self._next_id = 0

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # -- span bookkeeping ------------------------------------------------
    def _begin(self) -> tuple[list, list | None, Any]:
        self._next_id += 1
        frame = [self._next_id, 0.0, True]
        parent = _CURRENT.get()
        return frame, parent, _CURRENT.set(frame)

    def _end(
        self, name: str, frame: list, parent: list | None, token: Any, t0: float
    ) -> None:
        t1 = perf_counter()
        _CURRENT.reset(token)
        frame[2] = False
        duration = t1 - t0
        if parent is not None and parent[2]:
            parent[1] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += max(0.0, duration - frame[1])
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append(
                (frame[0], name, t0, t1, parent[0] if parent else None, self.unit)
            )
        else:
            self.dropped += 1

    def wrap(
        self,
        fn: Callable,
        name: str | Callable[..., str | None],
        wait: bool = False,
        after: Callable[..., None] | None = None,
    ) -> Callable:
        """``fn`` timed as span ``name``.

        ``name`` may be a function of the call's arguments (None = do not
        trace this call); ``after(result, *args)`` runs once the call
        returned, for counters read off arguments or results.
        """
        if isinstance(name, str) and wait:
            self.waits.add(name)
        pick = name if callable(name) else None

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced(*args: Any, **kwargs: Any) -> Any:
                label = pick(*args, **kwargs) if pick else name
                if label is None:
                    return await fn(*args, **kwargs)
                frame, parent, token = self._begin()
                t0 = perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self._end(label, frame, parent, token, t0)
                if after is not None:
                    after(result, *args)
                return result

        else:

            @functools.wraps(fn)
            def traced(*args: Any, **kwargs: Any) -> Any:
                label = pick(*args, **kwargs) if pick else name
                if label is None:
                    return fn(*args, **kwargs)
                frame, parent, token = self._begin()
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._end(label, frame, parent, token, t0)
                if after is not None:
                    after(result, *args)
                return result

        return traced

    def patch(self, owner: Any, attr: str, name: Any, **kwargs: Any) -> None:
        """Replace ``owner.attr`` with its traced twin (classmethods kept)."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, **kwargs)))
        else:
            setattr(owner, attr, self.wrap(raw, name, **kwargs))


def install(rec: Recorder) -> None:
    """Wrap every layer boundary the ledger names, in this process."""
    import repro.net.runtime as runtime
    import repro.net.trace as net_trace
    import repro.obs.recorder as obs_recorder
    from repro.chaos.monitors import MonitorSet
    from repro.gc.faults import PlanInjector
    from repro.gc.scheduler import RoundRobinDaemon
    from repro.net.faults import FaultyTransport
    from repro.net.frames import DedupIndex, Message
    from repro.net.transport import MemTransport, TcpTransport
    from repro.net.tree import TreeBarrierNode
    from repro.obs.tracer import Tracer
    from repro.serve.client import ServeClient
    from repro.serve.daemon import ServeDaemon
    from repro.serve.groups import BarrierGroup

    # gc: one daemon step, one injector poll; the compiled backend's
    # steps are kept apart (the side measurement of gc_mb_faulty).
    rec.patch(
        RoundRobinDaemon,
        "step",
        lambda self, *a, **k: (
            "gc.compile.step" if self.backend == "compiled" else "gc.scheduler.step"
        ),
    )
    rec.patch(PlanInjector, "maybe_inject", "gc.faults.inject")
    rec.patch(Tracer, "emit", "obs.tracer.emit")
    # The gc path feeds monitors through the tracer subscription, which
    # lands in ``_on_event``; public ``feed`` delegates to it too.
    rec.patch(MonitorSet, "_on_event", "chaos.monitors.feed")

    # net.frames: strict decode only -- the lax parse inside
    # FaultyTransport._identity belongs to net.faults.decide.
    rec.patch(
        Message,
        "to_bytes",
        "net.frames.encode",
        after=lambda body, *a: rec.count("net.frames.bytes", len(body)),
    )
    rec.patch(
        Message,
        "from_bytes",
        lambda cls, body, strict=False: "net.frames.decode" if strict else None,
    )
    rec.patch(DedupIndex, "accept", "net.frames.dedup")

    # net.transport / net.faults / net.node
    rec.patch(runtime, "create_tcp_transports", "net.transport.setup")
    rec.patch(runtime, "create_mem_transports", "net.transport.setup")
    for transport in (MemTransport, TcpTransport):
        rec.patch(transport, "send", "net.transport.send")
        rec.patch(transport, "recv", "net.transport.recv_wait", wait=True)
    rec.patch(FaultyTransport, "send", "net.faults.decide")
    rec.patch(TreeBarrierNode, "handle", "net.node.handle")
    rec.patch(TreeBarrierNode, "validate_msg", "net.node.validate")

    # Post-run: the single-loop runtime bound these names at import;
    # run_sharded looks them up in their home modules at call time.
    rec.patch(runtime, "merge_traces", "net.trace.merge")
    rec.patch(runtime, "trace_digest", "net.trace.digest")
    rec.patch(runtime, "check_merged", "net.trace.check")
    rec.patch(net_trace, "merge_traces", "net.trace.merge")
    rec.patch(net_trace, "check_merged", "net.trace.check")
    rec.patch(obs_recorder, "digest_of_rows", "net.trace.digest")

    # serve: client stats die with the client, so read them at close.
    def harvest(_result: Any, client: Any) -> None:
        for key, value in client.stats.items():
            rec.count(f"serve.client.{key}", value)
            client.stats[key] = 0

    rec.patch(ServeClient, "connect", "serve.client.connect", wait=True)
    rec.patch(ServeClient, "join", "serve.client.join", wait=True)
    rec.patch(ServeClient, "close", "serve.client.close", wait=True, after=harvest)
    rec.patch(ServeDaemon, "_on_frame", "serve.daemon.frame")
    rec.patch(BarrierGroup, "dispatch", "serve.groups.dispatch")
    rec.patch(
        BarrierGroup,
        "offer",
        "serve.groups.offer",
        after=lambda accepted, *a: None if accepted else rec.count(
            "serve.groups.offer_rejects"
        ),
    )


# ----------------------------------------------------------------------
# The ledger: per-layer metrics from one traced slice
# ----------------------------------------------------------------------
@dataclass
class Ledger:
    """Totals of one traced slice, with the arithmetic the metrics share."""

    #: span name -> [calls, total seconds, self seconds]
    totals: dict[str, list[float]]
    counters: dict[str, float]
    #: Span names left out of the busy sum: waits and side measurements.
    not_busy: set[str]
    #: Rounds of verified units and the wall of all units, in the slice.
    rounds: int
    unit_wall_s: float
    #: Sorted client-observed arrive->release seconds (serve only).
    latencies: list[float]
    traced_round_ms: float
    #: The untraced slice of the same run: its ``bench.run.round_costs``
    #: (the timing metrics a shared box cannot hold to a regression bound,
    #: and the base of ``trace_overhead_ratio``), ``warmup_unit_ms`` and
    #: ``kernel_ms``.
    untraced: dict[str, float]
    #: Failed / attempted units over both slices.
    fail_ratio: float

    def calls(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def seconds(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0)

    def mean(self, name: str, scale: float, *extra: str) -> float:
        """Mean seconds per call of ``name`` (plus ``extra`` spans' time,
        charged to the same calls), scaled to us/ms."""
        calls = self.calls(name)
        return self.seconds(name, *extra) / calls * scale if calls else 0.0

    def self_mean(self, name: str, scale: float) -> float:
        """Like :meth:`mean`, of self time (children's time excluded)."""
        calls, _, own = self.totals.get(name, (0, 0.0, 0.0))
        return own / calls * scale if calls else 0.0

    def per_round(self, value: float) -> float:
        return value / self.rounds if self.rounds else 0.0

    def per(self, value: float, base: float) -> float:
        return value / base if base else 0.0

    def latency_ms(self, q: float) -> float:
        if not self.latencies:
            return 0.0
        rank = min(len(self.latencies) - 1, int(q * len(self.latencies)))
        return self.latencies[rank] * MS

    def unattributed_share(self) -> float:
        busy = sum(
            total[2] for name, total in self.totals.items() if name not in self.not_busy
        )
        # Shard workers are out of the wrappers' reach; what the
        # coordinator timed around them (spawn, protocol, teardown) is
        # attributed from its own report.
        busy += self.counter("net.shard.coordinator_s")
        return self.per(self.unit_wall_s - busy, self.unit_wall_s)


#: (name, unit, formula); all better lower.  A layer that a workload
#: leaves idle reads 0 there, which is the prediction.
LAYER_METRICS: list[tuple[str, str, Callable[[Ledger], float]]] = [
    ("round_ms", "ms", lambda L: L.untraced["round_ms"]),
    ("round_p50_ms", "ms", lambda L: L.untraced["round_p50_ms"]),
    ("cpu_ms_per_round", "ms", lambda L: L.untraced["cpu_ms_per_round"]),
    ("fail_ratio", "ratio", lambda L: L.fail_ratio),
    ("warmup_unit_ms", "ms", lambda L: L.untraced["warmup_unit_ms"]),
    ("machine.kernel_ms", "ms", lambda L: L.untraced["kernel_ms"]),
    ("gc.scheduler.step_us", "us", lambda L: L.mean("gc.scheduler.step", US)),
    ("gc.scheduler.steps_per_round", "count",
     lambda L: L.per_round(L.calls("gc.scheduler.step"))),
    ("gc.faults.inject_us", "us", lambda L: L.mean("gc.faults.inject", US)),
    ("gc.compile.step_us", "us", lambda L: L.mean("gc.compile.step", US)),
    ("obs.tracer.emit_us", "us", lambda L: L.self_mean("obs.tracer.emit", US)),
    ("obs.tracer.events_per_round", "count",
     lambda L: L.per_round(L.calls("obs.tracer.emit"))),
    ("chaos.monitors.feed_us", "us", lambda L: L.mean("chaos.monitors.feed", US)),
    ("net.frames.encode_us", "us", lambda L: L.mean("net.frames.encode", US)),
    ("net.frames.decode_us", "us", lambda L: L.mean("net.frames.decode", US)),
    ("net.frames.dedup_us", "us", lambda L: L.mean("net.frames.dedup", US)),
    ("net.frames.encoded_per_round", "count",
     lambda L: L.per_round(L.calls("net.frames.encode"))),
    ("net.frames.decoded_per_round", "count",
     lambda L: L.per_round(L.calls("net.frames.decode"))),
    ("net.frames.bytes_per_round", "B",
     lambda L: L.per_round(L.counter("net.frames.bytes"))),
    ("net.transport.setup_ms", "ms", lambda L: L.mean("net.transport.setup", MS)),
    ("net.transport.send_us", "us", lambda L: L.mean("net.transport.send", US)),
    ("net.transport.recv_wait_us", "us",
     lambda L: L.mean("net.transport.recv_wait", US)),
    ("net.node.handle_us", "us",
     lambda L: L.mean("net.node.handle", US, "net.node.validate")),
    ("net.node.sent_per_round", "count",
     lambda L: L.per_round(L.counter("net.node.sent"))),
    ("net.node.resend_ratio", "ratio",
     lambda L: L.per(L.counter("net.node.resends"), L.counter("net.node.sent"))),
    ("net.node.dup_filtered_per_round", "count",
     lambda L: L.per_round(L.counter("net.node.dup_filtered"))),
    ("net.node.hb_per_round", "count",
     lambda L: L.per_round(L.counter("net.node.hb_sent"))),
    ("net.faults.decide_us", "us", lambda L: L.self_mean("net.faults.decide", US)),
    ("net.faults.dropped_per_round", "count",
     lambda L: L.per_round(L.counter("net.faults.dropped"))),
    ("net.faults.duplicated_per_round", "count",
     lambda L: L.per_round(L.counter("net.faults.duplicated"))),
    ("net.faults.partitioned_per_round", "count",
     lambda L: L.per_round(L.counter("net.faults.partitioned"))),
    ("net.trace.merge_ms", "ms", lambda L: L.mean("net.trace.merge", MS)),
    ("net.trace.digest_ms", "ms", lambda L: L.mean("net.trace.digest", MS)),
    ("net.trace.check_ms", "ms", lambda L: L.mean("net.trace.check", MS)),
    ("net.runtime.post_run_share", "ratio",
     lambda L: L.per(
         L.counter("net.runtime.unit_s") - L.counter("net.runtime.protocol_s"),
         L.counter("net.runtime.unit_s"))),
    ("net.shard.spawn_teardown_ms", "ms",
     lambda L: L.per(
         L.counter("net.shard.coordinator_s") - L.counter("net.shard.protocol_s"),
         L.counter("net.shard.units")) * MS),
    ("net.shard.protocol_ms", "ms",
     lambda L: L.per(L.counter("net.shard.protocol_s"),
                     L.counter("net.shard.units")) * MS),
    ("net.shard.merge_ms", "ms",
     lambda L: L.per(
         L.counter("net.shard.unit_s") - L.counter("net.shard.coordinator_s"),
         L.counter("net.shard.units")) * MS),
    ("net.shard.skew_ms", "ms",
     lambda L: L.per(L.counter("net.shard.skew_s"),
                     L.counter("net.shard.units")) * MS),
    ("net.shard.xshard_records_per_round", "count",
     lambda L: L.per_round(L.counter("net.shard.xshard_records"))),
    ("net.shard.xshard_flushes_per_round", "count",
     lambda L: L.per_round(L.counter("net.shard.xshard_flushes"))),
    ("net.shard.xshard_bytes_per_round", "B",
     lambda L: L.per_round(L.counter("net.shard.xshard_bytes"))),
    ("net.shard.children_cpu_ms_per_round", "ms",
     lambda L: L.per_round(L.counter("children_cpu_s")) * MS),
    ("serve.client.admit_ms", "ms",
     lambda L: L.mean("serve.client.connect", MS)
     + L.mean("serve.client.join", MS)),
    ("serve.client.arrive_p50_ms", "ms", lambda L: L.latency_ms(0.5)),
    ("serve.client.arrive_p99_ms", "ms", lambda L: L.latency_ms(0.99)),
    ("serve.client.resend_ratio", "ratio",
     lambda L: L.per(L.counter("serve.client.resends"),
                     L.counter("serve.client.sent"))),
    ("serve.client.backpressure_per_round", "count",
     lambda L: L.per_round(L.counter("serve.client.backpressure"))),
    ("serve.groups.dispatch_us", "us", lambda L: L.mean("serve.groups.dispatch", US)),
    ("serve.groups.offer_reject_ratio", "ratio",
     lambda L: L.per(L.counter("serve.groups.offer_rejects"),
                     L.calls("serve.groups.offer"))),
    ("serve.daemon.frames_per_round", "count",
     lambda L: L.per_round(L.counter("serve.daemon.frames"))),
    ("unattributed_share", "ratio", Ledger.unattributed_share),
    ("traced_round_ms", "ms", lambda L: L.traced_round_ms),
    ("trace_overhead_ratio", "ratio",
     lambda L: L.per(L.traced_round_ms, L.untraced["round_ms"])),
]
