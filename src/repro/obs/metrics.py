"""Metrics registry: counters, gauges, fixed-bucket histograms.

The aggregation layer above the tracer.  The paper's evaluation is
quantitative *distributions*, not means -- convergence-time histograms
are how Herman-style phase-clock and self-stabilizing consensus work is
judged -- so every barrier quantity (recovery latency, instance
duration, token circulation time, messages per barrier) gets a
fixed-bucket histogram with optional per-pid / per-phase labels, not a
single scalar.

Two population paths share one vocabulary:

- **live**: ``observer = MetricsObserver(); observer.attach(tracer)``
  folds every event into the registry as the engine emits it;
- **offline**: ``metrics_from_trace(read_jsonl(path))`` replays an
  exported trace into a fresh registry.

Export is JSON (``registry.to_json()``) or the Prometheus text
exposition format (``registry.render_prometheus()``), so a simulated
run's metrics scrape like a production service's.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.obs.events import (
    DETECT,
    FAULT,
    MSG_RECV,
    MSG_SEND,
    PHASE_END,
    PHASE_START,
    RECOVERY,
    TOKEN_PASS,
    ObsEvent,
)
from repro.obs.summary import PendingFaults

LabelValues = tuple[str, ...]


class MetricsError(ValueError):
    """Misuse of the metrics API (duplicate names, bad labels...)."""


def _label_key(
    labelnames: Sequence[str], labels: Mapping[str, Any], metric: str
) -> LabelValues:
    if set(labels) != set(labelnames):
        raise MetricsError(
            f"metric {metric!r} takes labels {sorted(labelnames)}, "
            f"got {sorted(labels)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


@dataclass
class _Metric:
    """Shared shape of one registered metric family."""

    name: str
    help: str
    labelnames: tuple[str, ...]

    kind = "untyped"

    def _key(self, labels: Mapping[str, Any]) -> LabelValues:
        return _label_key(self.labelnames, labels, self.name)

    def _label_suffix(self, key: LabelValues) -> str:
        if not key:
            return ""
        pairs = ",".join(
            f'{name}="{_escape(value)}"'
            for name, value in zip(self.labelnames, key)
        )
        return "{" + pairs + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt(value: float) -> str:
    """Prometheus-style number formatting (+Inf, integers bare)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value) == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _json_safe(value: float) -> Any:
    """Non-finite floats as strings, so ``to_json`` stays valid JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return _fmt(value)
    return value


class Counter(_Metric):
    """A monotonically increasing count, per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()):
        super().__init__(name, help, tuple(labelnames))
        self._values: dict[LabelValues, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise MetricsError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._values.get(self._key(labels), 0)

    def remove(self, **labels: Any) -> None:
        """Drop one label combination's series -- what keeps a family
        labelled by a short-lived thing (a group, a session) bounded by
        the things alive, not by every one ever seen."""
        self._values.pop(self._key(labels), None)

    def samples(self) -> Iterator[tuple[str, float]]:
        for key in sorted(self._values):
            yield self.name + self._label_suffix(key), self._values[key]

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "values": [
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "value": _json_safe(value),
                }
                for key, value in sorted(self._values.items())
            ],
        }


class Gauge(Counter):
    """A value that can go anywhere (set at finalization or live)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        self._values[self._key(labels)] = float(value)

    def inc(self, amount: float = 1, **labels: Any) -> None:
        key = self._key(labels)
        self._values[key] = self._values.get(key, 0) + amount


@dataclass
class _HistogramCell:
    """One label combination's accumulation."""

    bucket_counts: list[int]
    total: float = 0.0
    count: int = 0


class Histogram(_Metric):
    """A fixed-bucket histogram (cumulative ``le`` buckets + sum/count).

    ``buckets`` are the finite upper bounds; a ``+Inf`` bucket is always
    appended, so every observation lands somewhere.  ``quantile(q)``
    estimates by linear interpolation inside the winning bucket -- the
    standard Prometheus ``histogram_quantile`` estimator.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float],
        labelnames: Sequence[str] = (),
    ):
        super().__init__(name, help, tuple(labelnames))
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise MetricsError(f"histogram {self.name!r} needs buckets")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricsError(
                f"histogram {self.name!r} buckets must be strictly increasing"
            )
        if bounds[-1] == math.inf:
            bounds = bounds[:-1]
        self.buckets = bounds + (math.inf,)
        self._cells: dict[LabelValues, _HistogramCell] = {}

    def _cell(self, labels: Mapping[str, Any]) -> _HistogramCell:
        key = self._key(labels)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = _HistogramCell([0] * len(self.buckets))
        return cell

    def observe(self, value: float, **labels: Any) -> None:
        value = float(value)
        cell = self._cell(labels)
        cell.count += 1
        cell.total += value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                cell.bucket_counts[i] += 1
                break

    # -- views ----------------------------------------------------------
    def count(self, **labels: Any) -> int:
        cell = self._cells.get(self._key(labels))
        return cell.count if cell else 0

    def sum(self, **labels: Any) -> float:
        cell = self._cells.get(self._key(labels))
        return cell.total if cell else 0.0

    def cumulative(self, **labels: Any) -> list[tuple[float, int]]:
        """``[(le, cumulative count), ...]`` over all buckets."""
        cell = self._cells.get(self._key(labels))
        counts = cell.bucket_counts if cell else [0] * len(self.buckets)
        out, running = [], 0
        for bound, n in zip(self.buckets, counts):
            running += n
            out.append((bound, running))
        return out

    def quantile(self, q: float, **labels: Any) -> float:
        """Estimated ``q``-quantile (nan when empty; interpolated)."""
        if not 0.0 <= q <= 1.0:
            raise MetricsError(f"quantile {q} out of [0, 1]")
        cum = self.cumulative(**labels)
        total = cum[-1][1]
        if total == 0:
            return math.nan
        rank = q * total
        prev_bound, prev_cum = 0.0, 0
        for bound, running in cum:
            if running >= rank:
                if bound == math.inf:
                    return prev_bound  # open-ended: clamp to last bound
                in_bucket = running - prev_cum
                if in_bucket == 0:
                    return bound
                frac = (rank - prev_cum) / in_bucket
                lo = min(prev_bound, bound)
                return lo + (bound - lo) * frac
            prev_bound, prev_cum = bound, running
        return prev_bound

    def samples(self) -> Iterator[tuple[str, float]]:
        for key in sorted(self._cells):
            cell = self._cells[key]
            running = 0
            for bound, n in zip(self.buckets, cell.bucket_counts):
                running += n
                labels = dict(zip(self.labelnames, key))
                labels["le"] = _fmt(bound)
                pairs = ",".join(
                    f'{name}="{_escape(str(value))}"'
                    for name, value in labels.items()
                )
                yield f"{self.name}_bucket{{{pairs}}}", running
            suffix = self._label_suffix(key)
            yield f"{self.name}_sum{suffix}", cell.total
            yield f"{self.name}_count{suffix}", cell.count

    def to_json(self) -> dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "buckets": ["+Inf" if b == math.inf else b for b in self.buckets],
            "values": [
                {
                    "labels": dict(zip(self.labelnames, key)),
                    "bucket_counts": list(cell.bucket_counts),
                    "sum": cell.total,
                    "count": cell.count,
                }
                for key, cell in sorted(self._cells.items())
            ],
        }


class MetricsRegistry:
    """A named collection of metric families with uniform export."""

    def __init__(self) -> None:
        self._metrics: dict[str, _Metric] = {}

    def _register(self, metric: _Metric) -> Any:
        existing = self._metrics.get(metric.name)
        if existing is not None:
            if (
                type(existing) is type(metric)
                and existing.labelnames == metric.labelnames
            ):
                return existing  # idempotent re-registration
            raise MetricsError(
                f"metric {metric.name!r} already registered with a "
                "different type or label set"
            )
        self._metrics[metric.name] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        return self._register(Counter(name, help, labelnames))

    def gauge(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Gauge:
        return self._register(Gauge(name, help, labelnames))

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = (),
        labelnames: Sequence[str] = (),
    ) -> Histogram:
        return self._register(Histogram(name, help, buckets, labelnames))

    # -- access ---------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __getitem__(self, name: str) -> Any:
        try:
            return self._metrics[name]
        except KeyError:
            raise MetricsError(
                f"no metric {name!r}; registered: {sorted(self._metrics)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # -- export ---------------------------------------------------------
    def to_json(self) -> dict[str, Any]:
        return {name: self._metrics[name].to_json() for name in self.names()}

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            if metric.help:
                lines.append(f"# HELP {name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {name} {metric.kind}")
            for sample_name, value in metric.samples():
                lines.append(f"{sample_name} {_fmt(value)}")
        return "\n".join(lines) + "\n"

    def render(self) -> str:
        """Human-readable report with ASCII histograms."""
        from repro.viz.chart import ascii_histogram

        blocks: list[str] = []
        for name in self.names():
            metric = self._metrics[name]
            lines = [f"{name} ({metric.kind})"]
            if metric.help:
                lines[0] += f" -- {metric.help}"
            if isinstance(metric, Histogram):
                if not metric._cells:
                    lines.append("  (no observations)")
                for key in sorted(metric._cells):
                    labels = dict(zip(metric.labelnames, key))
                    cell = metric._cells[key]
                    tag = metric._label_suffix(key) or ""
                    lines.append(
                        f"  {tag or '(all)'}: count={cell.count} "
                        f"sum={cell.total:.6g} "
                        f"p50={metric.quantile(0.5, **labels):.4g} "
                        f"p90={metric.quantile(0.9, **labels):.4g}"
                    )
                    lines.append(
                        _indent(
                            ascii_histogram(
                                metric.buckets,
                                _de_cumulate(cell.bucket_counts),
                            ),
                            4,
                        )
                    )
            else:
                for sample_name, value in metric.samples():
                    lines.append(f"  {sample_name} = {_fmt(value)}")
                if not metric._values:  # type: ignore[attr-defined]
                    lines.append("  (no samples)")
            blocks.append("\n".join(lines))
        return "\n".join(blocks)


def _de_cumulate(counts: Sequence[int]) -> list[int]:
    return list(counts)  # stored per-bucket already


def _indent(text: str, n: int) -> str:
    pad = " " * n
    return "\n".join(pad + line for line in text.splitlines())


_METRIC_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")
_LABEL_NAME_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*")
_TYPE_KINDS = ("counter", "gauge", "histogram", "summary", "untyped")


def _escape_help(text: str) -> str:
    """HELP-line escaping per the exposition format (only ``\\`` and
    newline; quotes stay bare)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _unescape_help(text: str) -> str:
    return _unescape(text, quotes=False)


def _unescape(text: str, quotes: bool) -> str:
    """Invert :func:`_escape` / :func:`_escape_help`.  Unknown escape
    sequences pass through backslash-and-all (Prometheus behaviour)."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            nxt = text[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == "n":
                out.append("\n")
            elif nxt == '"' and quotes:
                out.append('"')
            else:
                out.append(ch + nxt)
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


@dataclass(frozen=True)
class PromSample:
    """One parsed sample line, labels unescaped, raw value preserved."""

    name: str
    labels: tuple[tuple[str, str], ...]
    value: float
    raw_value: str

    @property
    def key(self) -> str:
        """The sample's canonical text key, ``name{l="v",...}``."""
        return self.name + self.label_suffix

    @property
    def label_suffix(self) -> str:
        if not self.labels:
            return ""
        pairs = ",".join(
            f'{name}="{_escape(value)}"' for name, value in self.labels
        )
        return "{" + pairs + "}"

    def render(self) -> str:
        return f"{self.key} {self.raw_value}"


#: One exposition entry: ``("help", name, text)`` | ``("type", name,
#: kind)`` | ``("sample", PromSample)``.
PromEntry = tuple


def _parse_sample_line(line: str, lineno: int) -> PromSample:
    def bad(why: str) -> MetricsError:
        return MetricsError(f"{why} at line {lineno}: {line!r}")

    match = _METRIC_NAME_RE.match(line)
    if match is None:
        raise bad("bad sample name")
    name = match.group(0)
    i = match.end()
    labels: list[tuple[str, str]] = []
    if i < len(line) and line[i] == "{":
        i += 1
        while True:
            if i >= len(line):
                raise bad("unterminated label block")
            if line[i] == "}":
                i += 1
                break
            lmatch = _LABEL_NAME_RE.match(line, i)
            if lmatch is None:
                raise bad("bad label name")
            lname = lmatch.group(0)
            i = lmatch.end()
            if line[i : i + 2] != '="':
                raise bad("label value must be quoted")
            i += 2
            buf: list[str] = []
            while i < len(line) and line[i] != '"':
                ch = line[i]
                if ch == "\\":
                    if i + 1 >= len(line):
                        raise bad("dangling escape in label value")
                    nxt = line[i + 1]
                    if nxt == "\\":
                        buf.append("\\")
                    elif nxt == "n":
                        buf.append("\n")
                    elif nxt == '"':
                        buf.append('"')
                    else:
                        buf.append(ch + nxt)
                    i += 2
                    continue
                buf.append(ch)
                i += 1
            if i >= len(line):
                raise bad("unterminated label value")
            i += 1  # closing quote
            labels.append((lname, "".join(buf)))
            if i < len(line) and line[i] == ",":
                i += 1
    if i >= len(line) or line[i] != " ":
        raise bad("bad sample")
    raw = line[i + 1 :]
    if not raw or " " in raw:  # no timestamp support: value only
        raise bad("bad value")
    try:
        value = float(raw)
    except ValueError as exc:
        raise MetricsError(f"bad value at line {lineno}: {line!r}") from exc
    return PromSample(name, tuple(labels), value, raw)


def parse_exposition(text: str) -> list[PromEntry]:
    """A structural parse of the text exposition format: label values
    are unescaped (``\\\\``, ``\\"``, ``\\n``), HELP text is unescaped,
    raw sample values are preserved verbatim so
    :func:`render_exposition` round-trips our exporter's output
    byte-identically (``+Inf``/``-Inf``/``NaN`` included).  Raises
    :class:`MetricsError` on malformed lines."""
    entries: list[PromEntry] = []
    # The format is \n-delimited; splitlines() would also split on
    # \x1c-\x1e, \x85,  ... which are legal *raw* inside a quoted
    # label value (only \n, \" and \\ are escaped).
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(" ", 3)
            if len(parts) < 3 or parts[0] != "#" or parts[1] not in (
                "HELP",
                "TYPE",
            ):
                raise MetricsError(f"bad comment at line {lineno}: {line!r}")
            if _METRIC_NAME_RE.fullmatch(parts[2]) is None:
                raise MetricsError(
                    f"bad metric name at line {lineno}: {line!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPE_KINDS:
                    raise MetricsError(f"bad TYPE at line {lineno}: {line!r}")
                entries.append(("type", parts[2], parts[3]))
            else:
                help_text = parts[3] if len(parts) == 4 else ""
                entries.append(("help", parts[2], _unescape_help(help_text)))
            continue
        entries.append(("sample", _parse_sample_line(line, lineno)))
    return entries


def render_exposition(entries: Iterable[PromEntry]) -> str:
    """Render parsed entries back to exposition text -- the inverse of
    :func:`parse_exposition` on exporter-produced input."""
    lines: list[str] = []
    for entry in entries:
        if entry[0] == "help":
            lines.append(f"# HELP {entry[1]} {_escape_help(entry[2])}")
        elif entry[0] == "type":
            lines.append(f"# TYPE {entry[1]} {entry[2]}")
        elif entry[0] == "sample":
            lines.append(entry[1].render())
        else:
            raise MetricsError(f"unknown exposition entry {entry[0]!r}")
    return "\n".join(lines) + "\n"


def parse_prometheus_text(text: str) -> dict[str, float]:
    """Flat view of :func:`parse_exposition`: ``{sample key (with
    canonical label text): value}``, rejecting duplicate samples."""
    samples: dict[str, float] = {}
    for entry in parse_exposition(text):
        if entry[0] != "sample":
            continue
        sample = entry[1]
        if sample.key in samples:
            raise MetricsError(f"duplicate sample {sample.key!r}")
        samples[sample.key] = sample.value
    return samples


# ---------------------------------------------------------------------------
# The barrier metric set + the event-folding observer
# ---------------------------------------------------------------------------

#: Default bucket layouts, in virtual time units (phase work is 1.0).
DEFAULT_BUCKETS: dict[str, tuple[float, ...]] = {
    "recovery_latency": (0.05, 0.1, 0.2, 0.35, 0.5, 0.75, 1.0, 1.5, 2.5, 5.0, 10.0),
    "instance_duration": (0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0),
    "token_circulation_time": (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0),
    "message_latency": (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.5, 1.0),
}


class MetricsObserver:
    """Fold trace events into a :class:`MetricsRegistry`.

    Works live (``observer.attach(tracer)`` subscribes to every emitted
    event) or offline (``observer.observe_all(events)`` over a JSONL
    read-back); both paths produce identical registries for the same
    event sequence.

    ``per_pid`` adds a ``pid`` label to fault counts and recovery
    latencies; ``per_phase`` adds a ``phase`` label to instance
    durations.  Both default off to keep label cardinality bounded on
    big sweeps.

    Recovery latencies are attributed with the same per-pid
    pending-fault rules as :func:`repro.obs.summary.summarize`, and the
    latency histogram is classed ``detectable`` / ``undetectable`` /
    ``unattributed`` by the fault that opened the episode -- the
    Figure 7 distinction.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        per_pid: bool = False,
        per_phase: bool = False,
        prefix: str = "barrier",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.per_pid = per_pid
        self.per_phase = per_phase
        r = self.registry
        p = prefix
        fault_labels = ("klass",) + (("pid",) if per_pid else ())
        phase_labels = ("result",) + (("phase",) if per_phase else ())
        self.events_total = r.counter(
            f"{p}_events_total", "trace events seen", ("kind",)
        )
        self.phases_total = r.counter(
            f"{p}_phase_instances_total",
            "barrier instances (attempts) by outcome",
            phase_labels,
        )
        self.faults_total = r.counter(
            f"{p}_faults_total", "injected faults by class", fault_labels
        )
        self.detections_total = r.counter(
            f"{p}_detections_total", "protocol fault detections"
        )
        self.recoveries_total = r.counter(
            f"{p}_recoveries_total", "returns to a start state after faults"
        )
        self.token_passes_total = r.counter(
            f"{p}_token_passes_total", "token/wave releases"
        )
        self.messages_total = r.counter(
            f"{p}_messages_total", "messages by direction", ("direction",)
        )
        self.recovery_latency = r.histogram(
            f"{p}_recovery_latency",
            "fault-to-start-state latency (virtual time)",
            DEFAULT_BUCKETS["recovery_latency"],
            ("klass",) + (("pid",) if per_pid else ()),
        )
        self.instance_duration = r.histogram(
            f"{p}_instance_duration",
            "barrier instance duration (virtual time)",
            DEFAULT_BUCKETS["instance_duration"],
            phase_labels,
        )
        self.token_circulation_time = r.histogram(
            f"{p}_token_circulation_time",
            "gap between consecutive token releases at one source",
            DEFAULT_BUCKETS["token_circulation_time"],
        )
        self.message_latency = r.histogram(
            f"{p}_message_latency",
            "send-to-delivery latency (virtual time)",
            DEFAULT_BUCKETS["message_latency"],
        )
        self.instances_per_phase = r.gauge(
            f"{p}_instances_per_phase",
            "instances per successful phase (finalized)",
        )
        self.messages_per_barrier = r.gauge(
            f"{p}_messages_per_barrier",
            "messages sent per successful phase (finalized)",
        )

        # Attribution state: each pending fault is tagged with its class,
        # which labels the latency of the recovery that closes it.
        self._pending = PendingFaults()
        self._open_phase_start: dict[int, float] = {}
        self._last_token_release: dict[int, float] = {}
        self._instances = 0
        self._successes = 0
        self._messages_sent = 0

    # -- wiring ---------------------------------------------------------
    def attach(self, tracer: Any) -> "MetricsObserver":
        """Subscribe to a live :class:`~repro.obs.tracer.Tracer`."""
        tracer.subscribe(self)
        return self

    def observe_all(self, events: Iterable[ObsEvent]) -> "MetricsObserver":
        for event in events:
            self(event)
        return self

    # -- event folding ---------------------------------------------------
    def __call__(self, event: ObsEvent) -> None:
        kind = event.kind
        data = event.data
        self.events_total.inc(kind=kind)
        if kind == PHASE_START:
            phase = data.get("phase")
            if phase is not None:
                self._open_phase_start[int(phase)] = event.time
        elif kind == PHASE_END:
            self._instances += 1
            success = bool(data.get("success"))
            if success:
                self._successes += 1
            labels: dict[str, Any] = {
                "result": "success" if success else "failed"
            }
            if self.per_phase:
                labels["phase"] = data.get("phase", "?")
            self.phases_total.inc(**labels)
            duration = data.get("duration")
            if duration is None:
                phase = data.get("phase")
                start = self._open_phase_start.pop(int(phase), None) if (
                    phase is not None
                ) else None
                if start is not None:
                    duration = event.time - start
            elif data.get("phase") is not None:
                self._open_phase_start.pop(int(data["phase"]), None)
            if duration is not None and math.isfinite(float(duration)):
                self.instance_duration.observe(float(duration), **labels)
        elif kind == FAULT:
            klass = "detectable" if data.get("detectable", True) else "undetectable"
            labels = {"klass": klass}
            if self.per_pid:
                labels["pid"] = event.pid if event.pid is not None else "sys"
            self.faults_total.inc(**labels)
            self._pending.add(event.pid, event.time, klass)
        elif kind == DETECT:
            self.detections_total.inc()
        elif kind == RECOVERY:
            self.recoveries_total.inc()
            latency, klass = self._resolve_recovery(event)
            if latency is not None and math.isfinite(latency):
                labels = {"klass": klass}
                if self.per_pid:
                    labels["pid"] = event.pid if event.pid is not None else "sys"
                self.recovery_latency.observe(latency, **labels)
        elif kind == TOKEN_PASS:
            self.token_passes_total.inc()
            src = event.pid if event.pid is not None else 0
            last = self._last_token_release.get(src)
            if last is not None and event.time > last:
                self.token_circulation_time.observe(event.time - last)
            self._last_token_release[src] = event.time
        elif kind == MSG_SEND:
            self._messages_sent += 1
            self.messages_total.inc(direction="sent")
        elif kind == MSG_RECV:
            self.messages_total.inc(direction="recv")
            latency = data.get("latency")
            if latency is not None and math.isfinite(float(latency)):
                self.message_latency.observe(float(latency))

    def _resolve_recovery(self, event: ObsEvent) -> tuple[float | None, str]:
        resolved = self._pending.resolve(event.pid, event.time)
        latency, klass = resolved if resolved is not None else (None, "unattributed")
        explicit = event.data.get("latency")
        if explicit is not None:
            # An explicit latency is authoritative and closes the whole
            # episode; the resolved fault still names the class.
            self._pending.clear()
            latency = float(explicit)
        return latency, klass

    # -- finalization ----------------------------------------------------
    def finalize(self) -> MetricsRegistry:
        """Set the ratio gauges from the accumulated counts and return
        the registry (idempotent; call after the run / replay)."""
        if self._successes:
            self.instances_per_phase.set(self._instances / self._successes)
            self.messages_per_barrier.set(self._messages_sent / self._successes)
        elif self._instances or self._messages_sent:
            self.instances_per_phase.set(math.inf)
            self.messages_per_barrier.set(math.inf)
        return self.registry


def metrics_from_trace(
    events: Iterable[ObsEvent],
    per_pid: bool = False,
    per_phase: bool = False,
) -> MetricsRegistry:
    """Replay an event sequence (e.g. a JSONL read-back) into a fresh
    registry -- the offline population path."""
    observer = MetricsObserver(per_pid=per_pid, per_phase=per_phase)
    observer.observe_all(events)
    return observer.finalize()
