"""Metrics registry: counters, gauges, fixed-bucket histograms.

The aggregation layer above the tracer.  The paper's evaluation is
quantitative *distributions*, not means -- convergence-time histograms
are how Herman-style phase-clock and self-stabilizing consensus work is
judged -- so every barrier quantity (recovery latency, instance
duration, token circulation time, messages per barrier) gets a
fixed-bucket histogram with optional per-pid / per-phase labels, not a
single scalar.

Export is JSON (``registry.to_json()``) or the Prometheus text
exposition format (``registry.render_prometheus()``), so a simulated
run's metrics scrape like a production service's.  This module is what
a process that increments metrics runs (the serve daemon, every frame);
the trace fold is :mod:`repro.obs.tracefold`, the text reader
:mod:`repro.obs.exposition`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

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
        from textwrap import indent

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
                    histogram = ascii_histogram(metric.buckets, cell.bucket_counts)
                    lines.append(indent(histogram, "    "))
            else:
                for sample_name, value in metric.samples():
                    lines.append(f"  {sample_name} = {_fmt(value)}")
                if not metric._values:  # type: ignore[attr-defined]
                    lines.append("  (no samples)")
            blocks.append("\n".join(lines))
        return "\n".join(blocks)


def _escape_help(text: str) -> str:
    """HELP-line escaping per the exposition format (only ``\\`` and
    newline; quotes stay bare)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")
