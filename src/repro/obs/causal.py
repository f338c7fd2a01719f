"""Causal fault analytics: per-fault chains through the trace.

:func:`build_chains` reconstructs, for every injected fault, the chain

    fault -> detect -> recovery -> first clean ``phase_end``

with correct attribution under *overlapping* faults: pending faults are
tracked per pid (FIFO within a pid), and only pid-less bookkeeping falls
back to global arrival order.  A recovery whose pid has its own pending
fault closes that fault alone; a recovery with no fault of its own
(root-observed return to a start state, or a pid-less event) is
system-wide -- it closes *every* open chain at once, and each chain's
latency is measured from its own fault time, which is what turns a
single mean into the per-fault latency distribution the convergence
literature reports.

The fold itself is online, :class:`ChainFolder`, holding only the open
chains; :func:`build_chains` and the live span folder
(:class:`repro.obs.spans.SpanFolder`) both read it.

The result feeds :class:`CausalReport` -- latency distributions split
by fault class (detectable vs undetectable, the Figure 3/5 vs Figure 7
regimes) -- and the ``causal-report`` CLI subcommand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.obs.events import DETECT, FAULT, PHASE_END, RECOVERY, ObsEvent

DETECTABLE = "detectable"
UNDETECTABLE = "undetectable"


@dataclass
class FaultChain:
    """One fault's causal chain (times are virtual; None = never seen)."""

    fault_time: float
    pid: int | None
    detectable: bool
    detect_time: float | None = None
    recovery_time: float | None = None
    #: Engine-supplied latency on the recovery event, when present (it
    #: overrides the fault->recovery difference for *this* chain only if
    #: the recovery was attributed to this chain first).
    explicit_latency: float | None = None
    clean_phase_time: float | None = None
    #: True when the closing recovery was system-wide (global fallback)
    #: rather than matched to this chain's pid.
    system_wide_recovery: bool = False

    @property
    def klass(self) -> str:
        return DETECTABLE if self.detectable else UNDETECTABLE

    @property
    def detection_latency(self) -> float | None:
        if self.detect_time is None:
            return None
        return self.detect_time - self.fault_time

    @property
    def recovery_latency(self) -> float | None:
        """Fault-to-start-state latency (the Figure 7 quantity)."""
        if self.explicit_latency is not None:
            return self.explicit_latency
        if self.recovery_time is None:
            return None
        return self.recovery_time - self.fault_time

    @property
    def total_latency(self) -> float | None:
        """Fault to the first *clean* successful phase end."""
        if self.clean_phase_time is None:
            return None
        return self.clean_phase_time - self.fault_time

    @property
    def complete(self) -> bool:
        return self.recovery_time is not None and self.clean_phase_time is not None

    def to_dict(self) -> dict:
        return {
            "fault_time": self.fault_time,
            "pid": self.pid,
            "klass": self.klass,
            "detect_time": self.detect_time,
            "recovery_time": self.recovery_time,
            "recovery_latency": self.recovery_latency,
            "clean_phase_time": self.clean_phase_time,
            "total_latency": self.total_latency,
            "system_wide_recovery": self.system_wide_recovery,
            "complete": self.complete,
        }


class ChainFolder:
    """The one online fault-chain fold: feed events, read chains.

    Holds only the *open* chains -- those awaiting recovery, in fault
    order, and those recovered but awaiting their first clean phase end
    -- so it runs in bounded state on arbitrarily long streams.  A
    chain leaves the folder when its clean phase ends; whoever wants
    every chain keeps them as :meth:`feed` hands them out.
    """

    def __init__(self) -> None:
        #: Chains awaiting recovery, in fault order.
        self.unrecovered: list[FaultChain] = []
        #: Chains recovered but awaiting their first clean phase end.
        self.recovered: list[FaultChain] = []

    def feed(self, event: ObsEvent) -> list[FaultChain]:
        """Fold one event; return the chains it changed (the new chain
        of a fault, the detected one, the recovered ones, or the ones a
        clean phase end completed -- those have now left the folder)."""
        kind = event.kind
        if kind == FAULT:
            chain = FaultChain(
                fault_time=event.time,
                pid=event.pid,
                detectable=bool(event.data.get("detectable", True)),
            )
            self.unrecovered.append(chain)
            return [chain]
        if kind == DETECT:
            # Attribute to the earliest open, not-yet-detected chain:
            # detection is observed at the root, not at the victim, so
            # global order is the only available attribution.
            for chain in self.unrecovered:
                if chain.detect_time is None:
                    chain.detect_time = event.time
                    return [chain]
            return []
        if kind == RECOVERY:
            explicit = event.data.get("latency")
            if event.pid is not None:
                for i, chain in enumerate(self.unrecovered):
                    if chain.pid == event.pid:
                        del self.unrecovered[i]
                        self._recover(chain, event.time, explicit, False)
                        return [chain]
            # System-wide: every open chain recovered at this moment.
            closed, self.unrecovered = self.unrecovered, []
            for j, chain in enumerate(closed):
                # The engine's latency was measured from the earliest
                # fault of the episode.
                self._recover(chain, event.time, explicit if j == 0 else None, True)
            return closed
        if kind == PHASE_END and event.data.get("success"):
            done, self.recovered = self.recovered, []
            for chain in done:
                chain.clean_phase_time = event.time
            return done
        return []

    def _recover(
        self, chain: FaultChain, time: float, explicit: Any, system_wide: bool
    ) -> None:
        chain.recovery_time = time
        chain.system_wide_recovery = system_wide
        if explicit is not None:
            chain.explicit_latency = float(explicit)
        self.recovered.append(chain)


def build_chains(events: Iterable[ObsEvent]) -> list[FaultChain]:
    """Reconstruct every fault's chain from an event sequence."""
    folder = ChainFolder()
    chains: list[FaultChain] = []
    for event in events:
        changed = folder.feed(event)
        if event.kind == FAULT:
            chains.extend(changed)
    return chains


@dataclass
class ClassStats:
    """Latency distribution of one fault class."""

    klass: str
    chains: int = 0
    complete: int = 0
    recovered: int = 0
    detected: int = 0
    recovery_latencies: list[float] = field(default_factory=list)
    total_latencies: list[float] = field(default_factory=list)

    def quantile(self, q: float) -> float:
        return _quantile(self.recovery_latencies, q)

    @property
    def mean_recovery_latency(self) -> float:
        if not self.recovery_latencies:
            return math.nan
        return sum(self.recovery_latencies) / len(self.recovery_latencies)


def _quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank-with-interpolation quantile of raw values."""
    if not values:
        return math.nan
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


@dataclass
class CausalReport:
    """Chains plus per-class distributions, renderable for the CLI."""

    chains: list[FaultChain]
    by_class: dict[str, ClassStats]

    @property
    def unrecovered(self) -> int:
        return sum(1 for c in self.chains if c.recovery_time is None)

    def render(self) -> str:
        from repro.viz.chart import ascii_histogram_of

        lines = [
            f"Causal fault report: {len(self.chains)} fault chains "
            f"({self.unrecovered} never recovered)"
        ]
        for klass in (DETECTABLE, UNDETECTABLE):
            stats = self.by_class.get(klass)
            if stats is None or stats.chains == 0:
                continue
            lines.append(
                f"  {klass:<13}: {stats.chains} faults, "
                f"{stats.detected} detected, {stats.recovered} recovered, "
                f"{stats.complete} reached a clean phase"
            )
            if stats.recovery_latencies:
                lines.append(
                    "    recovery latency: "
                    f"mean={stats.mean_recovery_latency:.4g} "
                    f"p50={stats.quantile(0.5):.4g} "
                    f"p90={stats.quantile(0.9):.4g} "
                    f"max={max(stats.recovery_latencies):.4g}"
                )
                lines.append(
                    _indent(ascii_histogram_of(stats.recovery_latencies), 4)
                )
        if len(lines) == 1:
            lines.append("  (no faults in this trace)")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "chains": [c.to_dict() for c in self.chains],
            "by_class": {
                klass: {
                    "chains": s.chains,
                    "detected": s.detected,
                    "recovered": s.recovered,
                    "complete": s.complete,
                    "mean_recovery_latency": _nan_safe(
                        s.mean_recovery_latency
                    ),
                    "p50": _nan_safe(s.quantile(0.5)),
                    "p90": _nan_safe(s.quantile(0.9)),
                }
                for klass, s in sorted(self.by_class.items())
            },
        }


def _nan_safe(value: float) -> float | None:
    return None if math.isnan(value) else value


def _indent(text: str, n: int) -> str:
    pad = " " * n
    return "\n".join(pad + line for line in text.splitlines())


def causal_report(events: Iterable[ObsEvent]) -> CausalReport:
    """Build the full report (chains + per-class distributions)."""
    chains = build_chains(events)
    by_class: dict[str, ClassStats] = {}
    for chain in chains:
        stats = by_class.setdefault(chain.klass, ClassStats(chain.klass))
        stats.chains += 1
        if chain.detect_time is not None:
            stats.detected += 1
        if chain.recovery_time is not None:
            stats.recovered += 1
        if chain.complete:
            stats.complete += 1
        latency = chain.recovery_latency
        if latency is not None and math.isfinite(latency):
            stats.recovery_latencies.append(latency)
        total = chain.total_latency
        if total is not None and math.isfinite(total):
            stats.total_latencies.append(total)
    return CausalReport(chains=chains, by_class=by_class)
