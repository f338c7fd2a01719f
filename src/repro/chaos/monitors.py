"""Online guarantee monitors over the structured trace stream.

The paper proves two tolerances and the monitors check them *while a
run executes*, engine-agnostically, by subscribing to the PR-1 tracer:

* **masking** for detectable faults -- every barrier instance is
  (re-)executed correctly: instances never overlap, successful phases
  advance one at a time (none lost, none duplicated), instances never
  fail without a fault to blame, and the run always completes;
* **stabilization** for undetectable faults -- after the last
  perturbation the protocol converges back to correct behaviour
  (closure: once clean, it stays clean until the next fault), with the
  convergence span measured;
* **at-most-m damage** -- perturbing *m* phases makes at most *m*
  phases incorrect (Lemma 4.1.4's bound, read as: never more incorrect
  instances than injected faults).

A failed check raises nothing mid-run by default -- engines are not
exception-safe at arbitrary emission points -- it records a structured
:class:`GuaranteeViolation` carrying the trace prefix up to and
including the offending event; :meth:`MonitorSet.check` raises the
first one after the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.events import FAULT, PHASE_END, PHASE_START, PROTOCOL_KINDS, ObsEvent

if TYPE_CHECKING:
    from repro.chaos.plan import FaultPlan


@dataclass
class GuaranteeViolation(Exception):
    """A guarantee the paper proves was observed to fail.

    ``trace_prefix`` is the flat-JSON monitor stream (the
    :data:`~repro.obs.events.PROTOCOL_KINDS` events) up to and including
    the violating event -- enough to rebuild the failing history -- and
    ``data`` carries monitor-specific context (expected/observed phase,
    fault counts, spans).
    """

    guarantee: str  # "masking" | "stabilization" | "at-most-m"
    kind: str  # e.g. "overlap", "lost-phase", "no-convergence"
    message: str
    time: float = 0.0
    trace_prefix: tuple[dict[str, Any], ...] = ()
    data: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # Exception's repr-ish default is useless here
        return (
            f"[{self.guarantee}/{self.kind}] t={self.time:g}: {self.message}"
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "guarantee": self.guarantee,
            "kind": self.kind,
            "message": self.message,
            "time": self.time,
            "trace_prefix": list(self.trace_prefix),
            "data": dict(self.data),
        }

    @classmethod
    def from_json(cls, record: dict[str, Any]) -> "GuaranteeViolation":
        return cls(
            guarantee=record["guarantee"],
            kind=record["kind"],
            message=record["message"],
            time=float(record.get("time", 0.0)),
            trace_prefix=tuple(record.get("trace_prefix", ())),
            data=dict(record.get("data", {})),
        )


class Monitor:
    """Base: feed events via :meth:`on_event`; violations accumulate."""

    guarantee = "generic"

    def __init__(self) -> None:
        self.violations: list[GuaranteeViolation] = []
        #: Shared event buffer (set by MonitorSet) for prefix capture.
        self._buffer: list[ObsEvent] | None = None

    def on_event(self, event: ObsEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def finish(self, reached: bool, time: float) -> None:
        """Called once when the run ends (``reached``: hit its phase
        target).  End-of-run obligations report here."""

    # ------------------------------------------------------------------
    def _violate(
        self, kind: str, message: str, time: float, **data: Any
    ) -> None:
        prefix: tuple[dict[str, Any], ...] = ()
        if self._buffer is not None:
            prefix = tuple(e.to_dict() for e in self._buffer)
        self.violations.append(
            GuaranteeViolation(
                guarantee=self.guarantee,
                kind=kind,
                message=message,
                time=time,
                trace_prefix=prefix,
                data=data,
            )
        )


class MaskingMonitor(Monitor):
    """No lost, duplicated, or overlapping barrier instances.

    ``nphases`` enables modular phase arithmetic (the gc barrier
    programs wrap their counters); None means phases advance by exactly
    one (the timed engines' unbounded counters).  The sequence check
    starts at the first successful phase seen, so engines may begin at
    any phase number.

    Masking allows a *repeat*: a fault may force re-execution of a
    phase that had already completed, and under the guarded-command
    engines the re-executed instance's label can even be the victim's
    corrupted phase value.  The re-execution can also lag the fault by
    an instance (the instance in flight when the fault strikes finishes
    normally first).  The monitor therefore carries a grace *budget*:
    each fault buys forgiveness for exactly one out-of-sequence
    successful instance -- the at-most-m bound applied to sequencing --
    consumed only when a mismatch is actually observed.  In-sequence
    advancement never spends grace, and once the budget is exhausted
    strict one-at-a-time advancement is enforced, which is exactly the
    window where the paper says behaviour must be indistinguishable
    from fault-free runs.
    """

    guarantee = "masking"

    def __init__(self, nphases: int | None = None) -> None:
        super().__init__()
        self.nphases = nphases
        self._open: int | None = None
        self._last_success: int | None = None
        self._faults_seen = 0
        self._grace = 0  # unspent relabeling forgiveness, one per fault

    def _next_phase(self, phase: int) -> int:
        if self.nphases is None:
            return phase + 1
        return (phase + 1) % self.nphases

    def on_event(self, event: ObsEvent) -> None:
        kind = event.kind
        if kind == FAULT:
            self._faults_seen += 1
            self._grace += 1
        elif kind == PHASE_START:
            phase = event.data.get("phase")
            if self._open is not None:
                self._violate(
                    "overlap",
                    f"instance of phase {phase} started while the instance "
                    f"of phase {self._open} is still open",
                    event.time,
                    open_phase=self._open,
                    new_phase=phase,
                )
            self._open = phase
        elif kind == PHASE_END:
            phase = event.data.get("phase")
            if self._open is None:
                self._violate(
                    "unpaired-end",
                    f"instance of phase {phase} ended but none was open",
                    event.time,
                    phase=phase,
                )
            self._open = None
            if not event.data.get("success"):
                if self._faults_seen == 0:
                    self._violate(
                        "spurious-failure",
                        f"instance of phase {phase} failed with no fault "
                        "injected yet",
                        event.time,
                        phase=phase,
                    )
                return
            if self._last_success is not None:
                expected = self._next_phase(self._last_success)
                if phase != expected:
                    if self._grace > 0:
                        self._grace -= 1
                    else:
                        what = (
                            "duplicate-phase"
                            if phase == self._last_success
                            else "lost-phase"
                        )
                        self._violate(
                            what,
                            f"successful phases must advance one at a time: "
                            f"after {self._last_success} expected "
                            f"{expected}, got {phase}",
                            event.time,
                            previous=self._last_success,
                            expected=expected,
                            observed=phase,
                        )
            self._last_success = phase

    def finish(self, reached: bool, time: float) -> None:
        if not reached:
            self._violate(
                "stalled",
                "run ended before reaching its successful-phase target "
                "(masking means the protocol always completes)",
                time,
                faults_seen=self._faults_seen,
            )


class StabilizationMonitor(Monitor):
    """Convergence + closure after (undetectable) perturbation.

    Converged means ``clean_phases`` consecutive successful instances
    after the last fault; the span from the last fault to the first of
    those successes is recorded in :attr:`spans` (the Figure 7
    quantity, measured online).  Violations:

    * ``no-convergence`` -- the run ended (or ``budget`` virtual time /
      steps elapsed) without converging after its last fault;
    * ``closure-violation`` -- a failed instance after convergence with
      no intervening fault (legitimate states must be closed under
      fault-free execution).
    """

    guarantee = "stabilization"

    def __init__(self, clean_phases: int = 2, budget: float | None = None) -> None:
        super().__init__()
        if clean_phases < 1:
            raise ValueError("clean_phases must be >= 1")
        self.clean_phases = clean_phases
        self.budget = budget
        self.spans: list[float] = []
        self._last_fault: float | None = None
        self._clean_run = 0
        self._first_clean_at: float | None = None
        self._converged = True  # no faults yet = trivially legitimate

    def on_event(self, event: ObsEvent) -> None:
        if event.kind == FAULT:
            self._last_fault = event.time
            self._clean_run = 0
            self._first_clean_at = None
            self._converged = False
        elif event.kind == PHASE_END:
            if event.data.get("success"):
                if not self._converged:
                    if self._clean_run == 0:
                        self._first_clean_at = event.time
                    self._clean_run += 1
                    if self._clean_run >= self.clean_phases:
                        span = (
                            (self._first_clean_at or event.time)
                            - (self._last_fault or 0.0)
                        )
                        self.spans.append(span)
                        self._converged = True
                        if self.budget is not None and span > self.budget:
                            self._violate(
                                "slow-convergence",
                                f"convergence took {span:g} "
                                f"(> budget {self.budget:g})",
                                event.time,
                                span=span,
                                budget=self.budget,
                            )
            else:
                if self._converged and self._last_fault is not None:
                    self._violate(
                        "closure-violation",
                        "instance failed after convergence with no new "
                        "fault (legitimate states are not closed)",
                        event.time,
                        last_fault=self._last_fault,
                    )
                self._clean_run = 0
                self._first_clean_at = None

    def finish(self, reached: bool, time: float) -> None:
        if not self._converged:
            self._violate(
                "no-convergence",
                f"run ended at t={time:g} without converging "
                f"({self._clean_run}/{self.clean_phases} clean phases "
                f"after the last fault at t={self._last_fault:g})",
                time,
                clean_run=self._clean_run,
                last_fault=self._last_fault,
            )


class AtMostMMonitor(Monitor):
    """Perturbing *m* phases makes at most *m* phases incorrect.

    Read operationally over the trace: the number of incorrect (failed)
    instances never exceeds the number of faults injected so far -- each
    fault dooms at most one barrier instance.  The monitor also tracks
    which instance windows were perturbed (``perturbed_windows``) for
    reporting.
    """

    guarantee = "at-most-m"

    def __init__(self) -> None:
        super().__init__()
        self.faults = 0
        self.incorrect = 0
        self.perturbed_windows: set[int] = set()
        self._window = 0  # index of the current/next instance

    def on_event(self, event: ObsEvent) -> None:
        kind = event.kind
        if kind == FAULT:
            self.faults += 1
            self.perturbed_windows.add(self._window)
        elif kind == PHASE_END:
            self._window += 1
            if not event.data.get("success"):
                self.incorrect += 1
                if self.incorrect > self.faults:
                    self._violate(
                        "excess-incorrect",
                        f"{self.incorrect} incorrect instances after only "
                        f"{self.faults} faults (at-most-m exceeded)",
                        event.time,
                        incorrect=self.incorrect,
                        faults=self.faults,
                        perturbed_windows=len(self.perturbed_windows),
                    )


class FailSafeMonitor(Monitor):
    """Section 7's fail-safe tolerance, checked online: under
    *uncorrectable* faults (permanent crash, Byzantine) the run may
    stop short, but it must never wrongly report a completion.

    The uncorrectable onset is the first ``fault`` event carrying
    ``mode`` in ``("crash", "byzantine")`` (net runtime) or ``name`` in
    ``("fault:crash", "fault:byzantine")`` (gc simulator).  Two rules:

    * ``completed-despite-uncorrectable`` -- the run claims it reached
      its target even though an uncorrectable fault fired (always
      checked: reaching the target requires the faulty party, so the
      claim is necessarily wrongful);
    * ``wrongful-completion`` -- a *successful* instance narrated after
      the onset, beyond a grace of one (the instance in flight when the
      fault strikes may legitimately complete -- extensions/failsafe's
      "at most the in-flight phase").  Only enforced with
      ``strict=True``, i.e. where trace time orders the onset exactly
      against successes: the gc engines (deterministic steps) and the
      round-quantized tree (a round-entry fault is causally after every
      earlier ``phase_end``).  MB's concurrent completions make the
      Lamport comparison unreliable, so MB runs check the end-of-run
      rule only.
    """

    guarantee = "fail-safe"

    #: ``fault`` payload values marking an uncorrectable fault.
    UNCORRECTABLE_MODES = ("crash", "byzantine")
    UNCORRECTABLE_NAMES = ("fault:crash", "fault:byzantine")

    def __init__(self, strict: bool = True, grace: int = 1) -> None:
        super().__init__()
        self.strict = strict
        self.grace = grace
        self.onset: float | None = None
        self._successes_after = 0

    def _uncorrectable(self, event: ObsEvent) -> bool:
        data = event.data
        return (
            data.get("mode") in self.UNCORRECTABLE_MODES
            or data.get("name") in self.UNCORRECTABLE_NAMES
        )

    def on_event(self, event: ObsEvent) -> None:
        if event.kind == FAULT:
            if self.onset is None and self._uncorrectable(event):
                self.onset = event.time
        elif event.kind == PHASE_END:
            if (
                self.onset is not None
                and event.data.get("success")
                and event.time > self.onset
            ):
                self._successes_after += 1
                if self.strict and self._successes_after > self.grace:
                    self._violate(
                        "wrongful-completion",
                        f"successful instance of phase "
                        f"{event.data.get('phase')} narrated after the "
                        f"uncorrectable fault at t={self.onset:g} "
                        f"({self._successes_after} > grace {self.grace})",
                        event.time,
                        phase=event.data.get("phase"),
                        onset=self.onset,
                        successes_after=self._successes_after,
                        grace=self.grace,
                    )

    def finish(self, reached: bool, time: float) -> None:
        if reached and self.onset is not None:
            self._violate(
                "completed-despite-uncorrectable",
                f"run reported completion despite an uncorrectable fault "
                f"at t={self.onset:g} (fail-safe means it must stop "
                "instead of wrongly completing)",
                time,
                onset=self.onset,
                successes_after=self._successes_after,
            )


def monitors_for(plan: FaultPlan, nphases: int | None, strict: bool = True):
    """The monitor battery appropriate for a plan's fault mix.

    Masking (and the at-most-m damage bound, whose accounting assumes
    one doomed instance per fault) only applies to purely-detectable
    schedules -- an undetectable scramble may smuggle a wrong phase
    number into an apparently successful instance, which is exactly the
    behaviour stabilization (always on) is allowed to repair.

    An *adversarial* plan (uncorrectable strikes or hostile link
    traffic) switches the battery entirely: masking, at-most-m and
    stabilization all assume every fault is correctable, so under
    permanent crashes or Byzantine peers the one checkable guarantee is
    Section 7's fail-safe rule -- may stop, never wrongly complete.
    ``strict`` additionally enforces the no-success-after-onset rule
    where trace time orders faults exactly (gc steps, tree rounds);
    pass ``False`` for MB-style concurrent narration.
    """
    if plan.adversarial:
        return [FailSafeMonitor(strict=strict)]
    monitors: list[Any] = []
    if not plan.undetectable_events and not (plan.link and plan.link.any):
        monitors.append(MaskingMonitor(nphases=nphases))
        monitors.append(AtMostMMonitor())
    monitors.append(StabilizationMonitor())
    return monitors


class MonitorSet:
    """Wire monitors into one tracer; collect everything they find.

    One subscription feeds a shared buffer of the
    :data:`~repro.obs.events.PROTOCOL_KINDS` events (so every
    violation's trace prefix is captured once) and fans them out to
    each monitor; other kinds are dropped on arrival.  A bounded tracer
    (``capacity`` not None) already keeps exactly that list, storing
    each event before it calls its listeners, so its
    ``protocol_events`` *is* the buffer rather than a second copy.
    """

    def __init__(self, tracer: Any | None, monitors: list[Monitor]) -> None:
        self.tracer = tracer
        self.monitors = list(monitors)
        self._shared = (
            tracer is not None and tracer.enabled and tracer.capacity is not None
        )
        self._events: list[ObsEvent] = (
            tracer.protocol_events if self._shared else []
        )
        for m in self.monitors:
            m._buffer = self._events
        if tracer is not None:
            tracer.subscribe(self._on_event)

    def _on_event(self, event: ObsEvent) -> None:
        if event.kind not in PROTOCOL_KINDS:
            return
        if not self._shared:
            self._events.append(event)
        for m in self.monitors:
            m.on_event(event)

    def feed(self, event: ObsEvent) -> None:
        """Push one event directly (streaming use, ``tracer=None``) --
        identical semantics to the subscription path."""
        self._on_event(event)

    def finish(self, reached: bool, time: float = 0.0) -> None:
        """End-of-run: let monitors report unfinished obligations and
        detach from the tracer."""
        for m in self.monitors:
            m.finish(reached, time)
        if self.tracer is not None:
            self.tracer.unsubscribe(self._on_event)

    @property
    def events(self) -> tuple[ObsEvent, ...]:
        """The monitor stream so far, in arrival order."""
        return tuple(self._events)

    @property
    def violations(self) -> list[GuaranteeViolation]:
        out: list[GuaranteeViolation] = []
        for m in self.monitors:
            out.extend(m.violations)
        out.sort(key=lambda v: v.time)
        return out

    @property
    def spans(self) -> list[float]:
        """Convergence spans of the monitors that measure them (the
        Figure 7 quantity), concatenated in monitor order."""
        out: list[float] = []
        for m in self.monitors:
            out.extend(getattr(m, "spans", ()))
        return out

    def check(self) -> None:
        """Raise the first (earliest) violation, if any."""
        violations = self.violations
        if violations:
            raise violations[0]
