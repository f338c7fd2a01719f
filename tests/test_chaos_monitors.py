"""Guarantee monitors: unit semantics plus the intolerant positive
control (monitors that cannot catch a provably broken barrier are
decoration, not checks)."""

import pytest

from repro.chaos import (
    AtMostMMonitor,
    CampaignConfig,
    FaultPlan,
    GuaranteeViolation,
    MaskingMonitor,
    MonitorSet,
    StabilizationMonitor,
    get_adapter,
)
from repro.obs import Tracer


def feed(monitors, script):
    """Drive monitors with a scripted trace; returns the MonitorSet."""
    tracer = Tracer()
    ms = MonitorSet(tracer, monitors)
    for entry in script:
        kind, args = entry[0], entry[1:]
        getattr(tracer, kind)(*args)
    return ms


class TestMaskingMonitor:
    def test_clean_run_no_violations(self):
        ms = feed(
            [MaskingMonitor(nphases=3)],
            [
                ("phase_start", 0.0, 0),
                ("phase_end", 1.0, 0, True),
                ("phase_start", 1.0, 1),
                ("phase_end", 2.0, 1, True),
                ("phase_start", 2.0, 2),
                ("phase_end", 3.0, 2, True),
                ("phase_start", 3.0, 0),
                ("phase_end", 4.0, 0, True),
            ],
        )
        ms.finish(True, 4.0)
        assert ms.violations == []

    def test_overlap_detected(self):
        ms = feed(
            [MaskingMonitor()],
            [("phase_start", 0.0, 0), ("phase_start", 0.5, 1)],
        )
        (v,) = ms.violations
        assert v.kind == "overlap"
        assert v.guarantee == "masking"
        # The trace prefix carries the failing history.
        assert v.trace_prefix[-1]["kind"] == "phase_start"

    def test_lost_phase_detected(self):
        ms = feed(
            [MaskingMonitor(nphases=4)],
            [
                ("phase_start", 0.0, 0),
                ("phase_end", 1.0, 0, True),
                ("phase_start", 1.0, 2),
                ("phase_end", 2.0, 2, True),  # skipped phase 1
            ],
        )
        (v,) = ms.violations
        assert v.kind == "lost-phase"
        assert v.data["expected"] == 1

    def test_duplicate_without_fault_detected(self):
        ms = feed(
            [MaskingMonitor(nphases=4)],
            [
                ("phase_start", 0.0, 1),
                ("phase_end", 1.0, 1, True),
                ("phase_start", 1.0, 1),
                ("phase_end", 2.0, 1, True),
            ],
        )
        (v,) = ms.violations
        assert v.kind == "duplicate-phase"

    def test_post_fault_repeat_is_masking_not_violation(self):
        # A fault may force re-execution of a completed phase; each
        # fault buys grace for one out-of-sequence success, and the
        # forgiveness survives an in-sequence instance finishing first
        # (re-execution may lag the fault by an instance).
        ms = feed(
            [MaskingMonitor(nphases=4)],
            [
                ("phase_start", 0.0, 1),
                ("phase_end", 1.0, 1, True),
                ("fault", 1.2, 2),
                ("phase_start", 1.3, 2),
                ("phase_end", 2.0, 2, True),  # in-flight instance: no spend
                ("phase_start", 2.0, 2),
                ("phase_end", 3.0, 2, True),  # repeat: spends the grace
                ("phase_start", 3.0, 3),
                ("phase_end", 4.0, 3, True),  # strict again from here
            ],
        )
        ms.finish(True, 4.0)
        assert ms.violations == []

    def test_grace_budget_is_one_per_fault(self):
        # One fault forgives exactly one mismatch; the second repeat has
        # no fault to blame and is flagged.
        ms = feed(
            [MaskingMonitor(nphases=4)],
            [
                ("phase_start", 0.0, 1),
                ("phase_end", 1.0, 1, True),
                ("fault", 1.2, 2),
                ("phase_start", 1.3, 1),
                ("phase_end", 2.0, 1, True),  # repeat: spends the grace
                ("phase_start", 2.0, 1),
                ("phase_end", 3.0, 1, True),  # budget exhausted
            ],
        )
        (v,) = ms.violations
        assert v.kind == "duplicate-phase"

    def test_spurious_failure_detected(self):
        ms = feed(
            [MaskingMonitor()],
            [("phase_start", 0.0, 0), ("phase_end", 1.0, 0, False)],
        )
        (v,) = ms.violations
        assert v.kind == "spurious-failure"

    def test_failure_with_fault_is_fine(self):
        ms = feed(
            [MaskingMonitor()],
            [
                ("fault", 0.5, 1),
                ("phase_start", 0.6, 0),
                ("phase_end", 1.0, 0, False),
            ],
        )
        assert ms.violations == []

    def test_stalled_run_detected_at_finish(self):
        ms = feed([MaskingMonitor()], [("fault", 1.0, 0)])
        ms.finish(False, 10.0)
        (v,) = ms.violations
        assert v.kind == "stalled"


class TestStabilizationMonitor:
    def test_span_measured_from_fault_to_first_clean(self):
        ms = feed(
            [StabilizationMonitor(clean_phases=2)],
            [
                ("fault", 2.0, 1),
                ("phase_start", 2.1, 0),
                ("phase_end", 3.0, 0, False),
                ("phase_start", 3.0, 0),
                ("phase_end", 5.0, 0, True),
                ("phase_start", 5.0, 1),
                ("phase_end", 6.0, 1, True),
            ],
        )
        ms.finish(True, 6.0)
        assert ms.violations == []
        (monitor,) = ms.monitors
        assert monitor.spans == [pytest.approx(3.0)]

    def test_no_convergence_detected(self):
        ms = feed(
            [StabilizationMonitor(clean_phases=2)],
            [("fault", 2.0, 1), ("phase_start", 2.1, 0), ("phase_end", 3.0, 0, True)],
        )
        ms.finish(False, 9.0)
        (v,) = ms.violations
        assert v.kind == "no-convergence"
        assert v.data["clean_run"] == 1

    def test_closure_violation_detected(self):
        # Converged after the fault, then failed again with no new
        # fault: legitimate states were not closed.
        ms = feed(
            [StabilizationMonitor(clean_phases=1)],
            [
                ("fault", 1.0, 0),
                ("phase_start", 1.1, 0),
                ("phase_end", 2.0, 0, True),  # converged
                ("phase_start", 2.0, 1),
                ("phase_end", 3.0, 1, False),  # relapse
            ],
        )
        (v,) = ms.violations
        assert v.kind == "closure-violation"

    def test_fault_free_run_is_trivially_converged(self):
        ms = feed(
            [StabilizationMonitor()],
            [("phase_start", 0.0, 0), ("phase_end", 1.0, 0, True)],
        )
        ms.finish(True, 1.0)
        assert ms.violations == []


class TestAtMostMMonitor:
    def test_within_bound(self):
        ms = feed(
            [AtMostMMonitor()],
            [
                ("fault", 0.5, 0),
                ("phase_start", 0.6, 0),
                ("phase_end", 1.0, 0, False),
                ("phase_start", 1.0, 0),
                ("phase_end", 2.0, 0, True),
            ],
        )
        assert ms.violations == []
        (monitor,) = ms.monitors
        assert monitor.faults == 1 and monitor.incorrect == 1

    def test_excess_incorrect_detected(self):
        ms = feed(
            [AtMostMMonitor()],
            [
                ("fault", 0.5, 0),
                ("phase_start", 0.6, 0),
                ("phase_end", 1.0, 0, False),
                ("phase_start", 1.0, 0),
                ("phase_end", 2.0, 0, False),  # 2 incorrect > 1 fault
            ],
        )
        (v,) = ms.violations
        assert v.kind == "excess-incorrect"
        assert v.data == {
            "incorrect": 2,
            "faults": 1,
            "perturbed_windows": 1,
        }


class TestMonitorSet:
    def test_check_raises_earliest_violation(self):
        ms = feed(
            [MaskingMonitor(), AtMostMMonitor()],
            [
                ("phase_start", 0.0, 0),
                ("phase_end", 1.0, 0, False),  # spurious (masking, t=1)
                ("phase_start", 1.0, 0),
                ("phase_end", 2.0, 0, False),  # excess (at-most-m, t=2)
            ],
        )
        with pytest.raises(GuaranteeViolation) as err:
            ms.check()
        assert err.value.kind == "spurious-failure"
        # Both monitors fired at both failed instances.
        assert len(ms.violations) == 4

    def test_finish_unsubscribes(self):
        tracer = Tracer()
        ms = MonitorSet(tracer, [MaskingMonitor()])
        ms.finish(True, 0.0)
        tracer.phase_start(1.0, 0)
        tracer.phase_start(1.5, 1)  # would be an overlap if still wired
        assert ms.violations == []

    def test_violation_json_round_trip(self):
        ms = feed(
            [MaskingMonitor()],
            [("phase_start", 0.0, 0), ("phase_start", 0.5, 1)],
        )
        (v,) = ms.violations
        again = GuaranteeViolation.from_json(v.to_json())
        assert again.kind == v.kind
        assert again.trace_prefix == v.trace_prefix
        assert "overlap" in str(again) and "masking" in str(again)

    def test_prefix_is_the_monitor_stream(self):
        # Token and message rows precede the violation; the prefix keeps
        # the protocol events only, the violating one last, on both paths.
        script = [
            ("phase_start", 0.0, 0),
            ("token_pass", 0.1, 0, 1),
            ("msg_send", 0.2, 0, 1),
            ("msg_recv", 0.3, 0, 1),
            ("phase_end", 0.4, 0, True),
            ("token_pass", 0.5, 1, 2),
            ("phase_start", 0.6, 1),
            ("msg_send", 0.7, 1, 2),
            ("phase_start", 0.8, 2),  # overlap
            ("token_pass", 0.9, 2, 0),
        ]
        subscribed = feed([MaskingMonitor()], script)
        tracer = Tracer()
        for kind, *args in script:
            getattr(tracer, kind)(*args)
        fed = MonitorSet(None, [MaskingMonitor()])
        for event in tracer.events:
            fed.feed(event)
        (v,) = subscribed.violations
        assert [e["kind"] for e in v.trace_prefix] == [
            "phase_start", "phase_end", "phase_start", "phase_start",
        ]
        assert v.trace_prefix[-1] == {
            "kind": "phase_start", "t": 0.8, "pid": 0, "phase": 2,
        }
        assert [x.to_json() for x in fed.violations] == [v.to_json()]


class TestIntolerantPositiveControl:
    """The fault-intolerant baseline must trip the monitors -- this is
    the end-to-end proof the chaos instrumentation can see anything."""

    CFG = CampaignConfig()

    def test_detectable_schedule_breaks_the_intolerant_barrier(self):
        adapter = get_adapter("gc:intolerant")
        plan = FaultPlan.generate(0, 4, detectable=4, steps=True)
        outcome = adapter.run(plan, self.CFG)
        assert not outcome.reached
        kinds = {f"{v.guarantee}/{v.kind}" for v in outcome.violations}
        assert "masking/stalled" in kinds
        assert "stabilization/no-convergence" in kinds

    def test_desync_without_deadlock_is_caught_too(self):
        # Seed 15 scrambles the intolerant barrier into completing the
        # run anyway -- but with more failed instances than injected
        # faults, which trips the at-most-m damage bound.
        adapter = get_adapter("gc:intolerant")
        plan = FaultPlan.generate(15, 4, detectable=4, steps=True)
        outcome = adapter.run(plan, self.CFG)
        assert outcome.reached
        kinds = {f"{v.guarantee}/{v.kind}" for v in outcome.violations}
        assert kinds == {"at-most-m/excess-incorrect"}

    def test_fault_free_intolerant_run_is_clean(self):
        adapter = get_adapter("gc:intolerant")
        plan = FaultPlan(nprocs=4)
        outcome = adapter.run(plan, self.CFG)
        assert outcome.reached
        assert outcome.violations == []

    @pytest.mark.parametrize(
        "target", ["gc:cb", "gc:rb-ring", "gc:rb-tree", "gc:mb"]
    )
    def test_same_schedule_is_masked_by_the_tolerant_programs(self, target):
        # The schedule that kills the intolerant baseline (seed 0) is
        # masked by every Section 3-5 program.
        adapter = get_adapter(target)
        plan = FaultPlan.generate(0, 4, detectable=4, steps=True)
        outcome = adapter.run(plan, self.CFG)
        assert outcome.reached
        assert outcome.violations == []
        assert outcome.faults_fired == 4
