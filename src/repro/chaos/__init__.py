"""Chaos campaign engine: adversarial fault schedules, online guarantee
monitors, and minimal-reproducer shrinking.

The package turns the paper's proofs into executable checks: a
serializable :class:`FaultPlan` drives any engine through its adapter,
:class:`MaskingMonitor` / :class:`StabilizationMonitor` /
:class:`AtMostMMonitor` watch the run's trace online for the guarantees
Sections 3-5 prove, and failing schedules shrink (delta debugging) to
replayable :class:`Reproducer` files.  ``repro-experiments chaos run``
and ``chaos replay`` are the CLI surface.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.chaos.adapters import ADAPTERS, Adapter, RunOutcome, get_adapter
    from repro.chaos.campaign import (
        CampaignReport,
        campaign_point,
        derive_seed,
        plan_for_run,
        replay_file,
        run_campaign,
        shrink_run,
    )
    from repro.chaos.monitors import (
        AtMostMMonitor,
        FailSafeMonitor,
        GuaranteeViolation,
        MaskingMonitor,
        Monitor,
        MonitorSet,
        StabilizationMonitor,
    )
    from repro.chaos.plan import (
        PLAN_VERSION,
        CampaignConfig,
        FaultEvent,
        FaultPlan,
        LinkPlan,
        PartitionWindow,
    )
    from repro.chaos.shrink import Reproducer, ShrinkResult, shrink_plan

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "adapters": ("ADAPTERS", "Adapter", "RunOutcome", "get_adapter"),
        "campaign": (
            "CampaignReport", "campaign_point", "derive_seed", "plan_for_run",
            "replay_file", "run_campaign", "shrink_run",
        ),
        "monitors": (
            "AtMostMMonitor", "FailSafeMonitor", "GuaranteeViolation", "MaskingMonitor",
            "Monitor", "MonitorSet", "StabilizationMonitor",
        ),
        "plan": (
            "PLAN_VERSION", "CampaignConfig", "FaultEvent", "FaultPlan", "LinkPlan",
            "PartitionWindow",
        ),
        "shrink": ("Reproducer", "ShrinkResult", "shrink_plan"),
    },
)

__all__ = [
    "ADAPTERS",
    "Adapter",
    "AtMostMMonitor",
    "CampaignConfig",
    "CampaignReport",
    "FailSafeMonitor",
    "FaultEvent",
    "FaultPlan",
    "GuaranteeViolation",
    "LinkPlan",
    "MaskingMonitor",
    "Monitor",
    "MonitorSet",
    "PLAN_VERSION",
    "PartitionWindow",
    "Reproducer",
    "RunOutcome",
    "ShrinkResult",
    "StabilizationMonitor",
    "campaign_point",
    "derive_seed",
    "get_adapter",
    "plan_for_run",
    "replay_file",
    "run_campaign",
    "shrink_plan",
    "shrink_run",
]
