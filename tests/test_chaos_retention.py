"""What a chaos run keeps: the protocol events, on every target.

``RunOutcome.events`` is the protocol projection (``PROTOCOL_KINDS``):
what the monitors, the replay digest and replay read.  Token and message
rows are never retained, so a run's memory grows with its rounds, not
with its steps.  The golden table pins one fixed plan per simulated row
(both gc backends) to the outcome it had while runs still kept every
traced event: keeping less must change no digest, count, span or
verdict.
"""

from __future__ import annotations

import pytest

from repro.chaos import CampaignConfig, FaultPlan, LinkPlan, get_adapter
from repro.net.trace import trace_digest
from repro.obs.events import PROTOCOL_KINDS

CONFIG = CampaignConfig(
    nprocs=4, nphases=3, target_phases=8, max_steps=3_000, max_time=200.0
)


def plan_for(adapter) -> FaultPlan:
    """Two detectable strikes plus one of every other class the row can
    express, inside a window the run reaches."""
    start, stop = (2.0, 60.0) if adapter.steps else adapter.window
    return FaultPlan.generate(
        7,
        4,
        detectable=2,
        undetectable=int(adapter.supports_undetectable),
        byzantine=int(adapter.supports_byzantine),
        permanent=int(adapter.supports_permanent),
        start=start,
        stop=stop,
        steps=adapter.steps,
        link=LinkPlan(loss=0.05, duplication=0.05) if adapter.supports_link else None,
    )


_CB = "6f84b49a3b4015170bccffa67322b4e3705d535c81ca7e65a3fe64eee9e5a7f8"
_RB_RING = "616d905af7eaa4b2c25f4bc1dac849bc998f6eea51c28a91485bf3215bb189cd"
_RB_TREE = "f65e6d941da72203a67c9adff00a32efb734fc4e7c7153eb9b315ed098fc5f15"
_MB = "bc5991cd2bfb5953167abaebb530a860cce6f76374fe364ee90ba2fc0e6001fd"
_FAILSAFE = "23fb52787b181f9a9f7a8a07e96b1c9f6971b5f6299bb00493b5777613ba0c18"
_BYZANTINE = "aacb64c05d1c7ed261254174e5603957db6726ef7fb13eedbb385837b9bc48ab"

#: target -> (digest, reached, successful_phases, faults_fired, spans,
#: end_time, violations), recorded before runs kept only protocol events.
GOLDEN = {
    "gc:cb": (_CB, True, 8, 3, [4.0, 8.0], 102.0, []),
    "gc:rb-ring": (_RB_RING, True, 8, 3, [10.0], 116.0, []),
    "gc:rb-tree": (_RB_TREE, True, 8, 3, [10.0], 116.0, []),
    "gc:mb": (_MB, True, 8, 3, [29.0], 219.0, []),
    "gc:cb+compiled": (_CB, True, 8, 3, [4.0, 8.0], 102.0, []),
    "gc:rb-ring+compiled": (_RB_RING, True, 8, 3, [10.0], 116.0, []),
    "gc:rb-tree+compiled": (_RB_TREE, True, 8, 3, [10.0], 116.0, []),
    "gc:mb+compiled": (_MB, True, 8, 3, [29.0], 219.0, []),
    "gc:intolerant": (
        "32e3b407649f91059c772264c11c25ed7c6d9321e9fb183711bd451c27720c28",
        False, 3, 3, [], 3000.0, ["stabilization/no-convergence"],
    ),
    "gc:failsafe": (_FAILSAFE, False, 3, 4, [], 3000.0, []),
    "gc:cb+byzantine": (_BYZANTINE, False, 3, 4, [], 3000.0, []),
    "gc:failsafe+compiled": (_FAILSAFE, False, 3, 4, [], 3000.0, []),
    "gc:cb+byzantine+compiled": (_BYZANTINE, False, 3, 4, [], 3000.0, []),
    "protosim:tree": (
        "c5c024f3dfe304fd5b1451d44ceb1e7ca315bd6fc925a22e5f7034c0498c66e5",
        True, 8, 3, [1.1081816990325115], 9.55578732196424, [],
    ),
    "simmpi:barrier": (
        "6189d370cebac909057ff021248d70a02e374aa86ef088a26560a52d54457477",
        True, 8, 2, [0.03239437706826287], 8.469999999999994, [],
    ),
    "des:mb": (
        "8b9bb1040882a3f74d2716f29651bb52f6dd6a88043831210fdb21c9902d2af4",
        True, 8, 2, [1.2300000000000004], 18.810000000000013, [],
    ),
}


@pytest.mark.parametrize("target", sorted(GOLDEN))
def test_outcome_is_unchanged_and_keeps_the_protocol_projection(target):
    adapter = get_adapter(target)
    outcome = adapter.run(plan_for(adapter), CONFIG)
    digest, reached, phases, faults, spans, end_time, violations = GOLDEN[target]
    assert trace_digest({0: outcome.events}) == digest
    assert outcome.reached is reached
    assert outcome.successful_phases == phases
    assert outcome.faults_fired == faults
    assert outcome.spans == pytest.approx(spans, rel=1e-12)
    assert outcome.end_time == pytest.approx(end_time, rel=1e-12)
    assert [f"{v.guarantee}/{v.kind}" for v in outcome.violations] == violations

    assert {e.kind for e in outcome.events} <= PROTOCOL_KINDS
    # O(rounds): one start and one end per instance (at most one per
    # success, one per fault and the one in flight), and at most a
    # fault, a detect and a recovery row per fault.
    assert len(outcome.events) <= 2 * (phases + faults + 1) + 3 * faults


def test_events_grow_with_phases_not_steps():
    adapter = get_adapter("gc:mb")
    plan = FaultPlan(nprocs=4, seed=1)
    for phases in (8, 16):
        config = CampaignConfig(nprocs=4, nphases=3, target_phases=phases)
        outcome = adapter.run(plan, config)
        assert outcome.reached and outcome.successful_phases == phases
        # A phase start and end per instance; the daemon steps many
        # times more, and nothing of those steps is kept.
        assert len(outcome.events) == 2 * phases
        assert outcome.end_time > 10 * len(outcome.events)


def test_net_outcome_keeps_the_protocol_projection():
    plan = FaultPlan(nprocs=3, seed=2, link=LinkPlan(loss=0.1))
    config = CampaignConfig(nprocs=3, target_phases=3)
    outcome = get_adapter("net:tree").run(plan, config)
    assert outcome.reached and outcome.ok
    assert outcome.events
    assert {e.kind for e in outcome.events} <= PROTOCOL_KINDS
