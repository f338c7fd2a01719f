"""The adversarial fault surface, end to end.

The load-bearing claims, in test form:

* **plans stay compatible**: the Section 7 fault kinds (``crash``,
  ``byzantine``) and the ``forge`` link rate round-trip through JSON,
  and a pre-adversarial plan serializes byte-identically to what it
  produced before the vocabulary existed;
* **the frame layer is hostile-input safe**: oversized frames and
  non-canonical encodings are structured errors, never crashes, and a
  hostile peer cannot pin unbounded dedup state;
* **no message is corrupted forever**: the transport's adversarial
  channels (corruption, forgery) respect the same liveness cap as
  loss -- after :data:`MAX_DROP_ATTEMPTS`, resends deliver clean;
* **the fail-safe monitor** flags wrongful completions and
  completion-despite-uncorrectable, and only those;
* **replay determinism survives the adversary**: a corruption + forge
  + Byzantine + permanent-crash run is digest-identical across runs
  and across the sharded/single-loop boundary, quarantining hostile
  frames instead of raising, and ends in a fail-safe stop with zero
  violations -- while the undefended control wrongly completes and is
  flagged.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.chaos.adapters import get_adapter, monitors_for
from repro.chaos.campaign import plan_for_run
from repro.chaos.monitors import FailSafeMonitor
from repro.chaos.plan import CampaignConfig, FaultEvent, FaultPlan, LinkPlan
from repro.net.faults import MAX_DROP_ATTEMPTS, FaultyTransport
from repro.net.frames import (
    MAX_FRAME,
    MAX_SEQ_WINDOW,
    DedupIndex,
    FrameDecoder,
    FrameError,
    Message,
    encode_canonical,
    encode_frame,
)
from repro.net.runtime import NetConfig, run_sync
from repro.net.transport import Transport
from repro.obs.events import FAULT, PHASE_END, ObsEvent

#: The canonical adversarial schedule: a Byzantine lie mode, a permanent
#: fail-stop, and hostile link traffic, all seeded.
ADVERSARIAL_PLAN = FaultPlan(
    nprocs=5,
    events=(
        FaultEvent(when=2.0, pid=3, detectable=False, kind="byzantine"),
        FaultEvent(when=3.0, pid=4, kind="crash"),
    ),
    seed=7,
    link=LinkPlan(corruption=0.05, forge=0.05),
)

BYZANTINE_ONLY = FaultPlan(
    nprocs=5,
    events=(FaultEvent(when=2.0, pid=3, detectable=False, kind="byzantine"),),
    seed=7,
)


def _run(**overrides):
    base = dict(nodes=5, barriers=8, seed=7, plan=ADVERSARIAL_PLAN, timeout_s=30.0)
    base.update(overrides)
    return run_sync(NetConfig(**base))


# ----------------------------------------------------------------------
# Plan vocabulary
# ----------------------------------------------------------------------
class TestPlanKinds:
    def test_kind_round_trip(self):
        plan = ADVERSARIAL_PLAN
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        assert [e.kind for e in again.events] == ["byzantine", "crash"]
        assert again.link is not None and again.link.forge == 0.05

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(when=1.0, pid=0, kind="gremlin")

    def test_pre_adversarial_plans_stay_byte_stable(self):
        # A plan using only the old vocabulary must serialize without
        # any of the new keys, so stored reproducers keep their bytes.
        plan = FaultPlan(
            nprocs=4,
            events=(FaultEvent(when=1.0, pid=2),),
            seed=1,
            link=LinkPlan(loss=0.1),
        )
        blob = json.dumps(plan.to_json(), sort_keys=True)
        assert '"kind"' not in blob
        assert '"forge"' not in blob

    def test_adversarial_property(self):
        assert ADVERSARIAL_PLAN.adversarial
        assert BYZANTINE_ONLY.adversarial
        assert FaultPlan(
            nprocs=4, seed=0, link=LinkPlan(corruption=0.1)
        ).adversarial
        assert FaultPlan(
            nprocs=4, seed=0, link=LinkPlan(forge=0.1)
        ).adversarial
        assert not FaultPlan(
            nprocs=4,
            events=(FaultEvent(when=1.0, pid=1),),
            seed=0,
            link=LinkPlan(loss=0.3),
        ).adversarial

    def test_generate_draws_uncorrectable_kinds(self):
        plan = FaultPlan.generate(
            9, 6, detectable=1, byzantine=2, permanent=2, start=1.0, stop=9.0
        )
        kinds = sorted(e.kind for e in plan.events)
        assert kinds == ["byzantine", "byzantine", "crash", "crash", "reset"]
        # The narrator (pid 0) never turns Byzantine: phase events must
        # come from an honest mouth for the monitors to mean anything.
        assert all(e.pid != 0 for e in plan.byzantine_events)

    def test_campaign_clamps_to_engine_capabilities(self):
        cfg = CampaignConfig(
            targets=("gc:cb", "net:tree+byzantine"),
            byzantine=1,
            permanent=1,
            detectable=0,
        )
        # gc:cb cannot express either class: both degrade.
        _, degraded = plan_for_run(cfg, 0)
        assert not degraded.uncorrectable_events
        # The Byzantine-capable tree target keeps the kinds.
        _, kept = plan_for_run(cfg, 1)
        assert {e.kind for e in kept.uncorrectable_events} == {
            "byzantine",
            "crash",
        }


# ----------------------------------------------------------------------
# Frame hardening (hostile-input safety)
# ----------------------------------------------------------------------
class TestFrameHardening:
    def test_oversized_frame_is_structured_error(self):
        decoder = FrameDecoder()
        huge = (MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(FrameError, match="exceeds"):
            list(decoder.feed(huge))
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(b"x" * (MAX_FRAME + 1))

    def test_strict_decode_rejects_non_canonical(self):
        body = Message(kind="arrive", src=1, dst=0, seq=3).to_bytes()
        # Loose mode tolerates re-encodings; strict pins one byte form.
        spaced = body.replace(b",", b", ")
        assert Message.from_bytes(spaced).kind == "arrive"
        with pytest.raises(FrameError, match="non-canonical"):
            Message.from_bytes(spaced, strict=True)

    def test_strict_decode_rejects_unknown_keys(self):
        record = json.loads(Message(kind="hb", src=0, dst=1, seq=0).to_bytes())
        record["evil"] = 1
        body = encode_canonical(record).encode()
        assert Message.from_bytes(body).kind == "hb"
        with pytest.raises(FrameError, match="unknown envelope keys"):
            Message.from_bytes(body, strict=True)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"q": -1},  # negative seq
            {"q": True},  # bool masquerading as int
            {"s": "0"},  # stringly-typed src
            {"k": ""},  # empty kind
            {"k": "x" * 33},  # oversized kind
            {"p": []},  # non-object payload
        ],
    )
    def test_envelope_schema_violations_raise_frame_error(self, mutation):
        record = json.loads(Message(kind="hb", src=0, dst=1, seq=0).to_bytes())
        record.update(mutation)
        with pytest.raises(FrameError):
            Message.from_bytes(encode_canonical(record).encode())


# ----------------------------------------------------------------------
# Dedup memory bounds
# ----------------------------------------------------------------------
class TestDedupBounds:
    def test_far_future_seq_refused(self):
        index = DedupIndex()
        assert index.accept(1, 0, 0)
        # A forged sequence number far beyond the reorder window must
        # not be tracked: accepting it would pin a set entry forever.
        assert not index.accept(1, 0, MAX_SEQ_WINDOW + 10)
        # Honest traffic just below the window still flows.
        assert index.accept(1, 0, MAX_SEQ_WINDOW)

    def test_incarnation_bump_prunes_and_floors(self):
        index = DedupIndex()
        for inc in (0, 1):
            for seq in range(4):
                assert index.accept(2, inc, seq)
        assert index.tracked == 2
        index.forget_older_incarnations(2, 2)
        assert index.tracked == 0
        # Replays from the pruned lives are refused without re-tracking.
        assert not index.accept(2, 0, 99)
        assert not index.accept(2, 1, 99)
        assert index.tracked == 0
        assert index.accept(2, 2, 0)

    def test_exactly_once_across_reorder_gaps(self):
        index = DedupIndex()
        order = [3, 0, 2, 0, 3, 1, 2, 1]
        accepted = [seq for seq in order if index.accept(4, 0, seq)]
        assert sorted(accepted) == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Liveness cap on the adversarial channels
# ----------------------------------------------------------------------
class _CaptureTransport(Transport):
    """Records every delivered frame body; nothing else."""

    def __init__(self) -> None:
        super().__init__(0, 5)
        self.delivered: list[bytes] = []

    async def send(self, dst: int, body: bytes) -> None:
        self.delivered.append(body)

    async def recv(self, timeout=None):  # pragma: no cover - unused
        return None

    def drain(self) -> int:  # pragma: no cover - unused
        return 0

    async def close(self) -> None:
        pass


def _sends(plan: FaultPlan, count: int) -> list[bytes]:
    """Send one logical message ``count`` times through the injector."""
    body = Message(kind="arrive", src=0, dst=1, seq=5, payload={"round": 1}).to_bytes()

    async def go() -> list[bytes]:
        inner = _CaptureTransport()
        faulty = FaultyTransport(inner, plan)
        for _ in range(count):
            await faulty.send(1, body)
        return inner.delivered

    return asyncio.run(go())


class TestLivenessCap:
    def test_no_message_dropped_forever(self):
        plan = FaultPlan(nprocs=5, seed=3, link=LinkPlan(loss=1.0))
        delivered = _sends(plan, MAX_DROP_ATTEMPTS + 2)
        # Attempts 0..cap-1 drop; every later resend delivers.
        assert len(delivered) == 2

    def test_no_message_corrupted_forever(self):
        plan = FaultPlan(nprocs=5, seed=3, link=LinkPlan(corruption=1.0))
        clean = Message(
            kind="arrive", src=0, dst=1, seq=5, payload={"round": 1}
        ).to_bytes()
        delivered = _sends(plan, MAX_DROP_ATTEMPTS + 2)
        assert len(delivered) == MAX_DROP_ATTEMPTS + 2
        mangled, survivors = (
            delivered[:MAX_DROP_ATTEMPTS],
            delivered[MAX_DROP_ATTEMPTS:],
        )
        # The capped prefix is hostile -- and *detectably* so: a flipped
        # high bit makes the body invalid UTF-8, never a different
        # valid frame.
        for body in mangled:
            assert body != clean
            with pytest.raises(FrameError):
                Message.from_bytes(body)
        # Past the cap, resends deliver the clean frame only.
        assert survivors == [clean, clean]

    def test_forgery_respects_the_cap(self):
        plan = FaultPlan(nprocs=5, seed=3, link=LinkPlan(forge=1.0))
        delivered = _sends(plan, MAX_DROP_ATTEMPTS + 2)
        # One forged extra rides along per capped attempt, none after.
        assert len(delivered) == 2 * MAX_DROP_ATTEMPTS + 2
        clean = Message(
            kind="arrive", src=0, dst=1, seq=5, payload={"round": 1}
        ).to_bytes()
        for body in delivered:
            msg = Message.from_bytes(body)
            # A forgery is a replay (byte-identical) or a src spoof.
            assert body == clean or msg.src != 0


# ----------------------------------------------------------------------
# The fail-safe monitor
# ----------------------------------------------------------------------
def _fault(time: float, pid: int, **data) -> ObsEvent:
    return ObsEvent(kind=FAULT, time=time, pid=pid, data=data)


def _success(time: float, phase: int) -> ObsEvent:
    return ObsEvent(
        kind=PHASE_END, time=time, pid=0, data={"phase": phase, "success": True}
    )


class TestFailSafeMonitor:
    def test_wrongful_completion_beyond_grace(self):
        m = FailSafeMonitor(strict=True)
        m.on_event(_success(5.0, 0))
        m.on_event(_fault(10.0, 2, mode="byzantine", detectable=False))
        m.on_event(_success(20.0, 1))  # the in-flight instance: grace
        assert not m.violations
        m.on_event(_success(30.0, 2))
        assert [v.kind for v in m.violations] == ["wrongful-completion"]
        assert m.violations[0].data["onset"] == 10.0

    def test_non_strict_checks_end_of_run_only(self):
        m = FailSafeMonitor(strict=False)
        m.on_event(_fault(10.0, 2, mode="byzantine", detectable=False))
        for n in range(5):
            m.on_event(_success(20.0 + n, n))
        assert not m.violations
        m.finish(reached=True, time=99.0)
        assert [v.kind for v in m.violations] == [
            "completed-despite-uncorrectable"
        ]

    def test_gc_fault_names_mark_onset(self):
        m = FailSafeMonitor(strict=True)
        m.on_event(_fault(10.0, 1, name="fault:crash", detectable=True))
        m.on_event(_success(20.0, 0))
        m.on_event(_success(30.0, 1))
        assert [v.kind for v in m.violations] == ["wrongful-completion"]

    def test_correctable_faults_never_arm_it(self):
        m = FailSafeMonitor(strict=True)
        m.on_event(_fault(10.0, 1, detectable=True))  # a plain reset
        for n in range(5):
            m.on_event(_success(20.0 + n, n))
        m.finish(reached=True, time=99.0)
        assert not m.violations

    def test_stopping_short_is_clean(self):
        m = FailSafeMonitor(strict=True)
        m.on_event(_fault(10.0, 2, mode="crash", detectable=True))
        m.finish(reached=False, time=50.0)
        assert not m.violations

    def test_adversarial_plans_route_to_it(self):
        assert [type(m) for m in monitors_for(ADVERSARIAL_PLAN, None)] == [
            FailSafeMonitor
        ]
        assert monitors_for(ADVERSARIAL_PLAN, None, strict=False)[0].strict is False
        clean = FaultPlan(nprocs=4, events=(FaultEvent(when=1.0, pid=1),), seed=0)
        assert all(
            not isinstance(m, FailSafeMonitor) for m in monitors_for(clean, 4)
        )


# ----------------------------------------------------------------------
# End-to-end: the defended runtime under the full adversary
# ----------------------------------------------------------------------
class TestAdversarialReplay:
    def test_hostile_frames_quarantine_and_the_run_fail_safes(self):
        result = _run()
        assert result.ok
        assert result.failsafe_stop
        assert not result.violations
        # The adversary actually acted...
        assert result.link_stats.get("corrupted", 0) > 0
        assert result.link_stats.get("forged", 0) > 0
        # ...and every hostile frame died as a structured quarantine
        # (counted in the same call that traces it), not an exception
        # (reaching here at all proves no raise escaped).
        assert sum(s["quarantined"] for s in result.node_stats.values()) > 0

    def test_digest_identical_across_runs(self):
        first, second = _run(), _run()
        assert first.digest == second.digest

    def test_quarantine_noise_stays_out_of_the_digest(self):
        # Same protocol decisions, different quarantine timings would
        # still re-derive the digest from protocol events only.
        result = _run()
        assert sum(s["quarantined"] for s in result.node_stats.values()) > 0
        assert result.digest  # digest exists despite hostile traffic

    def test_sharded_matches_single_loop(self):
        single = _run()
        sharded = _run(shards=2, timeout_s=60.0)
        assert sharded.digest == single.digest
        assert sharded.failsafe_stop

    def test_undefended_control_is_flagged(self):
        defended = _run(plan=BYZANTINE_ONLY)
        assert defended.ok and defended.failsafe_stop
        control = _run(plan=BYZANTINE_ONLY, defense=False, timeout_s=8.0)
        assert not control.ok
        kinds = {v.kind for v in control.violations}
        assert "wrongful-completion" in kinds

    def test_mb_byzantine_fail_safes(self):
        plan = FaultPlan(
            nprocs=4,
            events=(
                FaultEvent(when=1.0, pid=2, detectable=False, kind="byzantine"),
            ),
            seed=5,
        )
        result = run_sync(
            NetConfig(
                nodes=4,
                barriers=6,
                protocol="mb",
                seed=5,
                plan=plan,
                timeout_s=30.0,
            )
        )
        assert result.ok
        assert result.failsafe_stop
        assert not result.violations


# ----------------------------------------------------------------------
# The gc Section 7 targets
# ----------------------------------------------------------------------
class TestGCAdversarialTargets:
    CFG = CampaignConfig(nprocs=4, nphases=3, target_phases=5, max_steps=20000)

    def test_failsafe_target_stops_cleanly(self):
        plan = FaultPlan(
            nprocs=4, events=(FaultEvent(when=40, pid=2, kind="crash"),), seed=3
        )
        out = get_adapter("gc:failsafe").run(plan, self.CFG)
        assert out.ok and not out.reached
        assert out.faults_fired == 1

    def test_byzantine_target_never_wrongly_completes(self):
        plan = FaultPlan(
            nprocs=4,
            events=(
                FaultEvent(when=10, pid=2, detectable=False, kind="byzantine"),
            ),
            seed=3,
        )
        out = get_adapter("gc:cb+byzantine").run(plan, self.CFG)
        assert out.ok and not out.reached

    @pytest.mark.parametrize(
        "target", ["gc:failsafe+compiled", "gc:cb+byzantine+compiled"]
    )
    def test_compiled_backends_registered(self, target):
        kind = "crash" if "failsafe" in target else "byzantine"
        plan = FaultPlan(
            nprocs=4,
            events=(
                FaultEvent(
                    when=40, pid=2, detectable=(kind == "crash"), kind=kind
                ),
            ),
            seed=3,
        )
        out = get_adapter(target).run(plan, self.CFG)
        assert out.ok and not out.reached
