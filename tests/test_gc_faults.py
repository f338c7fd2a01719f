"""Unit tests for repro.gc.faults."""

import numpy as np
import pytest

from repro.barrier.cb import cb_detectable_fault, make_cb
from repro.barrier.control import CP
from repro.gc.faults import (
    BernoulliSchedule,
    ExponentialSchedule,
    FaultInjector,
    FaultSpec,
    MultiInjector,
    OneShotSchedule,
)


class TestFaultSpec:
    def test_apply_resets_and_randomizes(self, cb4, rng):
        state = cb4.initial_state()
        spec = cb_detectable_fault()
        writes = spec.apply(cb4, state, 2, rng)
        assert state.get("cp", 2) is CP.ERROR
        assert dict(writes)["cp"] is CP.ERROR
        assert "ph" in dict(writes)
        cb4.validate_state(state)

    def test_undetectable_all(self, cb4, rng):
        spec = FaultSpec.undetectable_all(cb4)
        assert set(spec.randomized) == {"cp", "ph"}
        assert not spec.detectable
        state = cb4.initial_state()
        spec.apply(cb4, state, 0, rng)
        cb4.validate_state(state)


class TestSchedules:
    def test_one_shot(self, rng):
        s = OneShotSchedule(at_step=3)
        assert not s.fires(2, 0.0, rng)
        assert s.fires(3, 0.0, rng)
        assert not s.fires(4, 0.0, rng)

    def test_one_shot_fires_late_if_skipped(self, rng):
        s = OneShotSchedule(at_step=3)
        assert s.fires(10, 0.0, rng)
        assert not s.fires(11, 0.0, rng)

    def test_bernoulli_zero_and_one(self, rng):
        assert not BernoulliSchedule(0.0).fires(1, 0.0, rng)
        assert BernoulliSchedule(1.0).fires(1, 0.0, rng)
        with pytest.raises(ValueError):
            BernoulliSchedule(1.5)

    def test_bernoulli_rate(self, rng):
        s = BernoulliSchedule(0.25)
        hits = sum(s.fires(i, 0.0, rng) for i in range(4000))
        assert 800 < hits < 1200

    def test_exponential_rate_calibration(self):
        # P(no fault in d) = (1-f)^d  <=>  rate = -ln(1-f).
        s = ExponentialSchedule(0.1)
        assert s.rate == pytest.approx(-np.log(0.9))
        assert ExponentialSchedule(0.0).rate == 0.0
        with pytest.raises(ValueError):
            ExponentialSchedule(1.0)

    def test_exponential_fires_in_time(self, rng):
        s = ExponentialSchedule(0.5)
        fires = 0
        t = 0.0
        for _ in range(10_000):
            t += 0.1
            if s.fires(0, t, rng):
                fires += 1
        # Expected about rate * duration = 0.693 * 1000 ~ 693
        assert 550 < fires < 850

    def test_exponential_never_with_zero_frequency(self, rng):
        s = ExponentialSchedule(0.0)
        assert not any(s.fires(0, t, rng) for t in np.linspace(0, 100, 50))


class TestInjector:
    def test_targets_and_count(self, cb4):
        inj = FaultInjector(
            cb4,
            cb_detectable_fault(),
            BernoulliSchedule(1.0),
            targets=[1],
            seed=0,
            max_faults=3,
        )
        state = cb4.initial_state()
        events = []
        for step in range(10):
            events.extend(inj.maybe_inject(state, step))
        assert inj.count == 3
        assert all(e.pid == 1 and e.is_fault for e in events)

    def test_empty_targets_rejected(self, cb4):
        with pytest.raises(ValueError):
            FaultInjector(  # unseeded-ok: never runs
                cb4, cb_detectable_fault(), BernoulliSchedule(1.0), targets=[]
            )

    def test_multi_injector(self, cb4):
        a = FaultInjector(
            cb4, cb_detectable_fault(), OneShotSchedule(1), seed=0
        )
        b = FaultInjector(
            cb4, cb_detectable_fault(), OneShotSchedule(2), seed=1
        )
        multi = MultiInjector([a, b])
        state = cb4.initial_state()
        events = []
        for step in range(5):
            events.extend(multi.maybe_inject(state, step))
        assert multi.count == 2
        assert len(events) == 2

    def test_seed_picks_the_generator_the_schedule_can_draw_from(self, cb4):
        spec = FaultSpec.undetectable_all(cb4)

        def faults(schedule, seed):
            inj = FaultInjector(cb4, spec, schedule, seed=seed)
            state = cb4.initial_state()
            events = [
                (e.step, e.pid, e.updates)
                for step in range(400)
                for e in inj.maybe_inject(state, step, time=0.5 * step)
            ]
            assert events
            return inj.rng, events

        # An int seed and numpy's generator of that seed are one stream.
        core, drawn = faults(BernoulliSchedule(0.05), 5)
        assert not isinstance(core, np.random.Generator)
        assert faults(BernoulliSchedule(0.05), np.random.default_rng(5))[1] == drawn
        # ``exponential`` exists on numpy's generator only.
        built, drawn = faults(ExponentialSchedule(0.05), 5)
        assert isinstance(built, np.random.Generator)
        mine = np.random.default_rng(5)
        assert faults(ExponentialSchedule(0.05), mine) == (mine, drawn)
