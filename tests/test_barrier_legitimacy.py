"""Legitimate-state predicates: exactness and closure."""

import pytest

from repro.barrier.cb import make_cb
from repro.barrier.control import CP
from repro.barrier.legitimacy import (
    cb_legitimate,
    cb_start_state,
    mb_start_state,
    rb_legitimate,
    rb_start_state,
)
from repro.gc.explore import Explorer
from repro.gc.state import State
from repro.topology.graphs import ring


def cb_state(cps, phs):
    return State({"cp": list(cps), "ph": list(phs)}, len(cps))


class TestCBPredicates:
    def test_start_state(self):
        assert cb_start_state(cb_state([CP.READY] * 3, [1, 1, 1]))
        assert not cb_start_state(cb_state([CP.READY] * 3, [1, 2, 1]))
        assert not cb_start_state(
            cb_state([CP.READY, CP.EXECUTE, CP.READY], [1, 1, 1])
        )

    def test_entry_wave_legitimate(self):
        assert cb_legitimate(
            cb_state([CP.READY, CP.EXECUTE, CP.EXECUTE], [0, 0, 0]), 3
        )

    def test_exit_wave_legitimate(self):
        assert cb_legitimate(
            cb_state([CP.SUCCESS, CP.EXECUTE, CP.SUCCESS], [2, 2, 2]), 3
        )

    def test_handover_wave_legitimate(self):
        assert cb_legitimate(
            cb_state([CP.SUCCESS, CP.READY, CP.SUCCESS], [2, 0, 2]), 3
        )

    def test_handover_requires_adjacent_phase(self):
        assert not cb_legitimate(
            cb_state([CP.SUCCESS, CP.READY, CP.SUCCESS], [2, 1, 2]), 3
        )

    def test_error_never_legitimate(self):
        assert not cb_legitimate(
            cb_state([CP.ERROR, CP.READY, CP.READY], [0, 0, 0]), 3
        )

    def test_phase_mismatch_in_wave_illegitimate(self):
        assert not cb_legitimate(
            cb_state([CP.READY, CP.EXECUTE, CP.READY], [0, 1, 0]), 3
        )

    def test_ready_execute_success_mix_illegitimate(self):
        assert not cb_legitimate(
            cb_state([CP.READY, CP.EXECUTE, CP.SUCCESS], [0, 0, 0]), 3
        )

    def test_exactly_the_reachable_set(self):
        """The legitimate set equals the fault-free reachable set on a
        small instance (predicate exactness, both directions)."""
        prog = make_cb(2, 2)
        explorer = Explorer(prog)
        result = explorer.reachable([prog.initial_state()])
        reachable = {result.state_of(k).key() for k in result.states}
        legit = {
            s.key()
            for s in explorer.full_state_space()
            if cb_legitimate(s, 2)
        }
        assert legit == reachable


def rb_state(sns, cps, phs):
    return State({"sn": list(sns), "cp": list(cps), "ph": list(phs)}, len(sns))


class TestRBPredicates:
    def test_start_state(self):
        topo = ring(3)
        s = rb_state([2, 2, 2], [CP.READY] * 3, [1, 1, 1])
        assert rb_start_state(s, topo, k=4)
        s2 = rb_state([2, 1, 1], [CP.READY] * 3, [1, 1, 1])
        assert not rb_start_state(s2, topo, k=4)

    def test_legitimate_mid_token(self):
        topo = ring(3)
        s = rb_state([2, 2, 1], [CP.EXECUTE, CP.EXECUTE, CP.READY], [1, 1, 1])
        assert rb_legitimate(s, topo, k=4, nphases=3)

    def test_repeat_not_legitimate(self):
        topo = ring(3)
        s = rb_state([2, 2, 2], [CP.REPEAT, CP.READY, CP.READY], [1, 1, 1])
        assert not rb_legitimate(s, topo, k=4, nphases=3)

    def test_three_phases_not_legitimate(self):
        topo = ring(3)
        s = rb_state([2, 2, 2], [CP.READY] * 3, [0, 1, 2])
        assert not rb_legitimate(s, topo, k=4, nphases=4)

    def test_new_value_must_flow_from_root(self):
        topo = ring(3)
        # sn = [1, 2, 1]: process 1 holds the "new" value 2 but its
        # parent 0 does not -- not a legitimate token configuration.
        s = rb_state([1, 2, 1], [CP.READY] * 3, [0, 0, 0])
        assert not rb_legitimate(s, topo, k=4, nphases=2)


class TestMBPredicate:
    def test_start_state_roundtrip(self, mb4):
        L = mb4.metadata["sn_domain"].k
        assert mb_start_state(mb4.initial_state(), L)

    def test_stale_copy_rejected(self, mb4):
        L = mb4.metadata["sn_domain"].k
        state = mb4.initial_state()
        state.set("lsn_prev", 0, 3)
        assert not mb_start_state(state, L)

    def test_wrong_lcp_rejected(self, mb4):
        L = mb4.metadata["sn_domain"].k
        state = mb4.initial_state()
        state.set("lcp_prev", 2, CP.SUCCESS)
        assert not mb_start_state(state, L)
