"""Visualization helpers and the hardware lookup tables."""

import itertools
import math

import pytest

from repro.barrier.control import CP
from repro.barrier.rb import make_rb
from repro.barrier.sources import compile_mb, compile_rb
from repro.barrier.tables import (
    ROOT_BEGIN,
    ROOT_COMPLETE,
    ROOT_IDLE,
    ROOT_RECOVER,
    ROOT_REEXECUTE,
    ROOT_TO_SUCCESS,
    follower_table,
    root_table,
    state_bits,
)
from repro.gc.domains import BOT, TOP
from repro.gc.scheduler import RoundRobinDaemon
from repro.gc.simulator import Simulator
from repro.gc.state import State
from repro.viz.chart import ascii_chart, sparkline
from repro.viz.timeline import render_state, render_timeline, state_glyphs


def _rb_state(cp, ph, sn):
    return State({"sn": list(sn), "cp": list(cp), "ph": list(ph)}, 3)


def _fire(program, name, pid, state):
    """Fire ``name`` at ``pid`` in ``state``; return ``(cp, ph)`` after."""
    action = program.action_named(name, pid)
    assert action.enabled(state)
    updates = dict(action.updates(state))
    return (
        updates.get("cp", state.get("cp", pid)),
        updates.get("ph", state.get("ph", pid)),
    )


class TestFollowerTable:
    def test_total(self):
        table = follower_table()
        assert len(table) == 25

    def test_agrees_with_statement(self):
        """On every input the table equals T2 at process 1 of the
        notation program RB (:func:`compile_rb`), an independent
        transcription of the paper's statement."""
        prog = compile_rb(3, nphases=3)
        table = follower_table()
        for current, upstream in itertools.product(CP, CP):
            state = _rb_state([upstream, current, CP.READY], [2, 0, 0], [1, 0, 0])
            new_cp, new_ph = _fire(prog, "T2", 1, state)
            assert new_cp is table[(current, upstream)], (current, upstream)
            assert new_ph == 2

    def test_agrees_with_rb_program(self):
        """MB's copy cell (CPREV) and follower (T2) run RB's T2 rule
        ("identical to the superposed action T2 at a non-0 process"):
        the notation program MB (:func:`compile_mb`) agrees with the
        table on every input, both for the copy and for the follower."""
        prog = compile_mb(2, nphases=2)
        table = follower_table()
        for current, upstream in itertools.product(CP, CP):
            state = prog.initial_state()
            state.set("sn", 0, 1)  # CPREV at 1 copies a fresh token
            state.set("cp", 0, upstream)
            state.set("lcp_prev", 1, current)
            updates = dict(prog.action_named("CPREV", 1).updates(state))
            assert updates.get("lcp_prev", current) is table[(current, upstream)]
            state = prog.initial_state()
            state.set("lsn_prev", 1, 1)  # T2 at 1 takes the copied token
            state.set("lcp_prev", 1, upstream)
            state.set("cp", 1, current)
            updates = dict(prog.action_named("T2", 1).updates(state))
            assert updates.get("cp", current) is table[(current, upstream)]


#: What each root decision writes: ``(cp.0, ph.0)`` after T1, given
#: ``cp.0``, ``ph.0`` and the final's phase.
_ROOT_EFFECT = {
    ROOT_BEGIN: lambda cp0, ph0, phf: (CP.EXECUTE, ph0),
    ROOT_TO_SUCCESS: lambda cp0, ph0, phf: (CP.SUCCESS, ph0),
    ROOT_COMPLETE: lambda cp0, ph0, phf: (CP.READY, (ph0 + 1) % 3),
    ROOT_REEXECUTE: lambda cp0, ph0, phf: (CP.READY, phf),
    ROOT_RECOVER: lambda cp0, ph0, phf: (CP.READY, phf),
    ROOT_IDLE: lambda cp0, ph0, phf: (cp0, ph0),
}


def _final_cps(cp0, ready, success):
    """The final's control positions that realize the flags.

    No final is ready and success at once; there the rule at ``cp.0``
    reads at most the flag its own control position names, so that
    flag is realized (both, one at a time, when it reads neither)."""
    if ready and success:
        read = [c for c in (CP.READY, CP.SUCCESS) if c is cp0]
        return read or [CP.READY, CP.SUCCESS]
    if ready:
        return [CP.READY]
    if success:
        return [CP.SUCCESS]
    return [CP.EXECUTE, CP.ERROR, CP.REPEAT]


class TestRootTable:
    def test_total(self):
        assert len(root_table()) == 5 * 2 * 2 * 2

    def test_decisions(self):
        table = root_table()
        assert table[(CP.READY, True, False, True)] == ROOT_BEGIN
        assert table[(CP.READY, False, False, True)] == ROOT_IDLE
        assert table[(CP.EXECUTE, True, True, True)] == "to-success"
        assert table[(CP.EXECUTE, False, False, False)] == ROOT_TO_SUCCESS
        assert table[(CP.SUCCESS, False, True, True)] == ROOT_COMPLETE
        assert table[(CP.SUCCESS, False, True, False)] == ROOT_REEXECUTE
        assert table[(CP.SUCCESS, False, False, True)] == ROOT_REEXECUTE
        assert table[(CP.ERROR, False, False, False)] == ROOT_RECOVER
        assert table[(CP.REPEAT, True, True, True)] == ROOT_RECOVER

    def test_agrees_with_rb_program(self):
        """On every input the table's decision has the effect of T1 at
        process 0 of the notation program RB (:func:`compile_rb`)."""
        prog = compile_rb(3, nphases=3)
        ph0 = 1
        for (cp0, ready, success, in_phase), decision in root_table().items():
            if decision == ROOT_REEXECUTE:
                assert cp0 is CP.SUCCESS
            if decision == ROOT_RECOVER:
                assert cp0 in (CP.ERROR, CP.REPEAT)
            phf = ph0 if in_phase else 0
            for cpf in _final_cps(cp0, ready, success):
                state = _rb_state([cp0, CP.READY, cpf], [ph0, 0, phf], [0, 0, 0])
                got = _fire(prog, "T1", 0, state)
                assert got == _ROOT_EFFECT[decision](cp0, ph0, phf), (
                    cp0, ready, success, in_phase, cpf,
                )


class TestStateBits:
    def test_logarithmic(self):
        b32 = state_bits(32, 4)
        b1024 = state_bits(1024, 4)
        # O(log N): 32x the processes costs ~5 extra bits.
        assert b1024 - b32 == 5
        assert b32 <= 2 * math.ceil(math.log2(32)) + 8

    def test_small(self):
        # K=3 plus BOT/TOP -> 3 bits; 5 control positions -> 3 bits;
        # 2 phases -> 1 bit.
        assert state_bits(2, 2) == 3 + 3 + 1


class TestTimeline:
    def test_state_glyphs(self):
        s = State(
            {"cp": [CP.READY, CP.EXECUTE, CP.ERROR], "ph": [0, 0, 0]}, 3
        )
        assert state_glyphs(s) == ".EX"

    def test_render_state_full(self):
        s = State(
            {
                "cp": [CP.SUCCESS, CP.REPEAT],
                "ph": [1, 2],
                "sn": [BOT, TOP],
            },
            2,
        )
        text = render_state(s)
        assert "cp=SR" in text and "ph=12" in text and "sn=v^" in text

    def test_render_timeline(self):
        prog = make_rb(3, nphases=2)
        sim = Simulator(prog, RoundRobinDaemon())
        result = sim.run(max_steps=20)
        text = render_timeline(prog.initial_state(), result.trace)
        lines = text.splitlines()
        assert lines[0].startswith("step     0")
        assert all("cp=" in line for line in lines if line.startswith("step"))

    def test_timeline_truncation(self):
        prog = make_rb(3, nphases=2)
        result = Simulator(prog, RoundRobinDaemon()).run(max_steps=500)
        text = render_timeline(
            prog.initial_state(), result.trace, max_lines=10
        )
        assert "truncated" in text
        assert len(text.splitlines()) <= 12


class TestTopologyRendering:
    def test_ring_renders_as_chain(self):
        from repro.topology.graphs import ring
        from repro.viz.timeline import render_topology

        text = render_topology(ring(4))
        lines = text.splitlines()
        assert lines[0] == "0"
        assert lines[-1].strip().endswith("3*")  # the final is marked

    def test_tree_renders_with_branches(self):
        from repro.topology.graphs import kary_tree
        from repro.viz.timeline import render_topology

        text = render_topology(kary_tree(7, 2))
        assert "|--" in text and "`--" in text
        # All four leaves marked as finals.
        assert text.count("*") == 4

    def test_two_ring_marks_both_tails(self):
        from repro.topology.graphs import two_ring
        from repro.viz.timeline import render_topology

        text = render_topology(two_ring(2, 2))
        assert text.count("*") == 2


class TestChart:
    def test_sparkline(self):
        assert len(sparkline([1, 2, 3])) == 3
        assert sparkline([]) == ""
        flat = sparkline([2.0, 2.0, 2.0])
        assert len(set(flat)) == 1

    def test_ascii_chart_structure(self):
        text = ascii_chart(
            [0, 1, 2],
            {"up": [0.0, 0.5, 1.0], "down": [1.0, 0.5, 0.0]},
            width=20,
            height=6,
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "a=up" in lines[-1] and "b=down" in lines[-1]
        body = "\n".join(lines)
        assert "a" in body and "b" in body
        assert "*" in body  # they cross in the middle

    def test_chart_validation(self):
        with pytest.raises(ValueError):
            ascii_chart([1], {})
        with pytest.raises(ValueError):
            ascii_chart([1, 2], {"x": [1.0]})
