"""Unit tests for the compiled backend's internals and fallback rules.

The differential suites (`test_compile_differential.py`,
`test_conformance.py`) prove trace equality end to end; these tests pin
the *mechanisms* -- codec layout, memo-table hit/miss accounting, the
demote-to-live rules (RNG draws, uninternable domains, out-of-table
writes), round-level memoization with hit-chaining, and resynchronizaton
after writes made behind the backend's back.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.gc.actions import Action
from repro.gc.compile import (
    MAX_DOMAIN_SIZE,
    CompiledProgram,
    StateCodec,
)
from repro.gc.domains import IntRange
from repro.gc.program import Process, Program, VariableDecl
from repro.gc.scheduler import MaximalParallelDaemon, RandomFairDaemon
from repro.gc.state import State


# ----------------------------------------------------------------------
# Program builders
# ----------------------------------------------------------------------
def counters(n=3, hi=3, declare=True):
    """Independent modulo counters: INC at each pid while x < hi."""
    decls = [VariableDecl("x", IntRange(0, hi), 0)]
    procs = []
    for pid in range(n):
        action = Action(
            name="INC",
            pid=pid,
            guard=lambda v: v.my("x") < hi,
            statement=lambda v: [("x", v.my("x") + 1)],
            reads=frozenset({("x", pid)}) if declare else None,
            writes=frozenset({"x"}) if declare else None,
        )
        procs.append(Process(pid, (action,)))
    return Program("counters", decls, procs)


def cycling(n=2, m=3):
    """A silent-free program: every pid increments modulo ``m`` forever
    (state space cycles, so the round memo saturates and chains)."""
    decls = [VariableDecl("x", IntRange(0, m - 1), 0)]
    procs = []
    for pid in range(n):
        action = Action(
            name="SPIN",
            pid=pid,
            guard=lambda v: True,
            statement=lambda v: [("x", (v.my("x") + 1) % m)],
            reads=frozenset(),
            writes=frozenset({"x"}),
        )
        procs.append(Process(pid, (action,)))
    return Program("cycling", decls, procs)


class UnenumerableDomain:
    """A domain whose values cannot be tabled (codec must skip it)."""

    def contains(self, value):
        return True

    def values(self):
        raise TypeError("unenumerable")

    def sample(self, rng):
        return 0


class LyingDomain:
    """Enumerates {0, 1} but admits any int: a statement can write a
    value outside the codec's intern table."""

    def contains(self, value):
        return isinstance(value, int)

    def values(self):
        return (0, 1)

    def sample(self, rng):
        return 0


# ----------------------------------------------------------------------
# StateCodec
# ----------------------------------------------------------------------
class TestStateCodec:
    def test_slot_layout_matches_sorted_names(self):
        prog = Program(
            "two",
            [
                VariableDecl("b", IntRange(0, 1), 0),
                VariableDecl("a", IntRange(0, 1), 0),
            ],
            [Process(0, ()), Process(1, ())],
        )
        codec = StateCodec(prog)
        assert codec.names == ("a", "b")
        for var in ("a", "b"):
            for pid in (0, 1):
                assert codec.cell(codec.slot(var, pid)) == (var, pid)

    def test_encode_into_interns_domain_indices(self):
        prog = counters(n=2, hi=3)
        codec = StateCodec(prog)
        cells = codec.new_cells()
        codec.encode_into(State({"x": [2, 0]}, 2), cells)
        assert cells == [2, 0]

    def test_unenumerable_domain_not_interned(self):
        prog = Program(
            "mixed",
            [
                VariableDecl("ok", IntRange(0, 1), 0),
                VariableDecl("odd", UnenumerableDomain(), 0),
            ],
            [Process(0, ())],
        )
        codec = StateCodec(prog)
        assert codec.internable("ok")
        assert not codec.internable("odd")
        # Uninterned cells mirror as 0 and encode_into leaves them alone.
        cells = codec.new_cells()
        codec.encode_into(State({"ok": [1], "odd": [999]}, 1), cells)
        assert cells[codec.slot("ok", 0)] == 1
        assert cells[codec.slot("odd", 0)] == 0

    def test_oversized_domain_not_interned(self):
        prog = Program(
            "big",
            [VariableDecl("n", IntRange(0, MAX_DOMAIN_SIZE), 0)],
            [Process(0, ())],
        )
        assert not StateCodec(prog).internable("n")

    def test_oversized_domain_is_sized_not_iterated(self):
        class Sized:
            """What ``values()`` returns: a length, and no iteration."""

            def __len__(self):
                return MAX_DOMAIN_SIZE + 1

            def __iter__(self):
                raise AssertionError("oversized domain was enumerated")

        class SpyDomain(IntRange):
            def values(self):
                return Sized()

        prog = Program(
            "spy",
            [VariableDecl("n", SpyDomain(0, MAX_DOMAIN_SIZE), 0)],
            [Process(0, ())],
        )
        assert not StateCodec(prog).internable("n")

    def test_unsized_values_are_still_interned(self):
        class GeneratedDomain(IntRange):
            def values(self):
                return iter(range(self.lo, self.hi + 1))

        prog = Program(
            "gen",
            [VariableDecl("n", GeneratedDomain(0, 3), 0)],
            [Process(0, ())],
        )
        codec = StateCodec(prog)
        assert codec.internable("n")
        cells = codec.new_cells()
        codec.encode_into(State({"n": [3]}, 1), cells)
        assert cells == [3]

    @pytest.mark.parametrize(
        "kwargs", [{}, {"backend": "compiled"}], ids=["default", "compiled"]
    )
    def test_huge_domain_program_runs_on_every_engine(self, kwargs):
        """A billion-value domain costs nothing to build an engine over
        (the live engine numbers slots, the compiled one leaves the
        variable uninterned) and the trace is the reference's."""
        prog = counters(n=3, hi=10**9)

        def trace(daemon):
            state = prog.initial_state()
            out = []
            for _ in range(50):
                out.append(
                    [(a.name, a.pid, ups) for a, ups in daemon.step(prog, state)]
                )
            return out, state.key()

        assert trace(RandomFairDaemon(seed=4, **kwargs)) == trace(
            RandomFairDaemon(seed=4, incremental=False)
        )


# ----------------------------------------------------------------------
# Guard specialization
# ----------------------------------------------------------------------
class TestGuards:
    def test_declared_guards_memoize(self):
        prog = counters(n=2, hi=2)
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        compiled.refresh(state)
        misses = compiled.stats["guard_misses"]
        assert misses == 2 and compiled.stats["guard_hits"] == 0
        # A fresh State with the same values hits the same keys.
        compiled.refresh(prog.initial_state())
        assert compiled.stats["guard_misses"] == misses
        assert compiled.stats["guard_hits"] == 2

    def test_undeclared_guard_learns_read_set(self):
        prog = counters(n=2, hi=2, declare=False)
        compiled = CompiledProgram(prog)
        compiled.refresh(prog.initial_state())
        # Learned slot sets now key the memo; same values hit.
        compiled.refresh(prog.initial_state())
        assert compiled.stats["guard_hits"] == 2
        assert compiled.stats["guard_live"] == 0

    def test_rng_drawing_guard_demotes_to_live(self):
        decls = [VariableDecl("x", IntRange(0, 1), 0)]
        drawing = Action(
            name="COIN",
            pid=0,
            guard=lambda v: v.choose([True, False]),
            statement=lambda v: [("x", v.my("x"))],
        )
        prog = Program("coin", decls, [Process(0, (drawing,))])
        compiled = CompiledProgram(prog)
        rng = np.random.default_rng(0)
        state = prog.initial_state()
        compiled.refresh(state, rng)
        assert compiled._g_slots[0] is None  # demoted on first miss
        compiled.refresh(state, rng)
        assert compiled.stats["guard_live"] >= 1
        # Live guards disable round memoization entirely.
        entry, key = compiled._round_fast(state)
        assert entry is None and key is None

    def test_uninternable_read_demotes_to_live(self):
        decls = [
            VariableDecl("x", IntRange(0, 1), 0),
            VariableDecl("odd", UnenumerableDomain(), 0),
        ]
        action = Action(
            name="ODDREAD",
            pid=0,
            guard=lambda v: v.my("odd") == 0,
            statement=lambda v: [],
        )
        prog = Program("oddread", decls, [Process(0, (action,))])
        compiled = CompiledProgram(prog)
        compiled.refresh(prog.initial_state())
        assert compiled._g_slots[0] is None
        assert compiled.stats["guard_live"] == 0  # demoted after the miss
        compiled.refresh(prog.initial_state())
        assert compiled.stats["guard_live"] == 1


# ----------------------------------------------------------------------
# Effect specialization
# ----------------------------------------------------------------------
class TestEffects:
    def test_effects_memoize_and_apply_through_entries(self):
        prog = counters(n=2, hi=4)
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        compiled.refresh(state)
        ups, entry = compiled.updates_for(0, state)
        assert ups == [("x", 1)] and entry is not None
        assert entry.triples == (("x", 0, 1),)
        compiled.apply(0, state, ups, entry)
        assert state.get("x", 0) == 1
        # Rewind to the same pre-state: the memo entry is reused.
        state2 = prog.initial_state()
        compiled.refresh(state2)
        hits = compiled.stats["effect_hits"]
        _ups, entry2 = compiled.updates_for(0, state2)
        assert entry2 is entry
        assert compiled.stats["effect_hits"] == hits + 1

    def test_rng_drawing_statement_stays_live(self):
        decls = [VariableDecl("x", IntRange(0, 3), 0)]
        action = Action(
            name="ROLL",
            pid=0,
            guard=lambda v: True,
            statement=lambda v: [("x", v.choose([1, 2]))],
            reads=frozenset(),
        )
        prog = Program("roll", decls, [Process(0, (action,))])
        compiled = CompiledProgram(prog)
        rng = np.random.default_rng(1)
        state = prog.initial_state()
        compiled.refresh(state, rng)
        _ups, entry = compiled.updates_for(0, state, rng)
        assert entry is None and compiled._e_slots[0] is None
        _ups, entry = compiled.updates_for(0, state, rng)
        assert entry is None
        assert compiled.stats["effect_live"] == 1  # second call counts

    def test_out_of_table_write_poisons_slot(self):
        decls = [VariableDecl("x", LyingDomain(), 0)]
        action = Action(
            name="OVERFLOW",
            pid=0,
            guard=lambda v: True,
            statement=lambda v: [("x", v.my("x") + 1)],
            reads=frozenset(),
        )
        prog = Program("lying", decls, [Process(0, (action,))])
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        # x: 0 -> 1 is in-table; 1 -> 2 leaves the intern table.
        compiled.refresh(state)
        compiled.execute(0, state)
        assert state.get("x", 0) == 1 and compiled._round_capable
        compiled.refresh(state)
        ups, entry = compiled.updates_for(0, state)
        assert ups == [("x", 2)] and entry is None  # no entry built
        compiled.apply(0, state, ups, entry)
        assert state.get("x", 0) == 2
        # The slot is poisoned: specialization over it is gone for good.
        assert not compiled._round_capable
        assert compiled._e_slots[0] is None
        assert compiled._g_slots[0] is None or compiled._g_slots[0] == ()


# ----------------------------------------------------------------------
# Round-level memoization
# ----------------------------------------------------------------------
class TestRoundMemo:
    def test_cycle_learns_then_replays(self):
        prog = cycling(n=2, m=3)
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        fired = compiled.run_rounds(state, 3)  # one full cycle: 3 rounds
        assert fired == 6
        # The first round runs against an unbound mirror, so it never
        # reaches the memo lookup: it is stored but not counted a miss.
        assert compiled.stats["round_misses"] == 2
        assert compiled.stats["round_hits"] == 0
        fired = compiled.run_rounds(state, 30)
        assert fired == 60
        assert compiled.stats["round_misses"] == 2  # nothing new to learn
        assert compiled.stats["round_hits"] == 30
        # Hit-chaining: each entry's successor pointer is populated.
        assert all(e.next is not None for e in compiled._round_memo.values())
        assert state.get("x", 0) == (3 + 30) % 3

    def test_round_replay_matches_interpreter(self):
        prog = cycling(n=3, m=4)
        daemon = MaximalParallelDaemon(seed=0)
        ref = prog.initial_state()
        for _ in range(10):
            daemon.step(prog, ref)
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        compiled.run_rounds(state, 10)
        assert state == ref

    def test_external_write_breaks_the_chain_soundly(self):
        prog = cycling(n=2, m=3)
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        compiled.run_rounds(state, 6)  # memo warm, chain established
        state.set("x", 0, 2)  # fault-injector-style external write
        before = compiled.stats["rebinds"]
        fires = compiled.step_round(state)
        # Version mismatch forced a rebind (mirror re-encode), and the
        # round still fired both processes off the corrupted state.
        assert compiled.stats["rebinds"] == before + 1
        assert [i for i, _ups in fires] == [0, 1]
        # After 6 rounds x == (0, 0); the write makes it (2, 0); the
        # round increments both mod 3.
        assert state.vector("x") == (0, 1)

    def test_multi_enabled_process_rounds_are_not_stored(self):
        decls = [VariableDecl("x", IntRange(0, 3), 0)]
        a0 = Action(
            name="A",
            pid=0,
            guard=lambda v: True,
            statement=lambda v: [("x", (v.my("x") + 1) % 4)],
            reads=frozenset(),
        )
        b0 = Action(
            name="B",
            pid=0,
            guard=lambda v: True,
            statement=lambda v: [("x", (v.my("x") + 2) % 4)],
            reads=frozenset(),
        )
        prog = Program("pair", decls, [Process(0, (a0, b0))])
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        for _ in range(4):
            compiled.step_round(state)  # first-match selection: fires A
        # Selection had 2 candidates -> never memoized: every round after
        # the first (unbound, uncounted) is a miss.
        assert compiled.stats["round_misses"] == 3
        assert compiled.stats["round_hits"] == 0
        assert not compiled._round_memo
        assert state.get("x", 0) == 0  # +1 four times mod 4

    def test_step_round_reports_fires_like_the_daemon(self):
        prog = cycling(n=2, m=3)
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        first = compiled.step_round(state)  # miss path
        second = compiled.step_round(state)  # miss path (new state)
        assert first == [(0, [("x", 1)]), (1, [("x", 1)])]
        assert second == [(0, [("x", 2)]), (1, [("x", 2)])]
        state2 = prog.initial_state()
        compiled.refresh(state2)  # rebind to a fresh cycle
        replay = compiled.step_round(state2)
        assert replay == first  # served from the round memo
        assert compiled.stats["round_hits"] == 1

    def test_silent_program_stops_run_rounds(self):
        prog = counters(n=2, hi=2)
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        fired = compiled.run_rounds(state, 50)
        assert fired == 4  # 2 procs x 2 increments, then silence
        assert state.vector("x") == (2, 2)


# ----------------------------------------------------------------------
# Explorer interface
# ----------------------------------------------------------------------
class TestSuccessors:
    def test_successors_match_interpreter_order(self):
        prog = counters(n=3, hi=2)
        compiled = CompiledProgram(prog)
        state = State({"x": [0, 2, 1]}, 3)
        got = compiled.successors(state)
        want = []
        for action in prog.actions():
            if action.enabled(state):
                succ = state.snapshot()
                action.execute(succ)
                want.append(succ)
        assert got == want
        assert state.vector("x") == (0, 2, 1)  # inputs untouched

    def test_successors_unbinds_the_daemon_state(self):
        prog = cycling(n=2, m=3)
        compiled = CompiledProgram(prog)
        state = prog.initial_state()
        compiled.run_rounds(state, 3)
        compiled.successors(prog.initial_state())
        # The next round must not trust the (stale) binding.
        entry, key = compiled._round_fast(state)
        assert entry is None and key is None
        fires = compiled.step_round(state)
        assert [i for i, _ups in fires] == [0, 1]


# ----------------------------------------------------------------------
# Daemon integration sanity
# ----------------------------------------------------------------------
def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        MaximalParallelDaemon(seed=0, backend="jit")
