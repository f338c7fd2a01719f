"""Incremental guard evaluation: equivalence, declarations, adaptation.

The central contract of :mod:`repro.gc.incremental` is that switching a
daemon between ``incremental=True`` and ``incremental=False`` changes
*nothing observable*: the same actions fire in the same order with the
same updates, the RNG streams advance identically, and external writes
(fault injection) are detected and invalidate the cache.  These tests
run both modes lock-step over every barrier program family.
"""

from __future__ import annotations

import pytest

from repro.barrier.cb import make_cb
from repro.barrier.mb import make_mb
from repro.barrier.rb import make_rb, rb_detectable_fault
from repro.barrier.tokenring import make_token_ring
from repro.gc.faults import BernoulliSchedule, FaultInjector
from repro.gc.incremental import (
    EnabledIndex,
    check_declared_reads,
    observed_guard_reads,
)
from repro.gc.scheduler import (
    ROUND_ROBIN_ADAPT_WINDOW,
    MaximalParallelDaemon,
    RandomFairDaemon,
    RoundRobinDaemon,
)
from repro.topology.graphs import kary_tree

PROGRAMS = {
    "cb4": lambda: make_cb(4),
    "tokenring6": lambda: make_token_ring(6),
    "rb6-ring": lambda: make_rb(6),
    "rb7-tree": lambda: make_rb(7, topology=kary_tree(7, 2)),
    "mb5": lambda: make_mb(5),
}

DAEMONS = {
    "roundrobin": lambda seed, inc: RoundRobinDaemon(incremental=inc),
    "randomfair": lambda seed, inc: RandomFairDaemon(seed=seed, incremental=inc),
    "maxpar": lambda seed, inc: MaximalParallelDaemon(
        seed=seed, random_choice=True, incremental=inc
    ),
}


def _trace(make_prog, daemon, steps=400, fault_spec=None, fault_seed=None):
    program = make_prog()
    state = program.initial_state()
    injector = None
    if fault_spec is not None:
        injector = FaultInjector(
            program, fault_spec, BernoulliSchedule(0.02), seed=fault_seed
        )
    out = []
    for t in range(steps):
        fired = daemon.step(program, state)
        out.append(tuple((a.name, a.pid, tuple(ups)) for a, ups in fired))
        if injector is not None:
            injector.maybe_inject(state, t)
    out.append(state.key())
    return out


@pytest.mark.parametrize("prog_name", sorted(PROGRAMS))
@pytest.mark.parametrize("daemon_name", sorted(DAEMONS))
@pytest.mark.parametrize("seed", [0, 7, 123])
def test_incremental_matches_full_trace(prog_name, daemon_name, seed):
    make_prog = PROGRAMS[prog_name]
    make_daemon = DAEMONS[daemon_name]
    full = _trace(make_prog, make_daemon(seed, False))
    incr = _trace(make_prog, make_daemon(seed, True))
    assert full == incr


@pytest.mark.parametrize("daemon_name", sorted(DAEMONS))
def test_incremental_matches_full_under_faults(daemon_name):
    """External writes (fault injection) invalidate the cache exactly."""
    make_daemon = DAEMONS[daemon_name]
    spec = rb_detectable_fault()
    full = _trace(
        lambda: make_rb(6), make_daemon(3, False), fault_spec=spec, fault_seed=9
    )
    incr = _trace(
        lambda: make_rb(6), make_daemon(3, True), fault_spec=spec, fault_seed=9
    )
    assert full == incr


@pytest.mark.parametrize("prog_name", sorted(PROGRAMS))
def test_declared_read_sets_cover_guards(prog_name):
    """Declared read-sets are sound: no guard reads an undeclared cell.

    Checked on the initial state and along a random-fair run, since
    guards may branch data-dependently.
    """
    program = PROGRAMS[prog_name]()
    state = program.initial_state()
    daemon = RandomFairDaemon(seed=1, incremental=False)
    for _ in range(60):
        offenders = check_declared_reads(program, state)
        assert not offenders, [
            (a.name, a.pid, sorted(extra)) for a, extra in offenders
        ]
        daemon.step(program, state)


def test_observed_reads_recording():
    program = make_token_ring(4)
    state = program.initial_state()
    t5 = next(
        a for a in program.actions() if a.name == "T5"
    )  # guard: sn.0 is TOP
    assert observed_guard_reads(t5, state) == {("sn", 0)}


def test_index_detects_external_writes():
    program = make_token_ring(4)
    state = program.initial_state()
    index = EnabledIndex(program)
    rng = None
    flags = list(index.refresh(state, rng))
    # Poke the state behind the index's back: T3's guard flips.
    from repro.gc.domains import BOT

    state.set("sn", 3, BOT)
    new_flags = list(index.refresh(state, rng))
    full = [a.enabled(state) for a in index.actions]
    assert new_flags == full
    assert flags != new_flags


def test_roundrobin_adapts_on_mb_only():
    """The adaptive round-robin engages the index on MB (many guard
    evaluations per scan) but stays on the plain scan for the RB ring
    (the token follows the scan, ~1 evaluation/step)."""
    steps = ROUND_ROBIN_ADAPT_WINDOW * 4

    mb = make_mb(6)
    state = mb.initial_state()
    daemon = RoundRobinDaemon(incremental=True)
    for _ in range(steps):
        daemon.step(mb, state)
    assert daemon._engaged

    rb = make_rb(6)
    state = rb.initial_state()
    daemon = RoundRobinDaemon(incremental=True)
    for _ in range(steps):
        daemon.step(rb, state)
    assert not daemon._engaged


def test_undeclared_actions_fall_back(monkeypatch):
    """A program with no declared read-sets gets no engine at all: the
    daemons run their plain body (no flag-protocol call is ever made)
    and the trace is that of ``incremental=False``."""
    from dataclasses import replace

    from repro.gc.program import Process, Program

    program = make_cb(3)
    stripped_procs = []

    for proc in program.processes:
        stripped_procs.append(
            Process(
                proc.pid,
                tuple(
                    replace(a, reads=None, writes=None) for a in proc.actions
                ),
            )
        )
    stripped = Program(
        program.name,
        program.declarations,
        stripped_procs,
        initial_state=lambda p: make_cb(3).initial_state(),
        metadata=program.metadata,
    )

    def flags_touched(self, *args, **kwargs):
        raise AssertionError("flag cache used for a program declaring nothing")

    monkeypatch.setattr(EnabledIndex, "refresh", flags_touched)
    monkeypatch.setattr(EnabledIndex, "mark_stale", flags_touched)
    for daemon_name in sorted(DAEMONS):
        make_daemon = DAEMONS[daemon_name]
        full = _trace(lambda: stripped, make_daemon(2, False), steps=50)
        incr = _trace(lambda: stripped, make_daemon(2, True), steps=50)
        assert full == incr


def _heartbeat_program(hb_writes):
    """Two processes: HB at pid 0 rewrites ``x[0]`` with its current
    value (a no-op write); W at pid 1 watches ``x[0]`` and counts its
    guard evaluations.  ``hb_writes`` is HB's declared write-set."""
    from repro.gc.actions import Action
    from repro.gc.domains import IntRange
    from repro.gc.program import Process, Program, VariableDecl

    evals = []

    def hb_guard(view):
        return view.my("x") >= 0

    def hb_stmt(view):
        return [("x", view.my("x"))]

    def w_guard(view):
        evals.append(1)
        return view.of("x", 0) > 0

    def w_stmt(view):
        return [("x", view.my("x"))]

    procs = [
        Process(
            0,
            (
                Action(
                    "HB", 0, hb_guard, hb_stmt,
                    reads=frozenset({("x", 0)}), writes=hb_writes,
                ),
            ),
        ),
        Process(
            1,
            (
                Action(
                    "W", 1, w_guard, w_stmt,
                    reads=frozenset({("x", 0)}), writes=frozenset({"x"}),
                ),
            ),
        ),
    ]
    program = Program(
        "heartbeat", [VariableDecl("x", IntRange(0, 3), 0)], procs
    )
    return program, evals


class TestNoteFire:
    """Declared write-sets drive invalidation; empty is first-class."""

    def test_empty_write_set_invalidates_nothing(self):
        program, evals = _heartbeat_program(frozenset())
        state = program.initial_state()
        index = EnabledIndex(program)
        index.refresh(state)
        base = len(evals)
        hb = program.action_named("HB", 0)
        for _ in range(5):
            ups = hb.execute(state)  # no-op write still bumps version
            assert ups == [("x", 0)]
            index.note_fire(0, ups)
            index.commit(state)
            index.refresh(state)
        # HB promised (writes=frozenset()) that its updates change no
        # cell, so its watcher W is never re-evaluated.
        assert len(evals) == base

    def test_undeclared_write_set_falls_back_to_updates(self):
        program, evals = _heartbeat_program(None)
        state = program.initial_state()
        index = EnabledIndex(program)
        index.refresh(state)
        base = len(evals)
        hb = program.action_named("HB", 0)
        ups = hb.execute(state)
        index.note_fire(0, ups)
        index.commit(state)
        index.refresh(state)
        # Without a declaration the actual update list is the dirty set,
        # so the watcher of ("x", 0) is re-evaluated.
        assert len(evals) == base + 1

    def test_declared_write_set_wins_over_update_list(self):
        program, evals = _heartbeat_program(frozenset({"x"}))
        state = program.initial_state()
        index = EnabledIndex(program)
        index.refresh(state)
        base = len(evals)
        # A declared non-empty write-set dirties its cells even when the
        # fired action happened to report no updates at all.
        index.note_fire(0, [])
        index.commit(state)
        index.refresh(state)
        assert len(evals) == base + 1

    def test_empty_write_set_trace_equivalence(self):
        for seed in (0, 3):
            traces = []
            for incremental in (False, True):
                program, _ = _heartbeat_program(frozenset())
                daemon = RandomFairDaemon(seed=seed, incremental=incremental)
                state = program.initial_state()
                out = []
                for _ in range(40):
                    fired = daemon.step(program, state)
                    out.append(
                        tuple((a.name, a.pid, tuple(u)) for a, u in fired)
                    )
                out.append(state.key())
                traces.append(out)
            assert traces[0] == traces[1]
