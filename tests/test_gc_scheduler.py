"""Unit tests for the daemons (repro.gc.scheduler)."""

import ast
from pathlib import Path

import pytest

from repro.barrier.mb import make_mb
from repro.barrier.rb import make_rb
from repro.gc.actions import Action
from repro.gc.compile import CompiledProgram
from repro.gc.domains import IntRange
from repro.gc.incremental import EnabledIndex
from repro.gc.program import Process, Program, VariableDecl
from repro.gc.scheduler import (
    ROUND_ROBIN_ADAPT_WINDOW,
    MaximalParallelDaemon,
    RandomFairDaemon,
    RoundRobinDaemon,
    enabled_actions,
    is_silent,
)
from repro.gc.state import State


def token_pass_program(n=3):
    """A token hops around: process p acts when tok == p."""
    decl = VariableDecl("tok", IntRange(0, n - 1), 0)
    procs = []
    for p in range(n):

        def guard(view, _p=p):
            return view.of("tok", 0) == _p

        def stmt(view, _p=p, _n=n):
            # Only process 0 owns the variable; model as process 0's var
            # updated by... instead make each process own a flag.
            return []

        procs.append(Process(p, ()))
    return Program("t", [decl], procs)


def counters(n=3, hi=100):
    decl = VariableDecl("x", IntRange(0, hi), 0)

    def guard(view):
        return view.my("x") < hi

    def stmt(view):
        return [("x", view.my("x") + 1)]

    procs = [Process(p, (Action("INC", p, guard, stmt),)) for p in range(n)]
    return Program("counters", [decl], procs)


def copycat(n=3, hi=20):
    """Process p copies x from p-1 when behind; process 0 increments.

    Exercises guards that read *other* processes under synchronous
    semantics (the snapshot discipline matters here).
    """
    decl = VariableDecl("x", IntRange(0, hi), 0)
    procs = []
    for p in range(n):
        if p == 0:

            def guard(view, _n=n, _hi=hi):
                return view.my("x") < _hi and all(
                    view.of("x", k) == view.my("x") for k in range(_n)
                )

            def stmt(view):
                return [("x", view.my("x") + 1)]

        else:

            def guard(view, _p=p):
                return view.my("x") != view.of("x", _p - 1)

            def stmt(view, _p=p):
                return [("x", view.of("x", _p - 1))]

        procs.append(Process(p, (Action("A", p, guard, stmt),)))
    return Program("copycat", [decl], procs)


class TestRoundRobin:
    def test_one_action_per_step(self):
        prog = counters()
        state = prog.initial_state()
        daemon = RoundRobinDaemon()
        fired = daemon.step(prog, state)
        assert len(fired) == 1
        assert fired[0][0].pid == 0
        fired = daemon.step(prog, state)
        assert fired[0][0].pid == 1

    def test_skips_disabled(self):
        prog = counters(n=2, hi=1)
        state = State({"x": [1, 0]}, 2)
        fired = RoundRobinDaemon().step(prog, state)
        assert fired[0][0].pid == 1

    def test_empty_when_silent(self):
        prog = counters(n=2, hi=0)
        state = prog.initial_state()
        assert RoundRobinDaemon().step(prog, state) == []
        assert is_silent(prog, state)


class TestRandomFair:
    def test_fairness_statistically(self):
        prog = counters(n=4, hi=10_000)
        state = prog.initial_state()
        daemon = RandomFairDaemon(seed=0)
        for _ in range(400):
            daemon.step(prog, state)
        values = state.vector("x")
        assert sum(values) == 400
        assert all(v > 50 for v in values)  # roughly uniform

    def test_deterministic_given_seed(self):
        prog = counters(n=3)
        s1, s2 = prog.initial_state(), prog.initial_state()
        d1, d2 = RandomFairDaemon(seed=42), RandomFairDaemon(seed=42)
        for _ in range(50):
            d1.step(prog, s1)
            d2.step(prog, s2)
        assert s1 == s2


class TestMaximalParallel:
    def test_all_enabled_fire(self):
        prog = counters(n=5)
        state = prog.initial_state()
        fired = MaximalParallelDaemon(seed=0).step(prog, state)
        assert len(fired) == 5
        assert state.vector("x") == (1, 1, 1, 1, 1)

    def test_snapshot_semantics(self):
        # Under synchronous semantics, followers read the *pre-step*
        # value: after one step only process 1 catches up to 0's old
        # value -- which equals its own -- so nothing changes for it.
        prog = copycat(n=3)
        state = prog.initial_state()
        daemon = MaximalParallelDaemon(seed=0)
        daemon.step(prog, state)
        # Process 0 advanced using the snapshot (everyone equal), and
        # followers saw the snapshot (all zeros) so stayed at 0.
        assert state.vector("x") == (1, 0, 0)
        daemon.step(prog, state)
        # Now 1 copies 0's value from the new snapshot; 0 is blocked.
        assert state.vector("x") == (1, 1, 0)

    def test_converges_like_interleaving(self):
        prog = copycat(n=3, hi=5)
        state = prog.initial_state()
        daemon = MaximalParallelDaemon(seed=0)
        for _ in range(100):
            if not daemon.step(prog, state):
                break
        assert state.vector("x") == (5, 5, 5)


def test_enabled_actions_helper():
    prog = counters(n=2, hi=1)
    state = State({"x": [1, 0]}, 2)
    names = [(a.name, a.pid) for a in enabled_actions(prog, state)]
    assert names == [("INC", 1)]


# ----------------------------------------------------------------------
# One step engine: the shape, and the behaviours the merge must not move
# ----------------------------------------------------------------------
GC_SRC = Path(__file__).resolve().parent.parent / "src" / "repro" / "gc"


def _functions(tree):
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def test_one_step_engine():
    """The flag protocol and the selection grouper exist once under
    ``repro/gc``; the daemons fork on an engine, never on a backend."""
    owners: dict[str, list[str]] = {}
    for path in sorted(GC_SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        owners.setdefault(item.name, []).append(node.name)
    for name in (
        "refresh", "mark_stale", "is_enabled", "enabled_slots", "select_round"
    ):
        assert owners.get(name) == ["EnabledIndex"], (name, owners.get(name))
    assert EnabledIndex in CompiledProgram.__mro__

    tree = ast.parse((GC_SRC / "scheduler.py").read_text())
    names = {fn.name for fn in _functions(tree)}
    assert not names & {
        "_step_compiled", "_step_incremental", "_select_incremental"
    }
    comparing = [
        fn.name
        for fn in _functions(tree)
        if any(
            isinstance(node, ast.Compare)
            and any(
                isinstance(side, ast.Constant) and side.value == "compiled"
                for side in [node.left, *node.comparators]
            )
            for node in ast.walk(fn)
        )
    ]
    assert len(comparing) == 1, comparing
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("repro.gc.compile", "repro.gc.incremental")
        for alias in node.names
    }
    assert imported == {"CompiledProgram", "EnabledIndex"}


def test_engines_have_no_instance_dict():
    """``__slots__`` keeps the engines off CPython's 30-attribute
    key-sharing cliff (DESIGN.md, "gc: one step engine")."""
    program = make_mb(4)
    for engine in (EnabledIndex(program), CompiledProgram(program)):
        assert not hasattr(engine, "__dict__"), type(engine).__name__


def heartbeat(hb_writes, hb_updates=True):
    """HB at pid 0 rewrites ``x[0]`` with its current value (or reports
    no update at all); W at pid 1 watches ``x[0]``, is never enabled,
    and counts its guard evaluations.  ``hb_writes`` is HB's declared
    write-set."""
    evals = []

    def w_guard(view):
        evals.append(1)
        return view.of("x", 0) > 0

    hb = Action(
        "HB", 0,
        lambda view: view.my("x") >= 0,
        lambda view: [("x", view.my("x"))] if hb_updates else [],
        reads=frozenset({("x", 0)}), writes=hb_writes,
    )
    w = Action(
        "W", 1, w_guard, lambda view: [],
        reads=frozenset({("x", 0)}), writes=frozenset(),
    )
    program = Program(
        "heartbeat",
        [VariableDecl("x", IntRange(0, 3), 0)],
        [Process(0, (hb,)), Process(1, (w,))],
    )
    return program, evals


@pytest.mark.parametrize(
    "hb_writes, hb_updates, per_fire",
    [
        # A declared-empty write-set is a promise: firing HB dirties
        # nothing, so its watcher is never re-evaluated.
        (frozenset(), True, 0),
        # Undeclared: the update list actually applied is the dirty set.
        (None, True, 1),
        # A declared write-set wins over the update list, even an empty
        # one.
        (frozenset({"x"}), False, 1),
    ],
)
def test_declared_writes_steer_the_live_engine(hb_writes, hb_updates, per_fire):
    program, evals = heartbeat(hb_writes, hb_updates)
    state = program.initial_state()
    daemon = RandomFairDaemon(seed=0)
    assert [a.name for a, _ups in daemon.step(program, state)] == ["HB"]
    base = len(evals)
    for _ in range(5):
        assert [a.name for a, _ups in daemon.step(program, state)] == ["HB"]
    # W's guard runs at the start of the step *after* each fire.
    assert len(evals) - base == 5 * per_fire


def test_roundrobin_reprobes_per_program():
    """One daemon, two programs: the adaptation restarts -- engaged on MB
    (~16 evaluations per scan), then declined on the RB ring (~1)."""
    daemon = RoundRobinDaemon()
    for make, engaged in ((make_mb, True), (make_rb, False)):
        program = make(6)
        state = program.initial_state()
        for _ in range(ROUND_ROBIN_ADAPT_WINDOW * 2):
            daemon.step(program, state)
        assert daemon._engaged is engaged, program.name


def test_maxpar_reference_draw_order_is_pinned():
    """Undeclared guards that draw from the RNG: the plain body draws
    per process, guards then pick -- the reference order the oracle
    compares everything else against, as a fixed-seed golden trace."""
    actions = lambda pid: tuple(  # noqa: E731
        Action(
            name, pid,
            guard=lambda v: v.choose([True, False, True]),
            statement=lambda v, _d=delta: [("x", (v.my("x") + _d) % 10)],
        )
        for name, delta in (("UP", 1), ("DOWN", 9))
    )
    program = Program(
        "coins",
        [VariableDecl("x", IntRange(0, 9), 0)],
        [Process(pid, actions(pid)) for pid in range(3)],
    )
    state = program.initial_state()
    daemon = MaximalParallelDaemon(seed=11, random_choice=True, incremental=False)
    trace = [
        "".join(f"{a.name[0]}{a.pid}" for a, _ups in daemon.step(program, state))
        for _ in range(8)
    ]
    assert trace == [
        "D0D2", "U0U1U2", "U0D1U2", "U0U1", "D0U1D2", "D1D2", "U0U1U2", "U0U1D2",
    ]
    assert state.vector("x") == (3, 3, 9)
