"""Differential-testing oracle for the compiled backend.

Hypothesis generates random guarded-command programs -- small integer
domains, random guard read-sets and statement write-sets, optionally
declared (the incremental/compiled contracts) or undeclared (the
always-correct fallback), optional nondeterministic ``choose`` effects,
and seeded fault schedules -- and every program is executed three ways:

* **interpreter** -- the plain full-evaluation daemons,
* **incremental** -- :class:`repro.gc.incremental.EnabledIndex`,
* **compiled** -- :mod:`repro.gc.compile`.

All three must produce the *bit-identical* trace digest
(:func:`repro.gc.trace.trace_digest`) and final state, and the explorer
must count the identical reachable graph under the interpreter and the
compiled backend.

A failing case is written, as JSON, to ``tests/reproducers/<test>.json``
before the assertion propagates.  Hypothesis replays the *shrunk*
example last (when it reports the falsifying example), so the file left
on disk is the minimal reproducer; ``test_replay_saved_reproducers``
picks such files up on later runs so a saved failure keeps failing until
the bug is fixed.  See API.md ("The step engine") for how to read one.

Together with the conformance matrix this provides the >=200 generated
differential cases the compiler's acceptance criteria demand.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.gc.actions import Action  # noqa: E402
from repro.gc.domains import IntRange  # noqa: E402
from repro.gc.explore import Explorer  # noqa: E402
from repro.gc.faults import FaultSpec, ScriptedInjector  # noqa: E402
from repro.gc.program import Process, Program, VariableDecl  # noqa: E402
from repro.gc.scheduler import (  # noqa: E402
    MaximalParallelDaemon,
    RandomFairDaemon,
    RoundRobinDaemon,
)
from repro.gc.simulator import Simulator  # noqa: E402
from repro.gc.state import State  # noqa: E402
from repro.gc.trace import trace_digest  # noqa: E402

REPRODUCER_DIR = Path(__file__).parent / "reproducers"

#: The three execution backends under differential comparison.
MODES = ("interpreter", "incremental", "compiled")


# ----------------------------------------------------------------------
# Case -> program.  A "case" is a plain JSON-serializable dict so shrunk
# failures can be saved and replayed verbatim.
# ----------------------------------------------------------------------
def _cell_sum(state_view, cells):
    return sum(state_view.of(var, pid) for var, pid in cells)


def _make_guard(spec):
    cells = [tuple(c) for c in spec["cells"]]
    rhs = spec["rhs"]
    if spec["op"] == "le":
        return lambda view: _cell_sum(view, cells) <= rhs
    return lambda view: _cell_sum(view, cells) != rhs


def _make_statement(writes, sizes):
    exprs = []
    for w in writes:
        cells = [tuple(c) for c in w["cells"]]
        options = w.get("choose")
        exprs.append((w["var"], cells, w["add"], options, sizes[w["var"]]))

    def statement(view):
        out = []
        for var, cells, add, options, size in exprs:
            value = _cell_sum(view, cells) + add
            if options is not None:
                value += view.choose(options)
            out.append((var, value % size))
        return out

    return statement


def build_program(case) -> Program:
    """Materialize a generated case as a :class:`Program`."""
    nprocs = case["nprocs"]
    decls = [
        VariableDecl(v["name"], IntRange(0, v["hi"]), v["default"])
        for v in case["vars"]
    ]
    sizes = {v["name"]: v["hi"] + 1 for v in case["vars"]}
    per_pid: dict[int, list[Action]] = {pid: [] for pid in range(nprocs)}
    for spec in case["actions"]:
        guard_cells = frozenset(tuple(c) for c in spec["guard"]["cells"])
        write_vars = frozenset(w["var"] for w in spec["writes"])
        per_pid[spec["pid"]].append(
            Action(
                name=spec["name"],
                pid=spec["pid"],
                guard=_make_guard(spec["guard"]),
                statement=_make_statement(spec["writes"], sizes),
                reads=guard_cells if spec["declare_reads"] else None,
                writes=write_vars if spec["declare_writes"] else None,
            )
        )
    processes = [Process(pid, tuple(per_pid[pid])) for pid in range(nprocs)]
    return Program("differential", decls, processes)


def make_daemon(case, mode):
    spec = case["daemon"]
    kwargs = (
        {"backend": "compiled"}
        if mode == "compiled"
        else {"incremental": mode == "incremental"}
    )
    if spec["kind"] == "roundrobin":
        return RoundRobinDaemon(**kwargs)
    if spec["kind"] == "randomfair":
        return RandomFairDaemon(seed=spec["seed"], **kwargs)
    return MaximalParallelDaemon(
        seed=spec["seed"], random_choice=spec["random_choice"], **kwargs
    )


def make_injector(case, program):
    if not case["faults"]:
        return None
    if case["fault_kind"] == "reset":
        first = case["vars"][0]
        spec = FaultSpec("reset", resets={first["name"]: first["default"]})
    else:
        spec = FaultSpec(
            "scramble",
            randomized=tuple(v["name"] for v in case["vars"]),
            detectable=False,
        )
    schedule = [tuple(e) for e in case["faults"]]
    return ScriptedInjector(program, spec, schedule, seed=case["fault_seed"])


def run_case(case, mode):
    """One full run of the case under ``mode``; returns its identity."""
    program = build_program(case)
    sim = Simulator(
        program, make_daemon(case, mode), injector=make_injector(case, program)
    )
    result = sim.run(max_steps=case["steps"])
    return {
        "digest": trace_digest(result.trace),
        "events": len(result.trace),
        "final": result.state.key(),
        "stopped_by": result.stopped_by,
    }


def explore_case(case, backend_kwargs):
    program = build_program(case)
    explorer = Explorer(program, max_states=5_000, **backend_kwargs)
    result = explorer.reachable([program.initial_state()])
    edges = sum(len(s) for s in result.transitions.values())
    degrees = sorted(len(s) for s in result.transitions.values())
    return {
        "states": len(result.states),
        "edges": edges,
        "degrees": degrees,
        "truncated": result.truncated,
    }


# ----------------------------------------------------------------------
# Differential checks with reproducer capture.
# ----------------------------------------------------------------------
def save_reproducer(name: str, case) -> Path:
    REPRODUCER_DIR.mkdir(exist_ok=True)
    path = REPRODUCER_DIR / f"{name}.json"
    path.write_text(json.dumps(case, indent=2, sort_keys=True) + "\n")
    return path


def check_traces_agree(case, reproducer="trace_differential"):
    runs = {mode: run_case(case, mode) for mode in MODES}
    try:
        assert runs["interpreter"] == runs["incremental"], runs
        assert runs["interpreter"] == runs["compiled"], runs
    except AssertionError:
        path = save_reproducer(reproducer, case)
        raise AssertionError(
            f"backends diverged (reproducer saved to {path}):\n"
            + json.dumps(runs, default=str, indent=2)
        ) from None


def check_explorations_agree(case, reproducer="explorer_differential"):
    counts = {
        "interpreter": explore_case(case, {}),
        "compiled": explore_case(case, {"backend": "compiled"}),
    }
    try:
        assert counts["interpreter"] == counts["compiled"], counts
    except AssertionError:
        path = save_reproducer(reproducer, case)
        raise AssertionError(
            f"explorations diverged (reproducer saved to {path}):\n"
            + json.dumps(
                {k: {**v, "degrees": "..."} for k, v in counts.items()},
                indent=2,
            )
        ) from None


# ----------------------------------------------------------------------
# Strategies.
# ----------------------------------------------------------------------
@st.composite
def cases(draw, max_procs=3, max_steps=80, with_faults=True):
    nprocs = draw(st.integers(2, max_procs))
    nvars = draw(st.integers(1, 2))
    variables = []
    for i in range(nvars):
        hi = draw(st.integers(1, 2))
        variables.append(
            {"name": f"v{i}", "hi": hi, "default": draw(st.integers(0, hi))}
        )
    var_names = [v["name"] for v in variables]
    cell = st.tuples(st.sampled_from(var_names), st.integers(0, nprocs - 1))

    actions = []
    for pid in range(nprocs):
        for a in range(draw(st.integers(1, 2))):
            guard = {
                "cells": draw(
                    st.lists(cell, min_size=1, max_size=3, unique=True)
                ),
                "op": draw(st.sampled_from(["le", "ne"])),
                "rhs": draw(st.integers(0, 4)),
            }
            writes = []
            for var in draw(
                st.lists(
                    st.sampled_from(var_names),
                    min_size=0,
                    max_size=2,
                    unique=True,
                )
            ):
                write = {
                    "var": var,
                    "cells": draw(
                        st.lists(cell, min_size=0, max_size=2, unique=True)
                    ),
                    "add": draw(st.integers(0, 3)),
                }
                if draw(st.booleans()) and draw(st.booleans()):
                    write["choose"] = draw(
                        st.lists(
                            st.integers(0, 3), min_size=2, max_size=3
                        )
                    )
                writes.append(write)
            actions.append(
                {
                    "pid": pid,
                    "name": f"a{pid}_{a}",
                    "guard": guard,
                    "writes": writes,
                    "declare_reads": draw(st.booleans()),
                    "declare_writes": draw(st.booleans()),
                }
            )

    faults = []
    if with_faults and draw(st.booleans()):
        faults = draw(
            st.lists(
                st.tuples(st.integers(0, 40), st.integers(0, nprocs - 1)),
                min_size=1,
                max_size=3,
            )
        )
    return {
        "nprocs": nprocs,
        "vars": variables,
        "actions": actions,
        "daemon": {
            "kind": draw(
                st.sampled_from(["roundrobin", "randomfair", "maxpar"])
            ),
            "seed": draw(st.integers(0, 2**16)),
            "random_choice": draw(st.booleans()),
        },
        "faults": [list(f) for f in faults],
        "fault_kind": draw(st.sampled_from(["reset", "scramble"])),
        "fault_seed": draw(st.integers(0, 2**16)),
        "steps": draw(st.integers(20, max_steps)),
    }


COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# The oracle proper.
# ----------------------------------------------------------------------
@settings(max_examples=150, **COMMON)
@given(case=cases())
def test_trace_digests_identical_across_backends(case):
    """Interpreter, incremental, and compiled runs -- including under
    seeded fault schedules -- must agree on every trace event."""
    check_traces_agree(case)


@settings(max_examples=60, **COMMON)
@given(case=cases(max_procs=3, with_faults=False))
def test_explorer_counts_identical_across_backends(case):
    """Interpreter and compiled explorations must build the identical
    reachable graph (states, edges, degree profile)."""
    check_explorations_agree(case)


# ----------------------------------------------------------------------
# Reproducer machinery.
# ----------------------------------------------------------------------
def test_replay_saved_reproducers():
    """Re-run every saved shrunk failure; a reproducer keeps failing
    until the divergence it captures is fixed (then delete the file)."""
    saved = sorted(REPRODUCER_DIR.glob("*.json")) if REPRODUCER_DIR.is_dir() else []
    cases = []
    for path in saved:
        record = json.loads(path.read_text())
        # Chaos reproducers share the directory but replay through the
        # chaos campaign machinery (tests/test_obs_streaming.py), not
        # the differential oracle.
        if record.get("kind") != "chaos-reproducer":
            cases.append((path, record))
    if not cases:
        pytest.skip("no saved reproducers")
    for path, case in cases:
        if path.stem.startswith("explorer"):
            check_explorations_agree(case, reproducer=path.stem)
        else:
            check_traces_agree(case, reproducer=path.stem)


def test_reproducer_round_trip(tmp_path, monkeypatch):
    """A case survives JSON serialization: the replayed run is identical
    to the original (same digest, same final state)."""
    case = {
        "nprocs": 2,
        "vars": [{"name": "v0", "hi": 2, "default": 0}],
        "actions": [
            {
                "pid": pid,
                "name": f"a{pid}_0",
                "guard": {
                    "cells": [["v0", 0], ["v0", 1]],
                    "op": "ne",
                    "rhs": 4,
                },
                "writes": [
                    {"var": "v0", "cells": [["v0", 1 - pid]], "add": 1}
                ],
                "declare_reads": pid == 0,
                "declare_writes": pid == 1,
            }
            for pid in range(2)
        ],
        "daemon": {"kind": "randomfair", "seed": 7, "random_choice": False},
        "faults": [[3, 1]],
        "fault_kind": "reset",
        "fault_seed": 11,
        "steps": 40,
    }
    monkeypatch.setattr(sys.modules[__name__], "REPRODUCER_DIR", tmp_path)
    replayed = json.loads(json.dumps(case))
    assert [run_case(case, m) for m in MODES] == [
        run_case(replayed, m) for m in MODES
    ]
    check_traces_agree(replayed)


def test_saved_reproducer_file_shape(tmp_path, monkeypatch):
    """A diverging case gets written before the assertion propagates."""
    mod = sys.modules[__name__]
    monkeypatch.setattr(mod, "REPRODUCER_DIR", tmp_path)
    case = {"marker": 1}

    def diverge(_case, mode):
        return {"digest": mode}  # every backend disagrees

    monkeypatch.setattr(mod, "run_case", diverge)
    with pytest.raises(AssertionError, match="backends diverged"):
        check_traces_agree(case, reproducer="forced")
    saved = json.loads((tmp_path / "forced.json").read_text())
    assert saved == case


@settings(max_examples=10, **COMMON)
@given(case=cases())
def test_generated_programs_are_well_formed(case):
    """Sanity on the generator: every case builds a validating program
    whose declared read/write-sets are honest (exact, by construction)."""
    program = build_program(case)
    state = program.initial_state()
    program.validate_state(state)
    assert program.nprocs == case["nprocs"]
    for action in program.actions():
        if action.reads is not None:
            assert all(0 <= pid < program.nprocs for _v, pid in action.reads)
        if action.writes is not None:
            assert action.writes <= set(program.domains)
