"""Program RB -- the barrier superposed on the token ring (Section 4.1).

Process 0 bears the responsibility of all global detections: when it
receives the token (action T1) it inspects the final process(es) of the
circulation and updates its phase and control position; every other
process updates when it receives the token (action T2), copying its
parent's phase and following its parent's control position.  The new
control position ``repeat`` carries "a detectable fault happened during
this instance" back to process 0.

Statement superposed on T1 at process 0 (paper text, extended to the
branching topologies of Section 4.2 where ``N`` becomes the set of
finals, and -- per the Lemma 4.1.2/4.1.3 proof text -- with the recovery
case for a corrupted control position at 0), ``control.root_step``::

    if cp.0 = ready and cp.F = ready and ph.F = ph.0 then cp.0 := execute
    elseif cp.0 = execute then cp.0 := success
    elseif cp.0 = success then
        if cp.F = success and ph.F = ph.0
        then ph.0 := ph.0 + 1; cp.0 := ready      -- barrier achieved
        else ph.0 := ph.(some final); cp.0 := ready  -- re-execute phase
    elseif cp.0 in {error, repeat} then
        ph.0 := ph.(some final); cp.0 := ready

Statement superposed on T2 at process j != 0 (parent p), whose ``cp``
ladder is ``control.follower_cp``::

    ph.j := ph.p
    if cp.j = ready and cp.p = execute then cp.j := execute
    elseif cp.j = execute and cp.p = success then cp.j := success
    elseif cp.j != execute and cp.p = ready then cp.j := ready
    elseif cp.j = error or cp.p != cp.j then cp.j := repeat
"""

from __future__ import annotations

from typing import Any

from repro.barrier.control import (
    CP,
    RB_CP_DOMAIN,
    PhaseStep,
    follower_cp,
    phase_succ,
    root_step,
)
from repro.barrier.tokenring import build_token_actions
from repro.gc.actions import StateView
from repro.gc.domains import BOT, IntRange, SequenceNumberDomain
from repro.gc.faults import FaultSpec
from repro.gc.program import Process, Program, VariableDecl
from repro.gc.state import State
from repro.topology.graphs import Topology, ring


def make_root_update(topology: Topology, nphases: int):
    """The cp/ph statement process 0 executes in parallel with T1."""
    finals = topology.finals

    def stmt(view: StateView):
        ph0 = view.my("ph")
        final_cps = [view.of("cp", f) for f in finals]
        final_phs = [view.of("ph", f) for f in finals]
        new_cp, step = root_step(
            view.my("cp"),
            all(c is CP.READY for c in final_cps),
            all(c is CP.SUCCESS for c in final_cps),
            all(p == ph0 for p in final_phs),
        )
        updates: list[tuple[str, Any]] = []
        if step is PhaseStep.ADVANCE:
            updates.append(("ph", phase_succ(ph0, nphases)))
        elif step is PhaseStep.ADOPT:
            updates.append(("ph", view.choose(final_phs)))
        if new_cp is not None:
            updates.append(("cp", new_cp))
        return updates

    return stmt


def make_follower_update(topology: Topology, pid: int):
    """The cp/ph statement process ``pid`` executes in parallel with T2."""
    parent = topology.parent[pid]

    def stmt(view: StateView):
        updates: list[tuple[str, Any]] = [("ph", view.of("ph", parent))]
        new_cp = follower_cp(view.my("cp"), view.of("cp", parent))
        if new_cp is not None:
            updates.append(("cp", new_cp))
        return updates

    return stmt


def make_rb(
    nprocs: int | None = None,
    topology: Topology | None = None,
    nphases: int = 2,
    k: int | None = None,
) -> Program:
    """Build program RB over a ring (default) or a given topology."""
    if topology is None:
        if nprocs is None:
            raise ValueError("give nprocs or topology")
        topology = ring(nprocs)
    n = topology.nprocs
    if nphases < 2:
        raise ValueError(
            "RB needs >= 2 phases (replicate a single phase, Section 3 remark)"
        )
    domain = SequenceNumberDomain(k if k is not None else n + 1)
    declarations = [
        VariableDecl("sn", domain, 0),
        VariableDecl("cp", RB_CP_DOMAIN, CP.READY),
        VariableDecl("ph", IntRange(0, nphases - 1), 0),
    ]
    processes = []
    for pid in range(n):
        if pid == 0:
            actions = build_token_actions(
                topology, domain, pid, t1_extra=make_root_update(topology, nphases)
            )
        else:
            actions = build_token_actions(
                topology, domain, pid, t2_extra=make_follower_update(topology, pid)
            )
        processes.append(Process(pid, tuple(actions)))

    def initial(program: Program) -> State:
        return State.uniform(program, sn=0, cp=CP.READY, ph=0)

    return Program(
        f"RB({topology.name})",
        declarations,
        processes,
        initial_state=initial,
        metadata={
            "family": "rb",
            "topology": topology,
            "nphases": nphases,
            "sn_domain": domain,
        },
    )


def rb_detectable_fault() -> FaultSpec:
    """Section 4.1 detectable fault: ``ph, cp, sn := ?, error, BOT``."""
    return FaultSpec(
        name="rb-detectable",
        resets={"cp": CP.ERROR, "sn": BOT},
        randomized=("ph",),
        detectable=True,
    )


def rb_undetectable_fault() -> FaultSpec:
    """Section 4.1 undetectable fault: ``ph, cp, sn := ?, ?, ?``."""
    return FaultSpec(
        name="rb-undetectable",
        randomized=("ph", "cp", "sn"),
        detectable=False,
    )
