"""Program MB -- the message-passing refinement (Section 5).

Each action now instantaneously either *reads one neighbour* or *updates
its own state*, never both, which is implementable with messages.  To
get there, every ring process ``j`` keeps local copies of its
predecessor's variables (``lsn_prev``, ``lcp_prev``, ``lph_prev``,
mirroring ``sn.(j-1)``, ``cp.(j-1)``, ``ph.(j-1)``) and of its
successor's sequence number (``lsn_next``, which only ever tracks TOP).

The local-copy cell behaves exactly like a virtual ring process wedged
between ``j-1`` and ``j`` ("the resulting local copy update action is
identical to the superposed action T2 at a non-0 process"), which is why
the paper proves MB's computations equivalent to RB on a ring of
``2(N+1)`` processes, and why the sequence-number domain widens to
``L > 2N + 1``.

Actions at process ``j``:

* ``CPREV`` -- copy the predecessor (guard: ``sn.(j-1)`` ordinary and
  ``lsn_prev.j != sn.(j-1)``); applies the follower update to the copy
  cell (``lsn_prev := sn.(j-1)``, ``lph_prev := ph.(j-1)``, ``lcp_prev``
  stepped by :func:`~repro.barrier.control.follower_cp` against
  ``cp.(j-1)``);
* ``T1`` (j = 0) -- as in RB but against the local copies;
* ``T2`` (j != 0) -- as in RB but against the local copies;
* ``T3`` (j = N) -- ``sn.N = BOT -> sn.N := TOP`` (reads own state);
* ``T4`` (j != N) -- ``sn.j = BOT and lsn_next.j = TOP -> sn.j := TOP``;
* ``CNEXT`` (j != N) -- ``sn.(j+1) = TOP and lsn_next.j != TOP ->
  lsn_next.j := TOP``;
* ``T5`` (j = 0) -- ``sn.0 = TOP -> sn.0 := 0``.

Fault actions additionally hit the local copies: a detectable fault at
``j`` sets ``lsn_prev.j`` and ``lsn_next.j`` to BOT, ``lcp_prev.j`` to
error and ``lph_prev.j`` arbitrary (this reset is what keeps stale TOP
copies from ever mis-firing T4); an undetectable fault randomizes
everything.
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
from repro.gc.actions import Action, StateView
from repro.gc.domains import BOT, TOP, IntRange, SequenceNumberDomain
from repro.gc.faults import FaultSpec
from repro.gc.program import Process, Program, VariableDecl
from repro.gc.state import State


def _ordinary(value: Any) -> bool:
    return value is not BOT and value is not TOP


def _make_cprev(pred: int):
    """Copy-predecessor action (the virtual ring process)."""

    def guard(view: StateView) -> bool:
        psn = view.of("sn", pred)
        return _ordinary(psn) and view.my("lsn_prev") != psn

    def stmt(view: StateView):
        updates: list[tuple[str, Any]] = [
            ("lsn_prev", view.of("sn", pred)),
            ("lph_prev", view.of("ph", pred)),
        ]
        new_cp = follower_cp(view.my("lcp_prev"), view.of("cp", pred))
        if new_cp is not None:
            updates.append(("lcp_prev", new_cp))
        return updates

    return guard, stmt


def _make_t1(domain: SequenceNumberDomain, nphases: int):
    """Process 0's token receipt, against its local copies of N."""

    def guard(view: StateView) -> bool:
        lsn = view.my("lsn_prev")
        if not _ordinary(lsn):
            return False
        mine = view.my("sn")
        return mine == lsn or not _ordinary(mine)

    def stmt(view: StateView):
        updates: list[tuple[str, Any]] = [("sn", domain.succ(view.my("lsn_prev")))]
        ph0 = view.my("ph")
        lcp = view.my("lcp_prev")
        lph = view.my("lph_prev")
        new_cp, step = root_step(
            view.my("cp"), lcp is CP.READY, lcp is CP.SUCCESS, lph == ph0
        )
        if step is PhaseStep.ADVANCE:
            updates.append(("ph", phase_succ(ph0, nphases)))
        elif step is PhaseStep.ADOPT:
            updates.append(("ph", lph))
        if new_cp is not None:
            updates.append(("cp", new_cp))
        return updates

    return guard, stmt


def _make_t2():
    """A follower's token receipt, against its local copies."""

    def guard(view: StateView) -> bool:
        lsn = view.my("lsn_prev")
        return _ordinary(lsn) and view.my("sn") != lsn

    def stmt(view: StateView):
        updates: list[tuple[str, Any]] = [
            ("sn", view.my("lsn_prev")),
            ("ph", view.my("lph_prev")),
        ]
        new_cp = follower_cp(view.my("cp"), view.my("lcp_prev"))
        if new_cp is not None:
            updates.append(("cp", new_cp))
        return updates

    return guard, stmt


def _t3_guard(view: StateView) -> bool:
    return view.my("sn") is BOT


def _t3_stmt(view: StateView):
    return [("sn", TOP)]


def _t4_guard(view: StateView) -> bool:
    return view.my("sn") is BOT and view.my("lsn_next") is TOP


def _t4_stmt(view: StateView):
    return [("sn", TOP)]


def _make_cnext(succ: int):
    def guard(view: StateView) -> bool:
        return view.of("sn", succ) is TOP and view.my("lsn_next") is not TOP

    def stmt(view: StateView):
        return [("lsn_next", TOP)]

    return guard, stmt


def _t5_guard(view: StateView) -> bool:
    return view.my("sn") is TOP


def _t5_stmt(view: StateView):
    return [("sn", 0)]


def make_mb(nprocs: int, nphases: int = 2, l_domain: int | None = None) -> Program:
    """Build program MB on a ring of ``nprocs`` processes.

    ``l_domain`` defaults to ``2 * nprocs`` (the paper requires
    ``L > 2N + 1`` with ``N = nprocs - 1``, i.e. ``L >= 2 * nprocs``).
    """
    if nprocs < 2:
        raise ValueError("MB needs at least 2 processes")
    if nphases < 2:
        raise ValueError("MB needs >= 2 phases (replicate a single phase)")
    L = l_domain if l_domain is not None else 2 * nprocs
    if L < 2 * nprocs:
        raise ValueError(f"need L >= {2 * nprocs} (L > 2N+1), got {L}")
    domain = SequenceNumberDomain(L)
    last = nprocs - 1

    declarations = [
        VariableDecl("sn", domain, 0),
        VariableDecl("cp", RB_CP_DOMAIN, CP.READY),
        VariableDecl("ph", IntRange(0, nphases - 1), 0),
        VariableDecl("lsn_prev", domain, 0),
        VariableDecl("lcp_prev", RB_CP_DOMAIN, CP.READY),
        VariableDecl("lph_prev", IntRange(0, nphases - 1), 0),
        VariableDecl("lsn_next", domain, 0),
    ]

    processes = []
    for j in range(nprocs):
        pred = (j - 1) % nprocs
        succ = (j + 1) % nprocs
        actions: list[Action] = []
        # MB's guards each touch at most two cells -- its own sn plus one
        # local copy, or one neighbour's sn -- exactly the message-passing
        # locality Section 5 refines towards; the declarations make MB
        # the best case for incremental evaluation.
        if j == 0:
            g, s = _make_t1(domain, nphases)
            actions.append(
                Action(
                    "T1", j, g, s, kind="local",
                    reads=frozenset([("lsn_prev", j), ("sn", j)]),
                    writes=frozenset(("sn", "cp", "ph")),
                )
            )
            actions.append(
                Action(
                    "T5", j, _t5_guard, _t5_stmt, kind="local",
                    reads=frozenset([("sn", j)]),
                    writes=frozenset(("sn",)),
                )
            )
        else:
            g, s = _make_t2()
            actions.append(
                Action(
                    "T2", j, g, s, kind="local",
                    reads=frozenset([("lsn_prev", j), ("sn", j)]),
                    writes=frozenset(("sn", "cp", "ph")),
                )
            )
        if j == last:
            actions.append(
                Action(
                    "T3", j, _t3_guard, _t3_stmt, kind="local",
                    reads=frozenset([("sn", j)]),
                    writes=frozenset(("sn",)),
                )
            )
        else:
            actions.append(
                Action(
                    "T4", j, _t4_guard, _t4_stmt, kind="local",
                    reads=frozenset([("sn", j), ("lsn_next", j)]),
                    writes=frozenset(("sn",)),
                )
            )
            g, s = _make_cnext(succ)
            actions.append(
                Action(
                    "CNEXT", j, g, s, kind="comm",
                    reads=frozenset([("sn", succ), ("lsn_next", j)]),
                    writes=frozenset(("lsn_next",)),
                )
            )
        g, s = _make_cprev(pred)
        actions.append(
            Action(
                "CPREV", j, g, s, kind="comm",
                reads=frozenset([("sn", pred), ("lsn_prev", j)]),
                writes=frozenset(("lsn_prev", "lph_prev", "lcp_prev")),
            )
        )
        processes.append(Process(j, tuple(actions)))

    def initial(program: Program) -> State:
        return State.uniform(
            program,
            sn=0,
            cp=CP.READY,
            ph=0,
            lsn_prev=0,
            lcp_prev=CP.READY,
            lph_prev=0,
            lsn_next=0,
        )

    return Program(
        "MB(ring)",
        declarations,
        processes,
        initial_state=initial,
        metadata={
            "family": "mb",
            "nphases": nphases,
            "sn_domain": domain,
        },
    )


def mb_detectable_fault() -> FaultSpec:
    """Detectable fault for MB: resets the process *and* its copies."""
    return FaultSpec(
        name="mb-detectable",
        resets={
            "cp": CP.ERROR,
            "sn": BOT,
            "lsn_prev": BOT,
            "lsn_next": BOT,
            "lcp_prev": CP.ERROR,
        },
        randomized=("ph", "lph_prev"),
        detectable=True,
    )


def mb_undetectable_fault() -> FaultSpec:
    """Undetectable fault for MB: randomizes everything at the process."""
    return FaultSpec(
        name="mb-undetectable",
        randomized=(
            "sn",
            "cp",
            "ph",
            "lsn_prev",
            "lcp_prev",
            "lph_prev",
            "lsn_next",
        ),
        detectable=False,
    )
