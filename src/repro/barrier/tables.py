"""Lookup-table views of the RB update rules (Section 8).

"our program is concise and can be implemented as a simple table
lookup.  Therefore, it can be implemented in the hardware."

This module makes that claim executable.  The tables are enumerations
of the two rules in :mod:`repro.barrier.control`, not a copy of them:
the follower (non-0) control-position rule
:func:`~repro.barrier.control.follower_cp` is tabulated over
``(cp.j, cp.parent)``, and the root rule
:func:`~repro.barrier.control.root_step` over ``(cp.0, finals-ready?,
finals-success?, finals-in-phase?)``, each result named by what process
0 does.  The test suite checks the tables against the notation program
:func:`repro.barrier.sources.compile_rb` on every input, and counts the
bits of state per process (the paper's O(log N) claim).
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.barrier.control import CP, RB_CP_DOMAIN, PhaseStep, follower_cp, root_step


def follower_table() -> Mapping[tuple[CP, CP], CP]:
    """``(cp.j, cp.parent) -> cp.j'`` for the superposed T2 statement.

    Entries where the statement leaves cp unchanged map to the current
    value, so the table is total (25 entries).
    """
    table: dict[tuple[CP, CP], CP] = {}
    for current in RB_CP_DOMAIN.members:
        for upstream in RB_CP_DOMAIN.members:
            new = follower_cp(current, upstream)
            table[(current, upstream)] = current if new is None else new
    return table


#: Root decision outcomes: what process 0 does upon receiving the token.
ROOT_BEGIN = "begin-instance"  # cp.0 := execute
ROOT_TO_SUCCESS = "to-success"  # cp.0 := success
ROOT_COMPLETE = "complete-phase"  # ph.0 += 1; cp.0 := ready
ROOT_REEXECUTE = "re-execute"  # ph.0 := ph.final; cp.0 := ready
ROOT_RECOVER = "recover"  # (error/repeat) ph.0 := ph.final; cp.0 := ready
ROOT_IDLE = "idle"  # forward the token, change nothing


def _root_decision(cp0: CP, new_cp: CP | None, step: PhaseStep) -> str:
    if step is PhaseStep.ADVANCE:
        return ROOT_COMPLETE
    if step is PhaseStep.ADOPT:
        return ROOT_REEXECUTE if cp0 is CP.SUCCESS else ROOT_RECOVER
    if new_cp is CP.EXECUTE:
        return ROOT_BEGIN
    if new_cp is CP.SUCCESS:
        return ROOT_TO_SUCCESS
    return ROOT_IDLE


def root_table() -> Mapping[tuple[CP, bool, bool, bool], str]:
    """``(cp.0, finals_ready, finals_success, finals_in_phase) ->
    decision`` for the superposed T1 statement (40 entries)."""
    table: dict[tuple[CP, bool, bool, bool], str] = {}
    for cp0 in RB_CP_DOMAIN.members:
        for ready in (False, True):
            for success in (False, True):
                for in_phase in (False, True):
                    key = (cp0, ready, success, in_phase)
                    table[key] = _root_decision(cp0, *root_step(*key))
    return table


def state_bits(nprocs: int, nphases: int, k: int | None = None) -> int:
    """Bits of protocol state per process (the paper's O(log N) claim).

    A sequence number over {0..K-1, BOT, TOP}, a control position (5
    values), and a phase (n values).
    """
    if k is None:
        k = nprocs + 1
    return (
        math.ceil(math.log2(k + 2))
        + math.ceil(math.log2(5))
        + math.ceil(math.log2(max(nphases, 2)))
    )
