"""Control positions and phase arithmetic.

Each process ``j`` maintains a control position ``cp.j`` (Figure 1 of the
paper) and a phase number ``ph.j`` in modulo-``n`` arithmetic:

* ``READY``   -- j is ready to execute its phase;
* ``EXECUTE`` -- j is executing its phase;
* ``SUCCESS`` -- j has completed its phase;
* ``ERROR``   -- j's control position was detectably corrupted;
* ``REPEAT``  -- (ring/tree refinements only) a detected fault is being
  propagated along the token so process 0 re-executes the current phase.

RB's barrier layer (Section 4.1) is two rules superposed on the token,
written once here: :func:`follower_cp` (T2 at ``j != 0``) and
:func:`root_step` (T1 at process 0).  RB, MB, ``MBMachine``, the timed
tree's followers and the Section 8 tables all read them.
"""

from __future__ import annotations

import enum

from repro.gc.domains import EnumDomain


class CP(enum.Enum):
    """Control positions (Figure 1, plus the refinement's ``REPEAT``)."""

    READY = "ready"
    EXECUTE = "execute"
    SUCCESS = "success"
    ERROR = "error"
    REPEAT = "repeat"

    def __repr__(self) -> str:
        return self.value


#: Domain of ``cp`` in the coarse-grain program CB (no ``repeat``).
CB_CP_DOMAIN = EnumDomain((CP.READY, CP.EXECUTE, CP.SUCCESS, CP.ERROR))

#: Domain of ``cp`` in the refined programs RB/MB (adds ``repeat``).
RB_CP_DOMAIN = EnumDomain(
    (CP.READY, CP.EXECUTE, CP.SUCCESS, CP.ERROR, CP.REPEAT)
)


def follower_cp(current: CP, upstream: CP) -> CP | None:
    """T2's rule: the new ``cp.j`` given ``cp.j`` and the upstream cp;
    ``None`` means the statement writes nothing."""
    if current is CP.READY and upstream is CP.EXECUTE:
        return CP.EXECUTE
    if current is CP.EXECUTE and upstream is CP.SUCCESS:
        return CP.SUCCESS
    if current is not CP.EXECUTE and upstream is CP.READY:
        return CP.READY
    if current is CP.ERROR or upstream is not current:
        return CP.REPEAT
    return None


class PhaseStep(enum.Enum):
    """What T1 does to ``ph.0``: keep it, ``ph.0 + 1``, or a final's."""

    KEEP = "keep"
    ADVANCE = "advance"
    ADOPT = "adopt"


def root_step(
    cp0: CP, ready: bool, success: bool, in_phase: bool
) -> tuple[CP | None, PhaseStep]:
    """T1's rule at process 0, given whether every final is ready, is
    success and has ``ph = ph.0``: the ``cp.0`` to write (``None``:
    nothing) and the phase action, which is written first."""
    if cp0 is CP.READY:
        return (CP.EXECUTE if ready and in_phase else None), PhaseStep.KEEP
    if cp0 is CP.EXECUTE:
        return CP.SUCCESS, PhaseStep.KEEP
    if cp0 is CP.SUCCESS:
        advance = success and in_phase
        return CP.READY, PhaseStep.ADVANCE if advance else PhaseStep.ADOPT
    return CP.READY, PhaseStep.ADOPT  # error or repeat


def phase_succ(phase: int, nphases: int) -> int:
    """The paper's ``ph + 1`` in modulo-``n`` arithmetic."""
    if nphases < 1:
        raise ValueError("need at least one phase")
    return (phase + 1) % nphases


def phase_pred(phase: int, nphases: int) -> int:
    """Modulo-``n`` predecessor of a phase."""
    if nphases < 1:
        raise ValueError("need at least one phase")
    return (phase - 1) % nphases


def phase_distance(frm: int, to: int, nphases: int) -> int:
    """Forward distance from phase ``frm`` to phase ``to`` (mod ``n``)."""
    return (to - frm) % nphases
