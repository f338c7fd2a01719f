"""A simulated message-passing runtime with fault-tolerant collectives.

Section 1 of the paper: "Currently, MPI provides users with two
alternatives for dealing with faults: (i) to abort the program in the
event of a fault, and (ii) to return an error code in the event of a
fault ... Another of our goals is to provide a third alternative to
users of barrier synchronizations in MPI: the guarantee of an
appropriate type of tolerance to each fault-class."

:mod:`repro.simmpi` realises that in simulation: generator-based rank
processes run on the discrete-event kernel, exchange messages over
links with latency and (optionally) message faults, and call
collectives whose barrier offers all three modes:

* :data:`FTMode.ABORT` -- any detected fault aborts the job;
* :data:`FTMode.RETURN_CODE` -- the barrier returns an error code and
  the application recovers by retrying;
* :data:`FTMode.TOLERATE` -- the paper's contribution: the barrier
  masks detectable faults internally (failed instances are re-executed)
  and always completes correctly.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.simmpi.ftmodes import BarrierError, FTMode, JobAborted
    from repro.simmpi.mb_impl import MBMachine, MBPhaseLog, mb_barrier_program
    from repro.simmpi.runtime import Comm, RankEvent, Runtime

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ftmodes": ("BarrierError", "FTMode", "JobAborted"),
        "mb_impl": ("MBMachine", "MBPhaseLog", "mb_barrier_program"),
        "runtime": ("Comm", "RankEvent", "Runtime"),
    },
)

__all__ = [
    "FTMode",
    "BarrierError",
    "JobAborted",
    "Comm",
    "Runtime",
    "RankEvent",
    "MBMachine",
    "MBPhaseLog",
    "mb_barrier_program",
]
