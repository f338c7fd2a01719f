"""Section 7: extensions and instantiations.

* :mod:`repro.extensions.classification` -- Table 1, the fault
  classification (detectability x correctability) and the appropriate
  tolerance for each class;
* :mod:`repro.extensions.crash` -- modelling crash and Byzantine faults
  with auxiliary ``up``/``good`` variables;
* :mod:`repro.extensions.failsafe` -- fail-safe tolerance for
  uncorrectable detectable faults (never report a completion wrongly);
* :mod:`repro.extensions.commit` -- atomic commitment instantiation;
* :mod:`repro.extensions.unison` -- clock unison instantiation;
* :mod:`repro.extensions.phasesync` -- phase synchronization
  instantiation;
* :mod:`repro.extensions.fuzzy` -- fuzzy barriers (split enter/wait).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.extensions.classification import (
        Correctability,
        Detectability,
        FaultClass,
        Tolerance,
        appropriate_tolerance,
        classify,
        STANDARD_FAULTS,
    )
    from repro.extensions.crash import with_byzantine, with_crash
    from repro.extensions.failsafe import FailSafeMonitor, make_failsafe_cb
    from repro.extensions.commit import TransactionOutcome, run_transactions
    from repro.extensions.unison import clock_unison_invariant, clocks_of
    from repro.extensions.phasesync import phase_sync_invariant
    from repro.extensions.fuzzy import fuzzy_phase

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "classification": (
            "Correctability", "Detectability", "FaultClass", "Tolerance",
            "appropriate_tolerance", "classify", "STANDARD_FAULTS",
        ),
        "crash": ("with_byzantine", "with_crash"),
        "failsafe": ("FailSafeMonitor", "make_failsafe_cb"),
        "commit": ("TransactionOutcome", "run_transactions"),
        "unison": ("clock_unison_invariant", "clocks_of"),
        "phasesync": ("phase_sync_invariant",),
        "fuzzy": ("fuzzy_phase",),
    },
)

__all__ = [
    "Correctability",
    "Detectability",
    "FaultClass",
    "Tolerance",
    "appropriate_tolerance",
    "classify",
    "STANDARD_FAULTS",
    "with_crash",
    "with_byzantine",
    "FailSafeMonitor",
    "make_failsafe_cb",
    "TransactionOutcome",
    "run_transactions",
    "clock_unison_invariant",
    "clocks_of",
    "phase_sync_invariant",
    "fuzzy_phase",
]
