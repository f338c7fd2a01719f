"""Timed protocol simulation (the Section 6.2 simulation study).

The paper simulated program RB in SIEFAST under maximal parallel
semantics with a real-time value per action and a fault environment.  We
reproduce that with a discrete-event simulation of the tree-structured
protocol (Figure 2c):

* :mod:`repro.protosim.treebarrier` -- the fault-tolerant barrier node
  state machine driven by token circulations (waves) from process 0;
* :mod:`repro.protosim.intolerant` -- the two-wave baseline;
* :mod:`repro.protosim.faultenv` -- fault arrival processes calibrated
  to the paper's frequency parameter ``f``;
* :mod:`repro.protosim.metrics` -- instances/phase, phase times,
  overhead;
* :mod:`repro.protosim.recovery` -- the Figure 7 undetectable-fault
  recovery experiment.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.protosim.treebarrier import FTTreeBarrierSim, SimConfig
    from repro.protosim.intolerant import IntolerantTreeBarrierSim
    from repro.protosim.faultenv import DetectableFaultEnv
    from repro.protosim.metrics import PhaseMetrics, overhead_vs_baseline
    from repro.protosim.recovery import RecoveryExperiment, RecoveryResult

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "treebarrier": ("FTTreeBarrierSim", "SimConfig"),
        "intolerant": ("IntolerantTreeBarrierSim",),
        "faultenv": ("DetectableFaultEnv",),
        "metrics": ("PhaseMetrics", "overhead_vs_baseline"),
        "recovery": ("RecoveryExperiment", "RecoveryResult"),
    },
)

__all__ = [
    "FTTreeBarrierSim",
    "SimConfig",
    "IntolerantTreeBarrierSim",
    "DetectableFaultEnv",
    "PhaseMetrics",
    "overhead_vs_baseline",
    "RecoveryExperiment",
    "RecoveryResult",
]
