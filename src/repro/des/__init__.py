"""A small discrete-event simulation kernel.

:mod:`repro.des.core` provides the event queue and virtual clock;
:mod:`repro.des.network` provides point-to-point links with latency and
(optionally) message-fault injection.  The timed protocol simulations
(:mod:`repro.protosim`) and the simulated MPI runtime
(:mod:`repro.simmpi`) are built on it.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.des.core import Event, Simulation
    from repro.des.network import Link, Message, Network

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core": ("Event", "Simulation"),
        "network": ("Link", "Message", "Network"),
    },
)

__all__ = ["Event", "Simulation", "Link", "Message", "Network"]
