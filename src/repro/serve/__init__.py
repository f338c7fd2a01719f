"""Barrier-as-a-service: a persistent multi-tenant daemon hosting many
independent barrier groups over the PR-5 frame protocol, plus a seeded
replayable load generator.

- :mod:`repro.serve.protocol` -- wire verbs, reject reasons, validators
- :mod:`repro.serve.groups` -- one tenant: membership, rounds, inbox
- :mod:`repro.serve.daemon` -- the asyncio server (``repro-serve run``)
- :mod:`repro.serve.client` -- the resend-loop client library
- :mod:`repro.serve.loadgen` -- scripted churn with replay digests
- :mod:`repro.serve.cli` -- the ``repro-serve`` entry point
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.serve.client import ServeClient, ServeClientError, ServeTimeout
    from repro.serve.daemon import ServeConfig, ServeDaemon
    from repro.serve.groups import BarrierGroup, GroupLimits
    from repro.serve.loadgen import LoadConfig, LoadResult, run_load

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "client": ("ServeClient", "ServeClientError", "ServeTimeout"),
        "daemon": ("ServeConfig", "ServeDaemon"),
        "groups": ("BarrierGroup", "GroupLimits"),
        "loadgen": ("LoadConfig", "LoadResult", "run_load"),
    },
)

__all__ = [
    "BarrierGroup",
    "GroupLimits",
    "LoadConfig",
    "LoadResult",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeDaemon",
    "ServeTimeout",
    "run_load",
]
