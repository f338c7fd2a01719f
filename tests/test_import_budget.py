"""Import budget: every entry point loads only what it runs.

One fresh interpreter per entry point, asserting on **counts, not
timings**: the heavy third-party packages and the simulation engines
stay out of ``sys.modules``, the module count stays under a recorded
ceiling (the eager ``__init__``s loaded ~700 modules for any of these;
the dependency cones measure 86-194 on CPython 3.11), and running a first job afterwards
loads no further ``repro.*``/numpy/networkx module -- nothing was merely
deferred into first use.  See DESIGN.md, "Import layering".
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Never needed by the net/serve/chaos-plan/obs entry points.
BANNED = ("numpy", "networkx", "repro.experiments", "repro.protosim", "repro.des")

#: A 2-barrier 3-node tree job over the memory transport.
TREE_JOB = """
from repro.net.runtime import NetConfig, run_sync
result = run_sync(NetConfig(nodes=3, barriers=2, protocol="tree", transport="mem"))
assert result.ok and result.reached and result.completed == 2, result
"""

#: One group, two clients, two barriers against an in-process daemon.
SERVE_ROUND = """
import asyncio
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.loadgen import LoadConfig, run_load

async def _round():
    daemon = await ServeDaemon(ServeConfig(port=0)).start()
    try:
        port = int(daemon.address.rsplit(":", 1)[1])
        return await run_load(LoadConfig(
            groups=1, clients_per_group=2, barriers=2, leavers=0, crashers=0,
            slow=0, byzantine=0, probes=0, port=port, timeout_s=30.0,
        ))
    finally:
        await daemon.shutdown()

result = asyncio.run(_round())
assert not result.errors, result.errors
assert [o["outcome"] for o in result.outcomes] == ["finished"] * 2, result.outcomes
"""

#: name -> (imports, module-count ceiling, first job or None)
ENTRY_POINTS = {
    "repro.net": ("from repro.net import NetConfig, run_sync", 255, TREE_JOB),
    # What a spawned shard worker loads to unpickle ``_worker_main``; its
    # ``ShardSpec`` then brings in ``repro.net.runtime`` (the cone above).
    "repro.net.shard": ("import repro.net.shard", 245, None),
    "repro.serve": (
        "import repro.serve.daemon, repro.serve.loadgen",
        235,
        SERVE_ROUND,
    ),
    "repro.serve.cli": ("import repro.serve.cli", 210, None),
    "repro.chaos.plan": ("import repro.chaos.plan", 145, None),
    "repro.obs": ("from repro.obs import Tracer, summarize", 150, None),
}

PROBE = """
import json, sys

def snapshot():
    return sorted(sys.modules)

{imports}
after_import = snapshot()
{job}
print(json.dumps({{"after_import": after_import, "after_job": snapshot()}}))
"""


def _probe(imports: str, job: str | None = None) -> dict[str, list[str]]:
    code = PROBE.format(imports=imports, job=textwrap.dedent(job or ""))
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _is_budgeted(module: str) -> bool:
    return module.split(".")[0] in ("repro", "numpy", "networkx")


def _loaded(modules: list[str], banned: str) -> list[str]:
    return [m for m in modules if m == banned or m.startswith(banned + ".")]


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_stays_inside_its_cone(name):
    imports, ceiling, job = ENTRY_POINTS[name]
    seen = _probe(imports, job)
    for stage, modules in seen.items():
        for banned in BANNED:
            assert not _loaded(modules, banned), (stage, banned)
        assert len(modules) < ceiling, (stage, len(modules))
    # Not a deferral: the first job found everything it needs loaded.
    gained = set(seen["after_job"]) - set(seen["after_import"])
    assert not sorted(m for m in gained if _is_budgeted(m))


def test_net_job_leaves_the_chaos_adapter_registry_unloaded():
    # A run needs the monitors and the plan, not the 22 engine adapters.
    imports, _ceiling, job = ENTRY_POINTS["repro.net"]
    assert not _loaded(_probe(imports, job)["after_job"], "repro.chaos.adapters")


def test_positive_control_gc_engine_does_load_numpy():
    # The probe can see numpy: the gc daemons always draw from it.
    seen = _probe("from repro.gc import Simulator")
    assert _loaded(seen["after_import"], "numpy")
    # ... but naming the package alone loads none of it.
    seen = _probe("import repro.gc")
    assert not _loaded(seen["after_import"], "numpy")
    assert "repro.gc.scheduler" not in seen["after_import"]
