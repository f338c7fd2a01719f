"""Import budget: every entry point loads only what it runs.

One fresh interpreter per entry point, asserting on **counts, not
timings**: the heavy third-party packages and the simulation engines
stay out of ``sys.modules``, the module count stays under a recorded
ceiling (the eager ``__init__``s loaded ~700 modules for any of these;
the dependency cones measure 85-195 after import on CPython 3.11.7), and
running a first job afterwards loads no further ``repro.*``/numpy/networkx
module -- nothing was merely deferred into first use.  See DESIGN.md,
"Import layering".

Counts are taken from a bare start: the child runs under ``-S`` with the
site directories on ``PYTHONPATH``, and the probe imports ``site`` itself,
without running its hooks.  ``.pth`` files, ``sitecustomize`` and
``usercustomize`` belong to the environment, not to an entry point.  The
measured quantity is still the whole ``sys.modules`` -- the same set a
start-up without hooks has, ``site`` and ``_sitebuiltins`` included --
not a difference of snapshots, which would stop counting a cone module
whenever some hook had already loaded it.
"""

from __future__ import annotations

import ast
import json
import os
import site
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: Never needed by the net/serve/chaos-plan/obs entry points.
BANNED = ("numpy", "networkx", "repro.experiments", "repro.protosim", "repro.des")

#: Banned for the gc entry point, which draws from ``repro._pcg64``.  The
#: ``repro.*`` names above do not apply to it: the adapter registry needs
#: ``repro.experiments.sweep`` (the campaign pool).
THIRD_PARTY = ("numpy", "networkx")

#: Single-loop runs pay for no process machinery: the one use of it under
#: ``repro.net`` (``multiprocessing.connection``, as the shard control
#: channel's framing) is imported inside the functions that launch workers.
NET_BANNED = BANNED + ("multiprocessing",)

#: A shard worker runs one group of nodes; it serves nobody, sweeps
#: nothing and aggregates no metrics.
WORKER_BANNED = THIRD_PARTY + (
    "repro.experiments", "repro.serve", "repro.chaos.adapters",
    "repro.chaos.campaign", "repro.obs.metrics",
)

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

#: The bench's ``gc_mb_faulty`` unit in small: one generated plan (6
#: detectable + 2 undetectable faults) through MB on both backends.
GC_JOB = """
plan = FaultPlan.generate(
    3, 8, detectable=6, undetectable=2, start=50, stop=800, steps=True
)
config = CampaignConfig(nprocs=8, nphases=4, target_phases=40, max_steps=10**6)
for engine in ("gc:mb", "gc:mb+compiled"):
    outcome = get_adapter(engine).run(plan, config)
    assert outcome.ok and outcome.reached and not outcome.violations, outcome
    assert outcome.successful_phases == 40 and outcome.faults_fired == 8, outcome
"""

#: name -> (imports, module-count ceiling, first job or None, banned)
ENTRY_POINTS = {
    "repro.net": (
        "from repro.net import NetConfig, run_sync", 200, TREE_JOB, NET_BANNED
    ),
    "repro.net.shard": ("import repro.net.shard", 185, None, NET_BANNED),
    # Everything a worker process imports, whoever launched it: the
    # bootstrap's framing class and ``repro.net.shard``, the ``NetConfig``
    # its ``ShardSpec`` unpickles to, and what ``_worker_async`` imports.
    "shard worker": (
        "from multiprocessing.connection import Connection\n"
        "import repro.net.shard, repro.net.runtime, repro.obs.recorder",
        206,
        None,
        WORKER_BANNED,
    ),
    "repro.serve": (
        "import repro.serve.daemon, repro.serve.loadgen",
        235,
        SERVE_ROUND,
        BANNED,
    ),
    "repro.serve.cli": ("import repro.serve.cli", 210, None, BANNED),
    "repro.chaos.plan": ("import repro.chaos.plan", 145, None, BANNED),
    "repro.obs": ("from repro.obs import Tracer, summarize", 150, None, BANNED),
    # A gc chaos target: the registry and the plan, then the engine the
    # adapter imports on its first run (named here so the job may load
    # nothing further).  numpy alone would add ~100 modules.
    "gc": (
        "from repro.chaos import CampaignConfig, FaultPlan, get_adapter\n"
        "import repro.chaos.plan, repro.barrier.mb, repro.obs.observer\n"
        "import repro.gc.faults, repro.gc.scheduler, repro.gc.simulator",
        150,
        GC_JOB,
        THIRD_PARTY,
    ),
}

PROBE = """
import json, site, sys

def snapshot():
    return sorted(sys.modules)

{imports}
after_import = snapshot()
{job}
print(json.dumps({{"after_import": after_import, "after_job": snapshot()}}))
"""


def _site_dirs() -> list[str]:
    """Where a normal start-up would find installed packages."""
    dirs = list(site.getsitepackages())
    if site.ENABLE_USER_SITE:
        dirs.append(site.getusersitepackages())
    return dirs


def _probe(
    imports: str, job: str | None = None, path: list[str] | None = None
) -> dict[str, list[str]]:
    """Module names after ``imports`` and after ``job``, in a child started
    bare: ``-S`` runs no ``.pth`` file, ``sitecustomize`` or ``usercustomize``;
    ``path`` goes on ``PYTHONPATH`` after ``src``, before the site dirs."""
    code = PROBE.format(imports=imports, job=textwrap.dedent(job or ""))
    entries = [str(SRC), *(path or ()), *_site_dirs()]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(entries)}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
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
    imports, ceiling, job, banned_here = ENTRY_POINTS[name]
    seen = _probe(imports, job)
    for stage, modules in seen.items():
        for banned in banned_here:
            assert not _loaded(modules, banned), (stage, banned)
        assert len(modules) < ceiling, (stage, len(modules))
    # Not a deferral: the first job found everything it needs loaded.
    gained = set(seen["after_job"]) - set(seen["after_import"])
    assert not sorted(m for m in gained if _is_budgeted(m))


def test_net_job_leaves_the_chaos_adapter_registry_unloaded():
    # A run needs the monitors and the plan, not the 22 engine adapters.
    imports, _ceiling, job, _banned = ENTRY_POINTS["repro.net"]
    assert not _loaded(_probe(imports, job)["after_job"], "repro.chaos.adapters")


def test_positive_control_exponential_schedule_does_load_numpy():
    # The probe can see numpy: the one schedule under ``gc/`` that draws
    # ``exponential`` makes its injector build numpy's generator.
    seen = _probe(
        "from repro.barrier.cb import make_cb\n"
        "from repro.gc.faults import ExponentialSchedule, FaultInjector, FaultSpec",
        "program = make_cb(2, 2)\n"
        "spec = FaultSpec.undetectable_all(program)\n"
        "FaultInjector(program, spec, ExponentialSchedule(0.1), seed=1)",
    )
    assert not _loaded(seen["after_import"], "numpy")
    assert _loaded(seen["after_job"], "numpy")
    # Naming the package alone loads none of it.
    seen = _probe("import repro.gc")
    assert not _loaded(seen["after_import"], "numpy")
    assert "repro.gc.scheduler" not in seen["after_import"]


def test_probe_runs_no_start_up_hook(tmp_path):
    # A hook on the probe's path is the environment's, not the cone's:
    # a normal start-up would import it before the entry point.
    (tmp_path / "sitecustomize.py").write_text("import tempfile\n")
    seen = _probe("import repro.obs", path=[str(tmp_path)])
    assert "sitecustomize" not in seen["after_import"]
    # ``site`` itself is counted, as at a normal start-up.
    assert {"site", "_sitebuiltins"} <= set(seen["after_import"])


def _module_level_imports(tree: ast.Module) -> list[str]:
    """Names imported by statements that run at import time (anything
    outside a function body; ``if TYPE_CHECKING:`` blocks do not run)."""
    found: list[str] = []
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.append(node.module)
        stack.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("package", ["gc", "chaos"])
def test_no_module_level_numpy_under(package):
    # Tier-1 mirror of ruff's TID253 (pyproject.toml), which the build
    # container cannot run.
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path in sorted((SRC / "repro" / package).rglob("*.py"))
        for name in _module_level_imports(ast.parse(path.read_text()))
        if name.split(".")[0] in THIRD_PARTY
    ]
    assert not offenders, offenders


def test_module_level_import_scanner():
    source = textwrap.dedent(
        """
        from typing import TYPE_CHECKING
        import os, numpy.random
        if TYPE_CHECKING:
            import networkx
        try:
            from numpy import array
        except ImportError:
            pass
        class C:
            import json
            def f(self):
                import numpy as np
        """
    )
    assert sorted(_module_level_imports(ast.parse(source))) == [
        "json", "numpy", "numpy.random", "os", "typing",
    ]
