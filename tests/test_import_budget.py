"""Import budget: every entry point loads only what it runs.

One fresh interpreter per entry point, asserting on **counts, not
timings**: the heavy third-party packages and the simulation engines
stay out of ``sys.modules``, the module count stays under a recorded
ceiling (the eager ``__init__``s loaded ~700 modules for any of these;
the dependency cones measure 85-195 after import on CPython 3.11.7), so
do the ``repro`` source lines those modules compile (a module count
cannot see one 842-line module), and running a first job afterwards
loads no further ``repro.*``/numpy/networkx module -- nothing was merely
deferred into first use.  See DESIGN.md, "Import layering".

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

#: A clean single-loop run shards nothing and wraps no link.
CLEAN_NET_BANNED = NET_BANNED + ("repro.net.shard", "repro.net.faults")

#: The daemon increments a registry; it folds no trace and reads no
#: exposition text.
SERVE_BANNED = BANNED + (
    "repro.obs.summary", "repro.obs.tracefold", "repro.obs.exposition",
)

#: A shard worker runs one group of nodes; it serves nobody, sweeps
#: nothing and aggregates no metrics.
WORKER_BANNED = THIRD_PARTY + (
    "repro.experiments", "repro.serve", "repro.chaos.adapters",
    "repro.chaos.campaign", "repro.obs.metrics", "repro.obs.tracefold",
    "repro.obs.exposition",
)

#: A 2-barrier 3-node tree job over the memory transport.
TREE_JOB = """
from repro.net.runtime import NetConfig, run_sync
result = run_sync(NetConfig(nodes=3, barriers=2, protocol="tree", transport="mem"))
assert result.ok and result.reached and result.completed == 2, result
"""

#: The same job under a seeded lossy link plan: every port is wrapped.
LOSSY_JOB = """
from repro.chaos.plan import FaultPlan, LinkPlan
plan = FaultPlan(nprocs=3, seed=5, link=LinkPlan(loss=0.2, duplication=0.1))
result = run_sync(NetConfig(nodes=3, barriers=3, transport="mem", plan=plan))
assert result.ok and result.reached and result.link_stats["dropped"] > 0, result
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
#: detectable + 2 undetectable faults) through MB on ``{engine}``.
GC_JOB = """
plan = FaultPlan.generate(
    3, 8, detectable=6, undetectable=2, start=50, stop=800, steps=True
)
config = CampaignConfig(nprocs=8, nphases=4, target_phases=40, max_steps=10**6)
outcome = get_adapter("{engine}").run(plan, config)
assert outcome.ok and outcome.reached and not outcome.violations, outcome
assert outcome.successful_phases == 40 and outcome.faults_fired == 8, outcome
"""

#: A gc chaos target: the registry and the plan, then the engine the
#: adapter imports on its first run (named here so the job may load
#: nothing further).
GC_IMPORTS = (
    "from repro.chaos import CampaignConfig, FaultPlan, get_adapter\n"
    "import repro.chaos.plan, repro.barrier.mb, repro.obs.observer\n"
    "import repro.gc.faults, repro.gc.scheduler, repro.gc.simulator"
)

#: name -> (imports, module-count ceiling, source-line ceiling, first job
#: or None, banned).  A module ceiling is the bare-start count on CPython
#: 3.11.7 plus 11-18 modules: gc 111, gc compiled 112, repro.chaos.plan
#: 85, repro.net 182, repro.net lossy 183, repro.net.shard 167, repro.obs
#: 88, repro.serve 171, repro.serve.cli 149, shard worker 194.  A line
#: ceiling is the ``repro`` source lines those modules hold rounded up to
#: a hundred, plus a hundred: room for ordinary growth, none for a module
#: the size of the ones this budget keeps out (gc 5501, gc compiled 6205,
#: repro.chaos.plan 640, repro.net 4500, repro.net lossy 4724,
#: repro.net.shard 1505, repro.obs 924, repro.serve 3074, repro.serve.cli
#: 384, shard worker 5024).  ``obs/tracer.py`` is in the gc, net, shard
#: worker and obs cones; ``obs/recorder.py`` in the net and shard worker
#: ones.
ENTRY_POINTS = {
    "repro.net": (
        "from repro.net import NetConfig, run_sync",
        198,
        4600,
        TREE_JOB,
        CLEAN_NET_BANNED,
    ),
    # A lossy plan wraps every port in ``FaultyTransport``: the module is
    # named here so the job may load nothing further.
    "repro.net lossy": (
        "from repro.net import NetConfig, run_sync\nimport repro.net.faults",
        199,
        4900,
        LOSSY_JOB,
        NET_BANNED + ("repro.net.shard",),
    ),
    "repro.net.shard": ("import repro.net.shard", 185, 1700, None, NET_BANNED),
    # Everything a worker process imports, whoever launched it: the
    # bootstrap's framing class and ``repro.net.shard``, the ``NetConfig``
    # its ``ShardSpec`` unpickles to, and what ``_worker_async`` imports.
    "shard worker": (
        "from multiprocessing.connection import Connection\n"
        "import repro.net.shard, repro.net.runtime, repro.obs.recorder",
        205,
        5200,
        None,
        WORKER_BANNED,
    ),
    "repro.serve": (
        "import repro.serve.daemon, repro.serve.loadgen",
        188,
        3200,
        SERVE_ROUND,
        SERVE_BANNED,
    ),
    "repro.serve.cli": ("import repro.serve.cli", 165, 500, None, BANNED),
    "repro.chaos.plan": ("import repro.chaos.plan", 100, 800, None, BANNED),
    "repro.obs": ("from repro.obs import Tracer, summarize", 105, 1000, None, BANNED),
    # numpy alone would add ~100 modules.  An interpreter run never loads
    # the compiled backend: it is imported where it is selected.
    "gc": (
        GC_IMPORTS,
        129,
        5600,
        GC_JOB.format(engine="gc:mb"),
        THIRD_PARTY + ("repro.gc.compile",),
    ),
    "gc compiled": (
        GC_IMPORTS + "\nimport repro.gc.compile",
        130,
        6300,
        GC_JOB.format(engine="gc:mb+compiled"),
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


def _source_lines(modules: list[str]) -> int:
    """Lines of ``repro`` source behind ``modules`` -- what a start-up
    without bytecode caches compiles."""
    total = 0
    for module in modules:
        if module.split(".")[0] != "repro":
            continue
        path = SRC.joinpath(*module.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        total += len(path.read_text().splitlines())
    return total


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_point_stays_inside_its_cone(name):
    imports, ceiling, line_ceiling, job, banned_here = ENTRY_POINTS[name]
    seen = _probe(imports, job)
    for stage, modules in seen.items():
        for banned in banned_here:
            assert not _loaded(modules, banned), (stage, banned)
        assert len(modules) < ceiling, (stage, len(modules))
        assert _source_lines(modules) < line_ceiling, (stage, _source_lines(modules))
    # Not a deferral: the first job found everything it needs loaded.
    gained = set(seen["after_job"]) - set(seen["after_import"])
    assert not sorted(m for m in gained if _is_budgeted(m))


def test_net_job_leaves_the_chaos_adapter_registry_unloaded():
    # A run needs the monitors and the plan, not the 22 engine adapters.
    imports, _ceiling, _lines, job, _banned = ENTRY_POINTS["repro.net"]
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
