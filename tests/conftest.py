"""Shared fixtures for the test suite, plus the seed-pinning gate.

Every RNG constructed in test code must be seeded: an unseeded
``np.random.default_rng()`` / ``random.Random()`` or a daemon/injector
built without ``seed=`` makes a failure irreproducible, which the
differential oracle and the conformance matrix cannot afford.
:func:`pytest_sessionstart` scans the test tree with :mod:`ast` and
fails the session if it finds one; append ``# unseeded-ok`` to a line
to claim a deliberate exception.

The same rule covers hypothesis: the ``tier1`` profile loaded here is
derandomized (examples are a function of the test's source, the example
database is not consulted), so the suite passes or fails by commit, not
by checkout.  ``--hypothesis-profile=explore`` draws fresh seeds and
keeps its finds in ``.hypothesis/``; the nightly workflow runs it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from repro.barrier.cb import make_cb
from repro.barrier.mb import make_mb
from repro.barrier.rb import make_rb
from repro.barrier.tokenring import make_token_ring

settings.register_profile("tier1", derandomize=True)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile("tier1")

#: RNG factories: unseeded when called with no arguments (or ``None``).
#: ``default_rng`` is matched by name, so numpy's and ``repro._pcg64``'s
#: are both covered.
_RNG_FACTORIES = {"default_rng", "make_rng", "Random"}

#: Constructors taking a seed: name -> how many positional arguments are
#: needed before the seed slot is covered positionally.
_SEEDED_CTORS = {
    "RandomFairDaemon": 1,
    "MaximalParallelDaemon": 1,
    "ScriptedInjector": 4,
    "PlanInjector": 3,
    "FaultInjector": 5,
}


def _call_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def unseeded_rng_calls(source: str) -> list[tuple[int, str]]:
    """``(lineno, call-name)`` of every unseeded RNG construction."""
    lines = source.splitlines()
    offenders: list[tuple[int, str]] = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name is None:
            continue
        kwargs = {kw.arg for kw in node.keywords}
        if name in _RNG_FACTORIES:
            bad = (
                not node.args
                or (
                    isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None
                )
            ) and not kwargs
        elif name in _SEEDED_CTORS:
            bad = "seed" not in kwargs and len(node.args) < _SEEDED_CTORS[name]
        else:
            continue
        if bad and "unseeded-ok" not in lines[node.lineno - 1]:
            offenders.append((node.lineno, name))
    return offenders


def pytest_sessionstart(session):
    here = Path(__file__).parent
    findings = []
    for path in sorted(here.rglob("*.py")):
        for lineno, name in unseeded_rng_calls(path.read_text()):
            findings.append(f"{path.relative_to(here)}:{lineno}: {name}")
    if findings:
        raise pytest.UsageError(
            "unseeded RNG construction in test code (pin a seed, or mark "
            "the line '# unseeded-ok'):\n  " + "\n  ".join(findings)
        )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fault_schedule():
    """Factory for seeded deterministic fault schedules.

    Returns ``make(seed, count, nprocs, ...)`` producing a sorted list of
    ``(when, pid)`` pairs -- virtual-time instants by default, or integer
    step numbers with ``steps=True`` (for the untimed gc engines).  The
    same ``(seed, count, nprocs)`` triple always yields the same
    schedule, so a failure's parameters fully reproduce it.
    """

    def make(
        seed: int,
        count: int,
        nprocs: int,
        *,
        start: float = 0.5,
        stop: float = 15.0,
        steps: bool = False,
    ):
        rng = np.random.default_rng(seed)
        schedule = []
        for _ in range(count):
            when = rng.uniform(start, stop)
            if steps:
                when = int(when)
            schedule.append((when, int(rng.integers(0, nprocs))))
        return sorted(schedule)

    return make


@pytest.fixture
def cb4():
    """CB with 4 processes, 3 phases."""
    return make_cb(4, 3)


@pytest.fixture
def rb5():
    """RB on a 5-process ring, 3 phases."""
    return make_rb(5, nphases=3)


@pytest.fixture
def mb4():
    """MB on a 4-process ring, 3 phases."""
    return make_mb(4, nphases=3)


@pytest.fixture
def ring5():
    """Standalone 5-process token ring."""
    return make_token_ring(5)
