"""One regression gate for every benchmark suite.

A suite is its workloads plus one table of rows.  ``measure(repeats,
quick)`` returns the suite's workloads, each in one layout::

    {"deterministic": {...},  # pure functions of (config, seed)
     "ratios": {...},         # within-run quantities a row bounds
     "wall": {...},           # clocks: recorded, never gated
     "info": {...}}           # context: sizes, points, counters

and :func:`run` wraps them into the report ``{version, quick,
workloads}``.  A row is a dotted path, an operator and a constant:
``("kernel.rb8.headline_speedup", ">=", 1.5)`` names the workload
``kernel`` and the key ``rb8.headline_speedup`` inside its ``ratios``,
else its ``deterministic`` slice, else its ``info``.  A quantity a row
needs that no workload measures directly (a best-of-daemons speedup, a
tracing off/on wall ratio) is written into ``ratios`` by the suite's
``measure``, so no suite keeps comparison code.

Wall-clock numbers are never compared across machines; the rows bound
within-run ratios only, both sides measured in one process.  What a
suite gates against its committed ``benchmarks/BASELINE_<suite>.json``
is the report's deterministic slice (:func:`baseline_slice`), one rule
for every leaf: floats within ``isclose(rel_tol=1e-2)``, everything
else equal.  A baseline that yields no equality row fails the gate --
a gate that checked nothing must not pass.

Every suite runs one way, ``python benchmarks/bench_<suite>.py
[--quick] [--repeats N] [--out PATH] [--baseline PATH]
[--update-baseline]`` (:func:`main`).
"""

from __future__ import annotations

import argparse
import json
import math
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

REPO = Path(__file__).resolve().parents[3]

#: Report layout version (v3: one layout for every suite).
VERSION = 3

#: Relative tolerance for float baseline values.
REL_TOL = 1e-2

OPS: dict[str, Callable[[Any, Any], bool]] = {
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
}

_MISSING = object()


class Row(NamedTuple):
    """One check: ``path`` ``op`` ``bound``; ``quick`` is the bound a
    ``--quick`` report is held to where the smaller run cannot hold
    ``bound``."""

    path: str
    op: str
    bound: Any
    quick: Any = None


@dataclass(frozen=True)
class Suite:
    """A suite: ``BENCH_<name>.json`` from ``measure``, gated by ``rows``
    and, if ``baseline``, against ``benchmarks/BASELINE_<name>.json``."""

    name: str
    measure: Callable[[int, bool], dict[str, Any]]
    rows: tuple[Row, ...]
    baseline: bool = True

    @property
    def baseline_path(self) -> Path | None:
        if not self.baseline:
            return None
        return REPO / "benchmarks" / f"BASELINE_{self.name}.json"


@dataclass
class GateCheck:
    name: str
    ok: bool
    detail: str


@dataclass
class GateResult:
    """The outcome of one gate run."""

    checks: list[GateCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[GateCheck]:
        return [c for c in self.checks if not c.ok]

    def render(self) -> str:
        lines = [
            f"Regression gate: {len(self.checks)} checks, "
            f"{len(self.failures)} failing"
        ]
        for check in self.checks:
            mark = "ok  " if check.ok else "FAIL"
            lines.append(f"  [{mark}] {check.name}: {check.detail}")
        return "\n".join(lines)


def run(
    suite: Suite, repeats: int = 3, quick: bool = False
) -> dict[str, Any]:
    """Measure ``suite`` into one report."""
    return {
        "version": VERSION,
        "quick": quick,
        "workloads": suite.measure(repeats, quick),
    }


def _dig(tree: Any, keys: list[str]) -> Any:
    for key in keys:
        if not isinstance(tree, dict) or key not in tree:
            return _MISSING
        tree = tree[key]
    return tree


def _lookup(report: dict[str, Any], path: str) -> Any:
    """The value a row's ``path`` names (None when absent)."""
    workload, *keys = path.split(".")
    entry = report.get("workloads", {}).get(workload, {})
    for section in ("ratios", "deterministic", "info"):
        value = _dig(entry.get(section), keys)
        if value is not _MISSING:
            return value
    return None


def _leaves(
    tree: dict[str, Any], prefix: str = ""
) -> Iterator[tuple[str, Any]]:
    for key, value in tree.items():
        if isinstance(value, dict) and value:
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _same(current: Any, base: Any) -> bool:
    if isinstance(base, float) and isinstance(current, (int, float)):
        return math.isclose(current, base, rel_tol=REL_TOL, abs_tol=1e-9)
    return bool(current == base)


def compare(
    report: dict[str, Any],
    rows: tuple[Row, ...],
    baseline: dict[str, Any] | None = None,
) -> GateResult:
    """Hold ``report`` to ``rows`` and, if given, to ``baseline``."""
    checks = []
    for row in rows:
        quick = row.quick is not None and report.get("quick")
        bound = row.quick if quick else row.bound
        value = _lookup(report, row.path)
        ok = value is not None and OPS[row.op](value, bound)
        detail = f"{value!r} {row.op} {bound!r}"
        checks.append(GateCheck(row.path, ok, detail))
    if baseline is not None:
        equal = []
        for workload, entry in baseline.get("workloads", {}).items():
            current = report.get("workloads", {}).get(workload)
            for key, base in _leaves(entry.get("deterministic", {})):
                value = _dig(current, ["deterministic", *key.split(".")])
                value = None if value is _MISSING else value
                equal.append(
                    GateCheck(
                        f"baseline.{workload}.{key}",
                        _same(value, base),
                        f"current={value!r} baseline={base!r}",
                    )
                )
        checks.extend(
            equal or [GateCheck("baseline", False, "no equality rows")]
        )
    return GateResult(checks)


def baseline_slice(report: dict[str, Any]) -> dict[str, Any]:
    """The committed baseline: every workload's deterministic slice."""
    return {
        "version": report["version"],
        "workloads": {
            name: {"deterministic": entry["deterministic"]}
            for name, entry in report["workloads"].items()
            if entry.get("deterministic")
        },
    }


def write_report(report: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_json(path: str | Path) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


def main(suite: Suite, argv: list[str] | None = None) -> int:
    """Measure, write the report, gate it; exit status 0 = gate passed."""
    parser = argparse.ArgumentParser(
        description=f"the {suite.name} benchmark suite and its regression gate"
    )
    parser.add_argument(
        "--out", default=str(REPO / f"BENCH_{suite.name}.json"),
        help="report path",
    )
    parser.add_argument(
        "--baseline", default=suite.baseline_path, help="committed baseline"
    )
    parser.add_argument(
        "--quick", action="store_true", help="the suite's smaller CI variant"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats"
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the baseline's deterministic slice from this run",
    )
    args = parser.parse_args(argv)
    if args.update_baseline and args.baseline is None:
        parser.error(f"the {suite.name} suite has no baseline")

    report = run(suite, args.repeats, args.quick)
    print(f"wrote {write_report(report, args.out)}")
    baseline = None
    if args.update_baseline:
        base = write_report(baseline_slice(report), args.baseline)
        print(f"baseline updated: {base}")
    elif args.baseline is not None:
        if not Path(args.baseline).exists():
            print(f"no baseline at {args.baseline}; "
                  "run --update-baseline first")
            return 1
        baseline = load_json(args.baseline)
    gate = compare(report, suite.rows, baseline)
    print(gate.render())
    return 0 if gate.ok else 1
