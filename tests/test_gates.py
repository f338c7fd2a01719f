"""The gate tables of the five benchmark suites, checked from JSON alone.

No workload runs here: every case starts from a committed
``BENCH_<suite>.json`` (and ``benchmarks/BASELINE_<suite>.json``) and
edits one number.  Each row of each table must catch its own quantity
crossing its bound -- and only that row -- and each baseline leaf must
catch its own edit.
"""

from __future__ import annotations

import copy

import pytest

from benchmarks import bench_adversarial, bench_net, bench_serve
from repro.obs.regress import SUITE as OBS
from repro.perf import gate
from repro.perf.bench import SUITE as PERF

SUITES = {
    suite.name: suite
    for suite in (
        OBS, PERF, bench_net.SUITE, bench_serve.SUITE, bench_adversarial.SUITE
    )
}
WITH_BASELINE = sorted(n for n, s in SUITES.items() if s.baseline)


def _bench(name: str) -> dict:
    return gate.load_json(gate.REPO / f"BENCH_{name}.json")


def _set(report: dict, path: str, value) -> None:
    """Overwrite the quantity ``path`` names, where the gate finds it."""
    workload, *keys = path.split(".")
    entry = report["workloads"][workload]
    for section in ("ratios", "deterministic", "info"):
        parent = entry.get(section, {})
        for key in keys[:-1]:
            parent = parent.get(key, {})
        if keys[-1] in parent:
            parent[keys[-1]] = value
            return
    raise KeyError(path)


def _past(row: gate.Row):
    """A value on the wrong side of ``row``'s bound."""
    if row.op == ">=":
        return row.bound / 2 - 1
    if row.op == "<=":
        return row.bound * 2 + 1
    return (not row.bound) if isinstance(row.bound, bool) else row.bound + 1


def _edited(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 1.1 + 1
    if isinstance(value, str):
        return value + "x"
    return 0  # None


@pytest.mark.parametrize("name", sorted(SUITES))
def test_committed_report_passes_its_table(name):
    suite = SUITES[name]
    baseline = gate.load_json(suite.baseline_path) if suite.baseline else None
    report = _bench(name)
    assert report["version"] == gate.VERSION and not report["quick"]
    result = gate.compare(report, suite.rows, baseline)
    assert result.ok, result.render()


@pytest.mark.parametrize(
    "name, index",
    [(n, i) for n in sorted(SUITES) for i in range(len(SUITES[n].rows))],
)
def test_a_quantity_past_its_bound_fails_exactly_its_row(name, index):
    suite = SUITES[name]
    row = suite.rows[index]
    report = copy.deepcopy(_bench(name))
    _set(report, row.path, _past(row))
    result = gate.compare(report, suite.rows)
    assert [c.name for c in result.failures] == [row.path], result.render()


def test_row_names_are_unique():
    for suite in SUITES.values():
        paths = [row.path for row in suite.rows]
        assert len(paths) == len(set(paths)), suite.name


def test_a_quantity_missing_from_the_report_fails_its_row():
    report = copy.deepcopy(_bench("net"))
    del report["workloads"]["headline"]["ratios"]["sharded_vs_single_loop"]
    result = gate.compare(report, bench_net.ROWS)
    assert [c.name for c in result.failures] == [
        "headline.sharded_vs_single_loop"
    ]


def test_a_quick_report_is_held_to_the_quick_bound():
    report = copy.deepcopy(_bench("net"))
    _set(report, "headline.sharded_vs_single_loop", 1.0)
    assert not gate.compare(report, bench_net.ROWS).ok
    report["quick"] = True
    assert gate.compare(report, bench_net.ROWS).ok
    _set(report, "headline.sharded_vs_single_loop", 0.5)
    assert not gate.compare(report, bench_net.ROWS).ok


@pytest.mark.parametrize("name", WITH_BASELINE)
def test_an_edited_baseline_value_fails_exactly_its_row(name):
    suite = SUITES[name]
    report = _bench(name)
    baseline = gate.load_json(suite.baseline_path)
    leaves = [
        (workload, key)
        for workload, entry in baseline["workloads"].items()
        for key, _ in gate._leaves(entry["deterministic"])
    ]
    assert leaves
    for workload, key in leaves:
        edited = copy.deepcopy(baseline)
        parent = edited["workloads"][workload]["deterministic"]
        *path, last = key.split(".")
        for part in path:
            parent = parent[part]
        parent[last] = _edited(parent[last])
        result = gate.compare(report, suite.rows, edited)
        assert [c.name for c in result.failures] == [
            f"baseline.{workload}.{key}"
        ], result.render()


@pytest.mark.parametrize("name", WITH_BASELINE)
def test_a_baseline_with_no_equality_rows_fails(name):
    # An empty slice, and a baseline in another layout (the computation
    # suite's old top-level families), both check nothing.
    other_layout = {
        "version": 2,
        "kernel": {"rb8/maxpar": {"deterministic": {"steps": 24000}}},
    }
    for empty in ({"version": gate.VERSION, "workloads": {}}, other_layout):
        result = gate.compare(_bench(name), SUITES[name].rows, empty)
        assert [c.name for c in result.failures] == ["baseline"]


def test_float_baseline_values_match_within_one_percent():
    report = _bench("obs")
    baseline = gate.load_json(OBS.baseline_path)
    det = baseline["workloads"]["fig5"]["deterministic"]
    det["instances_per_phase"] *= 1.005
    assert gate.compare(report, OBS.rows, baseline).ok
    det["instances_per_phase"] *= 1.02
    assert not gate.compare(report, OBS.rows, baseline).ok


def test_non_float_baseline_values_match_exactly():
    report = _bench("obs")
    baseline = gate.load_json(OBS.baseline_path)
    baseline["workloads"]["fig5"]["deterministic"]["events"] += 1
    result = gate.compare(report, OBS.rows, baseline)
    assert [c.name for c in result.failures] == ["baseline.fig5.events"]


def test_baseline_slice_is_the_committed_baseline():
    for name in WITH_BASELINE:
        committed = gate.load_json(SUITES[name].baseline_path)
        assert gate.baseline_slice(_bench(name)) == committed, name


def test_update_baseline_needs_a_baseline(capsys):
    with pytest.raises(SystemExit) as err:
        gate.main(bench_adversarial.SUITE, ["--update-baseline"])
    assert err.value.code == 2
    assert "no baseline" in capsys.readouterr().err
