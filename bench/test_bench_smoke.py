"""Smoke test of the benchmark itself: ``pytest bench/`` (tier-1 collects
``tests/`` only, so this never runs there).  Half-second passes: the
numbers mean nothing, the shape of the output is what is asserted."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: ISSUE 12 fixes the regression bounds; a metric too noisy for its bound
#: is lengthened, redefined or moved to the layer list, never loosened.
ISSUE_BOUNDS = {
    "setup_s": 0.10,
    "round_ms": 0.10,
    "round_p50_ms": 0.10,
    "cpu_ms_per_round": 0.10,
    "peak_rss_mb": 0.05,
}


def bench_run(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout


def check_results(results: dict, declared: list[dict]) -> None:
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for workload, result in results.items():
        assert result["correct"] and result["failed"] == 0, workload
        assert result["attempted"] >= 2, workload
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for spec in declared:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"], (workload, spec["name"])
            assert math.isfinite(metric["value"]), (workload, spec["name"])


def test_spec_matches_code():
    from bench.layers import LAYER_METRICS
    from bench.run import END_TO_END
    from bench.workloads import WORKLOADS

    assert SPEC["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (cls.name, cls.why) for cls in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in LAYER_METRICS
    ]
    for m in SPEC["end_to_end"]:
        assert m["bound"] == ISSUE_BOUNDS[m["name"]], m["name"]
    # Every metric the issue names as end-to-end is reported in one pass
    # or the other.
    named = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert named >= set(ISSUE_BOUNDS) | {"fail_ratio"}


def test_end_to_end_pass_over_all_workloads():
    code, out = bench_run("--duration", "0.5", "--seed", "7")
    assert code == 0, out
    results = json.loads(out.strip().splitlines()[-1])
    check_results(results, SPEC["end_to_end"])
    for workload, result in results.items():
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_traced_pass_writes_every_layer_metric():
    code, out = bench_run("--duration", "0.5", "--seed", "7", "--trace")
    assert code == 0, out
    results = json.loads(out.strip().splitlines()[-1])
    check_results(results, SPEC["per_layer"])
    value = lambda w, m: results[w]["metrics"][m]["value"]  # noqa: E731
    for workload in results:
        assert value(workload, "fail_ratio") == 0
        for name in ("round_ms", "round_p50_ms", "cpu_ms_per_round"):
            assert value(workload, name) > 0, (workload, name)
    # Each layer works where the interaction table says it does ...
    assert value("gc_mb_faulty", "gc.scheduler.steps_per_round") > 0
    assert value("gc_mb_faulty", "gc.compile.step_us") > 0
    assert value("net_tree_clean", "net.frames.decode_us") > 0
    assert value("net_tree_faulty", "net.faults.dropped_per_round") > 0
    assert value("net_sharded", "net.shard.spawn_teardown_ms") > 0
    assert value("serve_steady", "serve.groups.dispatch_us") > 0
    # ... and idles where it says it should.
    assert value("net_tree_clean", "net.faults.decide_us") == 0
    assert value("serve_steady", "obs.tracer.events_per_round") == 0
    for workload in results:
        assert 0 <= value(workload, "unattributed_share") <= 1
        trace = json.loads((ROOT / "bench/out" / f"trace_{workload}.json").read_text())
        assert trace["fields"] == ["id", "name", "start", "end", "parent", "unit"]


def test_broken_verify_fails_the_command():
    code, out = bench_run(
        "--workload", "gc_mb_faulty", "--duration", "0.5", "--expect-digest", "0" * 64
    )
    assert code != 0
    result = json.loads(out.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out")
    )
    code, out = bench_run("--workload", "gc_mb_faulty", "--seconds", "1", cwd=tmp_path)
    assert code != 0
    assert "{" not in out
