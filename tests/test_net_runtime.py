"""End-to-end runs of the asyncio runtime: protocols, faults, replay
digests, chaos-target integration, and the ``net run`` CLI."""

from __future__ import annotations

import ast
import gc
import json
from pathlib import Path

import pytest

from repro.chaos import CampaignConfig, get_adapter, run_campaign
from repro.chaos.plan import FaultEvent, FaultPlan, LinkPlan, PartitionWindow
from repro.experiments.cli import main as cli_main
from repro.net import NetConfig, run_sync

ACCEPTANCE_PLAN = FaultPlan(
    nprocs=5,
    events=(FaultEvent(pid=2, when=3.0), FaultEvent(pid=4, when=7.0)),
    seed=42,
    link=LinkPlan(loss=0.15, duplication=0.1, reorder=0.1),
    partitions=(PartitionWindow(start=0.4, stop=0.9, groups=((0, 1, 2), (3, 4))),),
)


NET_SRC = Path(__file__).resolve().parent.parent / "src" / "repro" / "net"


def _dotted(node: ast.AST) -> str:
    """``a.b.c`` for a Name/Attribute chain, else ``""``."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def test_one_run_pipeline():
    """The fork-regrowth gate: under ``src/repro/net`` nodes are built,
    gathered under the deadline and wrapped for link faults in exactly
    one place, a ``NetResult`` is constructed in exactly one place, and
    ``shard.py`` holds none of the post-run machinery -- single-loop and
    sharded runs cannot drift apart in code that exists once."""
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(NET_SRC.glob("*.py"))}
    calls: dict[str, list[str]] = {}
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            # Names bound to the node builder in this function.
            builders = {
                n.targets[0].id
                for n in ast.walk(func)
                if isinstance(n, ast.Assign)
                and isinstance(n.value, ast.Call)
                and _dotted(n.value.func) == "_node_builder"
                and isinstance(n.targets[0], ast.Name)
            }
            for n in ast.walk(func):
                if not isinstance(n, ast.Call):
                    continue
                callee = _dotted(n.func)
                if callee in builders:
                    callee = "<node builder>"
                elif callee == "asyncio.gather" and any(
                    k.arg == "return_exceptions" for k in n.keywords
                ):
                    continue  # teardown of reader tasks, not a run of node mains
                calls.setdefault(callee, []).append(f"{name}:{func.name}")
    for callee in ("NetResult", "asyncio.gather", "<node builder>", "FaultyTransport"):
        assert len(calls.get(callee, [])) == 1, (callee, calls.get(callee))
    assert calls["NetResult"] == ["runtime.py:_assemble"]
    assert calls["asyncio.gather"] == calls["<node builder>"] == ["runtime.py:_run_group"]

    shard = trees["shard.py"]
    imported = {
        alias.name
        for n in ast.walk(shard)
        if isinstance(n, ast.ImportFrom)
        for alias in n.names
    }
    assert not imported & {
        "merge_traces", "check_merged", "digest_of_rows", "FaultPlan", "Tracer",
        "FAULT", "PHASE_END",
    }
    (port,) = [
        n for n in shard.body if isinstance(n, ast.ClassDef) and n.name == "ShardTransport"
    ]
    assert [n.name for n in port.body if not isinstance(n, ast.Expr)] == ["send"]


def test_clean_tree_run_mem():
    result = run_sync(NetConfig(nodes=5, barriers=5, timeout_s=30.0))
    assert result.ok
    assert result.completed == 5
    assert result.faults_fired == 0
    assert result.successful_phases == 5
    # Monotone Lamport order: the merged trace is sorted.
    times = [e.time for e in result.merged_events]
    assert times == sorted(times)


def frame_totals(result) -> dict[str, int]:
    """Protocol frames (heartbeats excluded) and resends, over all nodes."""
    stats = result.node_stats.values()
    return {
        "frames": sum(s["sent"] - s["hb_sent"] for s in stats),
        "resends": sum(s["resends"] for s in stats),
    }


@pytest.mark.parametrize("nodes,barriers", [(3, 100), (5, 200), (8, 40)])
def test_clean_tree_round_costs_exactly_three_frames_per_edge(nodes, barriers):
    """A fault-free round is one arrive, one release and one rack per
    tree edge, and a sender retires with its round: no resend, ever."""
    # Collect now so no full collection lands inside the run: a gen-2
    # pass over the whole suite's heap (~100 ms) outlasts the 40 ms
    # resend timer and shows up as honest resends.
    gc.collect()
    result = run_sync(
        NetConfig(
            nodes=nodes,
            barriers=barriers,
            protocol="tree",
            transport="mem",
            seed=3,
            timeout_s=10.0,
        )
    )
    assert result.ok and result.reached
    assert frame_totals(result) == {
        "frames": 3 * (nodes - 1) * barriers,
        "resends": 0,
    }


def test_acceptance_seeded_drop_partition_replays_identically():
    """The PR's acceptance criterion: a 5-node 20-barrier run under a
    seeded drop+partition plan completes with zero monitor violations,
    and the same seed replays to an identical merged-trace digest."""
    digests = []
    for _ in range(2):
        result = run_sync(
            NetConfig(
                nodes=5,
                barriers=20,
                protocol="tree",
                transport="mem",
                seed=42,
                plan=ACCEPTANCE_PLAN,
                timeout_s=45.0,
            )
        )
        assert result.reached
        assert result.violations == []
        assert result.faults_fired == 2
        assert result.link_stats["dropped"] > 0
        assert result.link_stats["partitioned"] > 0
        digests.append(result.digest)
    assert digests[0] == digests[1]


def test_tree_run_tcp_smoke():
    plan = FaultPlan(
        nprocs=3, events=(FaultEvent(pid=1, when=2.0),), seed=7,
        link=LinkPlan(loss=0.05),
    )
    result = run_sync(
        NetConfig(
            nodes=3, barriers=8, transport="tcp", seed=7, plan=plan,
            timeout_s=45.0,
        )
    )
    assert result.ok
    assert result.faults_fired == 1


def test_mb_ring_with_crashes():
    plan = FaultPlan(
        nprocs=4,
        events=(FaultEvent(pid=2, when=1.0), FaultEvent(pid=0, when=3.0)),
        seed=9,
    )
    result = run_sync(
        NetConfig(
            nodes=4, barriers=6, protocol="mb", seed=9, plan=plan,
            timeout_s=45.0,
        )
    )
    assert result.ok
    assert result.faults_fired == 2
    # The restarted ranks announced themselves: detects were traced.
    kinds = {e.kind for e in result.merged_events}
    assert "fault" in kinds and "recovery" in kinds


def test_trace_dir_dump(tmp_path):
    out = tmp_path / "traces"
    result = run_sync(
        NetConfig(nodes=3, barriers=3, timeout_s=30.0, trace_dir=str(out))
    )
    assert result.ok
    names = sorted(p.name for p in out.iterdir())
    assert names == ["merged.jsonl", "trace-0.jsonl", "trace-1.jsonl", "trace-2.jsonl"]
    merged = (out / "merged.jsonl").read_text().strip().splitlines()
    assert len(merged) == len(result.merged_events)
    # Asked for files, the run keeps and writes its message chatter too.
    rows = [json.loads(line) for line in (out / "trace-0.jsonl").open()]
    assert any(row["kind"] == "msg_send" for row in rows)


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(nodes=1)
    with pytest.raises(ValueError):
        NetConfig(protocol="ring")
    with pytest.raises(ValueError):
        NetConfig(transport="udp")
    with pytest.raises(ValueError):
        NetConfig(nodes=4, plan=FaultPlan(nprocs=5))


# ----------------------------------------------------------------------
# Chaos-target integration
# ----------------------------------------------------------------------
def test_net_adapters_registered():
    for name in ("net:tree", "net:mb"):
        adapter = get_adapter(name)
        assert adapter.supports_link
        assert not adapter.supports_undetectable


def test_net_tree_adapter_run():
    adapter = get_adapter("net:tree")
    cfg = CampaignConfig(
        targets=("net:tree",), runs=1, nprocs=4, target_phases=3,
        detectable=1, shrink=False,
    )
    plan = FaultPlan(nprocs=4, events=(FaultEvent(pid=3, when=1.0),), seed=3)
    outcome = adapter.run(plan, cfg)
    assert outcome.ok
    assert outcome.reached
    assert outcome.faults_fired == 1


def test_campaign_over_net_targets():
    report = run_campaign(
        CampaignConfig(
            targets=("net:tree", "net:mb"), runs=2, seed=11, nprocs=4,
            target_phases=3, detectable=1, shrink=False,
        )
    )
    assert report.ok
    targets = {o["target"] for o in report.outcomes if o}
    assert targets == {"net:tree", "net:mb"}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_net_run(capsys):
    rc = cli_main(
        [
            "net", "run", "--nodes", "4", "--barriers", "6",
            "--drop", "0.1", "--crash", "1:2", "--seed", "13",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "RESULT: PASS" in out
    assert "digest=" in out


def test_cli_net_run_plan_file_and_trace_dir(tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(ACCEPTANCE_PLAN.to_json()))
    trace_dir = tmp_path / "traces"
    rc = cli_main(
        [
            "net", "run", "--nodes", "5", "--barriers", "6",
            "--plan", str(plan_file), "--trace-dir", str(trace_dir),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in out
    assert (trace_dir / "merged.jsonl").exists()


def test_cli_net_partition_spec(capsys):
    rc = cli_main(
        [
            "net", "run", "--nodes", "4", "--barriers", "6",
            "--partition", "0.1:0.3:0,1|2,3", "--seed", "5",
        ]
    )
    assert rc == 0
    assert "partitioned" in capsys.readouterr().out


def test_cli_net_bad_partition_spec():
    with pytest.raises(SystemExit):
        cli_main(["net", "run", "--partition", "nonsense"])
    with pytest.raises(SystemExit):
        cli_main(["net", "replay"])
