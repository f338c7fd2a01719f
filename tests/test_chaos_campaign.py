"""End-to-end chaos campaigns: tolerant silence, intolerant violations,
deterministic shrinking, and replayable reproducer files."""

import ast
import json
from pathlib import Path

import pytest

from repro.chaos import (
    CampaignConfig,
    FaultPlan,
    Reproducer,
    get_adapter,
    replay_file,
    run_campaign,
    shrink_plan,
    shrink_run,
)
from repro.chaos.campaign import campaign_point
from repro.experiments.cli import main as cli_main


#: target -> (steps, window, supports_undetectable, supports_link,
#: supports_byzantine, supports_permanent), recorded from the class
#: hierarchy the table replaced: what campaign generation reads.
_GC = (True, (1.0, 30.0), True, False, False, False)
_NET = (False, (1.0, 4.0), False, True, False, False)
_NET_ADVERSARIAL = (False, (1.0, 4.0), False, True, True, True)
TARGETS = {
    "des:mb": (False, (0.5, 8.0), False, True, False, False),
    "gc:cb": _GC,
    "gc:cb+byzantine": (True, (1.0, 30.0), True, False, True, False),
    "gc:cb+byzantine+compiled": (True, (1.0, 30.0), True, False, True, False),
    "gc:cb+compiled": _GC,
    "gc:failsafe": (True, (1.0, 30.0), True, False, False, True),
    "gc:failsafe+compiled": (True, (1.0, 30.0), True, False, False, True),
    "gc:intolerant": _GC,
    "gc:mb": _GC,
    "gc:mb+compiled": _GC,
    "gc:rb-ring": _GC,
    "gc:rb-ring+compiled": _GC,
    "gc:rb-tree": _GC,
    "gc:rb-tree+compiled": _GC,
    "net:mb": _NET,
    "net:mb+byzantine": _NET_ADVERSARIAL,
    "net:tree": _NET,
    "net:tree+byzantine": _NET_ADVERSARIAL,
    "net:tree+sharded": _NET,
    "net:tree+undefended": _NET_ADVERSARIAL,
    "protosim:tree": (False, (0.2, 4.0), True, False, False, False),
    "simmpi:barrier": (False, (0.2, 4.0), False, True, False, False),
}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_target_capabilities(name):
    a = get_adapter(name)
    assert a.name == name
    assert (
        a.steps, a.window, a.supports_undetectable, a.supports_link,
        a.supports_byzantine, a.supports_permanent,
    ) == TARGETS[name]


def test_registry_names_and_unknown_target_message():
    from repro.chaos import ADAPTERS

    assert sorted(ADAPTERS) == sorted(TARGETS)
    with pytest.raises(KeyError) as err:
        get_adapter("gc:nope")
    assert err.value.args[0] == (
        f"unknown chaos target 'gc:nope'; known: {sorted(TARGETS)}"
    )


def test_targets_are_rows_of_one_table():
    """The hierarchy-regrowth gate: in ``chaos/adapters.py`` a target is
    a row, not a class, and the gc engine, the net runtime, the monitor
    wiring and the link-fault translation are each entered in exactly
    one place -- two targets cannot drift apart in code that exists
    once."""
    source = Path(__file__).resolve().parent.parent / "src/repro/chaos/adapters.py"
    tree = ast.parse(source.read_text())
    classes = [n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    assert sorted(classes) == ["Adapter", "RunOutcome"]
    calls = [
        n.func.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    ]
    for callee in ("Simulator", "run_sync", "MonitorSet", "LinkFaults"):
        assert calls.count(callee) == 1, (callee, calls.count(callee))


class TestCampaigns:
    def test_tolerant_targets_pass_mixed_campaign(self):
        cfg = CampaignConfig(runs=8, seed=3, detectable=2, undetectable=1)
        report = run_campaign(cfg)
        assert report.ok
        assert report.runs == 8
        assert not report.reproducers
        tally = report.by_target()
        assert set(tally) == set(cfg.targets)
        assert all(row["faults"] > 0 for row in tally.values())

    def test_timed_engines_pass_too(self):
        cfg = CampaignConfig(
            targets=("protosim:tree", "simmpi:barrier", "des:mb"),
            runs=6,
            seed=4,
            detectable=2,
            undetectable=1,
        )
        report = run_campaign(cfg)
        assert report.ok, report.render()

    def test_intolerant_campaign_reports_and_shrinks(self):
        cfg = CampaignConfig(
            targets=("gc:intolerant",),
            runs=2,
            seed=7,
            detectable=6,
            undetectable=2,
        )
        report = run_campaign(cfg)
        assert not report.ok
        assert report.violations
        (reproducer,) = report.reproducers
        assert reproducer.original_count == 8
        # The acceptance bar: minimal reproducer at most 25% of the
        # original schedule.
        assert reproducer.plan.count <= 2
        assert "FAIL" in report.render()

    def test_campaign_is_deterministic(self):
        cfg = CampaignConfig(runs=4, seed=9, detectable=2)
        a = run_campaign(cfg).to_json()
        b = run_campaign(cfg).to_json()
        assert a == b

    def test_campaign_point_is_a_pure_json_function(self):
        cfg = CampaignConfig(runs=1, seed=1, detectable=1)
        plan = FaultPlan.generate(1, cfg.nprocs, detectable=1, steps=True)
        out = campaign_point("gc:cb", plan.to_json(), cfg.to_json())
        assert out == json.loads(json.dumps(out))
        assert out["reached"] is True
        assert out["violations"] == []

    def test_unknown_target_rejected_up_front(self):
        with pytest.raises(KeyError, match="gc:nope"):
            run_campaign(CampaignConfig(targets=("gc:nope",), runs=1))

    def test_report_save_writes_report_and_reproducers(self, tmp_path):
        cfg = CampaignConfig(
            targets=("gc:intolerant",),
            runs=2,
            seed=7,
            detectable=6,
            undetectable=2,
        )
        report = run_campaign(cfg)
        paths = report.save(tmp_path)
        assert (tmp_path / "report.json").exists()
        saved = json.loads((tmp_path / "report.json").read_text())
        assert saved["config"]["seed"] == 7
        repro_paths = [p for p in paths if "repro-" in p.name]
        assert repro_paths
        assert Reproducer.load(repro_paths[0]).target == "gc:intolerant"


class TestShrinking:
    CFG = CampaignConfig()

    def failing_outcome(self, seed=1, events=8):
        adapter = get_adapter("gc:intolerant")
        plan = FaultPlan.generate(seed, 4, detectable=events, steps=True)
        outcome = adapter.run(plan, self.CFG)
        assert outcome.violations
        return plan, outcome

    def test_ddmin_shrinks_to_one_minimal_event(self):
        # A synthetic oracle: the plan fails iff it contains a fault at
        # pid 2; ddmin must isolate exactly that event.
        plan = FaultPlan(
            nprocs=4,
            events=tuple(
                __import__("repro.chaos.plan", fromlist=["FaultEvent"]).FaultEvent(
                    float(t), pid
                )
                for t, pid in [(1, 0), (2, 2), (3, 1), (4, 3), (5, 0), (6, 1)]
            ),
        )
        from repro.chaos import GuaranteeViolation

        reference = GuaranteeViolation("masking", "stalled", "x")

        def oracle(candidate):
            if any(e.pid == 2 for e in candidate.events):
                return [GuaranteeViolation("masking", "stalled", "x")]
            return []

        result = shrink_plan(plan, oracle, reference)
        assert result.shrunk_count == 1
        assert result.plan.events[0].pid == 2
        assert result.reduction == pytest.approx(1 - 1 / 6)

    def test_shrink_is_deterministic_and_replayable(self, tmp_path):
        plan, outcome = self.failing_outcome()
        a = shrink_run("gc:intolerant", plan, self.CFG, outcome.violations[0])
        b = shrink_run("gc:intolerant", plan, self.CFG, outcome.violations[0])
        # Same seed + violation => byte-identical replay file.
        assert a.dumps() == b.dumps()
        path = a.save(tmp_path / "repro.json")
        assert path.read_text() == a.dumps()
        reproducer, replay = replay_file(path)
        assert reproducer.plan == a.plan
        assert any(
            v.guarantee == a.violation.guarantee for v in replay.violations
        )

    def test_shrunk_plan_still_fails_and_is_minimal_enough(self):
        plan, outcome = self.failing_outcome()
        result = shrink_run(
            "gc:intolerant", plan, self.CFG, outcome.violations[0]
        )
        assert result.plan.count <= plan.count // 4
        again = get_adapter("gc:intolerant").run(result.plan, self.CFG)
        assert any(
            v.guarantee == result.violation.guarantee for v in again.violations
        )

    def test_reproducer_file_round_trip_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-repro.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ValueError, match="reproducer"):
            Reproducer.load(path)


class TestChaosCLI:
    def test_chaos_run_passes_on_tolerant_targets(self, capsys):
        rc = cli_main(
            ["chaos", "run", "--runs", "4", "--seed", "3", "--engines",
             "gc:cb,gc:rb-ring"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "RESULT: PASS" in out

    def test_chaos_run_fails_and_saves_on_intolerant(self, tmp_path, capsys):
        rc = cli_main(
            ["chaos", "run", "--runs", "2", "--seed", "7", "--engines",
             "gc:intolerant", "--detectable", "6", "--undetectable", "2",
             "--out", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "RESULT: FAIL" in out
        repro_files = list(tmp_path.glob("repro-*.json"))
        assert repro_files

        rc = cli_main(["chaos", "replay", str(repro_files[0])])
        out = capsys.readouterr().out
        assert rc == 0
        assert "REPRODUCED" in out

    def test_chaos_replay_requires_a_file(self):
        with pytest.raises(SystemExit):
            cli_main(["chaos", "replay"])

    def test_chaos_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "campaign.json"
        cfg_file.write_text(
            json.dumps(
                CampaignConfig(
                    targets=("gc:cb",), runs=8, seed=3, detectable=1
                ).to_json()
            )
        )
        rc = cli_main(
            ["chaos", "run", "--config", str(cfg_file), "--runs", "2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "2 runs" in out


class TestCompiledVariants:
    """The compiled backend's ``gc:*+compiled`` chaos targets."""

    KEYS = ("gc:cb", "gc:rb-ring", "gc:rb-tree", "gc:mb")

    def test_compiled_gc_targets_registered(self):
        from repro.chaos import ADAPTERS

        for key in self.KEYS:
            compiled = ADAPTERS[f"{key}+compiled"]
            assert compiled.steps and compiled.supports_undetectable

    def test_compiled_variant_outcome_matches_interpreter(self):
        cfg = CampaignConfig(runs=1, seed=5, detectable=2, undetectable=1)
        for i, key in enumerate(self.KEYS):
            plan = FaultPlan.generate(
                11 + i, cfg.nprocs, detectable=2, undetectable=1, steps=True
            )
            a = get_adapter(key).run(plan, cfg).to_json()
            b = get_adapter(f"{key}+compiled").run(plan, cfg).to_json()
            a.pop("target"), b.pop("target")
            assert a == b, key

    def test_compiled_campaign_passes(self):
        cfg = CampaignConfig(
            targets=tuple(f"{k}+compiled" for k in self.KEYS),
            runs=4,
            seed=6,
            detectable=2,
            undetectable=1,
        )
        report = run_campaign(cfg)
        assert report.ok, report.render()


@pytest.mark.slow
class TestBigCampaign:
    """The acceptance-scale sweep: >= 200 seeded runs mixing fault
    classes across all four paper engines, zero violations."""

    def test_two_hundred_runs_all_engines_zero_violations(self):
        from repro.experiments.sweep import SweepExecutor

        cfg = CampaignConfig(
            targets=(
                "gc:cb",
                "gc:rb-ring",
                "gc:rb-tree",
                "gc:mb",
                "protosim:tree",
                "simmpi:barrier",
                "des:mb",
            ),
            runs=210,
            seed=11,
            detectable=2,
            undetectable=1,
            shrink=False,
        )
        executor = SweepExecutor(jobs=4, timeout_s=120.0, retries=1)
        report = run_campaign(cfg, executor=executor)
        assert report.ok, report.render()
        assert report.runs == 210
        assert sum(r["faults"] for r in report.by_target().values()) >= 600
