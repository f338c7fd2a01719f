"""Hardened sweep pool: timeouts, retries, crash containment, cache
corruption recovery, and partial-result salvage."""

import json
import logging

import pytest

from repro.experiments.sweep import REASONS, SweepExecutor, SweepPoint, point

TP = "repro.chaos.testpoints"


class TestConstructorContract:
    def test_defaults_are_not_hardened(self):
        ex = SweepExecutor()
        assert not ex.hardened

    def test_timeout_or_retries_harden(self):
        assert SweepExecutor(timeout_s=1.0).hardened
        assert SweepExecutor(retries=1).hardened
        assert SweepExecutor(timeout_s=1.0, retries=2).hardened

    def test_validation(self):
        with pytest.raises(ValueError, match="timeout_s"):
            SweepExecutor(timeout_s=0.0)
        with pytest.raises(ValueError, match="retries"):
            SweepExecutor(retries=-1)
        with pytest.raises(ValueError, match="backoff_s"):
            SweepExecutor(backoff_s=-0.1)


class TestCorruptCache:
    def grid(self):
        return [point(f"{TP}:ok", value=i) for i in range(3)]

    def test_corrupt_entry_is_recomputed_and_overwritten(self, tmp_path, caplog):
        ex = SweepExecutor(cache_dir=tmp_path)
        pts = self.grid()
        ex.run(pts)
        victim = tmp_path / (pts[1].digest() + ".json")
        victim.write_text('{"fn": "truncated...')

        with caplog.at_level(logging.WARNING, logger="repro.experiments.sweep"):
            results = SweepExecutor(cache_dir=tmp_path).run(pts)

        assert [r["value"] for r in results] == [0, 1, 2]
        assert "discarding corrupt sweep cache entry" in caplog.text
        assert str(victim) in caplog.text
        # The bad file was overwritten by the recompute.
        assert json.loads(victim.read_text())["value"]["value"] == 1

    def test_non_dict_entry_is_also_a_miss(self, tmp_path, caplog):
        ex = SweepExecutor(cache_dir=tmp_path)
        (pt,) = pts = [point(f"{TP}:ok", value=7)]
        ex.run(pts)
        (tmp_path / (pt.digest() + ".json")).write_text("[1, 2, 3]")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.sweep"):
            (result,) = SweepExecutor(cache_dir=tmp_path).run(pts)
        assert result["value"] == 7
        assert "discarding corrupt" in caplog.text

    def test_stats_count_recompute_not_hit(self, tmp_path):
        pts = self.grid()
        SweepExecutor(cache_dir=tmp_path).run(pts)
        (tmp_path / (pts[0].digest() + ".json")).write_text("garbage")
        ex = SweepExecutor(cache_dir=tmp_path)
        ex.run(pts)
        assert ex.last_stats["hits"] == 2
        assert ex.last_stats["computed"] == 1


class TestCrashContainment:
    def test_crashed_worker_is_quarantined_and_rest_salvaged(self):
        ex = SweepExecutor(jobs=2, timeout_s=30.0)
        pts = [
            point(f"{TP}:ok", value=1),
            point(f"{TP}:crash"),
            point(f"{TP}:ok", value=3),
        ]
        results = ex.run(pts)
        assert [r and r["value"] for r in results] == [1, None, 3]
        assert ex.failed == [pts[1]]
        (failure,) = ex.failures
        assert failure["index"] == 1
        assert "exit code 13" in failure["error"]
        assert ex.last_stats["failed"] == 1
        assert ex.last_stats["computed"] == 2

    def test_crash_once_succeeds_on_retry(self, tmp_path):
        ex = SweepExecutor(retries=1, backoff_s=0.01)
        marker = tmp_path / "crashed"
        (result,) = ex.run(
            [point(f"{TP}:crash_once", marker=str(marker), value=5)]
        )
        assert result == {"value": 5, "retried": True}
        assert ex.failed == []
        assert ex.last_stats["retried"] == 1

    def test_clean_exception_is_retried_too(self, tmp_path):
        ex = SweepExecutor(retries=1, backoff_s=0.01)
        marker = tmp_path / "failed"
        (result,) = ex.run(
            [point(f"{TP}:fail_once", marker=str(marker), value=9)]
        )
        assert result == {"value": 9, "retried": True}

    def test_exhausted_retries_report_attempt_count(self):
        ex = SweepExecutor(retries=2, backoff_s=0.01)
        (result,) = ex.run([point(f"{TP}:crash")])
        assert result is None
        (failure,) = ex.failures
        assert failure["attempts"] == 3
        assert ex.last_stats["retried"] == 2

    def test_failures_come_back_in_input_order(self):
        ex = SweepExecutor(jobs=4, timeout_s=30.0)
        pts = [
            point(f"{TP}:crash"),
            point(f"{TP}:ok", value=1),
            point(f"{TP}:crash"),
            point(f"{TP}:slow", sleep_s=0.05),
            point(f"{TP}:crash"),
        ]
        ex.run(pts)
        assert [f["index"] for f in ex.failures] == [0, 2, 4]
        assert ex.failed == [pts[0], pts[2], pts[4]]


class TestTimeouts:
    def test_hung_worker_is_terminated_and_reported(self):
        ex = SweepExecutor(jobs=2, timeout_s=0.5)
        pts = [
            point(f"{TP}:ok", value=1),
            point(f"{TP}:hang"),
            point(f"{TP}:ok", value=3),
        ]
        results = ex.run(pts)
        assert [r and r["value"] for r in results] == [1, None, 3]
        (failure,) = ex.failures
        assert "timeout" in failure["error"]

    def test_slow_point_within_deadline_is_fine(self):
        ex = SweepExecutor(timeout_s=10.0)
        (result,) = ex.run([point(f"{TP}:slow", sleep_s=0.05)])
        assert result["value"] == 0
        assert ex.failed == []


class TestHardenedCacheInteraction:
    def test_failed_points_are_not_cached(self, tmp_path):
        pts = [point(f"{TP}:crash")]
        ex = SweepExecutor(cache_dir=tmp_path, timeout_s=5.0)
        ex.run(pts)
        assert ex.failed == pts
        assert not list(tmp_path.glob("*.json"))

    def test_successes_are_cached_and_reloaded(self, tmp_path):
        pts = [point(f"{TP}:ok", value=4)]
        SweepExecutor(cache_dir=tmp_path, timeout_s=5.0).run(pts)
        ex = SweepExecutor(cache_dir=tmp_path, timeout_s=5.0)
        (result,) = ex.run(pts)
        assert result["value"] == 4
        assert ex.last_stats["hits"] == 1

    def test_run_resets_failure_state(self):
        ex = SweepExecutor(timeout_s=5.0)
        ex.run([point(f"{TP}:crash")])
        assert ex.failed
        ex.run([point(f"{TP}:ok", value=1)])
        assert ex.failed == []
        assert ex.failures == []


class TestHardenedDeterminism:
    def test_hardened_results_match_plain_path(self):
        pts = [point(f"{TP}:ok", value=i) for i in range(5)]
        plain = SweepExecutor().run(pts)
        hard = SweepExecutor(jobs=3, timeout_s=30.0, retries=1).run(pts)
        assert [r["value"] for r in plain] == [r["value"] for r in hard]

    def test_sweep_point_digest_ignores_kwarg_order(self):
        a = SweepPoint.make(f"{TP}:ok", value=1)
        b = SweepPoint.make(f"{TP}:ok", **{"value": 1})
        assert a == b and a.digest() == b.digest()


class TestStructuredReasons:
    """Every set-aside is one warning whose ``record.sweep`` carries a
    reason from ``REASONS`` -- the same record ``failures`` holds."""

    def warnings(self, caplog):
        return [r for r in caplog.records if r.name == "repro.experiments.sweep"]

    def test_corrupt_cache_entries_name_file_and_problem(self, tmp_path, caplog):
        pts = [point(f"{TP}:ok", value=i) for i in range(2)]
        SweepExecutor(cache_dir=tmp_path).run(pts)
        paths = [tmp_path / (pt.digest() + ".json") for pt in pts]
        paths[0].write_text('{"fn": "truncated...')
        paths[1].write_text("[1, 2, 3]")
        with caplog.at_level(logging.WARNING, logger="repro.experiments.sweep"):
            SweepExecutor(cache_dir=tmp_path).run(pts)
        first, second = (r.sweep for r in self.warnings(caplog))
        assert first["reason"] == second["reason"] == "corrupt-cache"
        assert [first["path"], second["path"]] == [str(p) for p in paths]
        assert first["error"].startswith("not JSON (")
        assert second["error"] == "not a JSON object"
        for record in self.warnings(caplog):
            assert record.getMessage().endswith("[corrupt-cache]")

    @pytest.mark.parametrize(
        "fn, reason, error",
        [
            ("crash", "crash", "worker died (exit code 13)"),
            ("hang", "timeout", "timeout after 0.5s"),
            ("fail_once", "error", "RuntimeError: transient failure"),
        ],
    )
    def test_given_up_point_warns_with_its_failure_record(
        self, tmp_path, caplog, fn, reason, error
    ):
        kwargs = {"marker": str(tmp_path / "failed")} if fn == "fail_once" else {}
        pts = [point(f"{TP}:ok", value=1), point(f"{TP}:{fn}", **kwargs)]
        ex = SweepExecutor(timeout_s=0.5)
        with caplog.at_level(logging.WARNING, logger="repro.experiments.sweep"):
            ex.run(pts)
        (failure,) = ex.failures
        assert failure["reason"] == reason and reason in REASONS
        assert failure["error"].startswith(error)
        (record,) = self.warnings(caplog)
        assert record.sweep == failure
        assert record.getMessage() == (
            f"sweep point 1 ({TP}:{fn}) gave up after 1 attempt(s): "
            f"{failure['error']} [{reason}]"
        )
