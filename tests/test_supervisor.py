"""Supervised execution: heartbeats, retry policy, effects, supervisor.

The forked-child tests use trivial targets (closures over
``AttemptContext``), so each test costs a fork + a few milliseconds of
child work; the heavier bitwise-equivalence runs live in
``test_kill_storm.py``.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.analysis import lump_and_solve
from repro.robust import budgets, faults, heartbeat
from repro.robust.budgets import Budget, BudgetExceeded
from repro.robust.checkpoint import MANIFEST_NAME, Checkpointer
from repro.robust.faults import FaultInjector, FaultRule
from repro.robust.report import ProcessAttemptReport, RunReport
from repro.robust.retry import (
    DEFAULT_LADDER,
    DegradationLevel,
    RetryPolicy,
    level_for_failures,
    scale_budget,
)
from repro.robust.supervisor import (
    CrashLoopError,
    SupervisorConfig,
    run_supervised,
)

#: No-backoff policy so restart tests do not sleep.
FAST = RetryPolicy(backoff_initial_seconds=0.0)


def fast_config(**kwargs):
    kwargs.setdefault("policy", FAST)
    return SupervisorConfig(**kwargs)


# ----------------------------------------------------------------------
# heartbeat
# ----------------------------------------------------------------------


class TestHeartbeat:
    def test_beat_writes_and_monitor_reads(self, tmp_path):
        path = str(tmp_path / "hb")
        hb = heartbeat.Heartbeat(path, min_interval_seconds=0.0)
        assert hb.beat() is True
        monitor = heartbeat.HeartbeatMonitor(path)
        age = monitor.age_seconds()
        assert age is not None and 0.0 <= age < 5.0

    def test_rate_limited_unless_forced(self, tmp_path):
        hb = heartbeat.Heartbeat(
            str(tmp_path / "hb"), min_interval_seconds=60.0
        )
        assert hb.beat() is True
        assert hb.beat() is False  # within the interval: skipped
        assert hb.beat(force=True) is True
        assert hb.beats_written == 2

    def test_monitor_handles_missing_and_garbage(self, tmp_path):
        monitor = heartbeat.HeartbeatMonitor(str(tmp_path / "nope"))
        assert monitor.last_beat() is None
        assert monitor.age_seconds() is None
        bad = tmp_path / "bad"
        bad.write_text("not a float\n")
        assert heartbeat.HeartbeatMonitor(str(bad)).last_beat() is None

    def test_negative_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            heartbeat.Heartbeat(str(tmp_path / "hb"), min_interval_seconds=-1)

    def test_budget_sites_pulse_installed_heartbeat(self, tmp_path):
        """Budget hooks beat even with no budget active (the fast path)."""
        try:
            hb = heartbeat.install(
                str(tmp_path / "hb"), min_interval_seconds=0.0
            )
            assert heartbeat.installed() is hb
            budgets.check_time()
            budgets.charge_iterations(5)
            budgets.check_states(7)
            assert hb.beats_written >= 3
        finally:
            heartbeat.uninstall()
        before = hb.beats_written
        budgets.check_time()
        assert hb.beats_written == before  # pulse removed
        assert heartbeat.installed() is None
        assert heartbeat.beat() is False  # module-level no-op


# ----------------------------------------------------------------------
# retry policy + degradation ladder
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        a = RetryPolicy(seed=3)
        b = RetryPolicy(seed=3)
        delays = [a.backoff_seconds(i) for i in range(6)]
        assert delays == [b.backoff_seconds(i) for i in range(6)]
        assert RetryPolicy(seed=4).backoff_seconds(2) != delays[2]

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(
            backoff_initial_seconds=1.0,
            backoff_factor=2.0,
            backoff_max_seconds=5.0,
            jitter_fraction=0.0,
        )
        assert [policy.backoff_seconds(i) for i in range(4)] == [
            1.0,
            2.0,
            4.0,
            5.0,  # capped
        ]

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(
            backoff_initial_seconds=1.0, jitter_fraction=0.1
        )
        delay = policy.backoff_seconds(0)
        assert 0.9 <= delay <= 1.1 and delay != 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_restarts=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter_fraction=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().backoff_seconds(-1)


class TestDegradationLadder:
    def test_saturates_at_last_rung(self):
        assert level_for_failures(0) is DEFAULT_LADDER[0]
        assert level_for_failures(2) is DEFAULT_LADDER[2]
        assert level_for_failures(99) is DEFAULT_LADDER[-1]
        with pytest.raises(ValueError):
            level_for_failures(-1)
        with pytest.raises(ValueError):
            level_for_failures(0, ladder=())

    def test_ladder_monotonically_degrades(self):
        # Lumping degradation and solver weakening never revert as the
        # rung index climbs.
        degrade_flags = [lvl.lumping_degrade for lvl in DEFAULT_LADDER]
        assert degrade_flags == sorted(degrade_flags)
        assert DEFAULT_LADDER[-1].budget_scale < 1.0

    def test_level_validation(self):
        with pytest.raises(ValueError):
            DegradationLevel(name="x", checkpoint_interval=0)
        with pytest.raises(ValueError):
            DegradationLevel(name="x", budget_scale=0.0)

    def test_scale_budget_fresh_and_none(self):
        budget = Budget(
            wall_clock_seconds=10.0, max_iterations=100, max_states=9
        )
        scaled = scale_budget(budget, 0.5)
        assert scaled is not budget
        assert scaled.wall_clock_seconds == 5.0
        assert scaled.max_iterations == 50
        assert scaled.max_states == 4
        assert scale_budget(None, 0.5) is None
        unlimited = scale_budget(Budget(), 0.5)
        assert unlimited.wall_clock_seconds is None
        with pytest.raises(ValueError):
            scale_budget(budget, 0.0)

    def test_scale_budget_floors_at_one(self):
        scaled = scale_budget(Budget(max_iterations=1), 0.5)
        assert scaled.max_iterations == 1


# ----------------------------------------------------------------------
# fault grammar: process-level effects
# ----------------------------------------------------------------------


class TestFaultEffects:
    def test_effect_grammar_parses(self):
        injector = FaultInjector.from_spec(
            "budget:40@sigkill,solver.direct@oom,lumping.level:2@hang:3.5"
        )
        by_site = {rule.site: rule for rule in injector.rules}
        assert by_site["budget"].effect == "sigkill"
        assert by_site["budget"].fail_on == frozenset({40})
        assert by_site["solver.direct"].effect == "oom"
        assert by_site["lumping.level"].effect == "hang"
        assert by_site["lumping.level"].hang_seconds == 3.5

    def test_bad_effect_names_token_and_grammar(self):
        with pytest.raises(ValueError) as err:
            FaultInjector.from_spec("budget:1@explode")
        message = str(err.value)
        assert "explode" in message
        assert "grammar" in message

    def test_hang_needs_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultInjector.from_spec("budget@hang")
        with pytest.raises(ValueError):
            FaultInjector.from_spec("budget@hang:0")
        with pytest.raises(ValueError):
            FaultInjector.from_spec("budget@hang:soon")

    def test_hang_effect_stalls_then_proceeds(self):
        rule = FaultRule("x", effect="hang", hang_seconds=0.05)
        injector = FaultInjector([rule])
        start = time.monotonic()
        with injector:
            faults.check("x")  # stalls, then returns
        assert time.monotonic() - start >= 0.05
        assert injector.fired == [("x", 1)]

    def test_oom_effect_raises_memory_error(self):
        injector = FaultInjector([FaultRule("x", effect="oom")])
        with injector, pytest.raises(MemoryError, match="injected oom"):
            faults.check("x")

    def test_one_shot_is_explicit_calls_only(self):
        assert FaultRule("x", fail_on=frozenset({3})).one_shot
        assert not FaultRule("x", after=3).one_shot
        assert not FaultRule("x").one_shot

    def test_identity_is_deterministic(self):
        a = FaultRule("x", fail_on=frozenset({2, 1}), effect="sigkill")
        b = FaultRule("x", fail_on=frozenset({1, 2}), effect="sigkill")
        assert a.identity() == b.identity()
        assert "sigkill" in a.identity()

    def test_fired_log_suppresses_replay_of_one_shot_rules(self, tmp_path):
        log = str(tmp_path / "fired.log")
        rule = FaultRule("x", fail_on=frozenset({1}))
        try:
            faults.set_fired_log(log)
            with FaultInjector([rule]), pytest.raises(faults.InjectedFault):
                faults.check("x")
            # A "restarted" injector replays call 1: the log skips it.
            replay = FaultInjector([rule])
            with replay:
                faults.check("x")
            assert replay.fired == []
        finally:
            faults.set_fired_log(None)
        assert os.path.exists(log)

    def test_fired_log_leaves_stays_dead_rules_alone(self, tmp_path):
        rule = FaultRule("x", after=1)  # open-ended: stays dead
        try:
            faults.set_fired_log(str(tmp_path / "fired.log"))
            for _ in range(2):
                with FaultInjector([rule]), pytest.raises(
                    faults.InjectedFault
                ):
                    faults.check("x")
        finally:
            faults.set_fired_log(None)


# ----------------------------------------------------------------------
# run_supervised
# ----------------------------------------------------------------------


class TestRunSupervised:
    def test_success_first_attempt(self, tmp_path):
        def target(ctx):
            return {"value": 41 + ctx.attempt_index + 1 - 1}

        supervised = run_supervised(
            target,
            checkpoint_dir=str(tmp_path),
            config=fast_config(),
        )
        assert supervised.result == {"value": 41}
        [attempt] = supervised.attempts
        assert attempt.exit_reason == "ok"
        assert attempt.exit_code == 0
        assert attempt.degradation == "baseline"
        assert attempt.max_rss_bytes is not None
        assert supervised.report.process_attempts == supervised.attempts

    def test_crash_restarts_and_climbs_ladder(self, tmp_path):
        def target(ctx):
            if ctx.attempt_index < 2:
                raise RuntimeError(f"boom {ctx.attempt_index}")
            return ctx.degradation.name

        supervised = run_supervised(
            target, checkpoint_dir=str(tmp_path), config=fast_config()
        )
        reasons = [a.exit_reason for a in supervised.attempts]
        assert reasons == ["error", "error", "ok"]
        assert [a.degradation_index for a in supervised.attempts] == [0, 1, 2]
        assert supervised.result == DEFAULT_LADDER[2].name
        assert "boom 0" in supervised.attempts[0].error

    def test_sigkill_classified_as_signal(self, tmp_path):
        def target(ctx):
            if ctx.attempt_index == 0:
                os.kill(os.getpid(), signal.SIGKILL)
            return "survived"

        supervised = run_supervised(
            target, checkpoint_dir=str(tmp_path), config=fast_config()
        )
        first, second = supervised.attempts
        assert first.exit_reason == "signal"
        assert first.signal == signal.SIGKILL
        assert second.exit_reason == "ok"
        assert supervised.result == "survived"

    def test_stale_heartbeat_killed_as_hung(self, tmp_path):
        def target(ctx):
            if ctx.attempt_index == 0:
                time.sleep(30)  # never beats: the watchdog must act
            return "awake"

        supervised = run_supervised(
            target,
            checkpoint_dir=str(tmp_path),
            config=fast_config(heartbeat_timeout_seconds=0.4),
        )
        first, second = supervised.attempts
        assert first.exit_reason == "hung"
        assert first.signal == signal.SIGKILL
        assert first.seconds < 10.0  # killed, not slept out
        assert supervised.result == "awake"

    def test_memory_error_classified_as_oom(self, tmp_path):
        def target(ctx):
            if ctx.attempt_index == 0:
                raise MemoryError("synthetic blowup")
            return "fits"

        supervised = run_supervised(
            target, checkpoint_dir=str(tmp_path), config=fast_config()
        )
        assert supervised.attempts[0].exit_reason == "oom"
        assert "synthetic blowup" in supervised.attempts[0].error
        assert supervised.result == "fits"

    def test_budget_exhaustion_is_terminal(self, tmp_path):
        report = RunReport()

        def target(ctx):
            raise BudgetExceeded("spent")

        with pytest.raises(BudgetExceeded, match="spent"):
            run_supervised(
                target,
                checkpoint_dir=str(tmp_path),
                config=fast_config(),
                report=report,
            )
        [attempt] = report.process_attempts
        assert attempt.exit_reason == "budget"
        assert attempt.index == 0  # no retries after a budget stop

    def test_crash_loop_breaker_with_diagnosis(self, tmp_path):
        def target(ctx):
            raise RuntimeError("stays dead")

        config = fast_config(policy=RetryPolicy(max_restarts=2, backoff_initial_seconds=0.0))
        with pytest.raises(CrashLoopError) as err:
            run_supervised(
                target, checkpoint_dir=str(tmp_path), config=config
            )
        exc = err.value
        assert len(exc.report.process_attempts) == 3
        diagnosis = exc.diagnosis
        json.dumps(diagnosis)  # must be JSON-serializable
        assert diagnosis["attempts"] == 3
        assert diagnosis["max_restarts"] == 2
        assert diagnosis["exit_reasons"] == {"error": 3}
        assert "stays dead" in diagnosis["last_error"]
        assert diagnosis["final_degradation"] == DEFAULT_LADDER[2].name
        assert diagnosis["checkpoint_dir"] == str(tmp_path)
        assert diagnosis["suggestion"]

    def test_rlimits_applied_in_child(self, tmp_path):
        limit = 1 << 34  # 16 GiB: generous, so nothing actually dies

        def target(ctx):
            import resource

            return resource.getrlimit(resource.RLIMIT_AS)[0]

        supervised = run_supervised(
            target,
            checkpoint_dir=str(tmp_path),
            config=fast_config(mem_limit_bytes=limit),
        )
        assert supervised.result == limit

    def test_child_report_merged_into_parent(self, tmp_path):
        def target(ctx):
            ctx.report.note(f"child note {ctx.attempt_index}")
            if ctx.attempt_index == 0:
                raise RuntimeError("first attempt dies")
            return "done"

        report = RunReport()
        supervised = run_supervised(
            target,
            checkpoint_dir=str(tmp_path),
            config=fast_config(),
            report=report,
        )
        assert supervised.report is report
        assert "child note 0" in report.notes
        assert "child note 1" in report.notes
        rendered = report.render()
        assert "process attempt" in rendered

    def test_resumed_from_points_at_manifest(self, tmp_path):
        manifest = tmp_path / MANIFEST_NAME
        manifest.write_text("{}")

        def target(ctx):
            return ctx.resume

        supervised = run_supervised(
            target,
            checkpoint_dir=str(tmp_path),
            config=fast_config(),
            resume=True,
        )
        assert supervised.result is True
        assert supervised.attempts[0].resumed_from == str(manifest)

    def test_budget_scaled_per_rung(self, tmp_path):
        # Drive to the last rung (budget_scale=0.5) and report the limit
        # the attempt actually saw.
        rungs = len(DEFAULT_LADDER)

        def target(ctx):
            if ctx.attempt_index < rungs - 1:
                raise RuntimeError("climb")
            return ctx.budget.max_iterations

        config = fast_config(
            policy=RetryPolicy(
                max_restarts=rungs, backoff_initial_seconds=0.0
            )
        )
        supervised = run_supervised(
            target,
            checkpoint_dir=str(tmp_path),
            config=config,
            budget=Budget(max_iterations=1000),
        )
        assert supervised.result == 500  # 1000 * final rung's 0.5

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(heartbeat_timeout_seconds=0)
        with pytest.raises(ValueError):
            SupervisorConfig(mem_limit_bytes=0)

    def test_interrupted_run_stops_and_reaps_the_child(self, tmp_path):
        """An exception in the parent mid-attempt (here a
        KeyboardInterrupt from a timer) must not leave the child running
        on into a checkpoint directory the caller may resume from, nor
        leave it behind as a zombie."""
        pid_file = tmp_path / "child.pid"

        def target(ctx):
            pid_file.write_text(str(os.getpid()))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                budgets.check_time()  # keeps the heartbeat going
                time.sleep(0.01)
            return "finished"

        def interrupt(_signum, _frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.8)
        try:
            with pytest.raises(KeyboardInterrupt):
                run_supervised(
                    target,
                    checkpoint_dir=str(tmp_path / "ck"),
                    config=fast_config(),
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        pid = int(pid_file.read_text())
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


# ----------------------------------------------------------------------
# checkpoint GC (keep_last)
# ----------------------------------------------------------------------


class TestCheckpointGC:
    def test_keep_last_prunes_old_sequence_members(self, tmp_path):
        ck = Checkpointer(str(tmp_path), keep_last=2)
        for seq in range(6):
            ck.save(f"solve#{seq}", {"seq": seq})
        names = sorted(
            p.name
            for p in tmp_path.iterdir()
            # Skip the manifest and the ``.lock`` advisory-lock file:
            # only snapshot files are subject to GC.
            if p.name != MANIFEST_NAME and not p.name.startswith(".")
        )
        assert names == ["solve#4.json", "solve#5.json"]
        assert ck.pruned_count == 4
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert sorted(manifest["files"]) == names

    def test_pruned_snapshots_survive_resume_window(self, tmp_path):
        ck = Checkpointer(str(tmp_path), keep_last=3)
        for seq in range(5):
            ck.save(f"refine#{seq}", {"seq": seq})
        resumed = Checkpointer(str(tmp_path), resume=True, keep_last=3)
        assert resumed.load("refine#4")["payload"] == {"seq": 4}
        assert resumed.load("refine#1") is None  # pruned

    def test_unsequenced_keys_are_never_pruned(self, tmp_path):
        ck = Checkpointer(str(tmp_path), keep_last=1)
        ck.save("meta", {"a": 1})
        ck.save("solve#0", {"seq": 0})
        ck.save("solve#1", {"seq": 1})
        assert (tmp_path / "meta.json").exists()
        assert ck.pruned_count == 1

    def test_scopes_are_independent(self, tmp_path):
        ck = Checkpointer(str(tmp_path), keep_last=1)
        ck.save("reach#0", {"seq": 0})
        ck.save("solve#0", {"seq": 0})
        ck.save("solve#1", {"seq": 1})
        # solve#0 pruned; the reach scope is untouched.
        assert (tmp_path / "reach#0.json").exists()
        assert not (tmp_path / "solve#0.json").exists()

    def test_keep_last_validation_and_reporting(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(str(tmp_path), keep_last=0)
        report = RunReport()
        ck = Checkpointer(str(tmp_path), keep_last=1, report=report)
        ck.save("s#0", {})
        ck.save("s#1", {})
        assert any("pruned" in note for note in report.notes)


# ----------------------------------------------------------------------
# RunReport aggregation across restarts
# ----------------------------------------------------------------------


class TestReportAggregation:
    def _attempt(self, index, reason="ok"):
        return ProcessAttemptReport(
            index=index,
            exit_reason=reason,
            seconds=0.5 * (index + 1),
            degradation_index=index,
            degradation=DEFAULT_LADDER[
                min(index, len(DEFAULT_LADDER) - 1)
            ].name,
            signal=9 if reason in ("signal", "hung") else None,
            error="boom" if reason == "error" else None,
        )

    def test_merge_extends_instead_of_overwriting(self):
        first = RunReport()
        first.note("attempt 0")
        first.record_process_attempt(self._attempt(0, "error"))
        second = RunReport()
        second.note("attempt 1")
        second.record_process_attempt(self._attempt(1, "ok"))
        merged = first.merge(second)
        assert merged is first
        assert merged.notes == ["attempt 0", "attempt 1"]
        assert [a.index for a in merged.process_attempts] == [0, 1]

    def test_round_trip_preserves_attempt_history(self):
        report = RunReport()
        report.record_process_attempt(self._attempt(0, "error"))
        report.record_process_attempt(self._attempt(1, "hung"))
        report.record_process_attempt(self._attempt(2, "ok"))
        clone = RunReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone.process_attempts == report.process_attempts
        assert clone.to_dict() == report.to_dict()

    def test_render_includes_attempt_lines(self):
        report = RunReport()
        report.record_process_attempt(self._attempt(0, "hung"))
        report.record_process_attempt(self._attempt(1, "ok"))
        rendered = report.render()
        assert "process attempt #0" in rendered
        assert "hung" in rendered
        assert "process attempt #1" in rendered


# ----------------------------------------------------------------------
# supervised lump_and_solve: same numbers as the in-process robust path
# ----------------------------------------------------------------------


class TestSupervisedPipeline:
    def test_supervised_matches_robust_bitwise(self, tmp_path, small_tandem):
        model = small_tandem["model"]
        robust = lump_and_solve(model, robust=True)
        supervised = lump_and_solve(
            model,
            supervised=True,
            checkpoint_dir=str(tmp_path),
            supervisor=fast_config(),
        )
        assert np.array_equal(supervised.stationary, robust.stationary)
        assert supervised.solve_method == robust.solve_method
        assert supervised.num_states == robust.num_states
        [attempt] = supervised.report.process_attempts
        assert attempt.exit_reason == "ok"
