"""Property-based kill storms against the supervised pipeline.

Two invariants, per the supervision design:

* **Recovery is invisible in the numbers**: under any schedule of
  process-killing faults the supervisor can recover from (one-shot
  sigkill/oom events), the final stationary vector is *bitwise*
  identical to an undisturbed robust run — restart-from-checkpoint and
  the bitwise-neutral degradation rungs must not perturb a single bit.

* **The breaker trips on stays-dead faults**: an open-ended fault
  (``budget:1+@sigkill``) kills every attempt, so the crash-loop
  circuit breaker must trip after exactly ``max_restarts + 1`` attempts
  with a JSON-serializable diagnosis.
"""

import json
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import lump_and_solve
from repro.robust import faults
from repro.robust.retry import RetryPolicy
from repro.robust.supervisor import CrashLoopError, SupervisorConfig
from repro.robust.report import RunReport
from repro.robust.supervisor import run_supervised

STORM = settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: One storm event: (budget-site call number, process-level effect).
#: Call numbers land inside the small tandem pipeline's budget-call
#: range, so most drawn events actually fire; an event past the end
#: simply never fires, which must also leave the numbers untouched.
event_strategy = st.tuples(
    st.integers(min_value=1, max_value=120),
    st.sampled_from(["sigkill", "oom"]),
)

schedule_strategy = st.lists(
    event_strategy, min_size=0, max_size=2, unique_by=lambda event: event[0]
)

_BASELINE = {}


def _baseline(small_tandem):
    """The undisturbed robust stationary vector (computed once)."""
    if "stationary" not in _BASELINE:
        solution = lump_and_solve(small_tandem["model"], robust=True)
        _BASELINE["stationary"] = solution.stationary
        _BASELINE["solve_method"] = solution.solve_method
    return _BASELINE


def _fast_config(max_restarts=4):
    return SupervisorConfig(
        policy=RetryPolicy(
            max_restarts=max_restarts, backoff_initial_seconds=0.0
        ),
        heartbeat_timeout_seconds=30.0,
    )


@given(schedule=schedule_strategy)
@STORM
def test_storm_of_recoverable_faults_is_bitwise_invisible(
    schedule, small_tandem
):
    baseline = _baseline(small_tandem)
    spec = ",".join(f"budget:{n}@{effect}" for n, effect in schedule)
    checkpoint_dir = tempfile.mkdtemp(prefix="repro-storm-")
    try:
        faults.reload_env(spec)
        solution = lump_and_solve(
            small_tandem["model"],
            supervised=True,
            checkpoint_dir=checkpoint_dir,
            supervisor=_fast_config(),
        )
    finally:
        faults.reload_env("")
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    assert np.array_equal(solution.stationary, baseline["stationary"])
    assert solution.solve_method == baseline["solve_method"]
    attempts = solution.report.process_attempts
    assert attempts[-1].exit_reason == "ok"
    # Every event fires at most once (the fired log makes explicit-call
    # rules one-shot across restarts), so the attempt count is bounded
    # by the schedule size.
    assert len(attempts) <= len(schedule) + 1


@given(max_restarts=st.integers(min_value=0, max_value=2))
@STORM
def test_stays_dead_fault_trips_the_breaker(max_restarts):
    def target(ctx):
        # Budget site 1 fires on every attempt: the open-ended rule is
        # exempt from the fired log by design (a machine that stays
        # dead), so no attempt can ever pass the first budget check.
        faults.check("budget")
        return "unreachable"

    checkpoint_dir = tempfile.mkdtemp(prefix="repro-dead-")
    report = RunReport()
    try:
        faults.reload_env("budget:1+@sigkill")
        with pytest.raises(CrashLoopError) as err:
            run_supervised(
                target,
                checkpoint_dir=checkpoint_dir,
                config=_fast_config(max_restarts=max_restarts),
                report=report,
            )
    finally:
        faults.reload_env("")
        shutil.rmtree(checkpoint_dir, ignore_errors=True)
    exc = err.value
    assert len(report.process_attempts) == max_restarts + 1
    assert all(
        attempt.exit_reason == "signal"
        for attempt in report.process_attempts
    )
    diagnosis = json.loads(json.dumps(exc.diagnosis))
    assert diagnosis["attempts"] == max_restarts + 1
    assert diagnosis["exit_reasons"] == {"signal": max_restarts + 1}
    assert "REPRO_FAULTS" in diagnosis["suggestion"]
