"""Supervised execution: process isolation + watchdog + restart.

PR 2 made crashes *survivable* (checkpoint/resume is bitwise-
equivalent); this module makes them *recovered*: the pipeline runs in a
forked child process under hard OS limits, a parent watchdog watches the
child's heartbeat, and a crash/hang/OOM triggers an automatic restart
from the latest valid checkpoint — no human in the loop.

The moving parts:

* **The watched child** — :class:`WatchedChild` is the library's one
  process primitive, and the only code that forks, SIGKILLs or reaps.
  The child installs a heartbeat (:mod:`repro.robust.heartbeat`) that
  is touched at every cooperative budget-check site; the parent's
  :meth:`~WatchedChild.poll` reaps and classifies the exit, and SIGKILLs
  a child whose beat goes stale ("hung"), while a slow-but-beating
  child is left alone.  :func:`run_supervised` runs each attempt in one,
  and the service dispatcher (:mod:`repro.service.dispatcher`) runs each
  worker slot in one.
* **Isolation** — each attempt applies ``RLIMIT_AS`` from the
  :class:`SupervisorConfig` and runs the caller's ``target`` callable.
  A memory blowup kills the child, never the driver.
* **Recovery** — every attempt after the first resumes from the
  checkpoint directory, so completed work is never repeated; restarts
  back off exponentially with deterministic jitter
  (:class:`repro.robust.retry.RetryPolicy`).
* **Degradation** — consecutive failures climb the
  :data:`~repro.robust.retry.DEFAULT_LADDER`: tighter checkpoint
  cadence, then ``degrade=True`` lumping, then the iterative-only
  solver chain, then reduced budgets.
* **The breaker** — after ``max_restarts`` failed restarts a
  :class:`CrashLoopError` carries a structured diagnosis (exit-reason
  histogram, last error, final degradation rung) instead of spinning.

Every attempt lands in the merged
:class:`~repro.robust.report.RunReport` as a
:class:`~repro.robust.report.ProcessAttemptReport` (exit reason,
signal, rusage, degradation level, checkpoint resumed from), and the
child's own stage/fallback records are merged in chronological order —
the report reads as the full history of the run, not just its last
attempt.
"""

from __future__ import annotations

import os
import pickle
import signal
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.robust import faults, heartbeat
from repro.robust.budgets import Budget, BudgetExceeded
from repro.robust.checkpoint import (
    MANIFEST_NAME,
    CheckpointError,
    atomic_write_bytes,
)
from repro.robust.report import ProcessAttemptReport, RunReport
from repro.robust.retry import (
    DEFAULT_LADDER,
    DegradationLevel,
    RetryPolicy,
    level_for_failures,
    scale_budget,
)

#: Child exit codes.  0/1 keep their universal meanings; the reserved
#: codes are chosen to avoid 2 (the bench CLI's budget-exhausted exit).
_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_BUDGET = 17
_EXIT_OOM = 19

#: Exit code -> exit reason; any other exit code is ``"error"``.
_EXIT_REASONS = {_EXIT_OK: "ok", _EXIT_BUDGET: "budget", _EXIT_OOM: "oom"}

#: Parent poll cadence while a supervised attempt runs.
POLL_INTERVAL_SECONDS = 0.02
#: Checkpoint GC window handed to every supervised attempt.
CHECKPOINT_KEEP_LAST = 8
#: Where an attempt leaves its report with its result or error, inside
#: the supervisor's work directory under the checkpoint directory.
_OUTCOME_NAME = "outcome.pkl"
#: How long an interrupted :func:`run_supervised` lets its child honour
#: SIGTERM before it is SIGKILLed.
_STOP_GRACE_SECONDS = 1.0


class SupervisorError(ReproError):
    """The supervisor itself could not run (bad config, fork failure)."""


class CrashLoopError(SupervisorError):
    """The circuit breaker: every allowed attempt failed.

    Carries ``diagnosis`` (a JSON-serializable dict: attempt count,
    exit-reason histogram, final degradation rung, last error,
    checkpoint directory, a tuning suggestion) and the merged
    ``report`` with the full per-attempt history.
    """

    def __init__(
        self, message: str, diagnosis: dict, report: RunReport
    ) -> None:
        super().__init__(message)
        self.diagnosis = diagnosis
        self.report = report


@dataclass(frozen=True)
class SupervisorConfig:
    """Everything the parent needs to supervise a run."""

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    #: Hard address-space cap applied in the child (None = no cap).
    mem_limit_bytes: Optional[int] = None
    #: Beat staleness beyond which the watchdog declares "hung".
    heartbeat_timeout_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.heartbeat_timeout_seconds <= 0:
            raise ValueError(
                "heartbeat_timeout_seconds must be > 0, "
                f"not {self.heartbeat_timeout_seconds!r}"
            )
        if self.mem_limit_bytes is not None and self.mem_limit_bytes <= 0:
            raise ValueError(
                f"mem_limit_bytes must be > 0, not {self.mem_limit_bytes!r}"
            )


@dataclass
class AttemptContext:
    """What one supervised attempt gets to work with.

    The ``target`` callable receives this: it should run the pipeline
    under ``budget`` (the pipeline body enters the budget itself),
    checkpoint into ``checkpoint_dir`` keeping the last
    ``checkpoint_keep_last`` snapshots, resume when ``resume`` is set,
    record into ``report``, and apply the ``degradation`` rung's knobs
    (checkpoint cadence, lumping degrade, solver chain).
    """

    attempt_index: int
    degradation_index: int
    degradation: DegradationLevel
    checkpoint_dir: str
    resume: bool
    budget: Budget
    report: RunReport
    checkpoint_keep_last: Optional[int] = None


@dataclass
class SupervisedResult:
    """What :func:`run_supervised` hands back on success."""

    result: Any
    report: RunReport
    attempts: List[ProcessAttemptReport]


# ----------------------------------------------------------------------
# the watched child
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChildExit:
    """How a :class:`WatchedChild` ended."""

    #: ``"ok"``/``"error"``/``"budget"``/``"oom"`` by exit code,
    #: ``"signal"`` when a signal killed it, ``"hung"`` when the
    #: watchdog did.
    reason: str
    exit_code: Optional[int]
    signal: Optional[int]
    #: The ``wait4`` resource usage (``None`` if it was reaped elsewhere).
    rusage: Any
    #: One line for reports: ``exit 1``, ``signal 9``, ``hung: ...``.
    detail: str


class WatchedChild:
    """One forked child under a heartbeat watchdog.

    The child installs a heartbeat at ``heartbeat_path`` (so every
    cooperative budget-check site beats), beats once, runs ``run()`` and
    exits with its return value — 1 if it raises.  The parent calls
    :meth:`poll` until it returns the child's :class:`ChildExit`, or
    :meth:`stop` to end it early.  The call that reports the exit has
    reaped the child, so none is left running or a zombie.
    """

    def __init__(self, run: Callable[[], int], heartbeat_path: str) -> None:
        # A beat an earlier child left at this path is not this one's.
        _unlink_quietly(heartbeat_path)
        self._monitor = heartbeat.HeartbeatMonitor(heartbeat_path)
        self._ended: Optional[ChildExit] = None
        self._spawned_at = time.monotonic()
        try:
            self.pid = os.fork()
        except OSError as exc:
            raise SupervisorError(
                f"cannot fork a supervised child: {exc}"
            ) from exc
        if self.pid == 0:
            code = _EXIT_ERROR
            try:
                heartbeat.install(heartbeat_path).beat(force=True)
                code = run()
            except BaseException:  # reprolint: disable=RL005 -- forked child: the nonzero exit code IS the report; the parent records the exit
                code = _EXIT_ERROR
            finally:
                # Skip interpreter teardown entirely: the child shares
                # the parent's file descriptors, atexit hooks, and
                # (under pytest) capture machinery, none of which may
                # run twice.
                os._exit(code)

    def poll(self, timeout: float) -> Optional[ChildExit]:
        """The child's exit once it has ended, else ``None``.

        A child whose last beat is more than ``timeout`` seconds old —
        or that has not beaten within ``timeout`` of its spawn, so one
        that wedges during startup is still bounded — is hung: it is
        SIGKILLed and reaped in this call and reported ``"hung"``.
        """
        if self._ended is None and self._reap(os.WNOHANG) is None:
            age = self._monitor.age_seconds()
            if age is not None and age > timeout:
                self._kill(f"hung: heartbeat {age:.1f}s stale; killed")
            elif age is None and time.monotonic() - self._spawned_at > timeout:
                self._kill(
                    f"hung: no heartbeat within {timeout:.1f}s of spawn; "
                    "killed"
                )
        return self._ended

    def stop(self, grace: float) -> None:
        """End the child: SIGTERM, up to ``grace`` seconds to exit, then
        SIGKILL.  Either way it is reaped."""
        if self._ended is not None:
            return
        try:
            os.kill(self.pid, signal.SIGTERM)
        except ProcessLookupError:
            pass  # reaped elsewhere; the reap below records it
        deadline = time.monotonic() + grace
        while self._reap(os.WNOHANG) is None:
            if time.monotonic() >= deadline:
                self._kill(None)
                return
            time.sleep(POLL_INTERVAL_SECONDS)

    def _kill(self, hung: Optional[str]) -> None:
        """SIGKILL the child and reap it; ``hung`` is the watchdog's
        detail when the watchdog is the one killing it."""
        try:
            os.kill(self.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # reaped elsewhere; the reap below records it
        ended = self._reap(0)
        if hung is not None and ended is not None:
            self._ended = ChildExit(
                "hung", None, signal.SIGKILL, ended.rusage, hung
            )

    def _reap(self, flags: int) -> Optional[ChildExit]:
        """``wait4`` the child with ``flags``; once it is reaped, records
        and returns its exit, classified by exit code or signal."""
        try:
            pid, status, rusage = os.wait4(self.pid, flags)
        except ChildProcessError:
            # Someone else reaped it and its status went with them; a
            # clean exit is what the caller's own checks then confirm
            # or refute (the supervisor still needs its outcome file).
            self._ended = ChildExit("ok", 0, None, None, "reaped elsewhere")
            return self._ended
        if pid != self.pid:
            return None
        code = os.waitstatus_to_exitcode(status)
        if code < 0:
            self._ended = ChildExit(
                "signal", None, -code, rusage, f"signal {-code}"
            )
        else:
            reason = _EXIT_REASONS.get(code, "error")
            self._ended = ChildExit(reason, code, None, rusage, f"exit {code}")
        return self._ended


# ----------------------------------------------------------------------
# child side of a supervised attempt
# ----------------------------------------------------------------------


def _apply_mem_limit(limit: Optional[int], report: RunReport) -> None:
    """Cap the current process's address space (``RLIMIT_AS``)."""
    if limit is None:
        return
    import resource  # POSIX only, as is the fork that got us here

    try:
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ValueError, OSError) as exc:
        report.note(f"supervisor: cannot set RLIMIT_AS: {exc}")


def _write_outcome(path: str, ctx: AttemptContext, **outcome: Any) -> None:
    """Atomically write the attempt's report with its result or error:
    one file, so the parent never reads a result whose history is
    missing."""
    ctx.report.attach_budget(ctx.budget)
    outcome["report"] = ctx.report.to_dict()
    atomic_write_bytes(path, pickle.dumps(outcome))


def _run_attempt(
    target: Callable[[AttemptContext], Any],
    ctx: AttemptContext,
    mem_limit_bytes: Optional[int],
    workdir: str,
) -> int:
    """Run one attempt in its watched child; returns the exit code."""
    outcome_path = os.path.join(workdir, _OUTCOME_NAME)
    try:
        _apply_mem_limit(mem_limit_bytes, ctx.report)
        faults.set_fired_log(os.path.join(workdir, "faults-fired.log"))
        _write_outcome(outcome_path, ctx, result=target(ctx))
        return _EXIT_OK
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        if isinstance(exc, BudgetExceeded):
            code = _EXIT_BUDGET
            ctx.report.note(f"supervised attempt: budget exhausted: {exc}")
        elif isinstance(exc, MemoryError):
            code = _EXIT_OOM
            ctx.report.note(f"supervised attempt: out of memory: {exc}")
        else:
            code = _EXIT_ERROR
            ctx.report.note(f"supervised attempt failed: {error}")
    try:
        _write_outcome(outcome_path, ctx, error=error)
    except (CheckpointError, TypeError, ValueError):
        # The exit code still records *that* the attempt failed; a
        # missing outcome only loses detail, never the outcome.
        pass
    return code


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


def _read_outcome(path: str) -> Dict[str, Any]:
    """The attempt's outcome, or ``{}`` when missing or unreadable."""
    try:
        with open(path, "rb") as handle:
            loaded = pickle.load(handle)
    except (OSError, pickle.PickleError, EOFError):
        return {}
    return loaded if isinstance(loaded, dict) else {}


def _unlink_quietly(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _diagnosis(
    attempts: List[ProcessAttemptReport],
    config: SupervisorConfig,
    checkpoint_dir: str,
) -> dict:
    """The circuit breaker's structured post-mortem."""
    reason_counts: dict = {}
    for attempt in attempts:
        reason_counts[attempt.exit_reason] = (
            reason_counts.get(attempt.exit_reason, 0) + 1
        )
    reason_counts = {
        reason: reason_counts[reason] for reason in sorted(reason_counts)
    }
    last = attempts[-1] if attempts else None
    dominant = (
        max(sorted(reason_counts), key=lambda r: reason_counts[r])
        if reason_counts
        else "unknown"
    )
    suggestions = {
        "oom": "raise mem_limit_bytes or shrink the model",
        "hung": (
            "raise heartbeat_timeout_seconds, or check for a stall "
            "outside the instrumented loops"
        ),
        "signal": (
            "the child is being killed externally (OOM killer, fault "
            "injection); check dmesg and REPRO_FAULTS"
        ),
        "error": "inspect last_error; the failure reproduces every attempt",
    }
    return {
        "attempts": len(attempts),
        "max_restarts": config.policy.max_restarts,
        "exit_reasons": reason_counts,
        "final_degradation": last.degradation if last else None,
        "last_error": last.error if last else None,
        "checkpoint_dir": checkpoint_dir,
        "suggestion": suggestions.get(
            dominant, "inspect the per-attempt history in the report"
        ),
    }


def run_supervised(
    target: Callable[[AttemptContext], Any],
    *,
    checkpoint_dir: Optional[str] = None,
    config: Optional[SupervisorConfig] = None,
    budget: Optional[Budget] = None,
    report: Optional[RunReport] = None,
    resume: bool = False,
) -> SupervisedResult:
    """Run ``target`` in supervised child processes until it succeeds.

    ``target`` receives an :class:`AttemptContext` and returns a
    picklable result.  On a crash, hang, or OOM the child is restarted
    (after backoff) with ``resume=True`` so it continues from the
    checkpoints the dead attempt left behind; consecutive failures climb
    the degradation ladder.  ``BudgetExceeded`` in the child is
    *terminal* — the caller asked for a bounded run, so the bound is
    honoured, re-raised here exactly as the unsupervised robust path
    would.  An exception raised in this process while an attempt runs
    (``KeyboardInterrupt``, say) stops and reaps the child before it
    propagates.

    Raises :class:`CrashLoopError` once ``policy.max_restarts`` restarts
    have all failed.
    """
    config = config if config is not None else SupervisorConfig()
    report = report if report is not None else RunReport()
    if checkpoint_dir is None:
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-supervised-")
        report.note(
            "supervisor: no checkpoint_dir given; snapshots in "
            f"temporary {checkpoint_dir}"
        )
    workdir = os.path.join(checkpoint_dir, "_supervisor")
    os.makedirs(workdir, exist_ok=True)
    outcome_path = os.path.join(workdir, _OUTCOME_NAME)
    manifest_path = os.path.join(checkpoint_dir, MANIFEST_NAME)

    attempts: List[ProcessAttemptReport] = []
    failures = 0
    last_error: Optional[str] = None
    for attempt_index in range(config.policy.max_restarts + 1):
        level = level_for_failures(failures)
        backoff = 0.0
        if attempt_index > 0:
            backoff = config.policy.backoff_seconds(attempt_index - 1)
            if backoff > 0:
                time.sleep(backoff)
        resume_this = resume or attempt_index > 0
        resumed_from = (
            manifest_path
            if resume_this and os.path.exists(manifest_path)
            else None
        )
        _unlink_quietly(outcome_path)
        ctx = AttemptContext(
            attempt_index=attempt_index,
            degradation_index=DEFAULT_LADDER.index(level),
            degradation=level,
            checkpoint_dir=checkpoint_dir,
            resume=resume_this,
            budget=scale_budget(budget, level.budget_scale)
            if budget is not None
            else Budget(),
            report=RunReport(),
            checkpoint_keep_last=CHECKPOINT_KEEP_LAST,
        )
        started = time.monotonic()
        child = WatchedChild(
            lambda: _run_attempt(target, ctx, config.mem_limit_bytes, workdir),
            os.path.join(workdir, "heartbeat"),
        )
        try:
            ended = child.poll(config.heartbeat_timeout_seconds)
            while ended is None:
                time.sleep(POLL_INTERVAL_SECONDS)
                ended = child.poll(config.heartbeat_timeout_seconds)
        except BaseException:
            # Left running, the child would go on writing snapshots into
            # a directory the caller may resume from, then linger as a
            # zombie.
            child.stop(_STOP_GRACE_SECONDS)
            raise
        seconds = time.monotonic() - started

        outcome = _read_outcome(outcome_path)
        if "report" in outcome:
            report.merge(RunReport.from_dict(outcome["report"]))
        reason = ended.reason
        error: Optional[str] = outcome.get("error")
        if reason == "ok" and "result" not in outcome:
            # Exit 0 without a readable result: a failed attempt (the
            # checkpoints are still good).
            reason, error = "error", "exit 0 without a readable result"
        rusage = ended.rusage
        attempt_record = ProcessAttemptReport(
            index=attempt_index,
            exit_reason=reason,
            seconds=seconds,
            degradation_index=ctx.degradation_index,
            degradation=level.name,
            resumed_from=resumed_from,
            exit_code=ended.exit_code,
            signal=ended.signal,
            max_rss_bytes=(
                rusage.ru_maxrss * 1024 if rusage is not None else None
            ),
            cpu_seconds=(
                rusage.ru_utime + rusage.ru_stime
                if rusage is not None
                else None
            ),
            error=error,
            backoff_seconds=backoff,
        )
        report.record_process_attempt(attempt_record)
        attempts.append(attempt_record)
        if reason == "ok":
            return SupervisedResult(
                result=outcome["result"], report=report, attempts=attempts
            )
        if reason == "budget":
            # Terminal by design: retrying cannot succeed within the
            # caller's bound, and silently removing the bound would
            # betray it.
            raise BudgetExceeded(
                "supervised run stopped by its budget"
                + (f": {error}" if error else "")
            )
        failures += 1
        last_error = error or f"exit reason {reason!r}"

    diagnosis = _diagnosis(attempts, config, checkpoint_dir)
    raise CrashLoopError(
        f"supervised run failed {len(attempts)} attempt(s) "
        f"(max_restarts={config.policy.max_restarts}); last error: "
        f"{last_error}",
        diagnosis=diagnosis,
        report=report,
    )
