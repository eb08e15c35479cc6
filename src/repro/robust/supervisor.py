"""Supervised execution: process isolation + watchdog + restart.

PR 2 made crashes *survivable* (checkpoint/resume is bitwise-
equivalent); this module makes them *recovered*: the pipeline runs in a
forked child process under hard OS limits, a parent watchdog watches the
child's heartbeat, and a crash/hang/OOM triggers an automatic restart
from the latest valid checkpoint — no human in the loop.

The moving parts:

* **Isolation** — :func:`run_supervised` forks; the child applies
  ``resource.setrlimit`` (address space, CPU) from the
  :class:`SupervisorConfig` and runs the caller's ``target`` callable.
  A memory blowup kills the child, never the driver.
* **Liveness** — the child installs a heartbeat
  (:mod:`repro.robust.heartbeat`) that is touched at every cooperative
  budget-check site; the parent polls it and SIGKILLs a child whose
  beat goes stale ("hung"), while a slow-but-beating child is left
  alone.
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

import json
import os
import pickle
import signal
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

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
    scale_budget,
)

#: Child exit codes.  0/1 keep their universal meanings; the reserved
#: codes are chosen to avoid 2 (the bench CLI's budget-exhausted exit).
_EXIT_OK = 0
_EXIT_ERROR = 1
_EXIT_BUDGET = 17
_EXIT_OOM = 19


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
    ladder: Tuple[DegradationLevel, ...] = DEFAULT_LADDER
    #: Hard address-space cap applied in the child (None = no cap).
    mem_limit_bytes: Optional[int] = None
    #: Hard CPU-seconds cap applied in the child (None = no cap).
    cpu_limit_seconds: Optional[int] = None
    #: Beat staleness beyond which the watchdog declares "hung".
    heartbeat_timeout_seconds: float = 30.0
    #: Floor between the child's heartbeat file writes.
    heartbeat_interval_seconds: float = 0.05
    #: Parent poll cadence while the child runs.
    poll_interval_seconds: float = 0.02
    #: Checkpoint GC window passed to the child's checkpointer.
    checkpoint_keep_last: Optional[int] = 8

    def __post_init__(self) -> None:
        if not self.ladder:
            raise ValueError("the degradation ladder must not be empty")
        if self.heartbeat_timeout_seconds <= 0:
            raise ValueError(
                "heartbeat_timeout_seconds must be > 0, "
                f"not {self.heartbeat_timeout_seconds!r}"
            )
        if self.poll_interval_seconds <= 0:
            raise ValueError(
                "poll_interval_seconds must be > 0, "
                f"not {self.poll_interval_seconds!r}"
            )
        if self.mem_limit_bytes is not None and self.mem_limit_bytes <= 0:
            raise ValueError(
                f"mem_limit_bytes must be > 0, not {self.mem_limit_bytes!r}"
            )
        if (
            self.cpu_limit_seconds is not None
            and self.cpu_limit_seconds <= 0
        ):
            raise ValueError(
                "cpu_limit_seconds must be > 0, "
                f"not {self.cpu_limit_seconds!r}"
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


@dataclass(frozen=True)
class _Paths:
    """The supervisor's scratch files inside the checkpoint directory."""

    workdir: str
    heartbeat: str
    result: str
    child_report: str
    error: str
    fired_log: str

    @classmethod
    def under(cls, checkpoint_dir: str) -> "_Paths":
        workdir = os.path.join(checkpoint_dir, "_supervisor")
        os.makedirs(workdir, exist_ok=True)
        return cls(
            workdir=workdir,
            heartbeat=os.path.join(workdir, "heartbeat"),
            result=os.path.join(workdir, "result.pkl"),
            child_report=os.path.join(workdir, "report.json"),
            error=os.path.join(workdir, "error.json"),
            fired_log=os.path.join(workdir, "faults-fired.log"),
        )


# ----------------------------------------------------------------------
# child side
# ----------------------------------------------------------------------


def _apply_rlimits(config: SupervisorConfig, report: RunReport) -> None:
    """Apply the configured hard OS limits to the current process."""
    if config.mem_limit_bytes is None and config.cpu_limit_seconds is None:
        return
    try:
        import resource
    except ImportError:
        report.note("supervisor: resource module unavailable; no rlimits")
        return
    if config.mem_limit_bytes is not None:
        try:
            resource.setrlimit(
                resource.RLIMIT_AS,
                (config.mem_limit_bytes, config.mem_limit_bytes),
            )
        except (ValueError, OSError) as exc:
            report.note(f"supervisor: cannot set RLIMIT_AS: {exc}")
    if config.cpu_limit_seconds is not None:
        # Soft limit delivers SIGXCPU (default: terminate); the hard
        # limit a little above it is the SIGKILL backstop.
        soft = int(config.cpu_limit_seconds)
        try:
            resource.setrlimit(resource.RLIMIT_CPU, (soft, soft + 5))
        except (ValueError, OSError) as exc:
            report.note(f"supervisor: cannot set RLIMIT_CPU: {exc}")


def _write_error(path: str, reason: str, exc: BaseException) -> None:
    """Best-effort structured error record for the parent to read."""
    try:
        atomic_write_bytes(
            path,
            json.dumps(
                {
                    "reason": reason,
                    "type": type(exc).__name__,
                    "message": str(exc),
                    "traceback": traceback.format_exc(),
                }
            ).encode("utf-8"),
        )
    except (CheckpointError, TypeError, ValueError):
        # Recording the failure failed (disk full, unserializable
        # detail); the parent still classifies the attempt from the
        # exit code, so there is nothing more useful to do before
        # the child _exits.
        pass


def _child_main(
    target: Callable[[AttemptContext], Any],
    ctx: AttemptContext,
    config: SupervisorConfig,
    paths: _Paths,
) -> None:
    """Run one attempt in the forked child.  Never returns."""
    code = _EXIT_ERROR
    try:
        _apply_rlimits(config, ctx.report)
        faults.set_fired_log(paths.fired_log)
        hb = heartbeat.install(
            paths.heartbeat,
            min_interval_seconds=config.heartbeat_interval_seconds,
        )
        hb.beat(force=True)
        result = target(ctx)
        hb.beat(force=True)
        ctx.report.attach_budget(ctx.budget)
        atomic_write_bytes(
            paths.child_report,
            json.dumps(ctx.report.to_dict()).encode("utf-8"),
        )
        # The report lands before the result: a kill between the two
        # writes loses the result (attempt retried) but never yields a
        # result whose history is missing.
        atomic_write_bytes(paths.result, pickle.dumps(result))
        code = _EXIT_OK
    except BudgetExceeded as exc:
        ctx.report.note(f"supervised attempt: budget exhausted: {exc}")
        _flush_child_report(ctx, paths)
        _write_error(paths.error, "budget", exc)
        code = _EXIT_BUDGET
    except MemoryError as exc:
        ctx.report.note(f"supervised attempt: out of memory: {exc}")
        _flush_child_report(ctx, paths)
        _write_error(paths.error, "oom", exc)
        code = _EXIT_OOM
    except BaseException as exc:
        ctx.report.note(
            f"supervised attempt failed: {type(exc).__name__}: {exc}"
        )
        _flush_child_report(ctx, paths)
        _write_error(paths.error, "error", exc)
        code = _EXIT_ERROR
    finally:
        # Skip interpreter teardown entirely: the child shares the
        # parent's file descriptors, atexit hooks, and (under pytest)
        # capture machinery, none of which may run twice.
        os._exit(code)


def _flush_child_report(ctx: AttemptContext, paths: _Paths) -> None:
    """Best-effort persistence of a failing attempt's report."""
    try:
        ctx.report.attach_budget(ctx.budget)
        atomic_write_bytes(
            paths.child_report,
            json.dumps(ctx.report.to_dict()).encode("utf-8"),
        )
    except (CheckpointError, TypeError, ValueError):
        # The exit code still records *that* the attempt failed; a
        # missing per-attempt report only loses detail, never the
        # outcome.
        pass


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


def _classify_exit(status: int) -> Tuple[str, Optional[int], Optional[int]]:
    """Map a ``wait4`` status to (exit_reason, exit_code, signal)."""
    if os.WIFSIGNALED(status):
        return "signal", None, os.WTERMSIG(status)
    if os.WIFEXITED(status):
        code = os.WEXITSTATUS(status)
        if code == _EXIT_OK:
            return "ok", code, None
        if code == _EXIT_BUDGET:
            return "budget", code, None
        if code == _EXIT_OOM:
            return "oom", code, None
        return "error", code, None
    return "error", None, None


def _watch(
    pid: int,
    monitor: heartbeat.HeartbeatMonitor,
    config: SupervisorConfig,
    started: float,
) -> Tuple[str, Optional[int], Optional[int], Any]:
    """Wait for the child, killing it if its heartbeat goes stale.

    Returns (exit_reason, exit_code, signal, rusage).
    """
    while True:
        wpid, status, rusage = os.wait4(pid, os.WNOHANG)
        if wpid == pid:
            reason, code, sig = _classify_exit(status)
            return reason, code, sig, rusage
        age = monitor.age_seconds()
        if age is None:
            # No beat yet: measure from attempt start so a child that
            # wedges before its first beat is still bounded.
            age = time.monotonic() - started
        if age > config.heartbeat_timeout_seconds:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass  # exited in the race window; reap below
            _, status, rusage = os.wait4(pid, 0)
            return "hung", None, signal.SIGKILL, rusage
        time.sleep(config.poll_interval_seconds)


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            loaded = json.load(handle)
    except (OSError, ValueError):
        return None
    return loaded if isinstance(loaded, dict) else None


def _unlink_quietly(*paths: str) -> None:
    for path in paths:
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
            "injection, CPU rlimit); check dmesg and REPRO_FAULTS"
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
    would.

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
    paths = _Paths.under(checkpoint_dir)
    monitor = heartbeat.HeartbeatMonitor(paths.heartbeat)
    manifest_path = os.path.join(checkpoint_dir, MANIFEST_NAME)

    attempts: List[ProcessAttemptReport] = []
    failures = 0
    last_error: Optional[str] = None
    max_attempts = config.policy.max_restarts + 1
    for attempt_index in range(max_attempts):
        level_index = min(failures, len(config.ladder) - 1)
        level = config.ladder[level_index]
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
        _unlink_quietly(
            paths.heartbeat, paths.result, paths.child_report, paths.error
        )
        ctx = AttemptContext(
            attempt_index=attempt_index,
            degradation_index=level_index,
            degradation=level,
            checkpoint_dir=checkpoint_dir,
            resume=resume_this,
            budget=scale_budget(budget, level.budget_scale)
            if budget is not None
            else Budget(),
            report=RunReport(),
            checkpoint_keep_last=config.checkpoint_keep_last,
        )
        started = time.monotonic()
        try:
            pid = os.fork()
        except OSError as exc:
            raise SupervisorError(
                f"cannot fork a supervised child: {exc}"
            ) from exc
        if pid == 0:
            _child_main(target, ctx, config, paths)
            os._exit(_EXIT_ERROR)  # unreachable: _child_main never returns
        reason, exit_code, sig, rusage = _watch(
            pid, monitor, config, started
        )
        seconds = time.monotonic() - started

        child_report_data = _read_json(paths.child_report)
        if child_report_data is not None:
            report.merge(RunReport.from_dict(child_report_data))
        error_detail: Optional[str] = None
        error_data = _read_json(paths.error)
        if error_data is not None:
            error_detail = (
                f"{error_data.get('type')}: {error_data.get('message')}"
            )
        attempt_record = ProcessAttemptReport(
            index=attempt_index,
            exit_reason=reason,
            seconds=seconds,
            degradation_index=level_index,
            degradation=level.name,
            resumed_from=resumed_from,
            exit_code=exit_code,
            signal=sig,
            max_rss_bytes=(
                rusage.ru_maxrss * 1024 if rusage is not None else None
            ),
            cpu_seconds=(
                rusage.ru_utime + rusage.ru_stime
                if rusage is not None
                else None
            ),
            error=error_detail,
            backoff_seconds=backoff,
        )

        if reason == "ok":
            try:
                with open(paths.result, "rb") as handle:
                    result = pickle.load(handle)
            except (OSError, pickle.PickleError, EOFError) as exc:
                # Exit 0 without a readable result: treat as a failed
                # attempt (the checkpoints are still good).
                attempt_record.exit_reason = "error"
                attempt_record.error = f"result unreadable: {exc}"
                report.record_process_attempt(attempt_record)
                attempts.append(attempt_record)
                failures += 1
                last_error = attempt_record.error
                continue
            report.record_process_attempt(attempt_record)
            attempts.append(attempt_record)
            return SupervisedResult(
                result=result, report=report, attempts=attempts
            )

        report.record_process_attempt(attempt_record)
        attempts.append(attempt_record)
        if reason == "budget":
            # Terminal by design: retrying cannot succeed within the
            # caller's bound, and silently removing the bound would
            # betray it.
            raise BudgetExceeded(
                "supervised run stopped by its budget"
                + (f": {error_detail}" if error_detail else "")
            )
        failures += 1
        last_error = error_detail or f"exit reason {reason!r}"

    diagnosis = _diagnosis(attempts, config, checkpoint_dir)
    raise CrashLoopError(
        f"supervised run failed {len(attempts)} attempt(s) "
        f"(max_restarts={config.policy.max_restarts}); last error: "
        f"{last_error}",
        diagnosis=diagnosis,
        report=report,
    )
