"""Structured run reports: what ran, what degraded, and why.

A :class:`RunReport` is threaded through every pipeline run
(:func:`repro.analysis.lump_and_solve` in any mode, and the Table-1
rows of :mod:`repro.bench.table1`).  Every stage records
its wall-clock time and status; every fallback taken (solver rung, engine
switch, skipped lumping level) records what was requested, what actually
ran, and the triggering error — so a production operator can tell a clean
run from a degraded-but-successful one without re-running anything.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.robust.budgets import Budget, BudgetConsumption


def _native(value: Any) -> Any:
    """Coerce numpy scalars/arrays (and nested containers) to native
    Python types so reports serialize with the stdlib ``json``."""
    if isinstance(value, dict):
        return {_native(k): _native(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_native(v) for v in value]
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return item()  # numpy scalar (0-d)
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return tolist()  # numpy array
    return value


@dataclass
class StageReport:
    """Outcome of one pipeline stage."""

    name: str
    seconds: float
    status: str = "ok"  # "ok" | "degraded" | "failed"
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "status": self.status,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StageReport":
        return cls(
            name=str(data["name"]),
            seconds=float(data.get("seconds", 0.0)),
            status=str(data.get("status", "ok")),
            detail=str(data.get("detail", "")),
        )


@dataclass
class FallbackEvent:
    """One degradation decision: what was asked for vs. what ran."""

    stage: str
    requested: str
    used: str
    reason: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "requested": self.requested,
            "used": self.used,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FallbackEvent":
        return cls(
            stage=str(data["stage"]),
            requested=str(data.get("requested", "")),
            used=str(data.get("used", "")),
            reason=str(data.get("reason", "")),
        )


@dataclass
class AttemptReport:
    """One attempt inside a fallback chain (solver rung, engine try)."""

    stage: str
    name: str
    succeeded: bool
    seconds: float
    error: Optional[str] = None
    iterations: Optional[int] = None
    residual: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "stage": self.stage,
            "name": self.name,
            "succeeded": self.succeeded,
            "seconds": self.seconds,
            "error": self.error,
            "iterations": self.iterations,
            "residual": self.residual,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "AttemptReport":
        iterations = data.get("iterations")
        residual = data.get("residual")
        error = data.get("error")
        return cls(
            stage=str(data["stage"]),
            name=str(data["name"]),
            succeeded=bool(data.get("succeeded", False)),
            seconds=float(data.get("seconds", 0.0)),
            error=None if error is None else str(error),
            iterations=None if iterations is None else int(iterations),
            residual=None if residual is None else float(residual),
        )


@dataclass
class ProcessAttemptReport:
    """One supervised child-process attempt (see
    :mod:`repro.robust.supervisor`).

    ``exit_reason`` taxonomy: ``"ok"`` (clean exit with a result),
    ``"error"`` (unhandled exception in the child), ``"budget"``
    (child exhausted its budget — terminal, not retried), ``"oom"``
    (address-space rlimit hit), ``"signal"`` (killed by a signal other
    than the watchdog's), ``"hung"`` (watchdog killed a stale
    heartbeat).
    """

    index: int
    exit_reason: str
    seconds: float
    degradation_index: int = 0
    degradation: str = "baseline"
    resumed_from: Optional[str] = None
    exit_code: Optional[int] = None
    signal: Optional[int] = None
    max_rss_bytes: Optional[int] = None
    cpu_seconds: Optional[float] = None
    error: Optional[str] = None
    backoff_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "exit_reason": self.exit_reason,
            "seconds": self.seconds,
            "degradation_index": self.degradation_index,
            "degradation": self.degradation,
            "resumed_from": self.resumed_from,
            "exit_code": self.exit_code,
            "signal": self.signal,
            "max_rss_bytes": self.max_rss_bytes,
            "cpu_seconds": self.cpu_seconds,
            "error": self.error,
            "backoff_seconds": self.backoff_seconds,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProcessAttemptReport":
        def _opt_int(key: str) -> Optional[int]:
            value = data.get(key)
            return None if value is None else int(value)

        def _opt_str(key: str) -> Optional[str]:
            value = data.get(key)
            return None if value is None else str(value)

        cpu = data.get("cpu_seconds")
        return cls(
            index=int(data.get("index", 0)),
            exit_reason=str(data.get("exit_reason", "error")),
            seconds=float(data.get("seconds", 0.0)),
            degradation_index=int(data.get("degradation_index", 0)),
            degradation=str(data.get("degradation", "baseline")),
            resumed_from=_opt_str("resumed_from"),
            exit_code=_opt_int("exit_code"),
            signal=_opt_int("signal"),
            max_rss_bytes=_opt_int("max_rss_bytes"),
            cpu_seconds=None if cpu is None else float(cpu),
            error=_opt_str("error"),
            backoff_seconds=float(data.get("backoff_seconds", 0.0)),
        )


@dataclass
class PoolEvent:
    """One worker-slot lifecycle event of the service dispatcher (see
    :mod:`repro.service.dispatcher`).

    ``kind`` taxonomy: ``"worker-started"``, ``"worker-exited"`` (a
    clean exit: drained, or respawned in serve mode),
    ``"worker-crashed"`` (the process died or was killed by the
    watchdog: ``detail`` carries the reason), ``"worker-restarted"``,
    ``"worker-retired"`` (per-slot crash-loop breaker),
    ``"pool-degraded"`` (every slot retired; the dispatcher drains the
    queue inline).
    """

    kind: str
    worker: Optional[int] = None
    task: Optional[str] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "worker": self.worker,
            "task": self.task,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PoolEvent":
        worker = data.get("worker")
        task = data.get("task")
        return cls(
            kind=str(data.get("kind", "")),
            worker=None if worker is None else int(worker),
            task=None if task is None else str(task),
            detail=str(data.get("detail", "")),
        )


@dataclass
class RunReport:
    """Structured record of one pipeline run.

    Collects per-stage timings, per-attempt diagnostics, fallbacks taken,
    free-form notes, per-process-attempt history (when supervised), and
    (when a budget was supplied) the final budget consumption.
    ``degraded`` is true iff any fallback fired or any stage finished in
    a non-``ok`` status.
    """

    stages: List[StageReport] = field(default_factory=list)
    attempts: List[AttemptReport] = field(default_factory=list)
    fallbacks: List[FallbackEvent] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    process_attempts: List[ProcessAttemptReport] = field(default_factory=list)
    pool_events: List[PoolEvent] = field(default_factory=list)
    budget: Optional[BudgetConsumption] = None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[StageReport]:
        """Time a stage; marks it ``failed`` (and re-raises) on error.

        The yielded :class:`StageReport` can be mutated inside the block
        (e.g. to set ``status="degraded"`` with a detail).
        """
        record = StageReport(name=name, seconds=0.0)
        start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.status = "failed"
            record.detail = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            record.seconds = time.perf_counter() - start
            self.stages.append(record)

    def record_fallback(
        self, stage: str, requested: str, used: str, reason: str
    ) -> FallbackEvent:
        """Record a degradation decision and return it."""
        event = FallbackEvent(
            stage=stage, requested=requested, used=used, reason=reason
        )
        self.fallbacks.append(event)
        return event

    def record_attempt(
        self,
        stage: str,
        name: str,
        succeeded: bool,
        seconds: float,
        error: Optional[str] = None,
        iterations: Optional[int] = None,
        residual: Optional[float] = None,
    ) -> AttemptReport:
        """Record one attempt inside a fallback chain."""
        attempt = AttemptReport(
            stage=stage,
            name=name,
            succeeded=succeeded,
            seconds=seconds,
            error=error,
            iterations=iterations,
            residual=residual,
        )
        self.attempts.append(attempt)
        return attempt

    def note(self, message: str) -> None:
        """Append a free-form note."""
        self.notes.append(message)

    def record_process_attempt(
        self, attempt: ProcessAttemptReport
    ) -> ProcessAttemptReport:
        """Record one supervised child-process attempt."""
        self.process_attempts.append(attempt)
        return attempt

    def record_pool_event(
        self,
        kind: str,
        worker: Optional[int] = None,
        task: Optional[str] = None,
        detail: str = "",
    ) -> PoolEvent:
        """Record one worker-pool lifecycle event."""
        event = PoolEvent(kind=kind, worker=worker, task=task, detail=detail)
        self.pool_events.append(event)
        return event

    def pool_events_of_kind(self, *kinds: str) -> List[PoolEvent]:
        """The recorded pool events whose kind is one of ``kinds``."""
        wanted = set(kinds)
        return [event for event in self.pool_events if event.kind in wanted]

    def attach_budget(self, budget: Optional[Budget]) -> None:
        """Snapshot a budget's consumption into the report."""
        if budget is not None:
            self.budget = budget.consumption()

    def merge(self, other: "RunReport") -> "RunReport":
        """Fold another attempt's report into this one; returns ``self``.

        Restart aggregation is *additive*: stage timings, solver
        attempts, fallbacks, notes, and process attempts from the later
        attempt extend (never overwrite) the history already recorded,
        so the merged report reads as a chronology of everything that
        ran.  Budget consumption merges by summing the spend counters
        (elapsed seconds, iterations), taking the max of ``peak_states``
        (a high-water mark), and keeping the later attempt's limits
        (the degradation ladder may have rescaled them).
        """
        self.stages.extend(other.stages)
        self.attempts.extend(other.attempts)
        self.fallbacks.extend(other.fallbacks)
        self.notes.extend(other.notes)
        self.process_attempts.extend(other.process_attempts)
        self.pool_events.extend(other.pool_events)
        if self.budget is None:
            self.budget = other.budget
        elif other.budget is not None:
            mine, theirs = self.budget, other.budget
            self.budget = BudgetConsumption(
                elapsed_seconds=mine.elapsed_seconds + theirs.elapsed_seconds,
                iterations_used=mine.iterations_used + theirs.iterations_used,
                peak_states=max(mine.peak_states, theirs.peak_states),
                wall_clock_seconds=theirs.wall_clock_seconds,
                max_iterations=theirs.max_iterations,
                max_states=theirs.max_states,
            )
        return self

    # ------------------------------------------------------------------
    # queries / rendering
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """Whether anything fell back or finished non-``ok``."""
        return bool(self.fallbacks) or any(
            stage.status != "ok" for stage in self.stages
        )

    def stage_seconds(self, name: str) -> float:
        """Total seconds across all stages with this name (0.0 if none)."""
        return sum(s.seconds for s in self.stages if s.name == name)

    def fallbacks_for(self, stage: str) -> List[FallbackEvent]:
        """The fallbacks recorded under one stage name."""
        return [event for event in self.fallbacks if event.stage == stage]

    def attempts_for(self, stage: str) -> List[AttemptReport]:
        """The attempts recorded under one stage name."""
        return [attempt for attempt in self.attempts if attempt.stage == stage]

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form (JSON-serializable; numpy scalars coerced)."""
        return _native(
            {
                "degraded": self.degraded,
                "stages": [stage.to_dict() for stage in self.stages],
                "attempts": [attempt.to_dict() for attempt in self.attempts],
                "fallbacks": [event.to_dict() for event in self.fallbacks],
                "notes": [str(note) for note in self.notes],
                "process_attempts": [
                    attempt.to_dict() for attempt in self.process_attempts
                ],
                "pool_events": [
                    event.to_dict() for event in self.pool_events
                ],
                "budget": self.budget.to_dict() if self.budget else None,
            }
        )

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON form of :meth:`to_dict` (numpy scalars in attempt
        diagnostics are coerced to native types first)."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunReport":
        """Rebuild a report from :meth:`to_dict` / parsed :meth:`to_json`
        output.  ``degraded`` is recomputed, not trusted."""
        budget = data.get("budget")
        return cls(
            stages=[
                StageReport.from_dict(s) for s in data.get("stages", ())
            ],
            attempts=[
                AttemptReport.from_dict(a) for a in data.get("attempts", ())
            ],
            fallbacks=[
                FallbackEvent.from_dict(f) for f in data.get("fallbacks", ())
            ],
            notes=[str(note) for note in data.get("notes", ())],
            process_attempts=[
                ProcessAttemptReport.from_dict(p)
                for p in data.get("process_attempts", ())
            ],
            pool_events=[
                PoolEvent.from_dict(e) for e in data.get("pool_events", ())
            ],
            budget=(
                None if budget is None else BudgetConsumption.from_dict(budget)
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        """Rebuild a report from a :meth:`to_json` string."""
        return cls.from_dict(json.loads(text))

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            "run report: "
            + ("DEGRADED" if self.degraded else "clean")
        ]
        for stage in self.stages:
            line = f"  stage {stage.name:<14s} {stage.seconds:8.3f}s  {stage.status}"
            if stage.detail:
                line += f"  ({stage.detail})"
            lines.append(line)
        for attempt in self.attempts:
            outcome = "ok" if attempt.succeeded else "FAILED"
            line = (
                f"  attempt [{attempt.stage}] {attempt.name:<14s} "
                f"{attempt.seconds:8.3f}s  {outcome}"
            )
            if attempt.error:
                line += f"  ({attempt.error})"
            lines.append(line)
        for event in self.fallbacks:
            lines.append(
                f"  fallback [{event.stage}] {event.requested} -> "
                f"{event.used}: {event.reason}"
            )
        for proc in self.process_attempts:
            line = (
                f"  process attempt #{proc.index} "
                f"{proc.exit_reason:<7s} {proc.seconds:8.3f}s  "
                f"degradation={proc.degradation}"
            )
            if proc.signal is not None:
                line += f"  signal={proc.signal}"
            if proc.resumed_from:
                line += f"  resumed-from={proc.resumed_from}"
            if proc.error:
                line += f"  ({proc.error})"
            lines.append(line)
        for event in self.pool_events:
            line = f"  pool {event.kind}"
            if event.worker is not None:
                line += f" worker={event.worker}"
            if event.task is not None:
                line += f" task={event.task}"
            if event.detail:
                line += f"  ({event.detail})"
            lines.append(line)
        for note in self.notes:
            lines.append(f"  note: {note}")
        if self.budget is not None:
            b = self.budget
            lines.append(
                "  budget: "
                f"{b.elapsed_seconds:.3f}s"
                + (f"/{b.wall_clock_seconds:g}s" if b.wall_clock_seconds else "")
                + f", {b.iterations_used} iterations"
                + (f"/{b.max_iterations}" if b.max_iterations else "")
                + f", peak {b.peak_states} states"
                + (f"/{b.max_states}" if b.max_states else "")
            )
        return "\n".join(lines)
