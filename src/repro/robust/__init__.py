"""Resilience layer: budgets, fault injection, fallbacks, run reports.

Production Markov tooling must degrade, not die.  This package makes
degradation first-class across the pipeline:

* :mod:`repro.robust.budgets` — composable wall-clock / iteration /
  state-count budgets, checked cooperatively inside reachability,
  refinement, and solver loops;
* :mod:`repro.robust.faults` — a deterministic fault injector
  (context manager or ``REPRO_FAULTS`` env var) so every degradation
  path is testable in CI;
* :mod:`repro.robust.fallback` — solver and reachability-engine fallback
  chains with per-attempt diagnostics and warm starts;
* :mod:`repro.robust.checkpoint` — crash-safe checkpoint/resume: atomic,
  sha256-verified snapshots of the reachability / refinement / solver
  loops, so a killed or budget-stopped run continues instead of
  restarting;
* :mod:`repro.robust.report` — a structured :class:`RunReport` of stage
  timings, attempts, fallbacks taken, and budget consumption;
* :mod:`repro.robust.certify` — numerical result certificates (NaN/Inf
  guards, mass defect, independent extended-precision residual recheck,
  lumped-vs-unlumped measure consistency, spectral lumpability
  spot-check) with an escalation ladder on failure, so "the result is
  right" is a checked property instead of an assumption;
* :mod:`repro.robust.supervisor` (with :mod:`~repro.robust.heartbeat`
  and :mod:`~repro.robust.retry`) — supervised execution: the pipeline
  in a forked child under an address-space limit, a watchdog that tells
  slow from hung via budget-site heartbeats, automatic restart from the
  latest checkpoint with backoff and a progressive degradation ladder,
  and a crash-loop circuit breaker with a structured diagnosis.  Its
  watched child is the library's one process primitive: the service
  dispatcher runs its workers through it too.

``fallback`` and the supervision modules are loaded lazily (PEP 562):
``fallback`` imports the solvers, which in turn import
:mod:`budgets`/:mod:`faults` for their cooperative hooks, and most runs
never fork a supervised child.
"""

from repro.robust.checkpoint import (
    CheckpointError,
    CheckpointEvent,
    Checkpointer,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
)
from repro.robust.budgets import (
    Budget,
    BudgetConsumption,
    BudgetExceeded,
    IterationBudgetExceeded,
    StateBudgetExceeded,
    TimeBudgetExceeded,
    active_budget,
)
from repro.robust.faults import (
    FaultInjector,
    FaultRule,
    InjectedBudgetFault,
    InjectedFault,
    InjectedLumpingFault,
    InjectedSolverFault,
    InjectedStateSpaceFault,
    inject_faults,
)
from repro.robust.report import (
    AttemptReport,
    FallbackEvent,
    ProcessAttemptReport,
    RunReport,
    StageReport,
)

#: Lazily-loaded exports: attribute name -> providing submodule.
_LAZY_EXPORTS = {
    "Certificate": "certify",
    "CertificateCheck": "certify",
    "CertifiedSolve": "certify",
    "apply_corruption": "certify",
    "certify": "certify",
    "certify_stationary": "certify",
    "certify_with_escalation": "certify",
    "revalidate_cached": "certify",
    "DEFAULT_SOLVER_CHAIN": "fallback",
    "ITERATIVE_METHODS": "fallback",
    "EngineAttempt": "fallback",
    "EngineFallbackResult": "fallback",
    "FallbackSolution": "fallback",
    "SolveAttempt": "fallback",
    "reachable_with_fallback": "fallback",
    "solve_with_fallback": "fallback",
    "Heartbeat": "heartbeat",
    "HeartbeatMonitor": "heartbeat",
    "DEFAULT_LADDER": "retry",
    "DegradationLevel": "retry",
    "RetryPolicy": "retry",
    "level_for_failures": "retry",
    "scale_budget": "retry",
    "AttemptContext": "supervisor",
    "CrashLoopError": "supervisor",
    "SupervisedResult": "supervisor",
    "SupervisorConfig": "supervisor",
    "SupervisorError": "supervisor",
    "run_supervised": "supervisor",
}


def __getattr__(name: str) -> object:
    module_name = _LAZY_EXPORTS.get(name)
    if module_name is not None:
        import importlib

        module = importlib.import_module(f"repro.robust.{module_name}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Budget",
    "BudgetConsumption",
    "BudgetExceeded",
    "TimeBudgetExceeded",
    "IterationBudgetExceeded",
    "StateBudgetExceeded",
    "active_budget",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "InjectedSolverFault",
    "InjectedStateSpaceFault",
    "InjectedLumpingFault",
    "InjectedBudgetFault",
    "inject_faults",
    "RunReport",
    "StageReport",
    "AttemptReport",
    "FallbackEvent",
    "ProcessAttemptReport",
    "Checkpointer",
    "CheckpointError",
    "CheckpointEvent",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_write_json",
    "Certificate",
    "CertificateCheck",
    "CertifiedSolve",
    "apply_corruption",
    "certify",
    "certify_stationary",
    "certify_with_escalation",
    "revalidate_cached",
    "DEFAULT_SOLVER_CHAIN",
    "ITERATIVE_METHODS",
    "SolveAttempt",
    "FallbackSolution",
    "EngineAttempt",
    "EngineFallbackResult",
    "solve_with_fallback",
    "reachable_with_fallback",
    "Heartbeat",
    "HeartbeatMonitor",
    "RetryPolicy",
    "DegradationLevel",
    "DEFAULT_LADDER",
    "level_for_failures",
    "scale_budget",
    "AttemptContext",
    "SupervisorConfig",
    "SupervisedResult",
    "SupervisorError",
    "CrashLoopError",
    "run_supervised",
]
