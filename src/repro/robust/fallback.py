"""Solver and reachability-engine fallback chains.

:func:`solve_with_fallback` walks a chain of steady-state methods
(``direct -> gauss-seidel -> jacobi -> power`` by default), warm-starting
each iterative rung from the previous rung's last iterate when available,
and — if the whole chain fails at the requested tolerance — retries the
iterative rungs once with a relaxed tolerance (the single adaptive
degradation step motivated by approximate-lumping work such as Erreygers
& De Bock).  The returned :class:`FallbackSolution` records which method
won plus per-attempt diagnostics.

:func:`reachable_with_fallback` does the same for state-space generation
(``mdd -> bfs`` by default): if the symbolic engine fails, the explicit
engine produces the identical state space, just with different cost.

Both propagate :class:`~repro.robust.budgets.BudgetExceeded` immediately:
a budget is the caller's intent to *stop*, not something to route around.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError, SolverError, StateSpaceError
from repro.markov.ctmc import CTMC
from repro.markov.solvers import _METHODS, SteadyStateResult
from repro.robust.budgets import BudgetExceeded
from repro.statespace.reachability import (
    ReachabilityResult,
    reachable_bfs,
    reachable_mdd,
    reachable_saturation,
)

#: The default solver chain: exact first, then decreasingly demanding
#: iterative methods.
DEFAULT_SOLVER_CHAIN: Tuple[str, ...] = (
    "direct",
    "gauss-seidel",
    "jacobi",
    "power",
)

#: Methods that iterate (accept ``tol``/``max_iterations``/``x0``).
#: Shared with the certificate escalation ladder
#: (:mod:`repro.robust.certify`), which needs to know which rungs take a
#: tolerance.
ITERATIVE_METHODS = frozenset({"gauss-seidel", "jacobi", "power"})


@dataclass
class SolveAttempt:
    """Diagnostics of one rung of the solver chain."""

    method: str
    succeeded: bool
    seconds: float
    tolerance: Optional[float]
    iterations: Optional[int] = None
    residual: Optional[float] = None
    error: Optional[str] = None
    warm_started: bool = False


@dataclass
class FallbackSolution:
    """A steady-state solution plus the path that produced it."""

    result: SteadyStateResult
    attempts: List[SolveAttempt] = field(default_factory=list)
    requested_method: str = ""
    relaxed_tolerance: Optional[float] = None

    @property
    def method(self) -> str:
        """The method that finally converged."""
        return self.result.method

    @property
    def distribution(self) -> np.ndarray:
        """The stationary distribution."""
        return self.result.distribution

    @property
    def degraded(self) -> bool:
        """Whether anything other than the first rung at the requested
        tolerance produced the answer."""
        return (
            self.method != self.requested_method
            or self.relaxed_tolerance is not None
        )


def solve_with_fallback(
    ctmc: CTMC,
    chain: Sequence[str] = DEFAULT_SOLVER_CHAIN,
    tol: float = 1e-12,
    relaxation_factor: float = 1e3,
    per_method: Optional[Dict[str, dict]] = None,
) -> FallbackSolution:
    """Try each solver in ``chain`` until one converges.

    Each iterative rung warm-starts from the previous failure's
    ``last_iterate`` (carried on :class:`~repro.errors.SolverError`)
    instead of restarting from the uniform vector.

    Parameters
    ----------
    ctmc:
        The chain to solve (must be irreducible, as for the raw solvers).
    chain:
        Method names in preference order (see
        :data:`DEFAULT_SOLVER_CHAIN`).
    tol:
        Convergence tolerance for the iterative rungs.
    relaxation_factor:
        If every rung fails at ``tol``, the iterative rungs are retried
        once at ``tol * relaxation_factor`` — the single adaptive
        tolerance-relaxation step.  Set to ``None`` (or ``<= 1``) to
        disable the relaxed round.
    per_method:
        Optional per-method keyword overrides, e.g.
        ``{"power": {"max_iterations": 500}}``.

    Returns
    -------
    A :class:`FallbackSolution`; raises :class:`~repro.errors.SolverError`
    (with the attempt list attached as ``attempts``) if every rung of
    both rounds fails.  :class:`~repro.robust.budgets.BudgetExceeded`
    propagates immediately without trying further rungs.
    """
    if not chain:
        raise SolverError("solver fallback chain is empty")
    for method in chain:
        if method not in _METHODS:
            raise SolverError(
                f"unknown method {method!r} in fallback chain; "
                f"choose from {sorted(_METHODS)}"
            )
    per_method = per_method or {}
    attempts: List[SolveAttempt] = []
    warm_start: Optional[np.ndarray] = None

    rounds: List[Tuple[Optional[float], Sequence[str]]] = [(tol, chain)]
    if relaxation_factor is not None and relaxation_factor > 1:
        relaxed = [m for m in chain if m in ITERATIVE_METHODS]
        if relaxed:
            rounds.append((tol * relaxation_factor, relaxed))

    for round_index, (round_tol, round_chain) in enumerate(rounds):
        for method in round_chain:
            kwargs = dict(per_method.get(method, {}))
            warm = None
            if method in ITERATIVE_METHODS:
                kwargs.setdefault("tol", round_tol)
                if warm_start is not None:
                    warm = warm_start
                    kwargs.setdefault("x0", warm)
            start = time.perf_counter()
            try:
                result = _METHODS[method](ctmc, **kwargs)
            except BudgetExceeded:
                raise
            except SolverError as exc:
                attempts.append(
                    SolveAttempt(
                        method=method,
                        succeeded=False,
                        seconds=time.perf_counter() - start,
                        tolerance=round_tol if method in ITERATIVE_METHODS else None,
                        iterations=exc.iterations,
                        residual=exc.residual,
                        error=str(exc),
                        warm_started=warm is not None,
                    )
                )
                if exc.last_iterate is not None:
                    warm_start = exc.last_iterate
                continue
            attempts.append(
                SolveAttempt(
                    method=method,
                    succeeded=True,
                    seconds=time.perf_counter() - start,
                    tolerance=round_tol if method in ITERATIVE_METHODS else None,
                    iterations=result.iterations,
                    residual=result.residual,
                    warm_started=warm is not None,
                )
            )
            return FallbackSolution(
                result=result,
                attempts=attempts,
                requested_method=chain[0],
                relaxed_tolerance=round_tol if round_index > 0 else None,
            )

    summary = "; ".join(
        f"{a.method}: {a.error}" for a in attempts if not a.succeeded
    )
    error = SolverError(
        f"all {len(attempts)} fallback attempts failed ({summary})"
    )
    error.attempts = attempts
    raise error


_ENGINES = {
    "mdd": reachable_mdd,
    "bfs": reachable_bfs,
    "saturation": reachable_saturation,
}

#: The default engine chain: symbolic first, explicit as the safety net.
DEFAULT_ENGINE_CHAIN: Tuple[str, ...] = ("mdd", "bfs")


@dataclass
class EngineAttempt:
    """Diagnostics of one reachability-engine attempt."""

    engine: str
    succeeded: bool
    seconds: float
    error: Optional[str] = None


@dataclass
class EngineFallbackResult:
    """A reachable state space plus the engine attempts that led to it."""

    result: ReachabilityResult
    attempts: List[EngineAttempt] = field(default_factory=list)
    requested_engine: str = ""

    @property
    def engine(self) -> str:
        """The engine that produced the state space."""
        return self.result.engine

    @property
    def degraded(self) -> bool:
        """Whether a non-preferred engine had to be used."""
        return self.engine != self.requested_engine


def reachable_with_fallback(
    model: Any,
    engines: Sequence[str] = DEFAULT_ENGINE_CHAIN,
) -> EngineFallbackResult:
    """Generate the reachable state space, falling back across engines.

    Both engines compute the same set, so falling from ``mdd`` to ``bfs``
    loses no precision — only the symbolic representation.  Engine
    failures (any :class:`~repro.errors.ReproError` except
    :class:`~repro.robust.budgets.BudgetExceeded`, plus ``MemoryError``)
    trigger the next engine; budget exhaustion propagates.
    """
    if not engines:
        raise StateSpaceError("reachability engine chain is empty")
    for engine in engines:
        if engine not in _ENGINES:
            raise StateSpaceError(
                f"unknown engine {engine!r} in fallback chain; "
                f"choose from {sorted(_ENGINES)}"
            )
    attempts: List[EngineAttempt] = []
    for engine in engines:
        start = time.perf_counter()
        try:
            result = _ENGINES[engine](model)
        except BudgetExceeded:
            raise
        except (ReproError, MemoryError) as exc:
            attempts.append(
                EngineAttempt(
                    engine=engine,
                    succeeded=False,
                    seconds=time.perf_counter() - start,
                    error=f"{type(exc).__name__}: {exc}",
                )
            )
            continue
        attempts.append(
            EngineAttempt(
                engine=engine,
                succeeded=True,
                seconds=time.perf_counter() - start,
            )
        )
        return EngineFallbackResult(
            result=result, attempts=attempts, requested_engine=engines[0]
        )

    summary = "; ".join(
        f"{a.engine}: {a.error}" for a in attempts if not a.succeeded
    )
    error = StateSpaceError(
        f"all {len(attempts)} reachability engines failed ({summary})"
    )
    error.attempts = attempts
    raise error
