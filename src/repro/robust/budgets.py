"""Composable resource budgets with cooperative checking.

A :class:`Budget` caps wall-clock time, iteration counts, and state-space
size for everything executed inside its ``with`` block.  The library's
long-running loops (reachability frontiers, refinement worklists, solver
sweeps) call the module-level hooks :func:`check_time`,
:func:`charge_iterations` and :func:`check_states`, which are no-ops when
no budget is active and raise a :class:`BudgetExceeded` subclass *during*
the loop otherwise — exploration stops promptly instead of after the fact.

Budgets compose by nesting: every active budget on the stack is charged,
so an outer pipeline budget and an inner per-stage budget can coexist and
whichever is tighter fires first.

>>> from repro.robust.budgets import Budget, IterationBudgetExceeded
>>> with Budget(max_iterations=2) as budget:
...     budget.charge_iterations(2)
...     try:
...         budget.charge_iterations(1)
...     except IterationBudgetExceeded:
...         print("stopped")
stopped
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from types import TracebackType
from typing import Callable, Dict, List, Mapping, Optional, Type

from repro.errors import ReproError


class BudgetExceeded(ReproError):
    """A resource budget was exhausted.

    Attributes
    ----------
    stage:
        The pipeline stage that was executing when the budget fired
        (``None`` when the charging site did not name one).
    budget:
        The :class:`Budget` that fired.
    """

    def __init__(
        self,
        message: str,
        *,
        stage: Optional[str] = None,
        budget: Optional["Budget"] = None,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.budget = budget


class TimeBudgetExceeded(BudgetExceeded):
    """The wall-clock allowance ran out."""


class IterationBudgetExceeded(BudgetExceeded):
    """The iteration allowance ran out."""


class StateBudgetExceeded(BudgetExceeded):
    """The state-count allowance was exceeded."""


def _as_float(value: object, default: float) -> float:
    """Narrow a deserialized JSON value to ``float`` (``None`` -> default)."""
    if value is None:
        return default
    if isinstance(value, (int, float, str)):
        return float(value)
    raise TypeError(f"expected a number, got {type(value).__name__}")


def _as_int(value: object, default: int) -> int:
    """Narrow a deserialized JSON value to ``int`` (``None`` -> default)."""
    if value is None:
        return default
    if isinstance(value, (int, float, str)):
        return int(value)
    raise TypeError(f"expected a number, got {type(value).__name__}")


@dataclass
class BudgetConsumption:
    """Snapshot of how much of a budget has been used."""

    elapsed_seconds: float
    iterations_used: int
    peak_states: int
    wall_clock_seconds: Optional[float]
    max_iterations: Optional[int]
    max_states: Optional[int]

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for reports and serialization."""
        return {
            "elapsed_seconds": self.elapsed_seconds,
            "iterations_used": self.iterations_used,
            "peak_states": self.peak_states,
            "wall_clock_seconds": self.wall_clock_seconds,
            "max_iterations": self.max_iterations,
            "max_states": self.max_states,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "BudgetConsumption":
        """Inverse of :meth:`to_dict` (tolerates missing keys)."""
        limit = data.get("wall_clock_seconds")
        iter_limit = data.get("max_iterations")
        state_limit = data.get("max_states")
        return cls(
            elapsed_seconds=_as_float(data.get("elapsed_seconds"), 0.0),
            iterations_used=_as_int(data.get("iterations_used"), 0),
            peak_states=_as_int(data.get("peak_states"), 0),
            wall_clock_seconds=None if limit is None else _as_float(limit, 0.0),
            max_iterations=None if iter_limit is None else _as_int(iter_limit, 0),
            max_states=None if state_limit is None else _as_int(state_limit, 0),
        )


class Budget:
    """A composable cap on wall-clock seconds, iterations, and states.

    Any limit may be ``None`` (unlimited).  Use as a context manager to
    activate it for the enclosed block; the library's cooperative hooks
    then charge it automatically.  A budget may also be charged explicitly
    through its methods, active or not.
    """

    def __init__(
        self,
        wall_clock_seconds: Optional[float] = None,
        max_iterations: Optional[int] = None,
        max_states: Optional[int] = None,
    ) -> None:
        for name, value in (
            ("wall_clock_seconds", wall_clock_seconds),
            ("max_iterations", max_iterations),
            ("max_states", max_states),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive, not {value!r}")
        self.wall_clock_seconds = wall_clock_seconds
        self.max_iterations = max_iterations
        self.max_states = max_states
        self.iterations_used = 0
        self.peak_states = 0
        self._start: Optional[float] = None
        self._time_countdown = 0

    # ------------------------------------------------------------------
    # activation
    # ------------------------------------------------------------------

    def start(self) -> "Budget":
        """Start (or restart) the wall clock; returns ``self``."""
        self._start = time.perf_counter()
        return self

    def __enter__(self) -> "Budget":
        if self._start is None:
            self.start()
        _ACTIVE.append(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        _ACTIVE.remove(self)

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds since :meth:`start` (0.0 before it)."""
        if self._start is None:
            return 0.0
        return time.perf_counter() - self._start

    # ------------------------------------------------------------------
    # charging
    # ------------------------------------------------------------------

    def check_time(self, stage: Optional[str] = None) -> None:
        """Raise :class:`TimeBudgetExceeded` if the wall clock ran out."""
        if self.wall_clock_seconds is None:
            return
        elapsed = self.elapsed_seconds
        if elapsed > self.wall_clock_seconds:
            raise TimeBudgetExceeded(
                f"wall-clock budget of {self.wall_clock_seconds:g}s exceeded "
                f"({elapsed:.3f}s elapsed"
                + (f" during {stage}" if stage else "")
                + ")",
                stage=stage,
                budget=self,
            )

    #: Wall-clock checks inside :meth:`charge_iterations` run once per
    #: this many charges — reading the clock on every worklist pop or
    #: solver sweep would dominate the hook's cost.
    TIME_CHECK_STRIDE = 64

    def charge_iterations(
        self, count: int = 1, stage: Optional[str] = None
    ) -> None:
        """Consume ``count`` iterations; raise once the allowance is gone.

        Also checks the wall clock (amortized: once every
        :attr:`TIME_CHECK_STRIDE` charges), so iteration-driven loops
        need only this one hook.
        """
        self.iterations_used += count
        if (
            self.max_iterations is not None
            and self.iterations_used > self.max_iterations
        ):
            raise IterationBudgetExceeded(
                f"iteration budget of {self.max_iterations} exceeded"
                + (f" during {stage}" if stage else ""),
                stage=stage,
                budget=self,
            )
        if self.wall_clock_seconds is not None:
            self._time_countdown -= 1
            if self._time_countdown <= 0:
                self._time_countdown = self.TIME_CHECK_STRIDE
                self.check_time(stage)

    def check_states(self, count: int, stage: Optional[str] = None) -> None:
        """Record a state count; raise if it exceeds the allowance."""
        if count > self.peak_states:
            self.peak_states = count
        if self.max_states is not None and count > self.max_states:
            raise StateBudgetExceeded(
                f"state budget of {self.max_states} exceeded "
                f"({count} states"
                + (f" during {stage}" if stage else "")
                + ")",
                stage=stage,
                budget=self,
            )

    def consumption(self) -> BudgetConsumption:
        """Snapshot of usage against the configured limits."""
        return BudgetConsumption(
            elapsed_seconds=self.elapsed_seconds,
            iterations_used=self.iterations_used,
            peak_states=self.peak_states,
            wall_clock_seconds=self.wall_clock_seconds,
            max_iterations=self.max_iterations,
            max_states=self.max_states,
        )

    def __repr__(self) -> str:
        limits = ", ".join(
            f"{name}={value!r}"
            for name, value in (
                ("wall_clock_seconds", self.wall_clock_seconds),
                ("max_iterations", self.max_iterations),
                ("max_states", self.max_states),
            )
            if value is not None
        )
        return f"Budget({limits or 'unlimited'})"


#: Stack of active budgets (innermost last).  Module-level hooks charge
#: every entry so nested budgets compose.
_ACTIVE: List[Budget] = []

#: Optional liveness callback fired on *every* hook call, budget active
#: or not — the supervisor's heartbeat hangs off this so a supervised
#: child proves liveness at each cooperative check site even when the
#: attempt runs without limits.  Must be cheap and must never raise.
_PULSE: Optional[Callable[[], None]] = None


def set_pulse(pulse: Optional[Callable[[], None]]) -> None:
    """Install (or with ``None`` remove) the liveness pulse callback."""
    global _PULSE
    _PULSE = pulse


def get_pulse() -> Optional[Callable[[], None]]:
    """The installed liveness pulse callback (so a caller can compose
    with it and restore it afterwards)."""
    return _PULSE


def active_budget() -> Optional[Budget]:
    """The innermost active budget, or ``None``."""
    return _ACTIVE[-1] if _ACTIVE else None


def state_allowance() -> Optional[int]:
    """The tightest ``max_states`` among the active budgets (``None`` when
    none caps states), so a set-at-a-time loop can admit states up to the
    first one over the limit before calling :func:`check_states`."""
    limits = [b.max_states for b in _ACTIVE if b.max_states is not None]
    return min(limits) if limits else None


def check_time(stage: Optional[str] = None) -> None:
    """Cooperative hook: check the wall clock of every active budget."""
    if _PULSE is not None:
        _PULSE()
    if not _ACTIVE:
        return
    _fault_check()
    for budget in _ACTIVE:
        budget.check_time(stage)


def charge_iterations(count: int = 1, stage: Optional[str] = None) -> None:
    """Cooperative hook: charge iterations to every active budget."""
    if _PULSE is not None:
        _PULSE()
    if not _ACTIVE:
        return
    _fault_check()
    for budget in _ACTIVE:
        budget.charge_iterations(count, stage)


def check_states(count: int, stage: Optional[str] = None) -> None:
    """Cooperative hook: check a state count against every active budget."""
    if _PULSE is not None:
        _PULSE()
    if not _ACTIVE:
        return
    _fault_check()
    for budget in _ACTIVE:
        budget.check_states(count, stage)


#: Cached reference to :func:`repro.robust.faults.check`, resolved on
#: first use (``faults`` imports this module for
#: :class:`InjectedBudgetFault`, so a top-level import would cycle).
_faults_check: Optional[Callable[[str], None]] = None


def _fault_check() -> None:
    """Let the fault injector force budget exhaustion at charge sites."""
    global _faults_check
    if _faults_check is None:
        from repro.robust import faults

        _faults_check = faults.check
    _faults_check("budget")
