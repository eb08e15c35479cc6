"""Restart policy for supervised execution: backoff + degradation.

Two orthogonal pieces:

* :class:`RetryPolicy` — how many restarts, and how long to wait between
  them.  Backoff is exponential with *deterministic* jitter: the jitter
  for restart ``i`` is drawn from ``random.Random`` seeded by
  ``(seed, i)``, so a replayed crash schedule produces byte-identical
  backoff decisions (and hence identical supervisor logs/reports).

* :class:`DegradationLevel` / :data:`DEFAULT_LADDER` — *what to change*
  on each successive failure.  The ladder trades result cost for
  survivability in the order the issue mandates: shorter checkpoint
  intervals (lose less work per crash) → ``degrade=True`` lumping
  (identity partitions on pathological levels, still exact) → the
  iterative-only solver chain (skips a possibly-crashing direct solve)
  → reduced budgets (fail fast so the circuit breaker can diagnose).

The ladder is data, not code: callers may pass their own tuple of
levels to the supervisor.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.robust.budgets import Budget


@dataclass(frozen=True)
class RetryPolicy:
    """Restart count and backoff schedule for the supervisor."""

    #: Restarts after the first attempt; total attempts = max_restarts + 1.
    max_restarts: int = 4
    backoff_initial_seconds: float = 0.1
    backoff_factor: float = 2.0
    backoff_max_seconds: float = 30.0
    #: Fraction of the base delay used as the jitter range.
    jitter_fraction: float = 0.1
    #: Seed for deterministic jitter; same seed + same restart index
    #: always yields the same delay.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, not {self.max_restarts!r}"
            )
        if self.backoff_initial_seconds < 0:
            raise ValueError(
                "backoff_initial_seconds must be >= 0, "
                f"not {self.backoff_initial_seconds!r}"
            )
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, not {self.backoff_factor!r}"
            )
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError(
                "jitter_fraction must be in [0, 1], "
                f"not {self.jitter_fraction!r}"
            )

    def backoff_seconds(self, restart_index: int) -> float:
        """Delay before restart ``restart_index`` (0-based: the wait
        before the second attempt has index 0)."""
        if restart_index < 0:
            raise ValueError(
                f"restart_index must be >= 0, not {restart_index!r}"
            )
        base = min(
            self.backoff_max_seconds,
            self.backoff_initial_seconds
            * self.backoff_factor**restart_index,
        )
        if base <= 0 or self.jitter_fraction == 0:
            return base
        # Deterministic jitter: a fresh, explicitly seeded generator per
        # (policy seed, restart index) — replays are byte-identical.
        rng = random.Random(self.seed * 1_000_003 + restart_index)
        jitter = base * self.jitter_fraction * (2.0 * rng.random() - 1.0)
        return max(0.0, min(self.backoff_max_seconds, base + jitter))


@dataclass(frozen=True)
class DegradationLevel:
    """One rung of the progressive degradation ladder."""

    name: str
    #: Checkpoint cadence in cooperative iterations (None = module default).
    checkpoint_interval: Optional[int] = None
    #: Enable graceful per-level lumping degradation (identity partition
    #: on levels that fail to refine; still exact).
    lumping_degrade: bool = False
    #: Override the solver fallback chain (None = the default chain,
    #: starting at the requested method).
    solver_chain: Optional[Tuple[str, ...]] = None
    #: Multiply the caller's budgets by this factor (1.0 = unchanged).
    budget_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError(
                "checkpoint_interval must be >= 1, "
                f"not {self.checkpoint_interval!r}"
            )
        if not 0.0 < self.budget_scale <= 1.0:
            raise ValueError(
                f"budget_scale must be in (0, 1], not {self.budget_scale!r}"
            )


#: The default ladder: level ``min(consecutive_failures, len - 1)``.
#: Rungs 0–2 are bitwise-neutral for the final results (checkpointing
#: cadence and degrade-on-*failure* lumping do not change outputs on a
#: pipeline whose lumping succeeds); rungs 3–4 may change the numbers
#: (weaker solver, tighter budgets) and exist to keep *something*
#: completing so the breaker's diagnosis has data.
DEFAULT_LADDER: Tuple[DegradationLevel, ...] = (
    DegradationLevel(name="baseline"),
    DegradationLevel(name="frequent-checkpoints", checkpoint_interval=32),
    DegradationLevel(
        name="degraded-lumping",
        checkpoint_interval=32,
        lumping_degrade=True,
    ),
    DegradationLevel(
        name="iterative-solver",
        checkpoint_interval=16,
        lumping_degrade=True,
        solver_chain=("gauss-seidel", "jacobi", "power"),
    ),
    DegradationLevel(
        name="reduced-budgets",
        checkpoint_interval=16,
        lumping_degrade=True,
        solver_chain=("gauss-seidel", "jacobi", "power"),
        budget_scale=0.5,
    ),
)


def level_for_failures(
    failures: int, ladder: Sequence[DegradationLevel] = DEFAULT_LADDER
) -> DegradationLevel:
    """The rung to use after ``failures`` consecutive failed attempts
    (saturating at the last rung)."""
    if failures < 0:
        raise ValueError(f"failures must be >= 0, not {failures!r}")
    if not ladder:
        raise ValueError("ladder must not be empty")
    return ladder[min(failures, len(ladder) - 1)]


def scale_budget(budget: Optional[Budget], scale: float) -> Optional[Budget]:
    """A *fresh* budget with limits multiplied by ``scale``.

    Fresh matters: each supervised attempt must start with full (scaled)
    headroom, not inherit the consumed counters of the attempt it is
    replacing.  ``None`` stays ``None`` (unlimited).
    """
    if budget is None:
        return None
    if not 0.0 < scale <= 1.0:
        raise ValueError(f"scale must be in (0, 1], not {scale!r}")
    seconds = budget.wall_clock_seconds
    iterations = budget.max_iterations
    states = budget.max_states
    return Budget(
        wall_clock_seconds=None if seconds is None else seconds * scale,
        max_iterations=None
        if iterations is None
        else max(1, int(iterations * scale)),
        max_states=None if states is None else max(1, int(states * scale)),
    )
