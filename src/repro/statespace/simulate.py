"""Discrete-event simulation of event models (Gillespie / SSA).

Simulation is the independent oracle the numerical stack is validated
against (and the evaluation method the paper's introduction contrasts
with): trajectories sample the same semantics — exponential races between
the enabled events — so long-run occupancies must converge to the
numerically computed stationary distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StateSpaceError
from repro.statespace.events import EventModel

#: A trajectory that makes this many jumps before its horizon raises.
MAX_JUMPS = 10_000_000


@dataclass
class Trajectory:
    """One simulated path: jump times and the states entered."""

    times: List[float]  # entry time of each state (times[0] == 0.0)
    states: List[Tuple[int, ...]]
    total_time: float

    @property
    def num_jumps(self) -> int:
        """Number of transitions taken."""
        return len(self.states) - 1

    def occupancy(self) -> Dict[Tuple[int, ...], float]:
        """Fraction of total time spent in each visited state."""
        if self.total_time <= 0:
            raise StateSpaceError("trajectory has zero duration")
        out: Dict[Tuple[int, ...], float] = {}
        for index, state in enumerate(self.states):
            start = self.times[index]
            end = (
                self.times[index + 1]
                if index + 1 < len(self.times)
                else self.total_time
            )
            out[state] = out.get(state, 0.0) + (end - start)
        return {state: t / self.total_time for state, t in out.items()}


def simulate(
    model: EventModel,
    horizon: float,
    initial: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
) -> Trajectory:
    """Simulate one trajectory up to time ``horizon``.

    In each state the enabled transitions race exponentially: dwell time
    ~ Exp(total rate), next state chosen proportionally to its rate.
    Self-loops in ``R`` are taken like any other transition (they consume
    a jump but not state change), matching the R-level semantics.
    """
    if horizon <= 0:
        raise StateSpaceError("horizon must be positive")
    rng = np.random.default_rng(seed)
    state = tuple(initial) if initial is not None else model.initial_state
    times = [0.0]
    states = [state]
    now = 0.0
    for _jump in range(MAX_JUMPS):
        transitions = model.successors(state)
        total_rate = sum(rate for _t, rate in transitions)
        if total_rate <= 0:
            # Absorbing state: dwell until the horizon.
            return Trajectory(times, states, horizon)
        now += rng.exponential(1.0 / total_rate)
        if now >= horizon:
            return Trajectory(times, states, horizon)
        threshold = rng.uniform(0.0, total_rate)
        accumulated = 0.0
        for target, rate in transitions:
            accumulated += rate
            if accumulated >= threshold:
                state = target
                break
        times.append(now)
        states.append(state)
    raise StateSpaceError(f"exceeded {MAX_JUMPS} jumps before the horizon")


def estimate_stationary(
    model: EventModel,
    total_time: float,
    burn_in: float = 0.0,
    seed: Optional[int] = None,
) -> Dict[Tuple[int, ...], float]:
    """Long-run occupancy estimate from a single trajectory.

    ``burn_in`` time is discarded before occupancies are accumulated.
    """
    if not 0 <= burn_in < total_time:
        raise StateSpaceError("need 0 <= burn_in < total_time")
    trajectory = simulate(model, total_time, seed=seed)
    window = total_time - burn_in
    out: Dict[Tuple[int, ...], float] = {}
    for index, state in enumerate(trajectory.states):
        start = trajectory.times[index]
        end = (
            trajectory.times[index + 1]
            if index + 1 < len(trajectory.times)
            else total_time
        )
        clipped_start = max(start, burn_in)
        if end > clipped_start:
            out[state] = out.get(state, 0.0) + (end - clipped_start)
    return {state: t / window for state, t in out.items()}


def estimate_reward(
    model: EventModel,
    reward_of_state,
    total_time: float,
    burn_in: float = 0.0,
    seed: Optional[int] = None,
) -> float:
    """Long-run average of a state reward function along a trajectory."""
    occupancy = estimate_stationary(
        model, total_time, burn_in=burn_in, seed=seed
    )
    return float(
        sum(
            fraction * float(reward_of_state(state))
            for state, fraction in occupancy.items()
        )
    )
