"""Differential tests for the shared iterative-solver loop.

The oracle is the three flat iterative solvers as they were before
``repro.markov.solvers`` gave them one loop (``tests/solver_oracle.py``),
each with its own copy of the checkpoint resume, budget charge,
convergence test, snapshots and non-convergence error.  On random chains
from :func:`repro.markov.random_chains.random_ctmc` (1-40 states, varying
density) the new solvers must return byte-identical distributions with
equal iteration counts, residuals and notes, raise ``SolverError`` with
the same attributes (``last_iterate`` byte for byte), and leave the same
checkpoint snapshots when a budget stops them.
"""

import json
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import SolverError
from repro.markov import solvers
from repro.markov.random_chains import random_ctmc
from repro.robust.budgets import Budget, BudgetExceeded
from repro.robust.checkpoint import Checkpointer
from tests import solver_oracle

DIFFERENTIAL = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: method name -> (library solver, oracle solver)
SOLVERS = {
    "power": (solvers.steady_state_power, solver_oracle.steady_state_power),
    "jacobi": (
        solvers.steady_state_jacobi,
        solver_oracle.steady_state_jacobi,
    ),
    "gauss-seidel": (
        solvers.steady_state_gauss_seidel,
        solver_oracle.steady_state_gauss_seidel,
    ),
}

METHODS = sorted(SOLVERS)


@st.composite
def chains(draw, min_states=1):
    """Irreducible random chains.  Densities below 0.2 make power
    iteration take up to 10^5 sweeps, too slow for a unit test."""
    states = draw(st.integers(min_value=min_states, max_value=40))
    density = draw(st.floats(min_value=0.2, max_value=1.0))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_ctmc(states, density=density, seed=seed)


def _bits(value):
    return None if value is None else np.asarray(value, dtype=float).tobytes()


def outcome(solver, ctmc, **kwargs):
    """What a solve returns or raises, with every float as its bytes."""
    try:
        result = solver(ctmc, **kwargs)
    except SolverError as exc:
        return (
            "error",
            exc.method,
            exc.iterations,
            _bits(exc.residual),
            _bits(exc.last_iterate),
        )
    return (
        "result",
        result.method,
        _bits(result.distribution),
        result.iterations,
        _bits(result.residual),
        result.note,
    )


def assert_same(method, ctmc, **kwargs):
    new, old = SOLVERS[method]
    ours = outcome(new, ctmc, **kwargs)
    assert ours == outcome(old, ctmc, **kwargs)
    return ours


@pytest.mark.parametrize("method", METHODS)
@DIFFERENTIAL
@given(ctmc=chains(), tol=st.sampled_from([None, 1e-6]))
def test_same_result_at_default_and_loose_tol(method, ctmc, tol):
    kwargs = {} if tol is None else {"tol": tol}
    assert assert_same(method, ctmc, **kwargs)[0] == "result"


@pytest.mark.parametrize("method", METHODS)
@DIFFERENTIAL
@given(ctmc=chains(min_states=2), limit=st.integers(1, 6))
def test_same_error_when_stopped_before_convergence(method, ctmc, limit):
    # tol=0 never converges: every solve ends in the SolverError.
    kind = assert_same(method, ctmc, tol=0.0, max_iterations=limit)[0]
    assert kind == "error"


@pytest.mark.parametrize("method", METHODS)
@DIFFERENTIAL
@given(
    ctmc=chains(),
    start=st.sampled_from(["random", "zero", "nan"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_same_result_from_a_warm_start(method, ctmc, start, seed):
    x0 = np.random.default_rng(seed).random(ctmc.num_states)
    if start == "zero":
        x0[:] = 0.0
    elif start == "nan":
        x0[seed % ctmc.num_states] = np.nan
    assert_same(method, ctmc, x0=x0)


class RecordingCheckpointer(Checkpointer):
    """A checkpointer that also keeps every save it was asked to make."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.saves = []

    def save(self, key, payload, guard=None, complete=False):
        self.saves.append(json.dumps([key, payload, guard, complete]))
        super().save(key, payload, guard=guard, complete=complete)


def budget_stopped_saves(solver, ctmc, budget):
    """The saves of a solve under a checkpointer ticking every third
    iteration, stopped after ``budget`` iterations (unless it converges
    first)."""
    with tempfile.TemporaryDirectory() as directory:
        with RecordingCheckpointer(directory, interval_iterations=3) as ck:
            try:
                with Budget(max_iterations=budget):
                    solver(ctmc)
            except BudgetExceeded:
                pass
    return ck.saves, [(event.kind, event.key) for event in ck.events]


@pytest.mark.parametrize("method", METHODS)
@DIFFERENTIAL
@given(ctmc=chains(min_states=2), budget=st.integers(1, 20))
def test_same_snapshots_when_a_budget_stops_the_solve(method, ctmc, budget):
    new, old = SOLVERS[method]
    saves, events = budget_stopped_saves(new, ctmc, budget)
    assert saves
    assert (saves, events) == budget_stopped_saves(old, ctmc, budget)
