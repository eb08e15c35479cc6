"""Solver and engine fallback chains: every rung, warm starts, relaxation."""

import numpy as np
import pytest

from repro.errors import SolverError, StateSpaceError
from repro.markov.ctmc import CTMC
from repro.markov.solvers import steady_state_direct
from repro.robust.fallback import (
    DEFAULT_SOLVER_CHAIN,
    reachable_with_fallback,
    solve_with_fallback,
)
from repro.robust.faults import inject_faults
from repro.statespace import reachable_bfs


@pytest.fixture(scope="module")
def chain_ctmc():
    """A small irreducible chain with a known direct solution."""
    rng = np.random.default_rng(3)
    n = 12
    triples = []
    for i in range(n):
        triples.append((i, (i + 1) % n, 1.0 + rng.random()))
        triples.append((i, (i + 3) % n, 0.5 * rng.random()))
    return CTMC.from_transitions(n, triples)


@pytest.fixture(scope="module")
def reference(chain_ctmc):
    return steady_state_direct(chain_ctmc).distribution


def test_clean_run_uses_first_rung(chain_ctmc, reference):
    solution = solve_with_fallback(chain_ctmc)
    assert solution.method == "direct"
    assert not solution.degraded
    assert solution.relaxed_tolerance is None
    assert [a.method for a in solution.attempts] == ["direct"]
    np.testing.assert_allclose(solution.distribution, reference, atol=1e-8)


@pytest.mark.parametrize(
    "downed, winner",
    [
        ("solver.direct", "gauss-seidel"),
        ("solver.direct,solver.gauss-seidel", "jacobi"),
        ("solver.direct,solver.gauss-seidel,solver.jacobi", "power"),
    ],
)
def test_each_rung_wins_when_earlier_rungs_fail(
    chain_ctmc, reference, downed, winner
):
    with inject_faults(downed):
        solution = solve_with_fallback(chain_ctmc)
    assert solution.method == winner
    assert solution.degraded
    failed = [a for a in solution.attempts if not a.succeeded]
    assert len(failed) == len(downed.split(","))
    assert all(a.error for a in failed)
    np.testing.assert_allclose(solution.distribution, reference, atol=1e-8)


def test_all_rungs_failing_raises_with_attempts(chain_ctmc):
    spec = (
        "solver.direct,solver.gauss-seidel,solver.jacobi,solver.power"
    )
    with inject_faults(spec):
        with pytest.raises(SolverError) as excinfo:
            solve_with_fallback(chain_ctmc)
    attempts = excinfo.value.attempts
    # 4 rungs in round one + 3 iterative rungs in the relaxed round.
    assert len(attempts) == 7
    assert not any(a.succeeded for a in attempts)


def test_tolerance_relaxation_round(chain_ctmc, reference):
    """If every rung fails once, the relaxed round recovers."""
    spec = (
        "solver.direct,solver.gauss-seidel:1,solver.jacobi:1,solver.power:1"
    )
    with inject_faults(spec):
        solution = solve_with_fallback(chain_ctmc, tol=1e-12)
    assert solution.method == "gauss-seidel"
    assert solution.relaxed_tolerance == pytest.approx(1e-9)
    assert solution.degraded
    # The relaxed tolerance still yields a usable answer on this chain.
    np.testing.assert_allclose(solution.distribution, reference, atol=1e-6)


def test_relaxation_can_be_disabled(chain_ctmc):
    spec = (
        "solver.direct,solver.gauss-seidel,solver.jacobi,solver.power"
    )
    with inject_faults(spec):
        with pytest.raises(SolverError) as excinfo:
            solve_with_fallback(chain_ctmc, relaxation_factor=None)
    assert len(excinfo.value.attempts) == 4


def test_warm_start_reuses_partial_progress(chain_ctmc, reference):
    """A truncated power run's last iterate seeds the next rung."""
    solution = solve_with_fallback(
        chain_ctmc,
        chain=("power", "gauss-seidel"),
        per_method={"power": {"max_iterations": 3}},
    )
    assert solution.method == "gauss-seidel"
    power_attempt, gs_attempt = solution.attempts[:2]
    assert not power_attempt.succeeded
    assert power_attempt.iterations == 3
    assert power_attempt.residual is not None
    assert gs_attempt.warm_started
    np.testing.assert_allclose(solution.distribution, reference, atol=1e-8)


def test_solver_error_carries_structured_context(chain_ctmc):
    with pytest.raises(SolverError) as excinfo:
        solve_with_fallback(
            chain_ctmc,
            chain=("power",),
            relaxation_factor=None,
            per_method={"power": {"max_iterations": 4}},
        )
    attempt = excinfo.value.attempts[0]
    assert attempt.iterations == 4
    assert attempt.residual is not None


def test_unknown_method_rejected(chain_ctmc):
    with pytest.raises(SolverError):
        solve_with_fallback(chain_ctmc, chain=("direct", "cg"))
    with pytest.raises(SolverError):
        solve_with_fallback(chain_ctmc, chain=())


def test_default_chain_shape():
    assert DEFAULT_SOLVER_CHAIN == (
        "direct",
        "gauss-seidel",
        "jacobi",
        "power",
    )


# ----------------------------------------------------------------------
# reachability engine fallback
# ----------------------------------------------------------------------


def test_mdd_engine_falls_back_to_bfs(small_tandem):
    event_model = small_tandem["event_model"]
    expected = reachable_bfs(event_model)
    with inject_faults("reachability.mdd"):
        run = reachable_with_fallback(event_model, engines=("mdd", "bfs"))
    assert run.engine == "bfs"
    assert run.degraded
    assert run.requested_engine == "mdd"
    assert [a.engine for a in run.attempts] == ["mdd", "bfs"]
    assert not run.attempts[0].succeeded
    # The fallback engine produces the identical state space.
    assert run.result.states == expected.states


def test_all_engines_failing_raises_with_attempts(small_tandem):
    with inject_faults("reachability.mdd,reachability.bfs"):
        with pytest.raises(StateSpaceError) as excinfo:
            reachable_with_fallback(
                small_tandem["event_model"], engines=("mdd", "bfs")
            )
    assert len(excinfo.value.attempts) == 2


def test_bfs_only_chain(small_tandem):
    run = reachable_with_fallback(
        small_tandem["event_model"], engines=("bfs",)
    )
    assert run.engine == "bfs"
    assert not run.degraded


def test_unknown_engine_rejected(small_tandem):
    with pytest.raises(StateSpaceError):
        reachable_with_fallback(
            small_tandem["event_model"], engines=("mdd", "dfs")
        )
    with pytest.raises(StateSpaceError):
        reachable_with_fallback(small_tandem["event_model"], engines=())
