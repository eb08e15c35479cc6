"""Tests for the MD-product solver suite: diagonal extraction, Jacobi,
power — cross-validated against flat solvers on the tandem."""

import numpy as np
import pytest

from repro.errors import SolverError
from repro.markov import CTMC, steady_state
from repro.matrixdiagram import MDOperator, flatten, md_from_kronecker_terms


def irreducible_md():
    flip_a = np.array([[0.5, 1.0], [2.0, 0.0]])  # note the self-loop
    flip_b = np.array([[0.0, 0.5], [1.5, 0.25]])
    return md_from_kronecker_terms(
        [(1.0, [flip_a, np.eye(2)]), (1.0, [np.eye(2), flip_b])], (2, 2)
    )


class TestDiagonal:
    def test_matches_flat_diagonal(self):
        md = irreducible_md()
        op = MDOperator(md)
        flat = flatten(md).toarray()
        assert np.abs(op.diagonal() - np.diag(flat)).max() < 1e-12

    def test_zero_diagonal_md(self):
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        md = md_from_kronecker_terms([(1.0, [off, off])], (2, 2))
        op = MDOperator(md)
        # Kron of two antidiagonals has a nonzero diagonal only where both
        # levels are diagonal - here never... but (0,1)x(0,1)->(01,01)?
        # kron(off, off) has entries at ((0,0),(1,1)) etc.; its diagonal
        # is zero.
        assert np.abs(op.diagonal() - np.diag(flatten(md).toarray())).max() == 0

    def test_tandem_diagonal(self, small_tandem):
        md = small_tandem["model"].md
        op = MDOperator(md)
        flat = flatten(md)
        assert np.abs(op.diagonal() - flat.diagonal()).max() < 1e-12


class TestMDJacobi:
    def test_matches_direct_solver(self):
        md = irreducible_md()
        op = MDOperator(md)
        pi = op.steady_state_jacobi(np.full(4, 0.25), tol=1e-13)
        reference = steady_state(CTMC(flatten(md))).distribution
        assert np.abs(pi - reference).max() < 1e-9

    def test_matches_md_power(self):
        md = irreducible_md()
        op = MDOperator(md)
        jacobi = op.steady_state_jacobi(np.full(4, 0.25), tol=1e-13)
        power = op.steady_state_power(np.full(4, 0.25), tol=1e-13)
        assert np.abs(jacobi - power).max() < 1e-9

    def test_tandem_restricted_support(self):
        # A fast-mixing tandem variant (the default failure rate of 1e-3
        # makes the chain stiff and fixed-point iteration needlessly slow
        # for a unit test).
        from repro.models import TandemParams, build_tandem, tandem_md_model
        from repro.models.tandem import projected_event_model
        from repro.statespace import reachable_bfs

        params = TandemParams(
            jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2,
            failure_rate=0.5, repair_rate=2.0,
        )
        compiled = build_tandem(params)
        reach = reachable_bfs(compiled.event_model)
        event_model = projected_event_model(compiled, reach)
        reach = reachable_bfs(event_model)
        model = tandem_md_model(event_model, params, reachable=reach)

        op = MDOperator(model.md)
        n = model.potential_size()
        reachable = model.reachable
        initial = np.zeros(n)
        initial[reachable] = 1.0 / len(reachable)
        pi = op.steady_state_jacobi(initial, tol=1e-11)
        reference = steady_state(model.flat_ctmc()).distribution
        assert np.abs(pi[reachable] - reference).max() < 1e-7
        off_support = np.delete(pi, reachable)
        assert off_support.max(initial=0.0) < 1e-12

    def test_bad_inputs(self):
        md = irreducible_md()
        op = MDOperator(md)
        with pytest.raises(SolverError):
            op.steady_state_jacobi(np.zeros(3))
        with pytest.raises(SolverError):
            op.steady_state_jacobi(np.full(4, 0.3))

    def test_iteration_limit(self):
        md = irreducible_md()
        op = MDOperator(md)
        with pytest.raises(SolverError):
            op.steady_state_jacobi(
                np.array([1.0, 0, 0, 0]), max_iterations=1
            )
