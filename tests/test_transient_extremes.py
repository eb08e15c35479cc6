"""Transient analysis at extreme uniformization means (overflow-safe
Poisson branch) and related solver corners."""

import numpy as np
import pytest

from repro.markov import CTMC, transient, transient_distribution
from repro.markov.transient import _poisson_weights
from repro.matrixdiagram import MDOperator, md_from_flat_matrix


class TestLargeMeanPoisson:
    def test_weights_sum_to_one(self):
        for mean in (5.0, 50.0, 800.0, 5000.0):
            weights = _poisson_weights(mean, 1e-10)
            assert weights.sum() == pytest.approx(1.0, abs=1e-8)
            assert (weights >= 0).all()

    def test_mode_near_mean(self):
        weights = _poisson_weights(1000.0, 1e-10)
        assert abs(int(np.argmax(weights)) - 1000) <= 2

    def test_fast_chain_reaches_stationary_quickly(self):
        # lambda*t ~ 2000: exercises the large-mean branch end to end.
        chain = CTMC.from_transitions(
            2, [(0, 1, 1000.0), (1, 0, 1000.0)]
        )
        pi_t = transient_distribution(chain, [1.0, 0.0], 1.0)
        assert pi_t == pytest.approx([0.5, 0.5], abs=1e-9)

    def test_asymmetric_fast_chain(self):
        chain = CTMC.from_transitions(
            2, [(0, 1, 900.0), (1, 0, 300.0)]
        )
        pi_t = transient_distribution(chain, [1.0, 0.0], 2.0)
        assert pi_t == pytest.approx([0.25, 0.75], abs=1e-9)

    def test_absurd_mean_rejected_cleanly(self):
        # lambda*t ~ 2e9 would need billions of Poisson terms; the solver
        # must refuse with a clear error instead of exhausting memory.
        from repro.errors import SolverError

        chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
        with pytest.raises(SolverError):
            transient_distribution(chain, [1.0, 0.0], 1e9)

    def test_moderate_time_matches_analytic(self):
        lam = 400.0
        chain = CTMC.from_transitions(2, [(0, 1, lam), (1, 0, lam)])
        t = 0.002  # lambda*t = 0.8: small mean, while rates are large
        pi_t = transient_distribution(chain, [1.0, 0.0], t)
        expected = 0.5 * (1 + np.exp(-2 * lam * t))
        assert pi_t[0] == pytest.approx(expected, abs=1e-9)


class TestLongHorizon:
    RATES = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0], [0.0, 4.0, 0.0]])

    def test_md_transient_matches_flat_past_exp_underflow(self):
        # lambda*t = 1.01 * 4 * 200 = 808: exp(-808) underflows to 0.0,
        # so the Poisson weights must come from the large-mean branch.
        chain = CTMC(self.RATES)
        operator = MDOperator(md_from_flat_matrix(self.RATES))
        pi_md = operator.transient(np.array([1.0, 0.0, 0.0]), 200.0)
        pi_flat = transient_distribution(chain, [1.0, 0.0, 0.0], 200.0)
        assert np.abs(pi_md - pi_flat).max() <= 1e-12
        assert pi_flat == pytest.approx([2 / 9, 4 / 9, 1 / 3], abs=1e-12)

    def test_flat_transient_makes_one_product_per_weight_after_the_first(
        self, monkeypatch
    ):
        products = []

        class Counting:
            """The uniformized matrix, counting ``vector @ P``."""

            __array_ufunc__ = None  # numpy defers ``@`` to __rmatmul__

            def __init__(self, matrix):
                self.matrix = matrix

            def __rmatmul__(self, vector):
                products.append(len(vector))
                return vector @ self.matrix

        uniformize = transient.uniformize

        def counting_uniformize(ctmc):
            p, lam = uniformize(ctmc)
            return Counting(p), lam

        monkeypatch.setattr(transient, "uniformize", counting_uniformize)
        chain = CTMC(self.RATES)
        transient_distribution(chain, [1.0, 0.0, 0.0], 3.0)
        weights = _poisson_weights(chain.uniformization_rate() * 3.0, 1e-12)
        assert len(products) == len(weights) - 1

    @pytest.mark.parametrize("time", [np.inf, np.nan])
    def test_non_finite_horizon_rejected_by_both_entry_points(self, time):
        from repro.errors import SolverError

        start = np.array([1.0, 0.0, 0.0])
        with pytest.raises(SolverError):
            transient_distribution(CTMC(self.RATES), start, time)
        operator = MDOperator(md_from_flat_matrix(self.RATES))
        with pytest.raises(SolverError):
            operator.transient(start, time)
