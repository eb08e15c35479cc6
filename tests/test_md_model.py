"""Tests for MDModel: decomposable rewards/initial vectors over an MD."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.lumping import MDModel
from repro.matrixdiagram import md_from_kronecker_terms


@pytest.fixture()
def tiny_md():
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    return md_from_kronecker_terms(
        [(1.0, [a, np.eye(3)]), (2.0, [np.eye(2), np.ones((3, 3))])], (2, 3)
    )


class TestVectors:
    def test_default_rewards_zero(self, tiny_md):
        model = MDModel(tiny_md)
        assert np.array_equal(model.global_rewards(), np.zeros(6))

    def test_sum_combiner(self, tiny_md):
        model = MDModel(
            tiny_md,
            level_rewards=[[1.0, 2.0], [10.0, 20.0, 30.0]],
            reward_combiner="sum",
        )
        expected = np.add.outer([1.0, 2.0], [10.0, 20.0, 30.0]).ravel()
        assert np.array_equal(model.global_rewards(), expected)

    def test_product_combiner(self, tiny_md):
        model = MDModel(
            tiny_md,
            level_rewards=[[1.0, 0.0], [1.0, 1.0, 0.0]],
            reward_combiner="product",
        )
        expected = np.multiply.outer([1.0, 0.0], [1.0, 1.0, 0.0]).ravel()
        assert np.array_equal(model.global_rewards(), expected)

    def test_initial_is_normalized_product(self, tiny_md):
        model = MDModel(
            tiny_md, level_initial=[[1.0, 0.0], [0.0, 2.0, 0.0]]
        )
        pi = model.global_initial()
        assert pi.sum() == pytest.approx(1.0)
        assert pi[model.md.level_sizes[1] * 0 + 1] == 1.0

    def test_unnormalized_initial(self, tiny_md):
        model = MDModel(tiny_md, level_initial=[[2.0, 0.0], [1.0, 1.0, 0.0]])
        raw = model.global_initial(normalize=False)
        assert raw.sum() == pytest.approx(4.0)

    def test_zero_initial_mass_rejected(self, tiny_md):
        model = MDModel(tiny_md, level_initial=[[0.0, 0.0], [1.0, 1.0, 1.0]])
        with pytest.raises(ModelError):
            model.global_initial()

    def test_bad_combiner(self, tiny_md):
        with pytest.raises(ModelError):
            MDModel(tiny_md, reward_combiner="mean")

    def test_vector_shape_checked(self, tiny_md):
        with pytest.raises(ModelError):
            MDModel(tiny_md, level_rewards=[[1.0], [1.0, 1.0, 1.0]])

    def test_negative_initial_rejected(self, tiny_md):
        with pytest.raises(ModelError):
            MDModel(tiny_md, level_initial=[[1.0, -1.0], [1.0, 1.0, 1.0]])


class TestRestriction:
    def test_reachable_restricts_vectors(self, tiny_md):
        model = MDModel(
            tiny_md,
            level_rewards=[[1.0, 2.0], [0.0, 10.0, 20.0]],
            reachable=[0, 4],
        )
        assert model.num_states() == 2
        assert np.array_equal(model.global_rewards(), [1.0, 12.0])

    def test_reachable_bounds_checked(self, tiny_md):
        with pytest.raises(ModelError):
            MDModel(tiny_md, reachable=[99])

    def test_repeated_reachable_index_rejected(self, tiny_md):
        with pytest.raises(ModelError, match="reachable index 2 "):
            MDModel(tiny_md, reachable=[4, 2, 0, 2, 4])

    def test_non_integral_reachable_index_rejected(self, tiny_md):
        with pytest.raises(ModelError, match="reachable index 0.5 is not"):
            MDModel(tiny_md, reachable=[0.5, 1.9, 3])

    def test_flat_ctmc_restricted_shape(self, tiny_md):
        model = MDModel(tiny_md, reachable=[0, 1, 2])
        assert model.flat_ctmc().num_states == 3

    def test_state_tuple_roundtrip(self, tiny_md):
        model = MDModel(tiny_md)
        assert model.state_tuple(5) == (1, 2)
        assert model.state_tuple(0) == (0, 0)

    def test_flat_mrp_carries_vectors(self, tiny_md):
        model = MDModel(
            tiny_md,
            level_rewards=[[0.0, 1.0], [0.0, 0.0, 0.0]],
            level_initial=[[1.0, 0.0], [1.0, 0.0, 0.0]],
        )
        mrp = model.flat_mrp()
        assert mrp.rewards.sum() == 3.0  # three states with level-1 substate 1
        assert mrp.initial_distribution[0] == 1.0
