"""Tests for the Kronecker descriptor substrate."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.kronecker import (
    KroneckerDescriptor,
    descriptor_to_md,
    descriptor_vector_multiply,
)
from repro.matrixdiagram import flatten


def simple_descriptor():
    d = KroneckerDescriptor((2, 3))
    a = np.array([[0.0, 1.0], [2.0, 0.0]])
    b = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
    d.add_term(1.5, [a, b])
    d.add_term(0.5, [None, b])  # identity on the first component
    reference = 1.5 * np.kron(a, b) + 0.5 * np.kron(np.eye(2), b)
    return d, reference


class TestDescriptor:
    def test_flat_matrix(self):
        d, reference = simple_descriptor()
        assert np.abs(d.flat_matrix().toarray() - reference).max() < 1e-12

    def test_identity_factor_materialized(self):
        d, _ = simple_descriptor()
        identity = d.factor_matrix(1, 0).toarray()
        assert np.array_equal(identity, np.eye(2))

    def test_potential_size(self):
        d, _ = simple_descriptor()
        assert d.potential_size() == 6

    def test_entry_out_of_range_rejected(self):
        d = KroneckerDescriptor((2,))
        with pytest.raises(ModelError):
            d.add_term(1.0, [{(5, 0): 1.0}])

    @pytest.mark.parametrize("entry", [(-1, 0), (0, -1)])
    def test_negative_entry_rejected(self, entry):
        d = KroneckerDescriptor((2,))
        with pytest.raises(ModelError, match="outside component 0"):
            d.add_term(1.0, [{entry: 1.0}])

    def test_wrong_factor_count_rejected(self):
        d = KroneckerDescriptor((2, 2))
        with pytest.raises(ModelError):
            d.add_term(1.0, [np.eye(2)])

    def test_empty_components_rejected(self):
        with pytest.raises(ModelError):
            KroneckerDescriptor(())

    def test_dict_factors_accepted(self):
        d = KroneckerDescriptor((2, 2))
        d.add_term(2.0, [{(0, 1): 1.0}, None])
        expected = 2.0 * np.kron([[0, 1], [0, 0]], np.eye(2))
        assert np.abs(d.flat_matrix().toarray() - expected).max() < 1e-12


class TestShuffleMultiply:
    def test_left_product(self):
        d, reference = simple_descriptor()
        x = np.random.default_rng(1).random(6)
        out = descriptor_vector_multiply(d, x, side="left")
        assert np.abs(out - x @ reference).max() < 1e-12

    def test_right_product(self):
        d, reference = simple_descriptor()
        x = np.random.default_rng(2).random(6)
        out = descriptor_vector_multiply(d, x, side="right")
        assert np.abs(out - reference @ x).max() < 1e-12

    def test_all_identity_term(self):
        d = KroneckerDescriptor((2, 2))
        d.add_term(3.0, [None, None])
        x = np.arange(4.0)
        assert np.array_equal(descriptor_vector_multiply(d, x), 3.0 * x)

    def test_shape_checked(self):
        d, _ = simple_descriptor()
        with pytest.raises(ModelError):
            descriptor_vector_multiply(d, np.zeros(5))

    def test_bad_side(self):
        d, _ = simple_descriptor()
        with pytest.raises(ModelError):
            descriptor_vector_multiply(d, np.zeros(6), side="diagonal")

    def test_matches_md_multiply(self):
        d, reference = simple_descriptor()
        md = descriptor_to_md(d)
        x = np.random.default_rng(3).random(6)
        from repro.matrixdiagram import md_vector_multiply

        assert (
            np.abs(
                descriptor_vector_multiply(d, x) - md_vector_multiply(md, x)
            ).max()
            < 1e-12
        )


class TestToMD:
    def test_md_represents_descriptor(self):
        d, reference = simple_descriptor()
        md = descriptor_to_md(d)
        assert np.abs(flatten(md).toarray() - reference).max() < 1e-12

    def test_md_levels_match_components(self):
        d, _ = simple_descriptor()
        md = descriptor_to_md(d)
        assert md.level_sizes == d.component_sizes

    def test_md_is_reduced(self):
        d, _ = simple_descriptor()
        assert descriptor_to_md(d).is_reduced()

    def test_labels_pass_through(self):
        d, _ = simple_descriptor()
        md = descriptor_to_md(d, level_state_labels=[["u", "d"], ["x", "y", "z"]])
        assert md.substate_label(2, 2) == "z"
