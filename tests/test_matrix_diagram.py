"""Tests for the MatrixDiagram container: validation, reduction, rebuild."""

import numpy as np
import pytest

from repro.errors import MatrixDiagramError
from repro.matrixdiagram import (
    FormalSum,
    MatrixDiagram,
    MDNode,
    canonicalize,
    flatten,
    md_add,
    md_from_flat_matrix,
    md_from_kronecker_terms,
    md_identity,
    md_scale,
)


def chain_md() -> MatrixDiagram:
    """Two-level MD: root references two distinct terminal nodes."""
    nodes = {
        1: MDNode(
            1,
            {
                (0, 0): FormalSum.of(2, 1.0),
                (0, 1): FormalSum.of(3, 2.0),
            },
            terminal=False,
        ),
        2: MDNode(2, {(0, 0): 1.0}, terminal=True),
        3: MDNode(2, {(0, 1): 5.0}, terminal=True),
    }
    return MatrixDiagram((2, 2), nodes, root=1)


class TestValidation:
    def test_valid_md_accepted(self):
        md = chain_md()
        assert md.num_levels == 2
        assert md.num_nodes == 3

    def test_missing_root(self):
        with pytest.raises(MatrixDiagramError):
            MatrixDiagram((2,), {2: MDNode(1, {}, terminal=True)}, root=1)

    def test_root_must_be_level_one(self):
        nodes = {
            1: MDNode(2, {(0, 0): 1.0}, terminal=True),
        }
        with pytest.raises(MatrixDiagramError):
            MatrixDiagram((2, 2), nodes, root=1)

    def test_dangling_child_reference(self):
        nodes = {
            1: MDNode(1, {(0, 0): FormalSum.of(99)}, terminal=False),
        }
        with pytest.raises(MatrixDiagramError):
            MatrixDiagram((2, 2), nodes, root=1)

    def test_substate_out_of_range(self):
        nodes = {1: MDNode(1, {(5, 0): 1.0}, terminal=True)}
        with pytest.raises(MatrixDiagramError):
            MatrixDiagram((2,), nodes, root=1)

    def test_terminal_flag_must_match_level(self):
        nodes = {1: MDNode(1, {(0, 0): 1.0}, terminal=True)}
        with pytest.raises(MatrixDiagramError):
            MatrixDiagram((2, 2), nodes, root=1)

    def test_unreachable_node_rejected(self):
        nodes = {
            1: MDNode(1, {(0, 0): FormalSum.of(2)}, terminal=False),
            2: MDNode(2, {(0, 0): 1.0}, terminal=True),
            3: MDNode(2, {(1, 1): 1.0}, terminal=True),
        }
        with pytest.raises(MatrixDiagramError):
            MatrixDiagram((2, 2), nodes, root=1)

    def test_empty_level_sizes_rejected(self):
        with pytest.raises(MatrixDiagramError):
            MatrixDiagram((), {}, root=1)

    def test_label_shape_checked(self):
        nodes = {1: MDNode(1, {(0, 0): 1.0}, terminal=True)}
        with pytest.raises(MatrixDiagramError):
            MatrixDiagram((2,), nodes, root=1, level_state_labels=[["a"]])


class TestAccessors:
    def test_nodes_at(self):
        md = chain_md()
        assert set(md.nodes_at(1)) == {1}
        assert set(md.nodes_at(2)) == {2, 3}

    def test_potential_size(self):
        assert chain_md().potential_size() == 4

    def test_labels(self):
        nodes = {1: MDNode(1, {(0, 1): 1.0}, terminal=True)}
        md = MatrixDiagram((2,), nodes, root=1, level_state_labels=[["x", "y"]])
        assert md.substate_label(1, 1) == "y"
        assert md.level_labels(1) == ["x", "y"]

    def test_unlabeled_label_is_index(self):
        assert chain_md().substate_label(1, 1) == 1
        assert chain_md().level_labels(1) is None

    def test_unknown_node_raises(self):
        with pytest.raises(MatrixDiagramError):
            chain_md().node(42)


class TestQuasiReduction:
    def test_duplicates_merged(self):
        nodes = {
            1: MDNode(
                1,
                {
                    (0, 0): FormalSum.of(2, 1.0),
                    (1, 1): FormalSum.of(3, 1.0),
                },
                terminal=False,
            ),
            2: MDNode(2, {(0, 0): 7.0}, terminal=True),
            3: MDNode(2, {(0, 0): 7.0}, terminal=True),  # duplicate of 2
        }
        md = MatrixDiagram((2, 2), nodes, root=1)
        reduced = md.quasi_reduce()
        assert reduced.num_nodes == 2
        assert reduced.is_reduced()
        # Semantics unchanged.
        assert np.array_equal(
            flatten(md).toarray(), flatten(reduced).toarray()
        )

    def test_reduction_merges_recursively(self):
        # Two level-2 nodes become equal only after their children merge.
        nodes = {
            1: MDNode(
                1,
                {
                    (0, 0): FormalSum.of(2, 1.0),
                    (1, 1): FormalSum.of(3, 1.0),
                },
                terminal=False,
            ),
            2: MDNode(2, {(0, 0): FormalSum.of(4, 2.0)}, terminal=False),
            3: MDNode(2, {(0, 0): FormalSum.of(5, 2.0)}, terminal=False),
            4: MDNode(3, {(1, 0): 3.0}, terminal=True),
            5: MDNode(3, {(1, 0): 3.0}, terminal=True),
        }
        md = MatrixDiagram((2, 2, 2), nodes, root=1)
        reduced = md.quasi_reduce()
        assert reduced.num_nodes == 3

    def test_is_reduced_detects_duplicates(self):
        nodes = {
            1: MDNode(
                1,
                {
                    (0, 0): FormalSum.of(2, 1.0),
                    (1, 1): FormalSum.of(3, 1.0),
                },
                terminal=False,
            ),
            2: MDNode(2, {(0, 0): 7.0}, terminal=True),
            3: MDNode(2, {(0, 0): 7.0}, terminal=True),
        }
        md = MatrixDiagram((2, 2), nodes, root=1)
        assert not md.is_reduced()
        assert md.quasi_reduce().is_reduced()


class TestBuilders:
    def test_md_from_flat_matrix_roundtrip(self):
        matrix = np.array([[0.0, 1.0], [2.0, 0.0]])
        md = md_from_flat_matrix(matrix)
        assert md.num_levels == 1
        assert np.array_equal(flatten(md).toarray(), matrix)

    def test_md_identity(self):
        md = md_identity((2, 3))
        assert np.array_equal(flatten(md).toarray(), np.eye(6))

    def test_kronecker_builder_shares_suffixes(self):
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        identity = np.eye(2)
        # Two terms with identical lower factors share the identity chain.
        md = md_from_kronecker_terms(
            [(1.0, [a, identity, identity]), (2.0, [a.T, identity, identity])],
            (2, 2, 2),
        )
        assert len(md.nodes_at(2)) == 1
        assert len(md.nodes_at(3)) == 1

    def test_kronecker_builder_checks_arity(self):
        with pytest.raises(MatrixDiagramError):
            md_from_kronecker_terms([(1.0, [np.eye(2)])], (2, 2))

    def test_kronecker_builder_needs_terms(self):
        with pytest.raises(MatrixDiagramError):
            md_from_kronecker_terms([], (2,))

    def test_with_nodes_replaces_content(self):
        md = chain_md()
        replacement = MDNode(2, {(1, 1): 9.0}, terminal=True)
        rebuilt = md.with_nodes({2: replacement})
        assert rebuilt.node(2).entry(1, 1) == 9.0
        assert md.node(2).entry(1, 1) == 0.0  # original untouched


class TestQuasiReductionCancellation:
    """Merging duplicates can cancel a parent's formal sum to zero; the
    children it orphans are dropped, not rejected by validation."""

    def test_adding_the_negation_gives_the_zero_md(self):
        a = md_from_kronecker_terms(
            [(1.0, [np.array([[0, 1.0], [2.0, 0]]), np.eye(2)])], (2, 2)
        )
        zero = md_add(a, md_scale(a, -1.0))
        assert zero.level_sizes == (2, 2)
        assert zero.num_nodes == 1
        assert flatten(zero).nnz == 0

    def test_canonicalize_drops_a_cancelled_branch(self):
        # R2 = -R1 becomes R1 once scale-normalized, so the root's
        # 1*R1 + 1*R2 cancels and nothing below the root is reachable.
        nodes = {
            0: MDNode(
                1, {(0, 0): FormalSum({1: 1.0, 2: 1.0})}, terminal=False
            ),
            1: MDNode(2, {(0, 0): FormalSum({3: 1.0})}, terminal=False),
            2: MDNode(2, {(0, 0): FormalSum({3: -1.0})}, terminal=False),
            3: MDNode(3, {}, terminal=True),
        }
        md = MatrixDiagram((1, 2, 1), nodes, root=0)
        canonical = canonicalize(md)
        assert canonical.node_indices() == (0,)
        assert flatten(canonical).nnz == 0
