"""Lumpability condition checkers.

These implement the *definitions* directly (Theorem 1 on flat matrices,
Definition 3 on MD levels) and are used throughout the test suite as the
ground truth the algorithms are checked against.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

import numpy as np
from scipy import sparse

from repro.errors import LumpingError
from repro.lumping.compositional import project_indices
from repro.lumping.md_model import MDModel
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.operations import flatten, flatten_entry
from repro.partitions import Partition


def _membership_matrix(partition: Partition) -> sparse.csr_matrix:
    """n x k 0/1 matrix with M[s, c] = 1 iff state s is in class c."""
    class_of = partition.state_class_vector()
    n = partition.n
    k = len(partition)
    return sparse.coo_matrix(
        (np.ones(n), (np.arange(n), class_of)), shape=(n, k)
    ).tocsr()


def is_ordinarily_lumpable(
    rate_matrix: sparse.spmatrix,
    partition: Partition,
    rewards: Optional[Sequence[float]] = None,
    rtol: float = 1e-9,
) -> bool:
    """Theorem 1(a): ``R(s, C') = R(s_hat, C')`` for all classes and all
    equivalent states, and rewards constant on classes (if given)."""
    csr = sparse.csr_matrix(rate_matrix)
    n = csr.shape[0]
    if partition.n != n:
        raise LumpingError("partition size does not match matrix")
    aggregated = (csr @ _membership_matrix(partition)).toarray()  # reprolint: disable=RL003 -- n x k with k = lumped size; rows are compared per block
    scale = max(1.0, float(np.abs(aggregated).max(initial=0.0)))
    if rewards is not None:
        rewards = np.asarray(rewards, dtype=float)
    for block in partition.blocks():
        first = aggregated[block[0]]
        for state in block[1:]:
            if np.abs(aggregated[state] - first).max() > rtol * scale:
                return False
        if rewards is not None:
            values = rewards[list(block)]
            if np.abs(values - values[0]).max() > rtol * max(
                1.0, float(np.abs(values).max())
            ):
                return False
    return True


def is_exactly_lumpable(
    rate_matrix: sparse.spmatrix,
    partition: Partition,
    initial_distribution: Optional[Sequence[float]] = None,
    rtol: float = 1e-9,
) -> bool:
    """Theorem 1(b): ``R(C', s) = R(C', s_hat)``, equal exit rates
    ``R(s, S)``, and initial probabilities constant on classes (if given)."""
    csr = sparse.csr_matrix(rate_matrix)
    n = csr.shape[0]
    if partition.n != n:
        raise LumpingError("partition size does not match matrix")
    aggregated = (_membership_matrix(partition).T @ csr).toarray()  # k x n  # reprolint: disable=RL003 -- k x n with k = lumped size; verification-only
    exit_rates = np.asarray(csr.sum(axis=1)).ravel()
    scale = max(1.0, float(np.abs(aggregated).max(initial=0.0)))
    if initial_distribution is not None:
        initial_distribution = np.asarray(initial_distribution, dtype=float)
    for block in partition.blocks():
        first_col = aggregated[:, block[0]]
        first_exit = exit_rates[block[0]]
        for state in block[1:]:
            if np.abs(aggregated[:, state] - first_col).max() > rtol * scale:
                return False
            if abs(exit_rates[state] - first_exit) > rtol * max(
                1.0, abs(first_exit)
            ):
                return False
        if initial_distribution is not None:
            values = initial_distribution[list(block)]
            if np.abs(values - values[0]).max() > rtol:
                return False
    return True


def global_product_partition(
    level_partitions: Sequence[Partition],
    level_sizes: Sequence[int],
) -> Partition:
    """The global partition induced by per-level partitions (Definition 4,
    applied at every level): two potential states are equivalent iff their
    substates are equivalent level by level."""
    if len(level_partitions) != len(level_sizes):
        raise LumpingError("need one partition per level")
    for partition, size in zip(level_partitions, level_sizes):
        if partition.n != size:
            raise LumpingError("level partition size mismatch")
    # Class tuples and lumped mixed-radix indices determine each other.
    labels = project_indices(
        np.arange(math.prod(level_sizes)), level_sizes, level_partitions
    )
    return Partition.from_labels(labels.tolist())


def check_local_ordinary(
    md: MatrixDiagram,
    level: int,
    partition: Partition,
    rtol: float = 1e-9,
) -> bool:
    """Definition 3, condition (2), checked *semantically*: for every node
    of the level and every class, equivalent substates must have equal
    represented row-sum matrices.  (Stricter than the formal-sum condition;
    anything accepted here is truly locally lumpable.)"""
    return _check_local(md, level, partition, transpose=False, rtol=rtol)


def check_local_exact(
    md: MatrixDiagram,
    level: int,
    partition: Partition,
    rtol: float = 1e-9,
) -> bool:
    """Definition 3, conditions (4) and (5), checked semantically."""
    if not _check_local(md, level, partition, transpose=True, rtol=rtol):
        return False
    # Condition (4): equal full row sums R_n(s, S) per node.
    size = md.level_size(level)
    all_cols = tuple(range(size))
    memo: Dict[int, sparse.csr_matrix] = {}
    for _index, node in sorted(md.nodes_at(level).items()):
        row_sums = [
            flatten_entry(md, node, node.row_sum_over(s, all_cols), memo)
            for s in range(size)
        ]
        for block in partition.blocks():
            first = row_sums[block[0]]
            for state in block[1:]:
                if not _matrices_close(row_sums[state], first, rtol):
                    return False
    return True


def _matrices_close(
    a: sparse.spmatrix, b: sparse.spmatrix, rtol: float
) -> bool:
    difference = a - b
    if difference.nnz == 0:
        return True
    scale = max(
        1.0,
        float(np.abs(a.data).max(initial=0.0)),
        float(np.abs(b.data).max(initial=0.0)),
    )
    return bool(np.abs(difference.data).max() <= rtol * scale)


def _check_local(
    md: MatrixDiagram,
    level: int,
    partition: Partition,
    transpose: bool,
    rtol: float,
) -> bool:
    size = md.level_size(level)
    if partition.n != size:
        raise LumpingError("partition size does not match the level")
    blocks = list(partition.blocks())
    memo: Dict[int, sparse.csr_matrix] = {}
    for _index, node in sorted(md.nodes_at(level).items()):
        for block_cols in blocks:
            sums = []
            for state in range(size):
                if transpose:
                    entry = node.col_sum_over(block_cols, state)
                else:
                    entry = node.row_sum_over(state, block_cols)
                sums.append(flatten_entry(md, node, entry, memo))
            for block in blocks:
                first = sums[block[0]]
                for state in block[1:]:
                    if not _matrices_close(sums[state], first, rtol):
                        return False
    return True


def verify_compositional_result(
    result, rtol: float = 1e-8, max_states: int = 200_000
) -> bool:
    """Full semantic check of a compositional lumping: flatten both MDs,
    build the global product partition, and check Theorem 1 on the flat
    matrix plus agreement of the lumped MD with Theorem 2's lumped matrix.

    Only usable when the potential space is small enough to flatten.
    """
    original: MDModel = result.original
    lumped: MDModel = result.lumped
    n = original.potential_size()
    if n > max_states:
        raise LumpingError(
            f"potential space too large to verify flatly ({n} states)"
        )
    # Unrestricted copy: the flat checks run over the full potential space.
    unrestricted = MDModel(
        original.md,
        level_rewards=original.level_rewards,
        level_initial=original.level_initial,
        reward_combiner=original.reward_combiner,
    )
    flat = flatten(original.md)
    global_partition = global_product_partition(
        result.partitions, original.md.level_sizes
    )
    if result.kind == "ordinary":
        if not is_ordinarily_lumpable(
            flat, global_partition, rewards=unrestricted.global_rewards(), rtol=rtol
        ):
            return False
    else:
        if not is_exactly_lumpable(
            flat,
            global_partition,
            initial_distribution=unrestricted.global_initial(),
            rtol=rtol,
        ):
            return False
    # Lumped MD must equal Theorem 2's lumped flat matrix.
    membership = _membership_matrix(global_partition)
    class_of = global_partition.state_class_vector()
    k = len(global_partition)
    representatives = {}
    for block in global_partition.blocks():
        representatives[class_of[block[0]]] = (
            block[0] if result.kind == "ordinary" else block
        )
    flat_lumped = flatten(lumped.md).toarray()  # reprolint: disable=RL003 -- k x k lumped matrix; verification compares it entrywise
    expected = np.zeros((k, k))
    csr = sparse.csr_matrix(flat)
    if result.kind == "ordinary":
        aggregated = (csr @ membership).toarray()  # reprolint: disable=RL003 -- n x k with k = lumped size; verification-only
        for block in global_partition.blocks():
            expected[class_of[block[0]]] = aggregated[block[0]]
    else:
        # Exact: expected(i~, j~) = R(C_i, C_j) / |C_i| (see state_level).
        aggregated = (membership.T @ csr @ membership).toarray()  # reprolint: disable=RL003 -- k x k aggregated matrix; verification-only
        sizes = np.zeros(k)
        for block in global_partition.blocks():
            sizes[class_of[block[0]]] = len(block)
        expected = aggregated / sizes[:, None]
    # The lumped MD's state order is the mixed-radix order of class tuples;
    # align via the projection of each representative.
    firsts = [block[0] for block in global_partition.blocks()]
    order = np.empty(k, dtype=np.int64)
    order[[class_of[s] for s in firsts]] = project_indices(
        firsts, original.md.level_sizes, result.partitions
    )
    reordered = flat_lumped[np.ix_(order, order)]
    return bool(np.abs(reordered - expected).max() <= rtol * max(1.0, np.abs(expected).max()))
