"""``CompLumpingLevel`` (Figure 3a): the lumpable partition of one level.

The local lumpability conditions of Definition 3 involve *all* nodes of a
level: ``s2 ~ s2'`` requires equal formal row (ordinary) or column (exact)
sums in every node ``n2 in N2``, plus the per-level reward / initial-factor
equalities.  ``comp_lumping_level`` therefore iterates the single-matrix
``CompLumping`` over all nodes of the level to a fixed point.
"""

from __future__ import annotations

from typing import Dict, Hashable

from repro.errors import LumpingError
from repro.lumping.keys import (
    md_node_matrix_splitter,
    md_node_splitter,
    row_sum_signatures,
)
from repro.lumping.md_model import MDModel
from repro.lumping.refinement import comp_lumping
from repro.matrixdiagram.md import MatrixDiagram
from repro.partitions import Partition
from repro.util.numeric import quantize


def initial_partition_ordinary(model: MDModel, level: int) -> Partition:
    """``P_i_ini`` for ordinary lumping: the coarsest partition with
    ``f_i(s_i) = f_i(s_i')`` inside every class (Section 4, "Overall
    Algorithm")."""
    rewards = model.level_rewards[level - 1]
    return Partition.from_key(
        model.md.level_size(level), lambda s: quantize(float(rewards[s]))
    )


def initial_partition_exact(model: MDModel, level: int) -> Partition:
    """``P_i_ini`` for exact lumping: the coarsest partition with equal
    initial factors ``f_pi,i`` *and* equal coefficient row sums
    ``r_{n_i, n_{i+1}}(s_i, S_i)`` for every node pair — the per-node
    formal-sum representation of condition (4) of Definition 3."""
    md = model.md
    initial_factors = model.level_initial[level - 1]
    size = md.level_size(level)
    per_node = [
        (index, row_sum_signatures(node, size))
        for index, node in sorted(md.nodes_at(level).items())
    ]

    def key(state: int) -> Hashable:
        return (
            quantize(float(initial_factors[state])),
            tuple((index, rows[state]) for index, rows in per_node),
        )

    return Partition.from_key(size, key)


def comp_lumping_level(
    md: MatrixDiagram,
    level: int,
    initial: Partition,
    kind: str = "ordinary",
    key: str = "formal",
    strategy: str = "paper",
) -> Partition:
    """Fixed-point iteration of ``CompLumping`` over all nodes of a level
    (Figure 3a).  Each round either refines the partition or returns it,
    so the loop ends within ``|S_level|`` rounds.

    Parameters
    ----------
    md:
        The matrix diagram.
    level:
        The 1-based level to partition.
    initial:
        ``P_i_ini`` (see the ``initial_partition_*`` helpers).
    kind:
        ``"ordinary"`` or ``"exact"``.
    key:
        ``"formal"`` uses the paper's formal-sum signatures (local, cheap);
        ``"matrix"`` uses concrete represented matrices (the rejected
        expensive variant, kept for the ablation benchmark).
    strategy:
        Worklist strategy passed through to ``comp_lumping``.
    """
    if kind not in ("ordinary", "exact"):
        raise LumpingError(f"kind must be 'ordinary' or 'exact', not {kind!r}")
    if key not in ("formal", "matrix"):
        raise LumpingError(f"key must be 'formal' or 'matrix', not {key!r}")
    size = md.level_size(level)
    if initial.n != size:
        raise LumpingError(
            f"initial partition over {initial.n} states, level has {size}"
        )
    # One key factory per node, indexed once for the whole level.
    flat_cache: Dict = {}
    splitters = [
        md_node_splitter(node, kind)
        if key == "formal"
        else md_node_matrix_splitter(md, node, kind, flat_cache)
        for _index, node in sorted(md.nodes_at(level).items())
    ]
    partition = initial.copy()
    while True:
        blocks_before = len(partition)
        for splitter in splitters:
            partition = comp_lumping(
                size, splitter, partition, strategy=strategy
            )
        if len(partition) == blocks_before:
            return partition
