"""Canonicalization of matrix diagrams (Miner, PNPM 2001).

In a *canonical* MD, a node uniquely represents its matrix: two distinct
nodes at the same level never represent equal matrices.  The paper points
out that its local lumpability condition (equality of formal sums as sets
of ``(coefficient, node)`` pairs) is only sufficient partly because an
arbitrary MD may contain two distinct nodes with equal matrices; canonical
MDs close that gap.

We canonicalize by *scale normalization*: bottom-up, each node is divided
by its leading coefficient (the value of its lexicographically first
non-zero entry, or for non-terminal nodes that entry's first term), and the
factor is pushed into the parents' referencing coefficients.  Together with
hash-consing this merges all nodes that are scalar multiples of one
another — the dominant source of duplicate-matrix nodes in Kronecker-built
MDs.  (Full semantic canonicity would require deciding matrix equality of
arbitrary linear combinations; scale + structure normalization is the
classical practical compromise.)
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.matrixdiagram.formal_sum import FormalSum
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.node import MDNode


def _leading_value(node: MDNode) -> float:
    """The scale factor to divide out of ``node`` (1.0 for an empty node)."""
    items = sorted(
        ((r, c), entry) for r, c, entry in node.entries()
    )
    if not items:
        return 1.0
    _position, entry = items[0]
    if node.terminal:
        return float(entry) or 1.0
    first_terms = sorted(entry.items())
    return first_terms[0][1] if first_terms else 1.0


def canonicalize(md: MatrixDiagram) -> MatrixDiagram:
    """Scale-normalized, reduced copy of ``md`` (same represented matrix).

    After canonicalization every node's leading coefficient is 1, scalar
    multiples are shared, and the MD is quasi-reduced.
    """
    # factor[i]: the scalar divided out of node i; parents referencing i
    # multiply their coefficient by factor[i].
    factor: Dict[int, float] = {}
    new_nodes: Dict[int, MDNode] = {}
    for level in range(md.num_levels, 0, -1):
        for index, node in md.nodes_at(level).items():
            if node.terminal:
                adjusted = node
            else:
                entries: Dict[Tuple[int, int], FormalSum] = {}
                for r, c, formal_sum in node.entries():
                    entries[(r, c)] = FormalSum(
                        {
                            child: coeff * factor[child]
                            for child, coeff in formal_sum.items()
                        }
                    )
                adjusted = MDNode(level, entries, terminal=False)
            scale = 1.0 if index == md.root_index else _leading_value(adjusted)
            factor[index] = scale
            new_nodes[index] = (
                adjusted if scale == 1.0 else adjusted.scaled(1.0 / scale)
            )
    result = MatrixDiagram(
        md.level_sizes,
        new_nodes,
        md.root_index,
        level_state_labels=md.all_level_labels(),
    )
    return result.quasi_reduce()
