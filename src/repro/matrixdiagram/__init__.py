"""Matrix diagrams (MDs): leveled symbolic representations of matrices.

An MD (Ciardo & Miner 1999; Section 3 of the paper) is a connected DAG with
a unique root whose nodes are matrices.  A node at level ``i < L`` has
entries that are *formal sums* ``sum_k c_k * R_{n_k}`` over nodes of level
``i + 1``; a node at the terminal level ``L`` has real entries.  The matrix
an MD represents substitutes each child's matrix into its parents' formal
sums (the paper's "bottom-up merge").  Resolved top-down, that is one
Kronecker term per terminal node, ``R = sum_t A_t (x) B_t``: ``flatten``
sums the terms and ``MDOperator`` multiplies by them.
"""

from repro.matrixdiagram.formal_sum import FormalSum
from repro.matrixdiagram.node import MDNode
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.build import (
    md_from_flat_matrix,
    md_from_kronecker_terms,
    md_identity,
)
from repro.matrixdiagram.operations import (
    flatten,
    flatten_node,
    md_equal,
    merge_adjacent,
    merge_bottom_up,
    merge_top_down,
    regroup_levels,
)
from repro.matrixdiagram.multiply import md_vector_multiply, MDOperator
from repro.matrixdiagram.canonical import canonicalize
from repro.matrixdiagram.algebra import add as md_add, scale as md_scale, transpose as md_transpose
from repro.matrixdiagram.io import load_md, md_from_json, md_to_json, save_md
from repro.matrixdiagram.stats import MDStats, md_stats, to_dot

__all__ = [
    "FormalSum",
    "MDNode",
    "MatrixDiagram",
    "md_from_flat_matrix",
    "md_from_kronecker_terms",
    "md_identity",
    "flatten",
    "flatten_node",
    "md_equal",
    "merge_adjacent",
    "merge_bottom_up",
    "merge_top_down",
    "regroup_levels",
    "md_vector_multiply",
    "MDOperator",
    "canonicalize",
    "md_add",
    "md_scale",
    "md_transpose",
    "load_md",
    "md_from_json",
    "md_to_json",
    "save_md",
    "MDStats",
    "md_stats",
    "to_dot",
]
