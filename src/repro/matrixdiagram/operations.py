"""Structural operations on matrix diagrams.

Implements the machinery of the paper's Section 3:

* :func:`flatten_node` / :func:`flatten` — the real matrix ``bar(R)_n``
  a node represents ("each MD node R_n results in a real-valued matrix
  bar(R)_n"), as ``sum_t kron(A_t, B_t)`` over the Kronecker terms of
  :func:`_kronecker_terms`, one per terminal node below the node.  The
  same terms back :class:`repro.matrixdiagram.MDOperator`'s products;
  :func:`flatten_entry` gives the matrix of one node entry,
* :func:`merge_adjacent` — merge two adjacent levels into one, the one
  level merge: :func:`merge_bottom_up`, :func:`merge_top_down` and
  :func:`regroup_levels` repeat it, so an arbitrary level of interest
  becomes level 2 of a 3-level MD (:func:`to_three_level`), including
  the paper's artificial level-0 / level-(L+1) trick for the edge cases,
* :func:`md_equal` — semantic equality of two MDs (equal represented
  matrices).

The compositional lumping algorithm itself never merges levels (the paper
stresses the merging argument is purely notational); the merges exist for
verification and tests.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np
from scipy import sparse

from repro.errors import MatrixDiagramError
from repro.matrixdiagram.formal_sum import FormalSum
from repro.matrixdiagram.md import MatrixDiagram, _reachable
from repro.matrixdiagram.node import Entry, MDNode


Term = Tuple[sparse.csr_matrix, sparse.csr_matrix]


def _terminal_matrix(node: MDNode, size: int) -> sparse.csr_matrix:
    """A terminal node's ``size x size`` matrix, from one array of its
    ``(row, col, value)`` entries."""
    rows, cols, values = np.array(list(node.entries())).reshape(-1, 3).T
    matrix = sparse.csr_matrix(
        (values, (rows.astype(np.int64), cols.astype(np.int64))),
        shape=(size, size),
    )
    matrix.eliminate_zeros()
    return matrix


def _kronecker_terms(md: MatrixDiagram, index: int) -> List[Term]:
    """``[(A_t, B_t)]`` over the terminal nodes ``t`` some path from node
    ``index`` reaches, with ``bar(R)_index = sum_t kron(A_t, B_t)``.

    ``B_t`` is ``t``'s own ``|S_L| x |S_L|`` matrix.  ``A_t`` spans the
    potential space of the levels from ``index``'s level down to ``L-1``;
    its entry at (row prefix, column prefix) sums the coefficient products
    of every path from ``index`` to ``t``.  A terminal ``index`` is the one
    term ``([[1]], B)``.
    """
    start = md.node(index).level
    # Per node of the current level: one (row prefix, column prefix,
    # coefficient product) record per path from ``index``.
    origin = np.zeros(1, dtype=np.int64)
    paths = {index: (origin, origin, np.ones(1))}
    for level in range(start, md.num_levels):
        size = md.level_size(level)
        reached: Dict[int, list] = defaultdict(list)
        for node_index, (rows, cols, values) in paths.items():
            arcs: Dict[int, list] = defaultdict(list)
            for r, c, formal_sum in md.node(node_index).entries():
                for child, coefficient in formal_sum.items():
                    arcs[child].append((r, c, coefficient))
            for child, triples in arcs.items():
                r, c, coefficient = map(np.array, zip(*triples))
                reached[child].append((
                    (rows[:, None] * size + r).ravel(),
                    (cols[:, None] * size + c).ravel(),
                    (values[:, None] * coefficient).ravel(),
                ))
        paths = {
            child: tuple(np.concatenate(column) for column in zip(*pieces))
            for child, pieces in reached.items()
        }
    sizes = md.level_sizes
    prefix_size = math.prod(sizes[start - 1 : -1])
    return [
        (
            sparse.csr_matrix(
                (values, (rows, cols)), shape=(prefix_size, prefix_size)
            ),
            _terminal_matrix(md.node(terminal), sizes[-1]),
        )
        for terminal, (rows, cols, values) in sorted(paths.items())
    ]


def flatten_node(md: MatrixDiagram, index: int) -> sparse.csr_matrix:
    """The real matrix ``bar(R)_n`` represented by node ``index``:
    ``sum_t kron(A_t, B_t)`` over the node's Kronecker terms.

    The matrix is square of dimension ``|S_i| * .. * |S_L|`` where ``i`` is
    the node's level; rows/columns outside the node's support are zero.
    """
    dim = math.prod(md.level_sizes[md.node(index).level - 1 :])
    total = sparse.csr_matrix((dim, dim))
    for a, b in _kronecker_terms(md, index):
        total = total + sparse.kron(a, b, format="csr")
    total.eliminate_zeros()
    return total


def flatten_entry(
    md: MatrixDiagram,
    node: MDNode,
    entry: Entry,
    memo: Dict[int, sparse.csr_matrix],
) -> sparse.csr_matrix:
    """The matrix one entry of ``node`` stands for: ``[[v]]`` on the
    terminal level, else ``sum_k c_k bar(R)_{n_k}``.  ``memo`` keeps each
    flattened child for the caller's later entries."""
    if node.terminal:
        return sparse.csr_matrix(([float(entry)], ([0], [0])), shape=(1, 1))
    dim = math.prod(md.level_sizes[node.level :])
    total = sparse.csr_matrix((dim, dim))
    for child, coefficient in entry.items():
        if child not in memo:
            memo[child] = flatten_node(md, child)
        total = total + coefficient * memo[child]
    return total


def flatten(md: MatrixDiagram) -> sparse.csr_matrix:
    """The full matrix the MD represents, over the potential product space.

    Global state ``(s_1, .., s_L)`` maps to the flat index
    ``mixed_radix_index((s_1, .., s_L), level_sizes)``.
    """
    return flatten_node(md, md.root_index)


def md_equal(a: MatrixDiagram, b: MatrixDiagram, tol: float = 1e-9) -> bool:
    """True if two MDs represent the same matrix (within ``tol``).

    The MDs must have the same potential space (same product of level
    sizes); level structure may differ (e.g. one may be a merged version of
    the other).
    """
    if a.potential_size() != b.potential_size():
        return False
    difference = flatten(a) - flatten(b)
    if difference.nnz == 0:
        return True
    return bool(np.abs(difference.data).max() <= tol)


def merge_bottom_up(md: MatrixDiagram, from_level: int) -> MatrixDiagram:
    """Merge levels ``from_level..L`` into a single terminal level
    (Section 3's bottom-up merging argument): :func:`merge_adjacent` at
    ``from_level`` until it is the last level.  The represented matrix
    is unchanged.
    """
    if not 1 <= from_level <= md.num_levels:
        raise MatrixDiagramError(f"invalid from_level {from_level}")
    for _ in range(md.num_levels - from_level):
        md = merge_adjacent(md, from_level)
    return md


def merge_top_down(md: MatrixDiagram, through_level: int) -> MatrixDiagram:
    """Merge levels ``1..through_level`` into a single root level:
    :func:`merge_adjacent` at level 1, ``through_level - 1`` times.
    Requires ``through_level < L``.
    """
    num_levels = md.num_levels
    if not 1 <= through_level < num_levels:
        raise MatrixDiagramError(
            f"through_level must be in 1..{num_levels - 1}, got {through_level}"
        )
    for _ in range(through_level - 1):
        md = merge_adjacent(md, 1)
    return md


def merge_adjacent(md: MatrixDiagram, level: int) -> MatrixDiagram:
    """Merge levels ``level`` and ``level + 1`` into one level.

    The merged level's substates are the mixed-radix pairs
    ``s * |S_{level+1}| + s'``, labelled ``(upper, lower)``; entries
    compose the coefficient of the upper entry with the lower node's
    entries, so the represented matrix is unchanged.  The result is
    quasi-reduced and keeps the root index.  A merged level of more than
    1,000,000 substates leaves the result unlabelled.
    """
    num_levels = md.num_levels
    if not 1 <= level < num_levels:
        raise MatrixDiagramError(
            f"level must be in 1..{num_levels - 1}, got {level}"
        )
    sizes = md.level_sizes
    lower_size = sizes[level]  # |S_{level+1}|
    merged_size = sizes[level - 1] * lower_size
    new_sizes = sizes[: level - 1] + (merged_size,) + sizes[level + 1 :]
    merged_is_terminal = level + 1 == num_levels

    new_nodes: Dict[int, MDNode] = {}
    # Levels above stay as they are (references to `level` nodes remain).
    for upper in range(1, level):
        for index, node in md.nodes_at(upper).items():
            new_nodes[index] = node
    # Nodes at `level` absorb their children.
    for index, node in md.nodes_at(level).items():
        entries: Dict[Tuple[int, int], object] = {}
        for r, c, formal_sum in node.entries():
            for child, coefficient in formal_sum.items():
                child_node = md.node(child)
                for r2, c2, entry in child_node.entries():
                    key = (r * lower_size + r2, c * lower_size + c2)
                    if merged_is_terminal:
                        entries[key] = entries.get(key, 0.0) + (
                            coefficient * entry
                        )
                    else:
                        contribution = entry.scaled(coefficient)
                        existing = entries.get(key)
                        entries[key] = (
                            contribution
                            if existing is None
                            else existing + contribution
                        )
        new_nodes[index] = MDNode(level, entries, terminal=merged_is_terminal)
    # Deeper nodes shift one level up.
    for deeper in range(level + 2, num_levels + 1):
        for index, node in md.nodes_at(deeper).items():
            new_nodes[index] = MDNode(
                deeper - 1,
                {(r, c): e for r, c, e in node.entries()},
                terminal=node.terminal,
            )
    # A merged entry can cancel or underflow to zero and orphan the nodes
    # it led to.
    reachable = _reachable(new_nodes, md.root_index)
    new_nodes = {i: n for i, n in new_nodes.items() if i in reachable}

    labels = md.all_level_labels()
    new_labels = None
    # One label tuple per substate: past 10^6 they would crowd memory.
    if labels is not None and merged_size <= 1_000_000:
        merged_labels = [
            (upper, lower)
            for upper in labels[level - 1]
            for lower in labels[level]
        ]
        new_labels = (
            labels[: level - 1] + [merged_labels] + labels[level + 1 :]
        )
    result = MatrixDiagram(
        new_sizes, new_nodes, md.root_index, level_state_labels=new_labels
    )
    return result.quasi_reduce()


def regroup_levels(md: MatrixDiagram, groups) -> MatrixDiagram:
    """Merge contiguous level groups: ``groups`` partitions ``1..L`` into
    consecutive runs, e.g. ``[[1], [2, 3], [4]]`` merges levels 2 and 3.

    Regrouping changes which symmetries are *local*: two interchangeable
    components on different levels are invisible to the per-level lumping
    conditions, but merging their levels turns the component-permutation
    symmetry into an ordinary within-level symmetry the algorithm can
    find.  (The cost is a larger local state space — exactly the paper's
    locality-vs-coarseness trade-off.)
    """
    expected = 1
    parsed = []
    for group in groups:
        group = sorted(group)
        if group != list(range(group[0], group[-1] + 1)):
            raise MatrixDiagramError(f"group {group} is not contiguous")
        if group[0] != expected:
            raise MatrixDiagramError(
                f"groups must cover levels consecutively; expected level "
                f"{expected}, got {group[0]}"
            )
        expected = group[-1] + 1
        parsed.append(group)
    if expected != md.num_levels + 1:
        raise MatrixDiagramError("groups must cover every level")
    # Front to back: each group before the k-th is one level by now, so
    # the k-th starts at level k.
    for position, group in enumerate(parsed, start=1):
        for _ in range(len(group) - 1):
            md = merge_adjacent(md, position)
    return md


def add_artificial_top(md: MatrixDiagram) -> MatrixDiagram:
    """Prepend the paper's artificial level 0: a 1x1 root with entry
    ``1 * R_root`` (used when the level of interest is the top level)."""
    new_nodes: Dict[int, MDNode] = {}
    for level in range(1, md.num_levels + 1):
        for index, node in md.nodes_at(level).items():
            new_nodes[index] = MDNode(
                level + 1,
                {(r, c): e for r, c, e in node.entries()},
                terminal=node.terminal,
            )
    new_root = max(new_nodes, default=0) + 1
    new_nodes[new_root] = MDNode(
        1, {(0, 0): FormalSum.of(md.root_index, 1.0)}, terminal=False
    )
    labels = md.all_level_labels()
    new_labels = [["*"]] + labels if labels is not None else None
    return MatrixDiagram(
        (1,) + md.level_sizes, new_nodes, new_root, level_state_labels=new_labels
    )


def add_artificial_bottom(md: MatrixDiagram) -> MatrixDiagram:
    """Append the paper's artificial level L+1: a 1x1 terminal node holding
    1.0; old terminal entries become coefficients referencing it."""
    unit_index = max(md.node_indices(), default=0) + 1
    new_nodes: Dict[int, MDNode] = {
        unit_index: MDNode(
            md.num_levels + 1, {(0, 0): 1.0}, terminal=True
        )
    }
    for level in range(1, md.num_levels + 1):
        for index, node in md.nodes_at(level).items():
            if node.terminal:
                entries = {
                    (r, c): FormalSum.of(unit_index, value)
                    for r, c, value in node.entries()
                }
                new_nodes[index] = MDNode(level, entries, terminal=False)
            else:
                new_nodes[index] = node
    if not any(n.num_entries for n in md.nodes_at(md.num_levels).values()):
        del new_nodes[unit_index]  # a zero MD: no entry would reach it
    labels = md.all_level_labels()
    new_labels = labels + [["*"]] if labels is not None else None
    return MatrixDiagram(
        md.level_sizes + (1,),
        new_nodes,
        md.root_index,
        level_state_labels=new_labels,
    )


def to_three_level(md: MatrixDiagram, focus_level: int) -> MatrixDiagram:
    """Merge levels so ``focus_level`` becomes level 2 of a 3-level MD.

    This realizes the paper's "without loss of generality, an MD of 3
    levels" argument, including the artificial top/bottom levels when the
    focus is the first or last level.
    """
    if not 1 <= focus_level <= md.num_levels:
        raise MatrixDiagramError(f"invalid focus level {focus_level}")
    result = md
    if focus_level == 1:
        result = add_artificial_top(result)
        focus_level = 2
    if focus_level == result.num_levels:
        result = add_artificial_bottom(result)
    result = merge_top_down(result, focus_level - 1)
    # After the top-down merge the focus sits at level 2.
    result = merge_bottom_up(result, 3)
    return result
