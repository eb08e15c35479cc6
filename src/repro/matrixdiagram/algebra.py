"""Algebraic operations on matrix diagrams.

MDs are closed under transposition, scaling and addition, all computable
node-locally:

* **transpose** — transpose every node's entry positions; the represented
  matrix transposes because the Kronecker-style block structure commutes
  with transposition level by level.
* **scale** — multiply the root's coefficients (or terminal entries for a
  1-level MD).
* **add** — a fresh root whose entries are the formal-sum sums of the two
  roots' entries, with the operand MDs' nodes living side by side
  (indices are offset to avoid collisions), then quasi-reduced.

Transposition matters for lumping: *exact* lumpability of ``R`` is
*ordinary* lumpability of ``R^T`` (plus the exit-rate/initial-vector
conditions), which the test suite uses to cross-validate the two
implementations against each other.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import MatrixDiagramError
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.node import MDNode


def transpose(md: MatrixDiagram) -> MatrixDiagram:
    """The MD of the transposed matrix (every node transposed in place)."""
    nodes: Dict[int, MDNode] = {}
    for index in md.node_indices():
        node = md.node(index)
        entries = {(c, r): entry for r, c, entry in node.entries()}
        nodes[index] = MDNode(node.level, entries, terminal=node.terminal)
    return MatrixDiagram(
        md.level_sizes,
        nodes,
        md.root_index,
        level_state_labels=md.all_level_labels(),
    )


def scale(md: MatrixDiagram, factor: float) -> MatrixDiagram:
    """The MD of ``factor * R`` (only the root is touched)."""
    root = md.root
    if root.terminal:
        entries = {
            (r, c): value * factor for r, c, value in root.entries()
        }
        new_root = MDNode(1, entries, terminal=True)
    else:
        entries = {
            (r, c): entry.scaled(factor) for r, c, entry in root.entries()
        }
        new_root = MDNode(1, entries, terminal=False)
    if factor == 0.0:
        # The root is now empty; lower nodes would be unreachable, so the
        # zero MD keeps only a trivial root chain.
        return MatrixDiagram(
            md.level_sizes,
            {md.root_index: new_root},
            md.root_index,
            level_state_labels=md.all_level_labels(),
        )
    return md.with_nodes({md.root_index: new_root})


def add(a: MatrixDiagram, b: MatrixDiagram) -> MatrixDiagram:
    """The MD of ``A + B`` for two MDs over the same level structure."""
    if a.level_sizes != b.level_sizes:
        raise MatrixDiagramError(
            f"cannot add MDs with level sizes {a.level_sizes} and "
            f"{b.level_sizes}"
        )
    offset = max(a.node_indices(), default=0) + 1
    nodes: Dict[int, MDNode] = {}
    for index in a.node_indices():
        nodes[index] = a.node(index)
    for index in b.node_indices():
        node = b.node(index)
        if node.terminal:
            shifted = node
        else:
            shifted = node.remapped_children(
                {child: child + offset for child in node.children()}
            )
        nodes[index + offset] = shifted

    root_a = a.root
    root_b = b.root
    if a.num_levels == 1:
        entries: Dict = {}
        for r, c, value in root_a.entries():
            entries[(r, c)] = entries.get((r, c), 0.0) + value
        for r, c, value in root_b.entries():
            entries[(r, c)] = entries.get((r, c), 0.0) + value
        new_root = MDNode(1, entries, terminal=True)
    else:
        entries = {}
        for r, c, entry in root_a.entries():
            entries[(r, c)] = entry
        for r, c, entry in root_b.entries():
            shifted = entry.remapped(
                {child: child + offset for child in entry.children()}
            )
            existing = entries.get((r, c))
            entries[(r, c)] = (
                shifted if existing is None else existing + shifted
            )
        new_root = MDNode(1, entries, terminal=False)

    new_root_index = max(nodes) + 1
    nodes[new_root_index] = new_root
    del nodes[a.root_index]
    del nodes[b.root_index + offset]
    result = MatrixDiagram(
        a.level_sizes,
        nodes,
        new_root_index,
        level_state_labels=a.all_level_labels(),
    )
    return result.quasi_reduce()
