"""Constructing matrix diagrams.

Two entry points matter in practice:

* :func:`md_from_kronecker_terms` — builds the MD of a sum of Kronecker
  products ``R = sum_e lambda_e * W_1^e (x) .. (x) W_L^e``.  This is the
  formalism-independent path the paper relies on ("MD representations of Q
  can be derived ... from a given sparse matrix or Kronecker representation
  of Q"), and the one MD builder: ``EventModel.to_md`` hands it the event
  tables, ``descriptor_to_md`` a descriptor's terms, and ``md_identity``
  one all-identity term.  A factor ``None`` is the identity, so no caller
  writes an identity matrix out, and no identity node or formal sum is
  built twice.
* :class:`MDBuilder` — incremental construction with hash-consing, so MDs
  are reduced (no duplicate nodes per level) by construction.  Used by
  :func:`md_from_kronecker_terms` and :func:`md_from_flat_matrix`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from repro.errors import MatrixDiagramError
from repro.matrixdiagram.formal_sum import FormalSum
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.node import Entry, MDNode

MatrixLike = Union[
    Mapping[Tuple[int, int], float], np.ndarray, sparse.spmatrix
]


def matrix_entries(matrix: MatrixLike) -> Dict[Tuple[int, int], float]:
    """Normalize a matrix-like object to a ``{(row, col): value}`` dict
    of its non-zero entries."""
    if isinstance(matrix, Mapping):
        return {
            (int(r), int(c)): float(v)
            for (r, c), v in matrix.items()
            if float(v) != 0.0
        }
    if sparse.issparse(matrix):
        coo = matrix.tocoo()
        kept = coo.data != 0
        keys = zip(coo.row[kept].tolist(), coo.col[kept].tolist())
        return dict(zip(keys, coo.data[kept].astype(float).tolist()))
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2:
        raise MatrixDiagramError("level matrices must be 2-dimensional")
    rows, cols = np.nonzero(array)
    return {
        (int(r), int(c)): float(array[r, c]) for r, c in zip(rows, cols)
    }


class MDBuilder:
    """Incremental MD construction with hash-consing of nodes.

    ``add_node`` interns nodes by structural key, so the finished MD is
    reduced by construction.  Node indices are allocated sequentially
    from 1.
    """

    def __init__(
        self,
        level_sizes: Sequence[int],
        level_state_labels: Optional[Sequence[Sequence[object]]] = None,
    ) -> None:
        self.level_sizes = tuple(int(s) for s in level_sizes)
        self.level_state_labels = level_state_labels
        self._nodes: Dict[int, MDNode] = {}
        self._intern: Dict[Tuple, int] = {}
        self._next_index = 1

    @property
    def num_levels(self) -> int:
        """Number of levels of the MD being built."""
        return len(self.level_sizes)

    def add_node(
        self, level: int, entries: Mapping[Tuple[int, int], Entry]
    ) -> int:
        """Intern a node; returns the index of the canonical copy."""
        terminal = level == self.num_levels
        node = MDNode(level, entries, terminal=terminal)
        key = node.structure_key()
        existing = self._intern.get(key)
        if existing is not None:
            return existing
        index = self._next_index
        self._next_index += 1
        self._nodes[index] = node
        self._intern[key] = index
        return index

    def finish(self, root: int) -> MatrixDiagram:
        """Build the :class:`MatrixDiagram` rooted at ``root``; interned
        nodes that ended up unreachable (e.g. chains hanging off zero
        entries) are dropped before validation."""
        reachable = {root}
        frontier = [root]
        while frontier:
            index = frontier.pop()
            node = self._nodes.get(index)
            if node is None:
                continue
            for child in node.children():
                if child not in reachable:
                    reachable.add(child)
                    frontier.append(child)
        return MatrixDiagram(
            self.level_sizes,
            {i: n for i, n in self._nodes.items() if i in reachable},
            root,
            level_state_labels=self.level_state_labels,
        )


def md_from_kronecker_terms(
    terms: Iterable[Tuple[float, Sequence[Optional[MatrixLike]]]],
    level_sizes: Sequence[int],
    level_state_labels: Optional[Sequence[Sequence[object]]] = None,
) -> MatrixDiagram:
    """The MD of ``R = sum_e lambda_e * W_1^e (x) W_2^e (x) .. (x) W_L^e``.

    A factor ``None`` is the identity on its level.  Each term contributes
    a chain of nodes (one per level below the root), built bottom-up in
    term order; the root combines all terms in its formal sums.
    Hash-consing shares equal suffixes across terms — e.g. all terms whose
    lower levels are identity matrices share a single identity chain,
    which is where the MD's compactness comes from.

    Within a call an identity node is built once per (level, child), and
    each (child, coefficient) formal sum once (formal sums are immutable,
    so nodes share them).  Every other node goes through
    :meth:`MDBuilder.add_node` as it comes, so node indices, entry order
    and every value are those of building each chain in full.

    >>> import numpy as np
    >>> md = md_from_kronecker_terms(
    ...     [(2.0, [np.eye(2), None])], level_sizes=(2, 3))
    >>> md.num_levels
    2
    """
    level_sizes = tuple(int(s) for s in level_sizes)
    num_levels = len(level_sizes)
    if num_levels == 0:
        raise MatrixDiagramError("need at least one level")
    builder = MDBuilder(level_sizes, level_state_labels)

    def converted_terms() -> Iterable[
        Tuple[float, List[Optional[Dict[Tuple[int, int], float]]]]
    ]:
        # Each term's factors become dicts only when its chain is built,
        # so one term's dicts are alive at a time, not every term's.
        count = 0
        for weight, matrices in terms:
            matrices = list(matrices)
            if len(matrices) != num_levels:
                raise MatrixDiagramError(
                    f"term has {len(matrices)} level matrices, "
                    f"expected {num_levels}"
                )
            count += 1
            yield (
                float(weight),
                [None if m is None else matrix_entries(m) for m in matrices],
            )
        if not count:
            raise MatrixDiagramError("need at least one Kronecker term")

    def factor_items(
        level: int, matrix: Optional[Dict[Tuple[int, int], float]]
    ) -> Iterable[Tuple[Tuple[int, int], float]]:
        if matrix is None:
            return (((s, s), 1.0) for s in range(level_sizes[level - 1]))
        return matrix.items()

    if num_levels == 1:
        flat: Dict[Tuple[int, int], float] = {}
        for weight, (matrix,) in converted_terms():
            for rc, value in factor_items(1, matrix):
                flat[rc] = flat.get(rc, 0.0) + weight * value
        root = builder.add_node(1, flat)
        return builder.finish(root)

    # child -> coefficient -> the formal sum ``coefficient * R_child``.
    sums: Dict[int, Dict[float, FormalSum]] = {}

    def formal_sums(
        child: int, coefficients: Iterable[float]
    ) -> Dict[float, FormalSum]:
        made = sums.setdefault(child, {})
        for coefficient in coefficients:
            if coefficient not in made:
                made[coefficient] = FormalSum.of(child, coefficient)
        return made

    # (level, child) -> the identity node over ``child``.
    identities: Dict[Tuple[int, Optional[int]], int] = {}
    root_entries: Dict[Tuple[int, int], FormalSum] = {}
    for weight, matrices in converted_terms():
        # Build the chain bottom-up: terminal node first.
        child = None
        for level in range(num_levels, 1, -1):
            matrix = matrices[level - 1]
            entries: Mapping[Tuple[int, int], Entry]
            if matrix is None:
                key = (level, child)
                if key in identities:
                    child = identities[key]
                    continue
                one = 1.0 if child is None else formal_sums(child, (1.0,))[1.0]
                entries = {(s, s): one for s in range(level_sizes[level - 1])}
            elif child is None:
                entries = matrix
            else:
                made = formal_sums(child, matrix.values())
                entries = {rc: made[value] for rc, value in matrix.items()}
            child = builder.add_node(level, entries)
            if matrix is None:
                identities[key] = child
        for rc, value in factor_items(1, matrices[0]):
            coefficient = weight * value
            term_sum = formal_sums(child, (coefficient,))[coefficient]
            existing = root_entries.get(rc)
            root_entries[rc] = term_sum if existing is None else existing + term_sum
    root = builder.add_node(1, root_entries)
    return builder.finish(root)


def md_from_flat_matrix(
    matrix: MatrixLike, size: Optional[int] = None
) -> MatrixDiagram:
    """A one-level MD representing ``matrix`` directly (the degenerate case
    the paper handles with artificial levels)."""
    entries = matrix_entries(matrix)
    if size is None:
        if sparse.issparse(matrix):
            size = matrix.shape[0]
        elif isinstance(matrix, np.ndarray):
            size = matrix.shape[0]
        else:
            size = 1 + max((max(r, c) for (r, c) in entries), default=-1)
    builder = MDBuilder((size,))
    root = builder.add_node(1, entries)
    return builder.finish(root)


def md_identity(level_sizes: Sequence[int]) -> MatrixDiagram:
    """The MD of the identity matrix over the product space."""
    return md_from_kronecker_terms(
        [(1.0, [None] * len(level_sizes))], level_sizes
    )
