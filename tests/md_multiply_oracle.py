"""The MD-vector product and the MD flatten that the compiled
Kronecker terms replaced.

``md_vector_multiply`` walks every MD path from the root, carries the
product of the path's coefficients, and makes one scipy call per terminal
node it reaches.  ``flatten_node`` resolves the formal sums bottom-up, one
recursive call per node, with a COO memo of shared children.  The library
now compiles an MD (or any node of it) into one Kronecker term per
terminal node: ``MDOperator`` makes two sparse multiplies per term, and
``repro.matrixdiagram.flatten_node`` sums ``kron(A_t, B_t)``.
``tests/test_md_operator.py`` holds the products to the same ``left``,
``right``, ``row_sums`` and ``diagonal`` on random MDs, and every node's
flatten to this one.
"""

import math
from typing import Dict, List, Optional

import numpy as np
from scipy import sparse

from repro.errors import MatrixDiagramError
from repro.matrixdiagram.md import MatrixDiagram


def _terminal_matrix(
    md: MatrixDiagram, index: int, cache: Dict[int, sparse.csr_matrix]
) -> sparse.csr_matrix:
    cached = cache.get(index)
    if cached is not None:
        return cached
    node = md.node(index)
    size = md.level_sizes[-1]
    rows, cols, data = [], [], []
    for r, c, value in node.entries():
        rows.append(r)
        cols.append(c)
        data.append(value)
    matrix = sparse.coo_matrix(
        (data, (rows, cols)), shape=(size, size)
    ).tocsr()
    cache[index] = matrix
    return matrix


def md_vector_multiply(
    md: MatrixDiagram,
    vector: np.ndarray,
    side: str = "left",
    terminal_cache: Optional[Dict[int, sparse.csr_matrix]] = None,
) -> np.ndarray:
    """``vector @ R`` (``side='left'``) or ``R @ vector`` (``side='right'``)
    where ``R`` is the matrix the MD represents over the potential space.

    The vector must have length ``md.potential_size()``.  Memory use is
    O(vector) plus the (small) terminal-block cache; the flat matrix is
    never materialized.
    """
    if side not in ("left", "right"):
        raise MatrixDiagramError(f"side must be 'left' or 'right', not {side!r}")
    x = np.asarray(vector, dtype=float)
    n = md.potential_size()
    if x.shape != (n,):
        raise MatrixDiagramError(
            f"vector has shape {x.shape}, expected ({n},)"
        )
    y = np.zeros(n)
    sizes = md.level_sizes
    strides = [math.prod(sizes[level:]) for level in range(len(sizes) + 1)]
    cache: Dict[int, sparse.csr_matrix] = (
        {} if terminal_cache is None else terminal_cache
    )
    terminal_size = sizes[-1]

    def recurse(index: int, row_offset: int, col_offset: int, scale: float) -> None:
        node = md.node(index)
        if node.terminal:
            block = _terminal_matrix(md, index, cache)
            if side == "left":
                segment = x[row_offset : row_offset + terminal_size]
                y[col_offset : col_offset + terminal_size] += scale * (
                    segment @ block
                )
            else:
                segment = x[col_offset : col_offset + terminal_size]
                y[row_offset : row_offset + terminal_size] += scale * (
                    block @ segment
                )
            return
        stride = strides[node.level]
        for r, c, formal_sum in node.entries():
            new_row = row_offset + r * stride
            new_col = col_offset + c * stride
            for child, coefficient in formal_sum.items():
                recurse(child, new_row, new_col, scale * coefficient)

    recurse(md.root_index, 0, 0, 1.0)
    return y


def row_sums(md: MatrixDiagram) -> np.ndarray:
    """``R(i, S)`` for every potential state ``i``: the old
    ``MDOperator.row_sums``, one right product with the ones vector."""
    return md_vector_multiply(md, np.ones(md.potential_size()), side="right")


def diagonal(md: MatrixDiagram) -> np.ndarray:
    """``R(i, i)`` for every potential state, extracted symbolically.

    A global state lies on the diagonal iff every level's entry is
    diagonal, so the diagonal vector is assembled by recursing only
    through diagonal entries — cost proportional to the MD's diagonal
    support, not the potential space.
    """
    sizes = md.level_sizes
    strides = [
        int(np.prod(sizes[level:])) for level in range(len(sizes) + 1)
    ]
    diagonal = np.zeros(md.potential_size())

    def recurse(index: int, offset: int, scale: float) -> None:
        node = md.node(index)
        stride = strides[node.level]
        for r, c, entry in node.entries():
            if r != c:
                continue
            position = offset + r * stride
            if node.terminal:
                diagonal[position] += scale * entry
            else:
                for child, coefficient in entry.items():
                    recurse(child, position, scale * coefficient)

    recurse(md.root_index, 0, 1.0)
    return diagonal


def flatten_node(
    md: MatrixDiagram,
    index: int,
    cache: Optional[Dict[int, sparse.csr_matrix]] = None,
) -> sparse.csr_matrix:
    """The real matrix ``bar(R)_n`` represented by node ``index``.

    The matrix is square of dimension ``|S_i| * .. * |S_L|`` where ``i`` is
    the node's level; rows/columns outside the node's support are zero.
    ``cache`` memoizes shared children across calls.
    """
    if cache is None:
        cache = {}

    sizes = md.level_sizes
    # A shared child is referenced from many parent entries; memoize its
    # COO view so the CSR->COO conversion happens once per node, not
    # once per reference (the conversion dominated flattening time).
    coo_cache: Dict[int, sparse.coo_matrix] = {}

    def recurse_coo(node_index: int) -> sparse.coo_matrix:
        coo = coo_cache.get(node_index)
        if coo is None:
            coo = recurse(node_index).tocoo()
            coo_cache[node_index] = coo
        return coo

    def recurse(node_index: int) -> sparse.csr_matrix:
        cached = cache.get(node_index)
        if cached is not None:
            return cached
        node = md.node(node_index)
        dim = math.prod(sizes[node.level - 1 :])
        stride = math.prod(sizes[node.level :])
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        data: List[np.ndarray] = []
        if node.terminal:
            for r, c, value in node.entries():
                rows.append(np.array([r]))
                cols.append(np.array([c]))
                data.append(np.array([value]))
        else:
            for r, c, formal_sum in node.entries():
                for child, coefficient in formal_sum.items():
                    block = recurse_coo(child)
                    if block.nnz == 0:
                        continue
                    rows.append(block.row + r * stride)
                    cols.append(block.col + c * stride)
                    data.append(block.data * coefficient)
        if rows:
            matrix = sparse.coo_matrix(
                (
                    np.concatenate(data),
                    (np.concatenate(rows), np.concatenate(cols)),
                ),
                shape=(dim, dim),
            ).tocsr()
        else:
            matrix = sparse.csr_matrix((dim, dim))
        matrix.eliminate_zeros()
        cache[node_index] = matrix
        return matrix

    return recurse(index)
