"""The MD-vector product that ``repro.matrixdiagram.MDOperator`` replaced.

It walks every MD path from the root, carries the product of the path's
coefficients, and makes one scipy call per terminal node it reaches.
The library now compiles an MD once into one Kronecker term per terminal
node and makes two sparse multiplies per term.
``tests/test_md_operator.py`` holds the two to the same ``left``,
``right``, ``row_sums`` and ``diagonal`` on random MDs.
"""

import math
from typing import Dict, Optional

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
