"""Key-function (``K``) factories for the refinement engine.

Section 4 of the paper: "Function K is the key to generalizing this
algorithm. ... By choosing K appropriately, we can customize the algorithm
to compute partitions that satisfy a set of desired conditions."

Flat variants (state-level lumping, baseline [9]):

* ordinary: ``K(R, s, C) = R(s, C)`` — cumulative rate from ``s`` into
  the splitter class,
* exact: ``K(R, s, C) = R(C, s)`` — cumulative rate from the splitter
  class into ``s``.

MD-node variants (the paper's contribution): ``K`` returns the *formal
sum* ``sum_{n3} r(s2, C2) . R_n3`` represented as a set of
``(coefficient, node index)`` pairs, so the algorithm runs on nodes of size
``|S2| x |S2|`` instead of matrices of size ``|S3| x |S3|``.

The concrete-matrix variant (``md_node_matrix_splitter``) realizes the
"first obvious way" the paper describes and rejects as prohibitively
expensive; it exists for the ablation benchmark and as a correctness
oracle (it is sufficient *and* necessary on the node's represented
matrices).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Dict, Hashable, Iterable, List, Tuple

import numpy as np
from scipy import sparse

from repro.lumping.refinement import SplitterFactory
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.node import MDNode
from repro.matrixdiagram.operations import flatten_entry
from repro.util.numeric import quantize

# ----------------------------------------------------------------------
# flat matrices
# ----------------------------------------------------------------------


def _axis_sum_splitter(
    indptr: np.ndarray, indices: np.ndarray, data: np.ndarray, n: int
) -> SplitterFactory:
    """Shared core of the flat splitters: for a splitter class ``C``,
    accumulate ``sum(s) = sum over the stored slices of C`` touching ``s``.

    Works directly on the compressed arrays (no sparse-matrix slicing in
    the refinement hot loop): for the ordinary key the arrays come from
    the CSC form (slices are columns, touched entries are row indices);
    for the exact key from the CSR form (slices are rows, touched entries
    are column indices).
    """

    def factory(members: Tuple[int, ...]):
        chunks_index = []
        chunks_data = []
        for member in members:
            start, end = indptr[member], indptr[member + 1]
            if start != end:
                chunks_index.append(indices[start:end])
                chunks_data.append(data[start:end])
        if not chunks_index:
            return (lambda _state: 0.0), []
        touched_index = np.concatenate(chunks_index)
        sums = np.zeros(n)
        np.add.at(sums, touched_index, np.concatenate(chunks_data))
        touched = np.unique(touched_index)

        def key(state: int) -> Hashable:
            return quantize(float(sums[state]))

        return key, touched.tolist()

    return factory


def flat_ordinary_splitter(rate_matrix: sparse.spmatrix) -> SplitterFactory:
    """``K(R, s, C) = R(s, C)`` with sparsity: only rows with a transition
    into ``C`` can have a non-zero sum."""
    csc = sparse.csc_matrix(rate_matrix)
    return _axis_sum_splitter(
        csc.indptr, csc.indices, csc.data, csc.shape[0]
    )


def flat_exact_splitter(rate_matrix: sparse.spmatrix) -> SplitterFactory:
    """``K(R, s, C) = R(C, s)`` with sparsity: only columns receiving a
    transition from ``C`` can have a non-zero sum."""
    csr = sparse.csr_matrix(rate_matrix)
    return _axis_sum_splitter(
        csr.indptr, csr.indices, csr.data, csr.shape[1]
    )


# ----------------------------------------------------------------------
# MD nodes: formal-sum signatures (the paper's local K)
# ----------------------------------------------------------------------

#: A slice index: slice -> ``(other, child, coefficient)`` records.
SliceIndex = Dict[int, List[Tuple[int, int, float]]]

#: The ``child`` of a terminal node's records (its entries are reals).
_TERMINAL = -1


def _terms(node: MDNode, entry) -> Iterable[Tuple[int, float]]:
    """``(child, coefficient)`` per formal-sum term of ``entry``."""
    return ((_TERMINAL, entry),) if node.terminal else entry.items()


def _slice_index(node: MDNode, kind: str) -> Tuple[SliceIndex, SliceIndex]:
    """Index ``node``'s entries by splitter slice — column for the
    ordinary key, row for the exact key — as ``(other, child,
    coefficient)`` records, one per formal-sum term, in entry order.

    A splitter visits its slices in ascending order, so it adds up each
    ``(other, child)`` sum in slice order, where ``FormalSum.accumulate``
    added it in entry order.  Up to two terms the order cannot change
    the rounding; the second index maps each ``other`` that has a longer
    sum out of slice order to its ``(slice, child, coefficient)`` records
    in entry order, to be summed that way.
    """
    slices: SliceIndex = {}
    last: Dict[int, int] = {}
    late = set()
    for row, col, entry in node.entries():
        slice_, other = (col, row) if kind == "ordinary" else (row, col)
        if last.get(other, -1) > slice_:
            late.add(other)
        last[other] = slice_
        records = slices.setdefault(slice_, [])
        for child, coefficient in _terms(node, entry):
            records.append((other, child, coefficient))
    unordered: SliceIndex = {}
    for row, col, entry in node.entries() if late else ():
        slice_, other = (col, row) if kind == "ordinary" else (row, col)
        if other in late:
            unordered.setdefault(other, []).extend(
                (slice_, child, coefficient)
                for child, coefficient in _terms(node, entry)
            )
    for other, records in list(unordered.items()):
        if max(Counter(child for _s, child, _c in records).values()) < 3:
            del unordered[other]
    return slices, unordered


def _accumulate(
    slices: SliceIndex, members: Iterable[int]
) -> Dict[int, Dict[int, float]]:
    """``other -> {child: sum}`` over the records of ``members``'
    slices, added in member order."""
    sums: Dict[int, Dict[int, float]] = {}
    for member in members:
        for other, child, coefficient in slices.get(member, ()):
            terms = sums.get(other)
            if terms is None:
                sums[other] = {child: coefficient}
            else:
                terms[child] = terms.get(child, 0.0) + coefficient
    return sums


def _signer(terminal: bool) -> Callable[[Dict[int, float]], Hashable]:
    """The key of one ``{child: sum}``: ``quantize(total)`` on a terminal
    node, else the sorted ``(child, quantize(sum))`` pairs with exact
    zeros dropped — ``FormalSum.signature``.  Quantizing goes through a
    memo (formatting a float dominates otherwise)."""
    memo: Dict[float, float] = {}

    def q(value: float) -> float:
        out = memo.get(value)
        if out is None:
            out = memo[value] = quantize(value)
        return out

    def sign(terms: Dict[int, float]) -> Hashable:
        if terminal:
            return q(terms[_TERMINAL])
        if len(terms) == 1:
            ((child, value),) = terms.items()
            return ((child, q(value)),) if value != 0.0 else ()
        return tuple(
            sorted((child, q(v)) for child, v in terms.items() if v != 0.0)
        )

    return sign


def md_node_splitter(node: MDNode, kind: str) -> SplitterFactory:
    """The formal-sum key of ``node``, indexed once for a whole level.

    * ordinary: ``K(R_n2, s2, C2) = {(r(s2, C2), n3)}`` — the formal sum
      of row ``s2`` over the splitter class;
    * exact: ``K(R_n2, s2, C2) = {(r(C2, s2), n3)}`` — the column sum
      (Eq. (5) of Definition 3).

    Each splitter sums its slices' records per ``(state, child)`` in
    plain dicts; a state no record reaches keys like an all-zero sum,
    ``()`` (or ``0.0`` on a terminal node).
    """
    slices, unordered = _slice_index(node, kind)
    sign = _signer(node.terminal)
    default: Hashable = 0.0 if node.terminal else ()

    def factory(members: Tuple[int, ...]):
        sums = _accumulate(slices, members)
        if unordered:
            member_set = set(members)
            for other in unordered.keys() & sums.keys():
                terms: Dict[int, float] = {}
                for slice_, child, coefficient in unordered[other]:
                    if slice_ in member_set:
                        terms[child] = terms.get(child, 0.0) + coefficient
                sums[other] = terms
        keys = {state: sign(terms) for state, terms in sums.items()}
        return (lambda state: keys.get(state, default)), keys.keys()

    return factory


def row_sum_signatures(node: MDNode, size: int) -> List[Hashable]:
    """Per row of ``node``, the key of its sum over all columns (added in
    column order, as ``MDNode.row_sum_over`` does): one pass over the
    entries for the exact ``P_ini``."""
    slices, _unordered = _slice_index(node, "ordinary")
    sums = _accumulate(slices, sorted(slices))
    sign = _signer(node.terminal)
    default: Hashable = 0.0 if node.terminal else ()
    return [
        sign(sums[row]) if row in sums else default for row in range(size)
    ]


# ----------------------------------------------------------------------
# MD nodes: concrete-matrix keys (ablation / oracle)
# ----------------------------------------------------------------------


def _matrix_signature(matrix: sparse.spmatrix) -> Tuple:
    coo = matrix.tocoo()
    return tuple(
        sorted(
            (int(r), int(c), quantize(float(v)))
            for r, c, v in zip(coo.row, coo.col, coo.data)
            if quantize(float(v)) != 0.0
        )
    )


def md_node_matrix_splitter(
    md: MatrixDiagram,
    node: MDNode,
    kind: str,
    flat_cache: Dict[int, sparse.csr_matrix],
) -> SplitterFactory:
    """``K(R_n2, s2, C2) = bar(R)_n2(s2, C2)`` (ordinary) or
    ``bar(R)_n2(C2, s2)`` (exact) — the *represented matrix* of the row
    or column sum.  Sufficient and necessary on the node level, but
    requires flattening children (the trade-off of Section 4);
    ``flat_cache`` keeps each flattened child for the other nodes of the
    level."""
    by_state: Dict[int, List[Tuple[int, object]]] = {}
    for row, col, entry in node.entries():
        state, other = (row, col) if kind == "ordinary" else (col, row)
        by_state.setdefault(state, []).append((other, entry))
    dim = 1 if node.terminal else math.prod(md.level_sizes[node.level :])

    def factory(members: Tuple[int, ...]):
        member_set = set(members)

        def key(state: int) -> Hashable:
            total = sparse.csr_matrix((dim, dim))
            for other, entry in by_state.get(state, ()):
                if other in member_set:
                    total = total + flatten_entry(md, node, entry, flat_cache)
            return _matrix_signature(total)

        return key, None

    return factory
