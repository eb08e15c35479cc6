"""The dict-walking MD-node keys and exact ``P_ini`` that
``repro.lumping.keys.md_node_splitter`` and
``repro.lumping.local.initial_partition_exact`` replaced.

Each splitter indexes the node by row and by column and builds a
``FormalSum`` per (state, splitter) through ``MDNode.row_sum_over`` /
``col_sum_over``; the exact ``P_ini`` probes every column of every row.
The indexed keys must give the same touched sets and the same key
equality relation, and the same partitions, block ids and work
counters; the differential tests in ``test_lumping_keys.py`` hold them
to that.
"""

from typing import Dict, Hashable, List, Tuple

from repro.lumping.md_model import MDModel
from repro.lumping.refinement import SplitterFactory
from repro.matrixdiagram.node import MDNode
from repro.partitions import Partition
from repro.util.numeric import quantize


def _node_row_index(node: MDNode) -> Dict[int, List[Tuple[int, object]]]:
    """row -> list of (col, entry)."""
    by_row: Dict[int, List[Tuple[int, object]]] = {}
    for r, c, entry in node.entries():
        by_row.setdefault(r, []).append((c, entry))
    return by_row


def _node_col_index(node: MDNode) -> Dict[int, List[Tuple[int, object]]]:
    """col -> list of (row, entry)."""
    by_col: Dict[int, List[Tuple[int, object]]] = {}
    for r, c, entry in node.entries():
        by_col.setdefault(c, []).append((r, entry))
    return by_col


def md_node_ordinary_splitter(node: MDNode) -> SplitterFactory:
    """``K(R_n2, s2, C2) = {(r(s2, C2), n3)}`` — the formal sum of row
    ``s2`` over the splitter class, as a signature of quantized
    ``(node, coefficient)`` pairs (zero-coefficient terms dropped)."""
    by_row = _node_row_index(node)
    by_col = _node_col_index(node)

    def factory(members: Tuple[int, ...]):
        member_set = set(members)
        touched = sorted(
            {
                r
                for col in members
                for r, _entry in by_col.get(col, ())
            }
        )
        cache: Dict[int, Hashable] = {}

        def key(state: int) -> Hashable:
            cached = cache.get(state)
            if cached is not None:
                return cached
            if node.terminal:
                total = 0.0
                for col, entry in by_row.get(state, ()):
                    if col in member_set:
                        total += entry
                result: Hashable = quantize(total)
            else:
                cols = tuple(
                    col
                    for col, _entry in by_row.get(state, ())
                    if col in member_set
                )
                result = node.row_sum_over(state, cols).signature
            cache[state] = result
            return result

        return key, touched

    return factory


def md_node_exact_splitter(node: MDNode) -> SplitterFactory:
    """``K(R_n2, s2, C2) = {(r(C2, s2), n3)}`` — the transposed variant
    for exact lumpability (Eq. (5) of Definition 3)."""
    by_col = _node_col_index(node)
    by_row = _node_row_index(node)

    def factory(members: Tuple[int, ...]):
        member_set = set(members)
        touched = sorted(
            {
                c
                for row in members
                for c, _entry in by_row.get(row, ())
            }
        )
        cache: Dict[int, Hashable] = {}

        def key(state: int) -> Hashable:
            cached = cache.get(state)
            if cached is not None:
                return cached
            if node.terminal:
                total = 0.0
                for row, entry in by_col.get(state, ()):
                    if row in member_set:
                        total += entry
                result: Hashable = quantize(total)
            else:
                rows = tuple(
                    row
                    for row, _entry in by_col.get(state, ())
                    if row in member_set
                )
                result = node.col_sum_over(rows, state).signature
            cache[state] = result
            return result

        return key, touched

    return factory


def initial_partition_exact(model: MDModel, level: int) -> Partition:
    """``P_i_ini`` for exact lumping: the coarsest partition with equal
    initial factors ``f_pi,i`` *and* equal coefficient row sums
    ``r_{n_i, n_{i+1}}(s_i, S_i)`` for every node pair."""
    md = model.md
    initial_factors = model.level_initial[level - 1]
    nodes = sorted(md.nodes_at(level).items())
    size = md.level_size(level)
    all_cols = tuple(range(size))
    row_signatures: Dict[int, tuple] = {}
    for state in range(size):
        signature = []
        for index, node in nodes:
            entry = node.row_sum_over(state, all_cols)
            if node.terminal:
                signature.append((index, quantize(float(entry))))
            else:
                signature.append((index, entry.signature))
        row_signatures[state] = tuple(signature)

    def key(state: int) -> Hashable:
        return (quantize(float(initial_factors[state])), row_signatures[state])

    return Partition.from_key(size, key)
