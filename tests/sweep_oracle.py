"""The partition-reuse proof that ``repro.sweep.reuse`` replaced.

It re-derives the lumpability conditions of Definition 3 with its own
summation code: per state, one pass over a node's entries accumulates
the class sums (ordinary; transposed for exact) and the full row sums
in entry order, and compares their quantized formal-sum signatures
inside every class.  The initial condition checks rewards (ordinary) or
initial factors (exact); exact lumping's full row sums are checked on
the scanned nodes only.

``partition_reuse_proof`` now decides with the lumping package's own
key function and initial partition; ``tests/test_sweep_reuse.py``
holds the two to the same verdicts on random matrix diagrams.
"""

from typing import (
    AbstractSet,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.lumping.md_model import MDModel
from repro.partitions import Partition
from repro.util.numeric import quantize

_ZERO_TERMINAL_KEY = quantize(0.0)


def _formal_signature(
    terms: Dict[int, float],
) -> Tuple[Tuple[int, float], ...]:
    """The :attr:`FormalSum.signature` of an accumulated coefficient
    map, computed without constructing the sum (the constructor's
    re-validation dominated proof time)."""
    return tuple(
        sorted(
            (child, quantize(v)) for child, v in terms.items() if v != 0.0
        )
    )


def _blocks(partition: Partition) -> List[Tuple[int, ...]]:
    """The classes of a partition as member tuples, in dense order."""
    index_map = partition.block_index_map()
    ordered = sorted(index_map.items(), key=lambda item: item[1])
    return [tuple(partition.block(block_id)) for block_id, _ in ordered]


def _node_class_keys(
    node: Any,
    class_of: Dict[int, int],
    states: Sequence[int],
    transpose: bool = False,
) -> Dict[int, Dict[int, Any]]:
    """Per-state sparse map ``class_id -> quantized class-sum key``.

    One pass over the node's entries replaces the per-(state, class)
    ``row_sum_over`` calls, which are quadratic in the number of
    classes.  Classes whose sum is (quantized) zero are dropped so a
    cancelling class compares equal to a class the state has no
    entries in — the same verdict ``row_sum_over`` gives on those
    member sets.  With ``transpose`` the roles of rows and columns
    swap (exact lumping's column condition).
    """
    terminal = node.terminal
    raw: Dict[int, Dict[int, Any]] = {state: {} for state in states}
    for row, col, entry in node.entries():
        state, other = (col, row) if transpose else (row, col)
        bucket = raw.get(state)
        if bucket is None:
            continue
        cls = class_of[other]
        if terminal:
            bucket[cls] = bucket.get(cls, 0.0) + float(entry)
        else:
            acc = bucket.get(cls)
            if acc is None:
                acc = {}
                bucket[cls] = acc
            for child, coefficient in entry.items():
                acc[child] = acc.get(child, 0.0) + coefficient
    keys: Dict[int, Dict[int, Any]] = {}
    for state, bucket in raw.items():
        state_keys: Dict[int, Any] = {}
        for cls, total in bucket.items():
            if terminal:
                key = quantize(float(total))
                if key == _ZERO_TERMINAL_KEY:
                    continue
            else:
                key = _formal_signature(total)
                if not key:
                    continue
            state_keys[cls] = key
        keys[state] = state_keys
    return keys


def _full_row_keys(node: Any, states: Sequence[int]) -> Dict[int, Any]:
    """Quantized key of each state's full row sum, in one pass."""
    terminal = node.terminal
    raw: Dict[int, Any] = {
        state: (0.0 if terminal else {}) for state in states
    }
    for row, col, entry in node.entries():
        acc = raw.get(row)
        if acc is None:
            continue
        if terminal:
            raw[row] = acc + float(entry)
        else:
            for child, coefficient in entry.items():
                acc[child] = acc.get(child, 0.0) + coefficient
    if terminal:
        return {state: quantize(float(v)) for state, v in raw.items()}
    return {state: _formal_signature(v) for state, v in raw.items()}


def partition_reuse_proof(
    model: MDModel,
    partitions: Sequence[Partition],
    kind: str = "ordinary",
    changed_nodes: Optional[AbstractSet[int]] = None,
) -> Optional[str]:
    """Check that ``partitions`` remains a valid per-level lumping of
    ``model``.

    Returns ``None`` when the proof goes through, else a one-line
    reason naming the first violated condition (level, node, class) —
    the caller records it and re-lumps from scratch.

    ``changed_nodes`` restricts the per-node stability scan to those
    node indices.  This is the incremental form of the proof: it is
    ONLY sound when the caller knows every other node of ``model`` is
    entry-identical to a model the partition is already stable on (a
    sweep point differs from the anchored base model exactly at its
    site nodes).  The initial condition is always checked in full —
    it is cheap and depends on rewards/initial vectors, not rates.
    """
    md = model.md
    if len(partitions) != md.num_levels:
        return (
            f"{len(partitions)} partitions for a {md.num_levels}-level MD"
        )
    for level in range(1, md.num_levels + 1):
        partition = partitions[level - 1]
        if partition.n != md.level_size(level):
            return (
                f"level {level}: partition covers {partition.n} substates, "
                f"level has {md.level_size(level)}"
            )
        blocks = _blocks(partition)
        # Initial condition: the quantities P_i_ini splits on must be
        # constant on every class.
        rewards = model.level_rewards[level - 1]
        initial = model.level_initial[level - 1]
        for block in blocks:
            if len(block) < 2:
                continue
            if kind == "ordinary":
                head = quantize(float(rewards[block[0]]))
                for state in block[1:]:
                    if quantize(float(rewards[state])) != head:
                        return (
                            f"level {level}: rewards differ inside class "
                            f"{block}"
                        )
            else:
                head = quantize(float(initial[block[0]]))
                for state in block[1:]:
                    if quantize(float(initial[state])) != head:
                        return (
                            f"level {level}: initial factors differ inside "
                            f"class {block}"
                        )
        # Stability: every node of the level, against every class C.
        # Each state's class sums are gathered in a single pass over
        # the node's entries (sparse, zero classes dropped), so the
        # check is linear in the node's entry count — comparing the
        # sparse maps blockwise is the old per-(class, block) loop
        # without the quadratic blowup in the number of classes.
        nontrivial = [b for b in blocks if len(b) >= 2]
        if not nontrivial:
            continue
        level_nodes = md.nodes_at(level)
        scan = [
            index
            for index in sorted(level_nodes)
            if changed_nodes is None or index in changed_nodes
        ]
        if not scan:
            continue
        class_of: Dict[int, int] = {}
        for cls, block in enumerate(blocks):
            for state in block:
                class_of[state] = cls
        states = [state for block in nontrivial for state in block]
        for index in scan:
            node = level_nodes[index]
            if kind == "exact":
                # Exact lumping additionally needs equal full row sums
                # (condition (4) of Definition 3); per-class equality
                # of quantized signatures does not imply it.
                full = _full_row_keys(node, states)
                for block in nontrivial:
                    head = full[block[0]]
                    for state in block[1:]:
                        if full[state] != head:
                            return (
                                f"level {level} node {index}: full row "
                                f"sums differ inside class {block}"
                            )
            keys = _node_class_keys(
                node, class_of, states, transpose=(kind == "exact")
            )
            for block in nontrivial:
                head = keys[block[0]]
                for state in block[1:]:
                    if keys[state] == head:
                        continue
                    mismatched = keys[state]
                    culprit = min(
                        cls
                        for cls in set(head) | set(mismatched)
                        if head.get(cls) != mismatched.get(cls)
                    )
                    return (
                        f"level {level} node {index}: class sums over "
                        f"{blocks[culprit]} differ inside class {block}"
                    )
    return None
