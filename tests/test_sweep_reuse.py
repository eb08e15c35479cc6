"""Differential tests for the sweep's partition-reuse proof.

The oracle is the proof ``partition_reuse_proof`` replaced
(``tests/sweep_oracle.py``), which re-derived Definition 3 with its own
summation code.  The proof now runs the lumping package's key function
and initial partition.  On random three-level MDs (the generator of
``test_lumping_keys.py``, some with one level twinned so that it lumps),
for both kinds, the two must give the same verdict — ``None`` or a
reason:

* with a full scan, on the refinement's fixed point and on a partition
  one merge coarser;
* with an incremental scan inside its contract: a random subset of the
  nodes of a model the partition is stable on is scaled, maybe with one
  entry of one scaled node changed as well, and that subset is passed
  as ``changed_nodes``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lumping import (
    MDModel,
    comp_lumping_level,
    initial_partition_exact,
    initial_partition_ordinary,
)
from repro.matrixdiagram import MatrixDiagram, MDNode
from repro.matrixdiagram.formal_sum import FormalSum
from repro.partitions import Partition
from repro.sweep import apply_point, partition_reuse_proof
from tests import sweep_oracle
from tests.test_lumping_keys import three_level_mds

DIFFERENTIAL = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

KINDS = ("ordinary", "exact")

INITIAL = {
    "ordinary": initial_partition_ordinary,
    "exact": initial_partition_exact,
}

#: Site factors; 0.1 and 3.0 can move a sum across a ``quantize``
#: boundary that a power of two cannot.
FACTORS = (0.5, 2.0, 3.0, 0.1)


def twinned(md, level):
    """``md`` with every substate of ``level`` split into two copies:
    entry ``e`` at ``(s, t)`` of a node on the level becomes ``e`` at
    ``(2s + a, 2t + a)`` and ``e / 2`` at ``(2s + a, 2t + 1 - a)``, so
    row and column sums over a pair of copies agree and each pair is
    lumpable, for both kinds."""
    nodes = {}
    for index in md.node_indices():
        node = md.node(index)
        if node.level == level:
            entries = {}
            for row, col, entry in node.entries():
                for a, b in itertools.product((0, 1), repeat=2):
                    weight = 1.0 if a == b else 0.5
                    entries[(2 * row + a, 2 * col + b)] = (
                        entry * weight if node.terminal
                        else entry.scaled(weight)
                    )
            node = MDNode(level, entries, node.terminal)
        nodes[index] = node
    sizes = list(md.level_sizes)
    sizes[level - 1] *= 2
    return MatrixDiagram(sizes, nodes, md.root_index)


@st.composite
def models(draw):
    """A random MD, maybe with one level twinned (so it has classes of
    two or more), whose per-level rewards and initial factors are
    constant or drawn from two values, so ``P_ini`` groups states."""
    md = draw(three_level_mds())
    twin = draw(st.sampled_from((None, 1, 2, 3)))

    def vectors(values):
        out = []
        for level, n in enumerate(md.level_sizes, start=1):
            vector = draw(
                st.lists(
                    st.sampled_from(draw(st.sampled_from(values))),
                    min_size=n, max_size=n,
                )
            )
            out.append(np.repeat(vector, 2) if level == twin else vector)
        return out

    rewards = vectors([(0.0,), (0.0, 1.0)])
    initial = vectors([(1.0,), (1.0, 0.5)])
    if twin is not None:
        md = twinned(md, twin)
    return MDModel(md, level_rewards=rewards, level_initial=initial)


def fixed_point(model, kind):
    """The partitions ``CompLumpingLevel`` stops at, level by level."""
    return [
        comp_lumping_level(
            model.md, level, INITIAL[kind](model, level), kind=kind
        )
        for level in range(1, model.md.num_levels + 1)
    ]


def one_merge_coarser(partitions, data):
    """``partitions`` with two classes of one drawn level merged (the
    partitions themselves when every level has a single class)."""
    levels = [i for i, p in enumerate(partitions) if len(p) >= 2]
    if not levels:
        return partitions
    level = data.draw(st.sampled_from(levels))
    blocks = list(partitions[level].blocks())
    i, j = data.draw(
        st.lists(
            st.integers(0, len(blocks) - 1),
            min_size=2, max_size=2, unique=True,
        )
    )
    merged = [b for k, b in enumerate(blocks) if k not in (i, j)]
    merged.append(blocks[i] + blocks[j])
    coarser = list(partitions)
    coarser[level] = Partition(partitions[level].n, merged)
    return coarser


def with_one_entry_changed(model, partitions, nodes, data):
    """``model`` with one entry of one of ``nodes`` changed: a drawn
    value, or a drawn formal-sum term, in a cell that may have been
    empty.  Node, row and column are drawn from those on levels with
    classes of two or more states, and from those states, when there
    are any, so the change can split a class."""
    md = model.md
    lumped = [
        i for i in sorted(nodes)
        if not partitions[md.node(i).level - 1].is_discrete()
    ]
    index = data.draw(st.sampled_from(lumped or sorted(nodes)))
    node = md.node(index)
    partition = partitions[node.level - 1]
    states = [s for b in partition.blocks() if len(b) > 1 for s in b]
    states = states or list(range(partition.n))
    cell = (data.draw(st.sampled_from(states)),
            data.draw(st.sampled_from(states)))
    value = data.draw(st.sampled_from(FACTORS))
    entries = {(row, col): entry for row, col, entry in node.entries()}
    if not node.terminal:
        # Keep the cell's other terms: each may be its child's only
        # reference.
        terms = dict(entries[cell].items()) if cell in entries else {}
        below = sorted(md.nodes_at(node.level + 1))
        terms[data.draw(st.sampled_from(below))] = value
        value = FormalSum(terms)
    entries[cell] = value
    return MDModel(
        md.with_nodes({index: MDNode(node.level, entries, node.terminal)}),
        level_rewards=model.level_rewards,
        level_initial=model.level_initial,
    )


def verdicts(model, partitions, kind, changed_nodes=None):
    """Whether the proof, and then its oracle, accept ``partitions``."""
    return tuple(
        proof(model, partitions, kind=kind, changed_nodes=changed_nodes)
        is None
        for proof in (
            partition_reuse_proof,
            sweep_oracle.partition_reuse_proof,
        )
    )


@pytest.mark.parametrize("kind", KINDS)
@DIFFERENTIAL
@given(model=models(), data=st.data())
def test_full_scan_gives_the_oracle_verdict(kind, model, data):
    partitions = fixed_point(model, kind)
    assert verdicts(model, partitions, kind) == (True, True)
    coarser = one_merge_coarser(partitions, data)
    new, old = verdicts(model, coarser, kind)
    assert new == old


@pytest.mark.parametrize("change", (False, True), ids=("scale", "change"))
@pytest.mark.parametrize("kind", KINDS)
@DIFFERENTIAL
@given(model=models(), data=st.data())
def test_incremental_scan_gives_the_oracle_verdict(kind, change, model, data):
    partitions = fixed_point(model, kind)
    changed = data.draw(
        st.sets(st.sampled_from(sorted(model.md.node_indices())), min_size=1)
    )
    factor = data.draw(st.sampled_from(FACTORS))
    derived = apply_point(model, {"site": sorted(changed)}, {"site": factor})
    if change:
        derived = with_one_entry_changed(derived, partitions, changed, data)
    new, old = verdicts(derived, partitions, kind, changed_nodes=changed)
    assert new == old


@pytest.mark.parametrize("kind", KINDS)
def test_split_class_is_named(kind):
    """A rejection names the level, node, splitter and split class."""
    node = MDNode(1, {(0, 1): 1.0, (1, 0): 2.0}, terminal=True)
    model = MDModel(MatrixDiagram([2], {0: node}, 0))
    reason = partition_reuse_proof(model, [Partition(2, [[0, 1]])], kind)
    assert reason is not None
    if kind == "ordinary":
        assert reason == (
            "level 1 node 0: class sums over (0, 1) differ inside "
            "class (0, 1)"
        )
    else:
        assert "full row sums differ" in reason
