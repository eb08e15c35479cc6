"""Differential tests for the indexed formal-sum keys.

The oracle is the dict-walking code ``md_node_splitter`` and
``initial_partition_exact`` replaced (``tests/lumping_oracle.py``): it
builds a ``FormalSum`` per (state, splitter) and probes every column for
the exact ``P_ini``.  On random three-level MDs the indexed keys must
give the oracle's touched set and key for every state and splitter, and
each level must refine to the oracle's blocks, block ids and work
counters for both kinds and both worklist strategies.

The generator covers what Table 1 never exercises: every Table 1 entry
is a single-term formal sum in row-major order.  Here entries carry one
to three terms, sit in any insertion order (so sums of three or more
terms are added out of column order), cancel exactly to zero, agree only
after ``quantize`` (``0.1 + 0.2`` against ``0.3``), or round across a
``quantize`` boundary depending on the order they are added in.  Nodes
may be empty, and their supports may be smaller than the level.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lumping import (
    MDModel,
    comp_lumping_level,
    initial_partition_exact,
    initial_partition_ordinary,
)
from repro.lumping.keys import md_node_splitter
from repro.lumping.refinement import RefinementStats, comp_lumping
from repro.matrixdiagram import MatrixDiagram, MDNode
from repro.matrixdiagram.formal_sum import FormalSum
from tests import lumping_oracle

DIFFERENTIAL = settings(
    max_examples=80,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Three coefficients whose sum rounds to different ``quantize`` values
#: when added as ``(a + b) + c`` and as ``(c + a) + b``.
ORDER_SENSITIVE = (0.8908461084, 0.1341248775, 0.8374726996)

COEFFICIENTS = (1.0, -1.0, 2.0, 0.5, 0.1, 0.2, 0.3) + ORDER_SENSITIVE

ORACLE = {
    "ordinary": lumping_oracle.md_node_ordinary_splitter,
    "exact": lumping_oracle.md_node_exact_splitter,
}


@st.composite
def entry_lists(draw, size, value):
    """Entries over a drawn support of ``range(size)``, in any order."""
    support = draw(
        st.lists(
            st.integers(0, size - 1), min_size=1, max_size=size, unique=True
        )
    )
    cells = [(r, c) for r in support for c in support]
    chosen = draw(
        st.lists(st.sampled_from(cells), unique=True, max_size=len(cells))
    )
    return [(cell, draw(value)) for cell in chosen]


@st.composite
def three_level_mds(draw):
    """A root over 1-3 substates, 1-3 inner nodes over 1-6 substates
    and 1-3 terminal nodes over 1-5 substates; node indices are
    root 0, inner 1.., terminal after them."""
    sizes = (draw(st.integers(1, 3)), draw(st.integers(1, 6)),
             draw(st.integers(1, 5)))
    inner = list(range(1, draw(st.integers(1, 3)) + 1))
    terminal = list(
        range(inner[-1] + 1, inner[-1] + 1 + draw(st.integers(1, 3)))
    )
    coefficient = st.sampled_from(COEFFICIENTS)

    def formal(children):
        picked = draw(
            st.lists(st.sampled_from(children), min_size=1, max_size=3,
                     unique=True)
        )
        return {child: draw(coefficient) for child in picked}

    nodes = {}
    for index in terminal:
        entries = draw(entry_lists(sizes[2], coefficient))
        nodes[index] = MDNode(3, dict(entries), terminal=True)
    inner_entries = {
        index: dict(draw(entry_lists(sizes[1], st.just(None))))
        for index in inner
    }
    for index, entries in inner_entries.items():
        for cell in entries:
            entries[cell] = formal(terminal)
    # Every node must be reachable from the root: hang any terminal node
    # no inner entry references onto an inner entry.
    referenced = {
        child for entries in inner_entries.values()
        for terms in entries.values() for child in terms
    }
    for child in terminal:
        if child not in referenced:
            entries = inner_entries[draw(st.sampled_from(inner))]
            cell = next(iter(entries), (0, 0))
            entries.setdefault(cell, {})[child] = 1.0
    for index, entries in inner_entries.items():
        nodes[index] = MDNode(
            2,
            {cell: FormalSum(terms) for cell, terms in entries.items()},
            terminal=False,
        )
    root = {}
    for position, child in enumerate(inner):
        root.setdefault((position % sizes[0], 0), {})[child] = 1.0
    for cell, _none in draw(entry_lists(sizes[0], st.just(None))):
        root.setdefault(cell, {}).update(formal(inner))
    nodes[0] = MDNode(
        1,
        {cell: FormalSum(terms) for cell, terms in root.items()},
        terminal=False,
    )
    return MatrixDiagram(list(sizes), nodes, 0)


def all_splitters(size):
    """Every non-empty subset of ``range(size)``, as sorted tuples."""
    return [
        members
        for width in range(1, size + 1)
        for members in itertools.combinations(range(size), width)
    ]


def refine_level(md, level, start, kind, strategy, factory_for):
    """``comp_lumping_level``'s serial loop with counters; returns the
    partition, the ``blocks_with_ids`` after every call and the stats."""
    size = md.level_size(level)
    factories = [
        factory_for(node) for _i, node in sorted(md.nodes_at(level).items())
    ]
    stats = RefinementStats()
    trace = []
    partition = start.copy()
    while True:
        before = len(partition)
        for factory in factories:
            partition = comp_lumping(size, factory, partition, strategy, stats)
            trace.append(partition.blocks_with_ids())
        if len(partition) == before:
            return partition, trace, stats


@DIFFERENTIAL
@given(three_level_mds())
def test_keys_match_oracle_per_splitter(md):
    for level in (1, 2, 3):
        size = md.level_size(level)
        for _index, node in sorted(md.nodes_at(level).items()):
            for kind in ("ordinary", "exact"):
                new = md_node_splitter(node, kind)
                old = ORACLE[kind](node)
                for members in all_splitters(size):
                    new_key, new_touched = new(members)
                    old_key, old_touched = old(members)
                    assert set(new_touched) == set(old_touched)
                    for state in range(size):
                        assert new_key(state) == old_key(state)


@DIFFERENTIAL
@given(three_level_mds(), st.data())
def test_levels_refine_like_oracle(md, data):
    for level in (1, 2, 3):
        size = md.level_size(level)
        rewards = [
            data.draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n,
                               max_size=n))
            for n in md.level_sizes
        ]
        initial = [
            data.draw(st.lists(st.sampled_from((0.5, 1.0)), min_size=n,
                               max_size=n))
            for n in md.level_sizes
        ]
        model = MDModel(md, level_rewards=rewards, level_initial=initial)
        exact_start = initial_partition_exact(model, level)
        assert (
            exact_start.blocks_with_ids()
            == lumping_oracle.initial_partition_exact(model, level)
            .blocks_with_ids()
        )
        starts = {
            "ordinary": initial_partition_ordinary(model, level),
            "exact": exact_start,
        }
        for kind, strategy in itertools.product(
            ("ordinary", "exact"), ("paper", "all-but-largest")
        ):
            start = starts[kind]
            new, new_trace, new_stats = refine_level(
                md, level, start, kind, strategy,
                lambda node: md_node_splitter(node, kind),
            )
            _old, old_trace, old_stats = refine_level(
                md, level, start, kind, strategy, ORACLE[kind]
            )
            assert new_trace == old_trace
            assert new_stats == old_stats
            assert (
                comp_lumping_level(
                    md, level, start, kind=kind, strategy=strategy
                ).blocks_with_ids()
                == new.blocks_with_ids()
            )
            assert len(new) <= size


@pytest.mark.parametrize("kind", ["ordinary", "exact"])
@pytest.mark.parametrize("terminal", [False, True])
def test_out_of_order_sum_is_added_in_entry_order(kind, terminal):
    """A three-term sum whose entries were inserted out of slice order
    keys like the oracle's entry-order sum, not the slice-order one."""
    a, b, c = ORDER_SENSITIVE
    assert (a + b) + c != (c + a) + b
    cells = [(2, c), (0, a), (1, b)]
    entries = {}
    for slice_, value in cells:
        cell = (0, slice_) if kind == "ordinary" else (slice_, 0)
        entries[cell] = value if terminal else FormalSum.of(7, value)
    node = MDNode(2, entries, terminal=terminal)
    key, touched = md_node_splitter(node, kind)((0, 1, 2))
    old_key, _old_touched = ORACLE[kind](node)((0, 1, 2))
    assert list(touched) == [0]
    assert key(0) == old_key(0)
    assert key(0) != md_node_splitter(
        MDNode(2, dict(sorted(entries.items())), terminal=terminal), kind
    )((0, 1, 2))[0](0)


@pytest.mark.parametrize("terminal", [False, True])
def test_exact_initial_partition_adds_row_sums_in_column_order(terminal):
    """``P_ini`` sums each row over all columns in column order, as
    ``MDNode.row_sum_over`` does, whatever order the entries came in:
    row 0 (inserted out of order) totals exactly row 1's one entry."""
    a, b, c = ORDER_SENSITIVE
    cells = {(0, 2): c, (0, 0): a, (0, 1): b, (1, 0): (a + b) + c}
    if terminal:
        md = MatrixDiagram([3], {0: MDNode(1, cells, terminal=True)}, 0)
    else:
        entries = {cell: FormalSum.of(1, v) for cell, v in cells.items()}
        md = MatrixDiagram(
            [3, 1],
            {
                0: MDNode(1, entries, terminal=False),
                1: MDNode(2, {(0, 0): 1.0}, terminal=True),
            },
            0,
        )
    model = MDModel(md)
    partition = initial_partition_exact(model, 1)
    assert partition.same_block(0, 1)
    assert (
        partition.blocks_with_ids()
        == lumping_oracle.initial_partition_exact(model, 1).blocks_with_ids()
    )


@pytest.mark.parametrize("kind", ["ordinary", "exact"])
@pytest.mark.parametrize("terminal", [False, True])
def test_cancelled_sum_keys_like_untouched_state(kind, terminal):
    """State 0's two entries into the splitter cancel exactly; it stays
    touched but keys like state 1, which no entry reaches."""
    values = {(0, 0): 1.0, (0, 1): -1.0, (2, 2): 1.0}
    entries = {
        (cell if kind == "ordinary" else cell[::-1]): (
            value if terminal else FormalSum({5: value, 6: 2 * value})
        )
        for cell, value in values.items()
    }
    node = MDNode(2, entries, terminal=terminal)
    key, touched = md_node_splitter(node, kind)((0, 1))
    old_key, old_touched = ORACLE[kind](node)((0, 1))
    assert set(touched) == set(old_touched) == {0}
    assert key(0) == key(1) == old_key(0) == (0.0 if terminal else ())


def test_empty_node_touches_nothing():
    node = MDNode(2, {}, terminal=True)
    for kind in ("ordinary", "exact"):
        key, touched = md_node_splitter(node, kind)((0, 1))
        assert list(touched) == []
        assert key(0) == 0.0
