"""One level merge, tested on random MDs.

Section 3 merges levels top-down and bottom-up until the level of
interest is level 2 of three.  ``merge_adjacent`` is the one merge:
``merge_top_down``, ``merge_bottom_up``, ``to_three_level`` and
``regroup_levels`` repeat it.  On random Kronecker MDs, labelled and
unlabelled, every merge at every valid argument must give the expected
level sizes, keep the root index and the labels, and represent the
input's matrix (``md_equal``, against ``flatten``).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy import sparse

from repro.errors import MatrixDiagramError
from repro.matrixdiagram import md_equal, md_from_kronecker_terms
from repro.matrixdiagram.operations import (
    merge_adjacent,
    merge_bottom_up,
    merge_top_down,
    regroup_levels,
    to_three_level,
)
from tests.test_md_build import DIFFERENTIAL, kronecker_terms


def _tame(values):
    """Finite, moderate values.  A merge multiplies the coefficients of a
    path in another order; with ``inf``, ``nan`` or ``1e200`` in the
    terms, the rounding, overflow or ``nan`` of the regrouped products
    would swamp ``md_equal``'s absolute tolerance (a ``nan`` MD is not
    even ``md_equal`` to itself).  ``1e-200`` stays."""
    values = np.nan_to_num(
        np.asarray(values, dtype=float), nan=0.5, posinf=2.0
    )
    return np.where(np.abs(values) > 1e100, 4.0, values)


def _finite_terms(sample):
    """``kronecker_terms``' sizes and library terms, every value tamed."""
    sizes, terms, _oracle_terms = sample
    tamed = []
    for weight, factors in terms:
        out = []
        for factor in factors:
            if isinstance(factor, dict):
                factor = {rc: float(_tame(v)) for rc, v in factor.items()}
            elif sparse.issparse(factor):
                factor = factor.copy()
                factor.data = _tame(factor.data)
            elif factor is not None:
                factor = _tame(factor)
            out.append(factor)
        tamed.append((float(_tame(weight)), out))
    return sizes, tamed


def _merges(num_levels, groups):
    """Every merge at every valid argument, with the level groups (lists
    of 1-based levels) each leaves: ``(name, merge, groups)``."""
    levels = list(range(1, num_levels + 1))
    for level in levels[:-1]:
        yield (
            f"merge_adjacent({level})",
            lambda md, level=level: merge_adjacent(md, level),
            [[lv] for lv in levels[: level - 1]]
            + [[level, level + 1]]
            + [[lv] for lv in levels[level + 1 :]],
        )
        yield (
            f"merge_top_down({level})",
            lambda md, level=level: merge_top_down(md, level),
            [levels[:level]] + [[lv] for lv in levels[level:]],
        )
    for level in levels:
        yield (
            f"merge_bottom_up({level})",
            lambda md, level=level: merge_bottom_up(md, level),
            [[lv] for lv in levels[: level - 1]] + [levels[level - 1 :]],
        )
        yield (
            f"to_three_level({level})",
            lambda md, level=level: to_three_level(md, level),
            [levels[: level - 1], [level], levels[level:]],
        )
    yield (
        f"regroup_levels({groups})",
        lambda md: regroup_levels(md, groups),
        groups,
    )


@given(kronecker_terms().map(_finite_terms), st.booleans(), st.data())
@DIFFERENTIAL
def test_every_merge_keeps_the_matrix(sample, labelled, data):
    sizes, terms = sample
    labels = None
    if labelled:
        labels = [
            [f"{level}:{s}" for s in range(size)]
            for level, size in enumerate(sizes, start=1)
        ]
    try:
        md = md_from_kronecker_terms(terms, sizes, level_state_labels=labels)
    except MatrixDiagramError:
        assume(False)  # no terms: not an MD
    # Random contiguous groups: each level after the first starts a new
    # group or joins the one above.
    cuts = len(sizes) - 1
    starts = data.draw(st.lists(st.booleans(), min_size=cuts, max_size=cuts))
    groups = [[1]]
    for level, start in enumerate(starts, start=2):
        if start:
            groups.append([level])
        else:
            groups[-1].append(level)
    for name, merge, merged_groups in _merges(md.num_levels, groups):
        merged = merge(md)
        expected = tuple(
            math.prod(sizes[lv - 1] for lv in group) for group in merged_groups
        )
        assert merged.level_sizes == expected, name
        assert md_equal(merged, md), name
        assert (merged.all_level_labels() is not None) == labelled, name
        if not name.startswith("to_three_level"):
            assert merged.root_index == md.root_index, name


def test_merged_level_past_a_million_substates_is_unlabelled():
    # One label per substate: 1,001,000 of them would crowd memory.
    md = md_from_kronecker_terms(
        [(2.0, [{(0, 0): 1.0}, {(3, 5): 1.5}])],
        (1001, 1000),
        level_state_labels=[range(1001), range(1000)],
    )
    merged = merge_adjacent(md, 1)
    assert merged.level_sizes == (1_001_000,)
    assert merged.all_level_labels() is None
    assert md_equal(merged, md)


@pytest.mark.parametrize(
    "merge, argument, message",
    [
        (merge_adjacent, 2, "level must be in 1..1, got 2"),
        (merge_top_down, 0, "through_level must be in 1..1, got 0"),
        (merge_top_down, 2, "through_level must be in 1..1, got 2"),
        (merge_bottom_up, 0, "invalid from_level 0"),
        (merge_bottom_up, 3, "invalid from_level 3"),
        (to_three_level, 3, "invalid focus level 3"),
    ],
)
def test_merges_reject_levels_out_of_range(merge, argument, message):
    md = md_from_kronecker_terms([(1.0, [np.eye(2), np.eye(3)])], (2, 3))
    with pytest.raises(MatrixDiagramError, match=message):
        merge(md, argument)
