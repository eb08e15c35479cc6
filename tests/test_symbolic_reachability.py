"""Tests for the fully symbolic reachability path (no state enumeration)."""

import pytest

from repro.errors import StateSpaceError
from repro.models import TandemParams, build_tandem
from repro.statespace import (
    MDDManager,
    reachable_bfs,
    symbolic_reachability,
)
from repro.statespace.mdd import FALSE


@pytest.fixture(scope="module")
def tandem_pair():
    params = TandemParams(jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2)
    compiled = build_tandem(params)
    explicit = reachable_bfs(compiled.event_model)
    symbolic = symbolic_reachability(compiled.event_model)
    return explicit, symbolic


class TestSymbolicStateSpace:
    def test_count_matches_bfs(self, tandem_pair):
        explicit, symbolic = tandem_pair
        assert symbolic.num_states == explicit.num_states

    def test_supports_match_bfs(self, tandem_pair):
        explicit, symbolic = tandem_pair
        assert symbolic.level_supports() == explicit.level_supports()
        assert symbolic.level_sizes() == explicit.level_sizes()

    def test_mapped_count_identity(self, tandem_pair):
        explicit, symbolic = tandem_pair
        identity_maps = [
            {s: s for s in support}
            for support in symbolic.level_supports()
        ]
        sizes = symbolic.model.level_sizes()
        assert (
            symbolic.mapped_count(identity_maps, sizes)
            == symbolic.num_states
        )

    def test_mapped_count_collapse(self, tandem_pair):
        explicit, symbolic = tandem_pair
        collapse = [
            {s: 0 for s in support}
            for support in symbolic.level_supports()
        ]
        assert symbolic.mapped_count(collapse, [1, 1, 1]) == 1


class TestMapLevels:
    def test_map_levels_explicit_semantics(self):
        source = MDDManager((2, 3))
        tuples = [(0, 0), (0, 2), (1, 1), (1, 2)]
        node = source.from_tuples(tuples)
        target = MDDManager((2, 2))
        mapped = source.map_levels(
            node, [{0: 0, 1: 1}, {0: 0, 1: 0, 2: 1}], target
        )
        expected = {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert set(target.tuples(mapped)) == expected

    def test_map_levels_drops_missing_substates(self):
        source = MDDManager((2, 2))
        node = source.from_tuples([(0, 0), (1, 1)])
        target = MDDManager((2, 2))
        mapped = source.map_levels(node, [{0: 0}, {0: 0, 1: 1}], target)
        assert set(target.tuples(mapped)) == {(0, 0)}

    def test_map_levels_empty_result(self):
        source = MDDManager((2,))
        node = source.from_tuples([(1,)])
        target = MDDManager((2,))
        assert source.map_levels(node, [{0: 0}], target) == FALSE

    def test_map_levels_wrong_arity(self):
        source = MDDManager((2, 2))
        node = source.from_tuples([(0, 0)])
        with pytest.raises(StateSpaceError):
            source.map_levels(node, [{0: 0}], MDDManager((2, 2)))


class TestSymbolicTable1:
    def test_symbolic_row_matches_explicit(self):
        from repro.bench.table1 import run_table1_row, run_table1_row_symbolic

        params = dict(cube_dim=2, msmq_servers=2, msmq_queues=2)
        explicit = run_table1_row(1, TandemParams(jobs=1, **params))
        symbolic = run_table1_row_symbolic(1, TandemParams(jobs=1, **params))
        assert symbolic.unlumped_overall == explicit.unlumped_overall
        assert symbolic.lumped_overall == explicit.lumped_overall
        assert symbolic.unlumped_level_sizes == explicit.unlumped_level_sizes
        assert symbolic.lumped_level_sizes == explicit.lumped_level_sizes
        assert symbolic.md_nodes_per_level == explicit.md_nodes_per_level
