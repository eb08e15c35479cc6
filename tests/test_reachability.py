"""Tests for reachability: BFS vs MDD, projections, CTMC extraction."""

import numpy as np
import pytest

from repro.errors import StateSpaceError
from repro.matrixdiagram import flatten
from repro.statespace import (
    Event,
    EventModel,
    LevelSpace,
    reachable_bfs,
    reachable_mdd,
    reachable_saturation,
)
from repro.models.simple import closed_tandem_join
from repro.san import compile_join


def ring_model(jobs: int = 2) -> EventModel:
    """A token counter moved between two levels (closed, J tokens)."""
    l1 = LevelSpace("a", list(range(jobs + 1)))
    l2 = LevelSpace("b", list(range(jobs + 1)))
    forward = Event(
        "f",
        1.0,
        {
            1: {i: [(i - 1, 1.0)] for i in range(1, jobs + 1)},
            2: {i: [(i + 1, 1.0)] for i in range(jobs)},
        },
    )
    backward = Event(
        "b",
        2.0,
        {
            1: {i: [(i + 1, 1.0)] for i in range(jobs)},
            2: {i: [(i - 1, 1.0)] for i in range(1, jobs + 1)},
        },
    )
    return EventModel([l1, l2], [forward, backward], [jobs, 0])


class TestBFS:
    def test_conservation_invariant(self):
        reach = reachable_bfs(ring_model(3))
        assert all(sum(state) == 3 for state in reach.states)
        assert reach.num_states == 4

    def test_index_of(self):
        reach = reachable_bfs(ring_model(2))
        for i, state in enumerate(reach.states):
            assert reach.index_of(state) == i

    def test_index_of_unreachable_raises(self):
        reach = reachable_bfs(ring_model(2))
        with pytest.raises(StateSpaceError):
            reach.index_of((0, 0))

    def test_max_states_guard(self):
        with pytest.raises(StateSpaceError):
            reachable_bfs(ring_model(3), max_states=2)

    def test_level_supports_and_sizes(self):
        reach = reachable_bfs(ring_model(2))
        assert reach.level_supports() == [[0, 1, 2], [0, 1, 2]]
        assert reach.level_sizes() == (3, 3)

    def test_custom_seed_set(self):
        model = ring_model(2)
        reach = reachable_bfs(model, initial=[(0, 2)])
        assert (0, 2) in reach.states


class TestMDDReachability:
    def test_matches_bfs(self):
        model = ring_model(3)
        assert reachable_mdd(model).states == reachable_bfs(model).states

    def test_matches_bfs_on_compiled_model(self):
        compiled = compile_join(closed_tandem_join(jobs=2))
        model = compiled.event_model
        bfs = reachable_bfs(model)
        mdd = reachable_mdd(model)
        assert bfs.states == mdd.states


class TestSaturation:
    def test_matches_bfs_on_ring(self):
        model = ring_model(3)
        assert (
            reachable_saturation(model).states
            == reachable_bfs(model).states
        )

    def test_matches_bfs_on_compiled_model(self):
        compiled = compile_join(closed_tandem_join(jobs=2))
        model = compiled.event_model
        sat = reachable_saturation(model)
        assert sat.states == reachable_bfs(model).states
        assert sat.engine == "saturation"

    def test_local_events_only(self):
        # A model with only level-local events saturates level by level.
        l1 = LevelSpace("a", [0, 1, 2])
        l2 = LevelSpace("b", [0, 1])
        walk = Event("walk", 1.0, {1: {0: [(1, 1.0)], 1: [(2, 1.0)]}})
        flip = Event("flip", 1.0, {2: {0: [(1, 1.0)], 1: [(0, 1.0)]}})
        model = EventModel([l1, l2], [walk, flip], [0, 0])
        sat = reachable_saturation(model)
        assert sat.num_states == 6


class TestToCTMC:
    def test_rates_match_successors(self):
        model = ring_model(2)
        reach = reachable_bfs(model)
        ctmc = reach.to_ctmc()
        for i, state in enumerate(reach.states):
            for target, rate in model.successors(state):
                j = reach.index_of(target)
                assert ctmc.rate(i, j) >= rate - 1e-12

    def test_matches_flat_md_restriction(self):
        model = ring_model(2)
        reach = reachable_bfs(model)
        flat = flatten(model.to_md()).toarray()
        indices = reach.potential_indices()
        sub = flat[np.ix_(indices, indices)]
        assert np.abs(sub - reach.to_ctmc().rate_matrix.toarray()).max() < 1e-12

    def test_labels_attached(self):
        model = ring_model(1)
        ctmc = reachable_bfs(model).to_ctmc()
        assert ctmc.label(0) == (0, 1)
