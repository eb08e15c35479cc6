"""Tests for the MDD set representation."""

import itertools

import pytest

from repro.errors import StateSpaceError
from repro.statespace import Event, MDDManager
from repro.statespace.mdd import FALSE, TRUE


@pytest.fixture()
def manager():
    return MDDManager((2, 3, 2))


def all_tuples(sizes):
    return list(itertools.product(*[range(s) for s in sizes]))


class TestConstruction:
    def test_from_tuples_membership(self, manager):
        tuples = [(0, 1, 0), (1, 2, 1), (0, 0, 0)]
        node = manager.from_tuples(tuples)
        for t in tuples:
            assert manager.contains(node, t)
        assert not manager.contains(node, (1, 1, 1))

    def test_empty_set_is_false(self, manager):
        assert manager.from_tuples([]) == FALSE

    def test_duplicates_collapse(self, manager):
        node = manager.from_tuples([(0, 0, 0), (0, 0, 0)])
        assert manager.count(node) == 1

    def test_hash_consing(self, manager):
        a = manager.from_tuples([(0, 1, 0), (1, 1, 0)])
        b = manager.from_tuples([(1, 1, 0), (0, 1, 0)])
        assert a == b  # pointer equality through interning

    def test_wrong_arity_rejected(self, manager):
        with pytest.raises(StateSpaceError):
            manager.from_tuples([(0, 0)])

    def test_singleton(self, manager):
        node = manager.singleton((1, 2, 0))
        assert manager.count(node) == 1
        assert manager.contains(node, (1, 2, 0))

    def test_substate_out_of_range(self, manager):
        with pytest.raises(StateSpaceError):
            manager.from_tuples([(0, 9, 0)])

    def test_non_integer_substate_rejected(self, manager):
        with pytest.raises(StateSpaceError):
            manager.make(3, {1.5: TRUE})
        with pytest.raises(StateSpaceError):
            manager.from_tuples([(0, 1.5, 0)])
        bottom = manager.make(3, {0: TRUE})
        with pytest.raises(StateSpaceError):
            manager.make(2, {1.5: bottom})

    def test_make_level_out_of_range(self, manager):
        top = manager.singleton((0, 0, 0))
        with pytest.raises(StateSpaceError):
            manager.make(0, {0: top})
        with pytest.raises(StateSpaceError):
            manager.make(4, {0: TRUE})

    def test_make_unknown_child_rejected(self, manager):
        with pytest.raises(StateSpaceError):
            manager.make(2, {0: 99})

    def test_make_child_on_wrong_level_rejected(self, manager):
        bottom = manager.make(3, {0: TRUE})
        middle = manager.make(2, {0: bottom})
        for level, child in [(1, TRUE), (1, bottom), (3, middle)]:
            with pytest.raises(StateSpaceError):
                manager.make(level, {0: child})

    @pytest.mark.parametrize("state", [(0, 1), (1, 1, 0, 0)])
    def test_contains_wrong_arity_rejected(self, manager, state):
        node = manager.from_tuples([(0, 1, 0)])
        with pytest.raises(StateSpaceError):
            manager.contains(node, state)

    @pytest.mark.parametrize("level", [0, 4])
    def test_level_support_level_out_of_range(self, manager, level):
        node = manager.from_tuples([(0, 1, 0)])
        with pytest.raises(StateSpaceError):
            manager.level_support(node, level)


class TestSetOperations:
    def test_union_counts(self, manager):
        a = manager.from_tuples([(0, 0, 0), (0, 1, 0)])
        b = manager.from_tuples([(0, 1, 0), (1, 2, 1)])
        u = manager.union(a, b)
        assert manager.count(u) == 3

    def test_union_with_false(self, manager):
        a = manager.from_tuples([(0, 0, 0)])
        assert manager.union(a, FALSE) == a
        assert manager.union(FALSE, a) == a

    def test_union_idempotent(self, manager):
        a = manager.from_tuples([(0, 0, 0), (1, 1, 1)])
        assert manager.union(a, a) == a

    def test_intersect(self, manager):
        a = manager.from_tuples([(0, 0, 0), (0, 1, 0), (1, 2, 1)])
        b = manager.from_tuples([(0, 1, 0), (1, 2, 1), (1, 0, 0)])
        i = manager.intersect(a, b)
        assert sorted(manager.tuples(i)) == [(0, 1, 0), (1, 2, 1)]

    def test_intersect_disjoint_is_false(self, manager):
        a = manager.from_tuples([(0, 0, 0)])
        b = manager.from_tuples([(1, 1, 1)])
        assert manager.intersect(a, b) == FALSE

    def test_tuples_enumeration_sorted(self, manager):
        tuples = [(1, 2, 1), (0, 0, 0), (0, 2, 1)]
        node = manager.from_tuples(tuples)
        assert list(manager.tuples(node)) == sorted(tuples)

    def test_count_matches_enumeration(self, manager):
        import random

        rng = random.Random(5)
        tuples = {
            (rng.randrange(2), rng.randrange(3), rng.randrange(2))
            for _ in range(8)
        }
        node = manager.from_tuples(sorted(tuples))
        assert manager.count(node) == len(tuples)

    def test_level_support(self, manager):
        node = manager.from_tuples([(0, 1, 0), (1, 2, 0), (0, 1, 1)])
        assert manager.level_support(node, 1) == [0, 1]
        assert manager.level_support(node, 2) == [1, 2]
        assert manager.level_support(node, 3) == [0, 1]


class TestImage:
    def test_image_applies_event_locally(self, manager):
        node = manager.from_tuples([(0, 1, 0)])
        event = Event("e", 1.0, {2: {1: [(2, 1.0)]}})
        image = manager.image(node, event)
        assert sorted(manager.tuples(image)) == [(0, 2, 0)]

    def test_image_disabled_gives_empty(self, manager):
        node = manager.from_tuples([(0, 0, 0)])
        event = Event("e", 1.0, {2: {1: [(2, 1.0)]}})
        assert manager.image(node, event) == FALSE

    def test_image_multi_level(self, manager):
        node = manager.from_tuples([(1, 0, 0), (1, 2, 0)])
        event = Event(
            "e", 1.0, {1: {1: [(0, 1.0)]}, 3: {0: [(1, 1.0)]}}
        )
        image = manager.image(node, event)
        assert sorted(manager.tuples(image)) == [(0, 0, 1), (0, 2, 1)]

    def test_image_matches_explicit_semantics(self, manager):
        # Compare MDD image against explicit successor computation on
        # every subset of a tiny space.
        from repro.statespace import EventModel, LevelSpace

        levels = [LevelSpace("a", [0, 1]), LevelSpace("b", [0, 1, 2]),
                  LevelSpace("c", [0, 1])]
        event = Event(
            "e", 1.0, {1: {0: [(1, 0.5)]}, 2: {0: [(1, 1.0)], 2: [(0, 1.0)]}}
        )
        model = EventModel(levels, [event], [0, 0, 0])
        states = all_tuples((2, 3, 2))
        node = manager.from_tuples(states[::2])
        image = set(manager.tuples(manager.image(node, event)))
        expected = {
            target
            for state in states[::2]
            for target, _rate in model.successors(state)
        }
        assert image == expected

    def test_zero_factor_ignored(self, manager):
        node = manager.from_tuples([(0, 1, 0)])
        event = Event("e", 1.0, {2: {1: [(2, 0.0)]}})
        assert manager.image(node, event) == FALSE

    def test_zero_weight_event_never_fires(self, manager):
        # Every rate of a weight-0 event is 0, so the explicit engines
        # never take it; the symbolic image must agree.
        node = manager.from_tuples([(0, 1, 0)])
        event = Event("e", 0.0, {2: {1: [(2, 1.0)]}})
        assert manager.image(node, event) == FALSE
