"""Tests for event models: semantics, representations, projection."""

import numpy as np
import pytest

from repro.errors import ModelError, StateSpaceError
from repro.matrixdiagram import flatten
from repro.statespace import Event, EventModel, LevelSpace
from repro.statespace.events import project_event_model


def token_ring_model():
    """A token moves around two levels; level 2 also has a local blinker."""
    l1 = LevelSpace("pool", [0, 1])
    l2 = LevelSpace("site", ["idle", "busy"])
    give = Event(
        "give", 2.0, {1: {1: [(0, 1.0)]}, 2: {0: [(1, 1.0)]}}
    )
    take = Event(
        "take", 1.0, {1: {0: [(1, 1.0)]}, 2: {1: [(0, 1.0)]}}
    )
    return EventModel([l1, l2], [give, take], [1, "idle"])


class TestLevelSpace:
    def test_index_roundtrip(self):
        space = LevelSpace("x", ["a", "b", "c"])
        assert space.index("b") == 1
        assert space.label(1) == "b"
        assert len(space) == 3
        assert "b" in space

    def test_unknown_label(self):
        with pytest.raises(StateSpaceError):
            LevelSpace("x", ["a"]).index("z")

    def test_duplicates_rejected(self):
        with pytest.raises(StateSpaceError):
            LevelSpace("x", ["a", "a"])

    def test_empty_rejected(self):
        with pytest.raises(StateSpaceError):
            LevelSpace("x", [])


class TestEvent:
    def test_zero_factor_options_dropped(self):
        e = Event("e", 1.0, {1: {0: [(1, 0.0), (2, 0.5)]}})
        assert e.effects[1][0] == [(2, 0.5)]

    def test_empty_sources_dropped(self):
        e = Event("e", 1.0, {1: {0: [(1, 0.0)]}})
        assert 0 not in e.effects[1]

    def test_negative_weight_rejected(self):
        with pytest.raises(ModelError):
            Event("e", -1.0, {})

    def test_negative_factor_rejected(self):
        with pytest.raises(ModelError):
            Event("e", 1.0, {1: {0: [(1, -2.0)]}})

    def test_nan_weight_rejected(self):
        """``weight < 0`` is False for NaN; BFS never fires such an event,
        but the MD would carry ``nan * factor`` in its root."""
        with pytest.raises(ModelError, match="weights must be >= 0"):
            Event("e", float("nan"), {1: {0: [(1, 1.0)]}, 2: {0: [(1, 1.0)]}})

    def test_levels_and_top(self):
        e = Event("e", 1.0, {3: {0: [(0, 1.0)]}, 2: {0: [(0, 1.0)]}})
        assert e.levels() == (2, 3)
        assert e.top_level() == 2


class TestEventModel:
    def test_successors(self):
        m = token_ring_model()
        out = m.successors((1, 0))
        assert out == [((0, 1), 2.0)]

    def test_disabled_event_no_successor(self):
        m = token_ring_model()
        # State (0, 0): give needs level1=1, take needs level2=1.
        assert m.successors((0, 0)) == []

    def test_encode_decode_roundtrip(self):
        m = token_ring_model()
        for index in range(m.potential_size()):
            assert m.encode(m.decode(index)) == index

    def test_initial_state_resolved_from_labels(self):
        m = token_ring_model()
        assert m.initial_state == (1, 0)

    def test_wrong_initial_length(self):
        l1 = LevelSpace("a", [0])
        with pytest.raises(ModelError):
            EventModel([l1], [], [0, 0])

    def test_event_level_out_of_range(self):
        l1 = LevelSpace("a", [0])
        bad = Event("e", 1.0, {2: {0: [(0, 1.0)]}})
        with pytest.raises(ModelError):
            EventModel([l1], [bad], [0])

    def test_event_state_out_of_range(self):
        l1 = LevelSpace("a", [0])
        bad = Event("e", 1.0, {1: {5: [(0, 1.0)]}})
        with pytest.raises(ModelError):
            EventModel([l1], [bad], [0])

    @pytest.mark.parametrize(
        "effect",
        [{-1: [(0, 1.0)]}, {0: [(-1, 1.0)]}],
        ids=["source", "target"],
    )
    def test_event_negative_state_rejected(self, effect):
        # A negative index would wrap around in the state-code lookup tables.
        l1 = LevelSpace("a", [0, 1])
        with pytest.raises(ModelError):
            EventModel([l1], [Event("e", 1.0, {1: effect})], [0])

    def test_encode_states_matches_encode(self):
        m = token_ring_model()
        states = [m.decode(index) for index in range(m.potential_size())]
        codes = m.encode_states(states)
        assert codes.tolist() == [m.encode(state) for state in states]
        assert m.decode_states(codes) == states

    def test_kronecker_and_md_agree_with_successors(self):
        m = token_ring_model()
        flat = m.kronecker_descriptor().flat_matrix().toarray()
        md_flat = flatten(m.to_md()).toarray()
        assert np.abs(flat - md_flat).max() < 1e-12
        # Row of state (1,0): single transition to (0,1) at rate 2.
        source = m.encode((1, 0))
        target = m.encode((0, 1))
        assert flat[source, target] == 2.0
        assert flat[source].sum() == 2.0

    def test_multi_option_rates_sum_in_matrix(self):
        l1 = LevelSpace("a", [0, 1])
        e = Event("e", 1.0, {1: {0: [(1, 0.5), (1, 0.25)]}})
        m = EventModel([l1], [e], [0])
        flat = m.kronecker_descriptor().flat_matrix().toarray()
        assert flat[0, 1] == 0.75

    def test_state_labels(self):
        m = token_ring_model()
        assert m.state_labels((1, 1)) == (1, "busy")


class TestProjection:
    def test_projection_compacts_levels(self):
        m = token_ring_model()
        projected = project_event_model(m, [[0, 1], [0]])
        assert projected.level_sizes() == (2, 1)
        # 'give' needed level-2 substate 1 as target; option dropped.
        give = [e for e in projected.events if e.name == "give"][0]
        assert give.effects[2] == {}

    def test_projection_must_keep_initial(self):
        m = token_ring_model()
        with pytest.raises(StateSpaceError):
            project_event_model(m, [[0], [0, 1]])

    @pytest.mark.parametrize("level, substate", [(1, -1), (1, 3), (2, 2)])
    def test_support_outside_level_rejected(self, level, substate):
        """A negative substate used to pick a label from the end of the
        level and silently drop its options; one at or past the level's
        size raised a bare ``IndexError``."""
        l1 = LevelSpace("pool", ["x", "y", "z"])
        l2 = LevelSpace("site", ["a", "b"])
        step = Event("step", 1.0, {1: {2: [(0, 1.0)], 0: [(2, 1.0)]}})
        m = EventModel([l1, l2], [step], ["x", "a"])
        supports = [[0, 1], [0, 1]]
        supports[level - 1] = [0, substate]
        with pytest.raises(
            StateSpaceError,
            match=rf"support of level {level} .* has substate {substate} ",
        ):
            project_event_model(m, supports)

    def test_projection_identity_when_full(self):
        m = token_ring_model()
        projected = project_event_model(m, [[0, 1], [0, 1]])
        assert projected.level_sizes() == m.level_sizes()
        assert projected.initial_state == m.initial_state

    def test_restricted_events(self):
        m = token_ring_model()
        restricted = m.restricted_events([[0, 1], [0]])
        give = [e for e in restricted.events if e.name == "give"][0]
        assert give.effects[2] == {}


class TestStatesOutsideTheLevels:
    """A substate outside its level, or a state with the wrong number of
    components, raises instead of reading a label from the end of a level,
    truncating the state or aliasing another state's code."""

    @staticmethod
    def model():
        levels = [
            LevelSpace("first", ["a", "b", "c"]),
            LevelSpace("second", ["u", "v"]),
        ]
        return EventModel(levels, [], ["a", "u"])

    @pytest.mark.parametrize("index", [-1, 3])
    def test_label(self, index):
        with pytest.raises(
            StateSpaceError, match=rf"substate {index} outside level 'x'"
        ):
            LevelSpace("x", ["a", "b", "c"]).label(index)

    def test_state_labels_outside_levels(self):
        with pytest.raises(
            StateSpaceError, match="substate -1 outside level 'first'"
        ):
            self.model().state_labels((-1, -2))

    def test_state_labels_too_few_components(self):
        with pytest.raises(StateSpaceError, match="has 1 components"):
            self.model().state_labels((0,))

    @pytest.mark.parametrize(
        "state, level",
        [((1, 2), "second"), ((3, 0), "first"), ((0, -1), "second")],
    )
    def test_encode(self, state, level):
        with pytest.raises(StateSpaceError, match=f"outside level '{level}'"):
            self.model().encode(state)

    @pytest.mark.parametrize("index", [-1, 6])
    def test_decode(self, index):
        with pytest.raises(
            StateSpaceError, match=f"state index {index} outside"
        ):
            self.model().decode(index)
