"""Tests for the SAN modeling layer: places, activities, Join, compiler."""

import numpy as np
import pytest

from repro.errors import CompositionError, ModelError, StateSpaceError
from repro.markov import steady_state
from repro.models import redundant_units_join
from repro.models.simple import closed_tandem_join
from repro.san import Activity, Case, Join, Place, SANModel, compile_join
from repro.statespace import reachable_bfs


def _move(source, target):
    def update(marking):
        marking = dict(marking)
        marking[source] -= 1
        marking[target] += 1
        return marking

    return update


def pool_pair(name, rate, source, target, jobs=2, source_init=None):
    """A submodel moving tokens source -> target via a private buffer."""
    if source_init is None:
        source_init = jobs if source == "p" else 0
    buffer_name = f"{name}_buf"
    places = [
        Place("p", jobs, jobs),
        Place("q", jobs, 0),
        Place(buffer_name, jobs, 0),
    ]

    def grab_rate(m):
        return rate if m[source] > 0 and m[buffer_name] < jobs else 0.0

    def push_rate(m):
        return rate if m[buffer_name] > 0 and m[target] < jobs else 0.0

    return SANModel(
        name,
        places,
        [
            Activity("grab", grab_rate, [Case(1.0, _move(source, buffer_name))]),
            Activity("push", push_rate, [Case(1.0, _move(buffer_name, target))]),
        ],
    )


class TestPlaces:
    def test_bad_capacity(self):
        with pytest.raises(ModelError):
            Place("x", -1)

    def test_bad_initial(self):
        with pytest.raises(ModelError):
            Place("x", 2, 3)


class TestActivity:
    def test_needs_cases(self):
        with pytest.raises(ModelError):
            Activity("a", 1.0, [])

    def test_constant_rate(self):
        a = Activity("a", 2.5, [Case(1.0, lambda m: m)])
        assert a.rate_in({}) == 2.5

    def test_negative_rate_detected(self):
        a = Activity("a", lambda m: -1.0, [Case(1.0, lambda m: m)])
        with pytest.raises(ModelError):
            a.rate_in({})

    def test_case_probability_callable(self):
        c = Case(lambda m: m["x"] / 2.0, lambda m: m)
        assert c.probability_in({"x": 1}) == 0.5


class TestSANModel:
    def test_duplicate_place_rejected(self):
        with pytest.raises(ModelError):
            SANModel("m", [Place("x", 1), Place("x", 1)], [])

    def test_initial_marking(self):
        m = SANModel("m", [Place("x", 2, 1)], [])
        assert m.initial_marking() == {"x": 1}

    def test_check_marking_capacity(self):
        m = SANModel("m", [Place("x", 2)], [])
        assert m.check_marking({"x": 2})
        assert not m.check_marking({"x": 3})

    def test_check_marking_invariant(self):
        m = SANModel(
            "m", [Place("x", 5)], [], local_invariant=lambda lm: lm["x"] < 3
        )
        assert m.check_marking({"x": 2})
        assert not m.check_marking({"x": 4})


class TestJoin:
    def test_shared_places_detected(self):
        join = closed_tandem_join(jobs=1)
        assert sorted(join.shared_place_names()) == ["pool_a", "pool_b"]

    def test_needs_two_submodels(self):
        m = SANModel("m", [Place("x", 1)], [])
        with pytest.raises(CompositionError):
            Join([m])

    def test_no_shared_places_rejected(self):
        a = SANModel("a", [Place("x", 1)], [])
        b = SANModel("b", [Place("y", 1)], [])
        with pytest.raises(CompositionError):
            Join([a, b])

    def test_conflicting_declarations_rejected(self):
        a = SANModel("a", [Place("s", 2, 0), Place("xa", 1)], [])
        b = SANModel("b", [Place("s", 3, 0), Place("xb", 1)], [])
        with pytest.raises(CompositionError):
            Join([a, b])

    def test_submodel_needs_private_places(self):
        a = SANModel("a", [Place("s", 1)], [])
        b = SANModel("b", [Place("s", 1), Place("xb", 1)], [])
        with pytest.raises(CompositionError):
            Join([a, b])

    def test_level_structure(self):
        join = closed_tandem_join()
        assert join.num_levels == 3
        assert join.private_place_names(0) == ["stationA_q"]


class TestCompiler:
    def test_compiled_levels(self):
        compiled = compile_join(closed_tandem_join(jobs=1))
        assert compiled.level_names[0] == "shared"
        assert compiled.event_model.num_levels == 3

    def test_shared_invariant_bounds_level1(self):
        compiled = compile_join(closed_tandem_join(jobs=1))
        # pool_a + pool_b <= 1 -> 3 shared states out of 4 potential.
        assert compiled.event_model.level_sizes()[0] == 3

    def test_marking_of_state(self):
        compiled = compile_join(closed_tandem_join(jobs=1))
        model = compiled.event_model
        marking = compiled.marking_of_state(model.initial_state)
        assert marking["pool_a"] == 1
        assert marking["stationA_q"] == 0

    def test_probabilities_must_sum_to_one(self):
        jobs = 1

        def half(m):
            m = dict(m)
            return m

        a = SANModel(
            "a",
            [Place("s", jobs, jobs), Place("xa", jobs, 0)],
            [Activity("bad", 1.0, [Case(0.4, half)])],
        )
        b = SANModel("b", [Place("s", jobs, jobs), Place("xb", jobs, 0)], [])
        with pytest.raises(ModelError):
            compile_join(Join([a, b]))

    def test_local_declaration_enforced(self):
        jobs = 1

        def touch_shared(m):
            m = dict(m)
            m["s"] = max(0, m["s"] - 1)
            return m

        a = SANModel(
            "a",
            [Place("s", jobs, jobs), Place("xa", jobs, 0)],
            [
                Activity(
                    "sneaky",
                    lambda m: 1.0 if m["s"] > 0 else 0.0,
                    [Case(1.0, touch_shared)],
                    shared=False,
                )
            ],
        )
        b = SANModel("b", [Place("s", jobs, jobs), Place("xb", jobs, 0)], [])
        with pytest.raises(ModelError):
            compile_join(Join([a, b]))

    def test_closed_tandem_steady_state(self):
        # End-to-end: compile, explore, solve; utilization of the faster
        # station is lower.
        compiled = compile_join(closed_tandem_join(jobs=2, service_rate_a=1.0,
                                                   service_rate_b=4.0))
        reach = reachable_bfs(compiled.event_model)
        ctmc = reach.to_ctmc()
        pi = steady_state(ctmc).distribution
        # Mean queue length at A exceeds that at B (A is slower).
        model = compiled.event_model
        mean_a = mean_b = 0.0
        for probability, state in zip(pi, reach.states):
            marking = compiled.marking_of_state(state)
            mean_a += probability * marking["stationA_q"]
            mean_b += probability * marking["stationB_q"]
        assert mean_a > mean_b

    def test_dropped_transitions_only_from_overapproximation(self):
        # In the closed tandem every invariant is exact, so no *reachable*
        # transition is dropped: the reachable CTMC row sums stay positive.
        compiled = compile_join(closed_tandem_join(jobs=2))
        reach = reachable_bfs(compiled.event_model)
        ctmc = reach.to_ctmc()
        assert ctmc.is_irreducible()


@pytest.mark.parametrize(
    "state, match",
    [((-1, 0, 0), "substate -1 outside level 'shared'"),
     ((0,), "has 1 components")],
)
def test_marking_of_state_outside_levels_raises(state, match):
    """A substate outside its level used to read the marking of a label
    from the end of the level, and a short state a partial marking."""
    compiled = compile_join(redundant_units_join(2, 1))
    with pytest.raises(StateSpaceError, match=match):
        compiled.marking_of_state(state)
