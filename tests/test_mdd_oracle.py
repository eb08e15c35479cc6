"""Differential tests for the array MDD manager.

The oracle is the dict manager the array nodes replaced
(``tests/mdd_oracle.py``).  On random managers of 1-4 levels with 1-6
substates each, random state sets, random events (zero weights,
substates without options and several options per substate included)
and random per-level maps, both managers must give the same sets,
compared through ``tuples``, for ``from_tuples``, ``union``,
``intersect``, ``image`` and ``map_levels``, the same ``count``,
``contains`` and ``level_support``, and intern the same nodes (the
order ``image`` folds repeated targets in decides which union nodes
appear).  On every model builder of ``tests/test_reachability_codes.py``,
saturation must reach the oracle's set and intern as many nodes.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.statespace import Event, EventModel
from repro.statespace.mdd import MDDManager
from repro.statespace.reachability import _saturate
from tests import mdd_oracle
from tests.test_reachability_codes import BUILDERS, event_models

DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def mdd_inputs(draw):
    """A random event model (its options given in a random order, so
    sources are not sorted), two state sets over its levels, and
    per-level maps (some substates unmapped) into random target sizes."""
    model, _seeds = draw(
        event_models(
            weights=st.sampled_from([0.0, 1.0, 2.0]),
            factors=st.sampled_from([0.5, 1.0]),
        )
    )
    events = []
    for event in model.events:
        tables = {}
        for level, columns in event.tables.items():
            order = draw(st.permutations(range(len(columns[0]))))
            tables[level] = [column[list(order)] for column in columns]
        events.append(Event(event.name, event.weight, tables))
    model = EventModel(
        model.levels, events, model.state_labels(model.initial_state)
    )
    sizes = model.level_sizes()
    state = st.tuples(*(st.integers(0, size - 1) for size in sizes))
    sets = [draw(st.lists(state, max_size=12)) for _ in range(2)]
    target_sizes = [draw(st.integers(1, 6)) for _ in sizes]
    mappings = [
        draw(
            st.dictionaries(
                st.integers(0, size - 1), st.integers(0, target - 1)
            )
        )
        for size, target in zip(sizes, target_sizes)
    ]
    return model, sets, mappings, target_sizes


def run(manager_class, model, sets, mappings, target_sizes):
    """The same operations, in the same order, on a fresh manager of
    ``manager_class``: what each gives, and the nodes interned on the
    way."""
    sizes = model.level_sizes()
    manager = manager_class(sizes)
    a, b = (manager.from_tuples(states) for states in sets)
    results = {"a": a, "b": b}
    results["union"] = manager.union(a, b)
    results["intersect"] = manager.intersect(a, b)
    for index, event in enumerate(model.events):
        results[f"image {index}"] = manager.image(results["union"], event)
    facts = {
        name: list(manager.tuples(node)) for name, node in results.items()
    }
    facts["count"] = [manager.count(node) for node in results.values()]
    facts["support"] = [
        manager.level_support(results["union"], level)
        for level in range(1, len(sizes) + 1)
    ]
    # Each level's substates, and one out of range on either side.
    candidates = [range(-1, size + 1) for size in sizes]
    facts["contains"] = [
        manager.contains(results["union"], state)
        for state in itertools.product(*candidates)
    ]
    target = manager_class(target_sizes)
    mapped = manager.map_levels(results["union"], mappings, target)
    facts["mapped"] = list(target.tuples(mapped))
    facts["nodes"] = [interned(manager), interned(target)]
    return facts


def interned(manager):
    """Every node ``manager`` interned, as its level and its states."""
    return sorted(
        (manager.level_of(node), list(manager.tuples(node)))
        for node in range(2, manager.num_nodes + 2)
    )


@given(mdd_inputs())
@DIFFERENTIAL
def test_array_manager_matches_oracle(sample):
    assert run(MDDManager, *sample) == run(mdd_oracle.MDDManager, *sample)


def test_image_folds_repeated_targets_in_source_order():
    # Sources 0, 1 and 2 with children {0}, {1} and {2} all go to
    # substate 3.  Folding them in source order interns {0, 1} on the
    # way; the table order (2, 0, 1) would intern {0, 2}, and node order
    # ({1} and {2} are interned first) {1, 2}.
    event = Event("e", 1.0, {1: ([2, 0, 1], [3, 3, 3], [1.0, 1.0, 1.0])})
    facts = []
    for manager_class in (MDDManager, mdd_oracle.MDDManager):
        manager = manager_class((4, 3))
        manager.from_tuples([(3, 1)])
        manager.from_tuples([(3, 2)])
        node = manager.from_tuples([(0, 0), (1, 1), (2, 2)])
        image = manager.image(node, event)
        facts.append((list(manager.tuples(image)), interned(manager)))
    assert facts[0] == facts[1]
    assert (2, [(0,), (1,)]) in facts[0][1]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_saturation_matches_oracle(name):
    model = BUILDERS[name]()
    sizes = model.level_sizes()
    manager, oracle = MDDManager(sizes), mdd_oracle.MDDManager(sizes)
    node, oracle_node = _saturate(manager, model), _saturate(oracle, model)
    assert list(manager.tuples(node)) == list(oracle.tuples(oracle_node))
    assert manager.num_nodes == oracle.num_nodes
