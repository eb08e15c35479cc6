"""The two-pass SAN compiler that ``repro.san.compile_join`` replaced.

It enumerates each submodel's private markings by firing every activity
in every shared marking, then fires them all again to build the event
tables (a local activity in the first and the last shared marking, a
shared activity in every one).  The single-pass compiler must return the
same :class:`CompiledModel` field for field; the differential tests in
``test_san_compile.py`` hold it to that.  Firing, shared-level
enumeration and the marking tuples are shared with the library.
"""

from typing import Dict, List, Optional, Tuple

from repro.errors import ModelError, StateSpaceError
from repro.san.composition import Join
from repro.san.model import Activity
from repro.san.semantics import (
    CompiledModel,
    _enumerate_shared,
    _fire_activity,
    _marking_tuple,
)
from repro.statespace.events import Event, EventModel, LevelSpace


def _enumerate_private(
    join: Join,
    submodel_index: int,
    shared_states: List[Tuple[int, ...]],
    max_states: Optional[int],
) -> List[Tuple[int, ...]]:
    """Local BFS over a submodel's private markings, trying every shared
    marking as context (the standard over-approximation of the projection:
    a superset of the exact projection, pruned by the local invariant)."""
    model = join.submodels[submodel_index]
    shared_names = join.shared_place_names()
    private_names = join.private_place_names(submodel_index)
    initial = _marking_tuple(private_names, model.initial_marking())
    seen = {initial}
    frontier = [initial]
    while frontier:
        state = frontier.pop()
        private_marking = dict(zip(private_names, state))
        for shared in shared_states:
            full = dict(zip(shared_names, shared))
            full.update(private_marking)
            for activity in model.activities:
                for target_full, _rate in _fire_activity(activity, full):
                    target = _marking_tuple(private_names, target_full)
                    if target in seen:
                        continue
                    if not model.check_marking(
                        dict(zip(private_names, target))
                    ):
                        continue
                    seen.add(target)
                    frontier.append(target)
                    if max_states is not None and len(seen) > max_states:
                        raise StateSpaceError(
                            f"submodel {model.name!r} exceeds "
                            f"{max_states} local states"
                        )
    return sorted(seen)


def compile_join(
    join: Join,
    max_local_states: Optional[int] = 2_000_000,
) -> CompiledModel:
    """Compile a :class:`Join` into an :class:`EventModel`.

    Levels: 1 = shared places, ``k + 1`` = submodel ``k``'s private places.
    """
    shared_names = join.shared_place_names()
    shared_states = _enumerate_shared(join)
    shared_index = {state: i for i, state in enumerate(shared_states)}

    level_spaces = [LevelSpace("shared", shared_states)]
    level_names = ["shared"]
    level_place_names = [shared_names]
    private_states: List[List[Tuple[int, ...]]] = []
    private_indices: List[Dict[Tuple[int, ...], int]] = []
    for k, model in enumerate(join.submodels):
        states = _enumerate_private(join, k, shared_states, max_local_states)
        private_states.append(states)
        private_indices.append({state: i for i, state in enumerate(states)})
        level_spaces.append(LevelSpace(model.name, states))
        level_names.append(model.name)
        level_place_names.append(join.private_place_names(k))

    events: List[Event] = []
    dropped = 0
    stats = {"local_events": 0, "shared_events": 0}
    for k, model in enumerate(join.submodels):
        level = k + 2
        local_table: Dict[int, List[Tuple[int, float]]] = {}
        sync_tables: Dict[
            Tuple[int, int], Dict[int, List[Tuple[int, float]]]
        ] = {}
        for activity in model.activities:
            if not activity.shared:
                table, dropped_here = _compile_local_activity(
                    join, k, activity, shared_states, private_states[k],
                    private_indices[k],
                )
                dropped += dropped_here
                for source, options in table.items():
                    local_table.setdefault(source, []).extend(options)
            else:
                grouped, dropped_here = _compile_shared_activity(
                    join, k, activity, shared_states, shared_index,
                    private_states[k], private_indices[k],
                )
                dropped += dropped_here
                for pair, table in grouped.items():
                    merged = sync_tables.setdefault(pair, {})
                    for source, options in table.items():
                        merged.setdefault(source, []).extend(options)
        if local_table:
            events.append(
                Event(f"{model.name}.local", 1.0, {level: local_table})
            )
            stats["local_events"] += 1
        for (s1_source, s1_target), table in sorted(sync_tables.items()):
            events.append(
                Event(
                    f"{model.name}.sync[{s1_source}->{s1_target}]",
                    1.0,
                    {
                        1: {s1_source: [(s1_target, 1.0)]},
                        level: table,
                    },
                )
            )
            stats["shared_events"] += 1

    initial_labels: List[Tuple[int, ...]] = [
        _marking_tuple(shared_names, join.initial_shared_marking())
    ]
    for k, model in enumerate(join.submodels):
        initial_labels.append(
            _marking_tuple(
                join.private_place_names(k), model.initial_marking()
            )
        )
    event_model = EventModel(level_spaces, events, initial_labels)
    return CompiledModel(
        join=join,
        event_model=event_model,
        level_names=level_names,
        level_place_names=level_place_names,
        dropped_transitions=dropped,
        stats=stats,
    )


def _compile_local_activity(
    join: Join,
    submodel_index: int,
    activity: Activity,
    shared_states: List[Tuple[int, ...]],
    private_states: List[Tuple[int, ...]],
    private_index: Dict[Tuple[int, ...], int],
):
    """A ``shared=False`` activity becomes one single-level effect table.

    The activity is evaluated under two different shared contexts; any
    disagreement means the ``shared=False`` declaration was wrong.
    """
    model = join.submodels[submodel_index]
    shared_names = join.shared_place_names()
    names = join.private_place_names(submodel_index)
    contexts = [shared_states[0]]
    if len(shared_states) > 1:
        contexts.append(shared_states[-1])
    table: Dict[int, List[Tuple[int, float]]] = {}
    dropped = 0
    for source_index, source in enumerate(private_states):
        reference: Optional[List[Tuple[int, float]]] = None
        for context in contexts:
            full = dict(zip(shared_names, context))
            full.update(dict(zip(names, source)))
            options: List[Tuple[int, float]] = []
            for target_full, rate in _fire_activity(activity, full):
                if _marking_tuple(shared_names, target_full) != context:
                    raise ModelError(
                        f"activity {activity.name!r} is declared local "
                        f"but modifies shared places"
                    )
                target = _marking_tuple(names, target_full)
                target_index = private_index.get(target)
                if target_index is None or not model.check_marking(
                    dict(zip(names, target))
                ):
                    dropped += 1
                    continue
                options.append((target_index, rate))
            options.sort()
            if reference is None:
                reference = options
            elif reference != options:
                raise ModelError(
                    f"activity {activity.name!r} is declared local but its "
                    f"behaviour depends on shared places"
                )
        if reference:
            table[source_index] = reference
    return table, dropped


def _compile_shared_activity(
    join: Join,
    submodel_index: int,
    activity: Activity,
    shared_states: List[Tuple[int, ...]],
    shared_index: Dict[Tuple[int, ...], int],
    private_states: List[Tuple[int, ...]],
    private_index: Dict[Tuple[int, ...], int],
):
    """A shared activity becomes one event per (shared, shared') pair."""
    model = join.submodels[submodel_index]
    shared_names = join.shared_place_names()
    names = join.private_place_names(submodel_index)
    grouped: Dict[Tuple[int, int], Dict[int, List[Tuple[int, float]]]] = {}
    dropped = 0
    for s1_index, shared in enumerate(shared_states):
        shared_marking = dict(zip(shared_names, shared))
        for source_index, source in enumerate(private_states):
            full = dict(shared_marking)
            full.update(dict(zip(names, source)))
            for target_full, rate in _fire_activity(activity, full):
                shared_target = _marking_tuple(shared_names, target_full)
                target = _marking_tuple(names, target_full)
                s1_target_index = shared_index.get(shared_target)
                target_index = private_index.get(target)
                if (
                    s1_target_index is None
                    or target_index is None
                    or not model.check_marking(dict(zip(names, target)))
                    or not join.check_shared_marking(
                        dict(zip(shared_names, shared_target))
                    )
                ):
                    dropped += 1
                    continue
                table = grouped.setdefault((s1_index, s1_target_index), {})
                table.setdefault(source_index, []).append(
                    (target_index, rate)
                )
    return grouped, dropped
