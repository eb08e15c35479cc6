"""Compilation of joined SAN models to event models.

This is the analogue of the paper's symbolic state-space generator [10]:
it assigns the shared places to level 1 and each submodel's private places
to one level (Section 5's partitioning), enumerates per-level local state
spaces, and turns every activity into events with per-level effects.

Local activities (``shared=False``) compile to a single event touching only
their submodel's level.  Shared activities compile to one event per
(shared-substate, shared-substate') pair they induce; fixing the shared
substate inside the event is what makes arbitrary joint rate dependence
between the shared level and the submodel level *exactly* representable in
Kronecker/MD form — no factorization assumption is needed.

Each submodel compiles in one enumerate-and-record pass: a local search
over its private markings fires each activity once per context, keeps the
outcomes, and the event tables are built from those records once the
level is complete and sorted.

* A shared activity fires in every (private marking, shared marking)
  pair, since its event depends on both.
* A local activity fires only in the first and the last shared marking.
  Its event is built from the first and checked against the last; a
  disagreement means the ``shared=False`` declaration is wrong.

Firing local activities in two contexts is exact.  Every transition of the
compiled model is one the search fired, so the level is closed under the
compiled events.  A correctly declared local activity fires the same way in
every shared marking, so the level is the one a search over all contexts
finds.  A mis-declared activity that differs only in a middle shared marking
escapes the check, as it always did; then only unreachable padding of the
level can shrink, and the reachable state set is unchanged.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ModelError, StateSpaceError
from repro.san.composition import Join
from repro.san.model import Activity, Marking
from repro.statespace.events import Event, EventModel, LevelEffect, LevelSpace

_PROBABILITY_TOL = 1e-9

Label = Tuple[int, ...]
#: Sync effect tables keyed by (shared source, shared target) index pair.
SyncTables = Dict[Tuple[int, int], LevelEffect]


@dataclass
class CompiledModel:
    """A joined SAN model compiled to an event model.

    ``dropped_transitions`` counts case firings whose target violated a
    declared invariant; they can only originate from unreachable states of
    the over-approximated local spaces (a true invariant is closed under
    reachable transitions), and the count is surfaced so tests can assert
    it stays plausible.  ``stats["firings"]`` counts activity evaluations.
    """

    join: Join
    event_model: EventModel
    level_names: List[str]
    level_place_names: List[List[str]]
    dropped_transitions: int = 0
    stats: Dict[str, int] = field(default_factory=dict)

    def marking_of_state(self, state: Tuple[int, ...]) -> Marking:
        """The full marking of a global state (per-level indices)."""
        marking: Marking = {}
        for level, substate in enumerate(state, start=1):
            label = self.event_model.levels[level - 1].label(substate)
            for name, value in zip(self.level_place_names[level - 1], label):
                marking[name] = value
        return marking


def _marking_tuple(names: List[str], marking: Marking) -> Tuple[int, ...]:
    return tuple(int(marking.get(name, 0)) for name in names)


def _enumerate_shared(join: Join) -> List[Tuple[int, ...]]:
    names = join.shared_place_names()
    ranges = [range(place.capacity + 1) for place in join.shared_places]
    states = []
    for values in itertools.product(*ranges):
        marking = dict(zip(names, values))
        if join.check_shared_marking(marking):
            states.append(tuple(values))
    if not states:
        raise StateSpaceError("shared invariant rejects every marking")
    return sorted(states)


def _fire_activity(
    activity: Activity, marking: Marking
) -> List[Tuple[Marking, float]]:
    """All (target marking, rate) outcomes of an activity in a marking."""
    rate = activity.rate_in(marking)
    if rate <= 0:
        return []
    outcomes = []
    total_probability = 0.0
    for case in activity.cases:
        probability = case.probability_in(marking, activity.name)
        if probability == 0:
            continue
        target = case.update(dict(marking))
        if target is None:
            raise ModelError(
                f"activity {activity.name!r}: case with positive "
                f"probability {probability} cannot fire; make the "
                f"probability conditional on firability"
            )
        total_probability += probability
        outcomes.append((target, rate * probability))
    if outcomes and abs(total_probability - 1.0) > _PROBABILITY_TOL:
        raise ModelError(
            f"activity {activity.name!r}: enabled case probabilities "
            f"sum to {total_probability}, expected 1"
        )
    return outcomes


def compile_join(
    join: Join,
    max_local_states: Optional[int] = 2_000_000,
) -> CompiledModel:
    """Compile a :class:`Join` into an :class:`EventModel`.

    Levels: 1 = shared places, ``k + 1`` = submodel ``k``'s private places.
    """
    shared_names = join.shared_place_names()
    shared_states = _enumerate_shared(join)

    level_spaces = [LevelSpace("shared", shared_states)]
    level_names = ["shared"]
    level_place_names = [shared_names]
    # Events are merged per submodel: all local activities of a submodel
    # form ONE event (identity on level 1), and all shared activities of a
    # submodel that induce the same shared transition (s1 -> s1') form one
    # event per such pair.  The merge is exact (the non-merged Kronecker
    # factors are identical) and is what lets a single MD node collect all
    # symmetric transitions of a submodel — the per-node local lumpability
    # conditions of Definition 3 can then see the symmetry.
    events: List[Event] = []
    dropped = 0
    stats = {"local_events": 0, "shared_events": 0, "firings": 0}
    # A wrong shared=False declaration is raised once every level is
    # enumerated, so an error met while firing takes precedence over it.
    declaration_error: Optional[ModelError] = None
    for k, model in enumerate(join.submodels):
        level = k + 2
        submodel = _SubmodelPass(join, k, shared_states, max_local_states)
        submodel.search()
        if declaration_error is None:
            declaration_error = submodel.declaration_error()
        states, local_table, sync_tables = submodel.tables()
        dropped += submodel.dropped
        stats["firings"] += submodel.firings
        level_spaces.append(LevelSpace(model.name, states))
        level_names.append(model.name)
        level_place_names.append(join.private_place_names(k))
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
    if declaration_error is not None:
        raise declaration_error

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


class _Outcomes:
    """The kept outcomes of one activity, a row each in firing order:
    shared marking, source id, shared target, target id, rate.

    Rows live in flat arrays rather than tuples and floats.  Freeing
    them then leaves no small objects scattered through memory, and the
    tables, built last, stay together for the stages that walk them:
    with tuple records, the stages after compilation at Table 1 J=2
    (saturation, projection, MD build, lumping) took about 10% longer.
    """

    __slots__ = ("s1", "source", "s1_target", "target", "rate")

    def __init__(self) -> None:
        self.s1 = array("q")
        self.source = array("q")
        self.s1_target = array("q")
        self.target = array("q")
        self.rate = array("d")

    def add(
        self, s1: int, source: int, s1_target: int, target: int, rate: float
    ) -> None:
        self.s1.append(s1)
        self.source.append(source)
        self.s1_target.append(s1_target)
        self.target.append(target)
        self.rate.append(rate)

    def rows(
        self, rank: np.ndarray, indices: List[int]
    ) -> Iterator[Tuple[int, int, int, int, float]]:
        """The rows with ids mapped to level indices (``rank`` as an array,
        ``indices`` as the list whose int objects the tables share),
        ordered by shared marking, then source index, then firing order."""
        s1 = np.frombuffer(self.s1, dtype=np.int64)
        source = rank[np.frombuffer(self.source, dtype=np.int64)]
        order = np.argsort(s1 * len(rank) + source, kind="stable")
        for row in order.tolist():
            yield (
                self.s1[row],
                indices[self.source[row]],
                self.s1_target[row],
                indices[self.target[row]],
                self.rate[row],
            )


class _SubmodelPass:
    """One submodel's enumerate-and-record pass.

    :meth:`search` explores the submodel's private markings depth first
    from the initial marking.  It admits every target that passes the
    submodel's capacities and local invariant (the standard
    over-approximation of the projection; the initial marking is admitted
    unchecked) and records each firing's kept outcomes as
    :class:`_Outcomes` rows, per activity.  A local activity's outcomes
    are recorded once both contexts agree; otherwise the source marking
    and the declaration error are.  An outcome whose target fails a check
    is counted in ``dropped`` (a local activity's once per context).
    :meth:`tables` builds the event tables from the rows and drops them.
    """

    def __init__(
        self,
        join: Join,
        submodel_index: int,
        shared_states: List[Label],
        max_states: Optional[int],
    ) -> None:
        self.model = join.submodels[submodel_index]
        self.shared_names = join.shared_place_names()
        self.names = join.private_place_names(submodel_index)
        self.shared_states = shared_states
        self.max_states = max_states
        self.initial = _marking_tuple(
            self.names, self.model.initial_marking()
        )
        #: Admitted labels in admission order; a label's id is its index.
        self.level: List[Label] = [self.initial]
        self.dropped = 0
        self.firings = 0
        self._outcomes = [_Outcomes() for _ in self.model.activities]
        self._errors: List[List[Tuple[Label, str]]] = [
            [] for _ in self.model.activities
        ]
        #: Target label -> its id if admitted, -1 if it fails the checks.
        self._ids: Dict[Label, int] = {}
        self._frontier: List[int] = [0]

    def search(self) -> None:
        """Fire the activities from every admitted marking and record."""
        shared_names = self.shared_names
        names = self.names
        level = self.level
        shared_index = {
            state: i for i, state in enumerate(self.shared_states)
        }
        contexts = [
            (s1_index, shared, dict(zip(shared_names, shared)))
            for s1_index, shared in enumerate(self.shared_states)
        ]
        last = len(contexts) - 1
        every = list(enumerate(self.model.activities))
        shared_only = [(j, act) for j, act in every if act.shared]
        recorded = self._outcomes
        errors = self._errors
        admit = self._admit
        frontier = self._frontier
        while frontier:
            source = frontier.pop()
            private_marking = dict(zip(names, level[source]))
            first: Dict[int, Tuple[bool, list]] = {}
            for s1_index, shared, shared_marking in contexts:
                full = dict(shared_marking)
                full.update(private_marking)
                fires_local = s1_index == 0 or s1_index == last
                for j, activity in every if fires_local else shared_only:
                    self.firings += 1
                    outcomes = _fire_activity(activity, full)
                    if activity.shared:
                        add = recorded[j].add
                        for target_full, rate in outcomes:
                            target = admit(_marking_tuple(names, target_full))
                            s1_target = shared_index.get(
                                _marking_tuple(shared_names, target_full)
                            )
                            if target < 0 or s1_target is None:
                                self.dropped += 1
                            else:
                                add(s1_index, source, s1_target, target, rate)
                        continue
                    modifies = False
                    options = []
                    for target_full, rate in outcomes:
                        label = _marking_tuple(names, target_full)
                        target = admit(label)
                        if _marking_tuple(shared_names, target_full) != shared:
                            modifies = True
                        elif target < 0:
                            self.dropped += 1
                        else:
                            options.append((label, rate, target))
                    # Label order is level order once the level is sorted.
                    options.sort()
                    if s1_index == 0:
                        first[j] = (modifies, options)
                    if s1_index != last:
                        continue
                    first_modifies, first_options = first[j]
                    if modifies or first_modifies:
                        errors[j].append(
                            (level[source], "modifies shared places")
                        )
                    elif options != first_options:
                        errors[j].append(
                            (
                                level[source],
                                "its behaviour depends on shared places",
                            )
                        )
                    else:
                        add = recorded[j].add
                        for _label, rate, target in options:
                            add(0, source, 0, target, rate)

    def declaration_error(self) -> Optional[ModelError]:
        """The error for the first mis-declared local activity, at its
        lowest source marking."""
        for activity, found in zip(self.model.activities, self._errors):
            if found:
                return ModelError(
                    f"activity {activity.name!r} is declared local "
                    f"but {min(found)[1]}"
                )
        return None

    def tables(self) -> Tuple[List[Label], LevelEffect, SyncTables]:
        """The sorted level, its local table and its sync tables.

        Activity by activity, sources in level order: that fixes the key
        and option order of the merged tables.
        """
        level = self.level
        order = sorted(range(len(level)), key=level.__getitem__)
        rank = np.empty(len(level), dtype=np.int64)
        rank[order] = np.arange(len(level))
        indices = rank.tolist()
        local_table: LevelEffect = {}
        sync_tables: SyncTables = {}
        pending, self._outcomes = self._outcomes, []
        for activity in self.model.activities:
            # Each activity's rows are freed once they are in the tables.
            rows = pending.pop(0).rows(rank, indices)
            if not activity.shared:
                for _, source, _, target, rate in rows:
                    local_table.setdefault(source, []).append((target, rate))
                continue
            for s1_index, source, s1_target, target, rate in rows:
                table = sync_tables.setdefault((s1_index, s1_target), {})
                table.setdefault(source, []).append((target, rate))
        return [level[i] for i in order], local_table, sync_tables

    def _admit(self, label: Label) -> int:
        """The label's id if it passes the submodel's checks, else -1;
        a new admitted label joins the level and the frontier."""
        target = self._ids.get(label)
        if target is not None:
            return target
        if not self.model.check_marking(dict(zip(self.names, label))):
            target = -1
        elif label == self.initial:
            target = 0
        else:
            target = len(self.level)
            self.level.append(label)
            self._frontier.append(target)
            limit = self.max_states
            if limit is not None and len(self.level) > limit:
                raise StateSpaceError(
                    f"submodel {self.model.name!r} exceeds "
                    f"{limit} local states"
                )
        self._ids[label] = target
        return target
