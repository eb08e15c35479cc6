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

Each submodel compiles in one enumerate-and-record pass: the pass closes
its level of private markings a frontier at a time, firing each activity
once per context, keeps the outcomes, and once the level is complete and
sorted hands them to the events as option columns, the tables' one form.

* A shared activity fires in every (private marking, shared marking)
  pair, since its event depends on both.
* A local activity fires only in the first and the last shared marking.
  Its event is built from the last and checked against the first; a
  disagreement means the ``shared=False`` declaration is wrong.

Firing local activities in two contexts is exact.  Every transition of the
compiled model is one the search fired, so the level is closed under the
compiled events.  A correctly declared local activity fires the same way in
every shared marking, so the level is the one a search over all contexts
finds.  A mis-declared activity that differs only in a middle shared marking
escapes the check, as it always did; then only unreachable padding of the
level can shrink, and the reachable state set is unchanged.

A firing is not a call: an activity is evaluated once per distinct
valuation of its *footprint*, the places whose values it has been seen to
use, and its outcomes are applied with arrays to every firing with that
valuation.  An evaluation sees a placeholder for each place outside the
footprint; using one, or a target that sets or drops such a place, grows
the footprint, clears the activity's memo and redoes the evaluation.  For
deterministic functions this is exact: an evaluation that finished used
no other value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from operator import add, mul
from typing import Dict, List, NoReturn, Optional, Set, Tuple

import numpy as np

from repro.errors import ModelError, StateSpaceError
from repro.san.composition import Join
from repro.san.model import Activity, Marking
from repro.statespace.events import Columns, Event, EventModel, LevelSpace

_PROBABILITY_TOL = 1e-9
#: Why a ``shared=False`` declaration is wrong.
_MODIFIES = "modifies shared places"
_DEPENDS = "its behaviour depends on shared places"
#: Firings per batch of array operations; bounds the memory of a round.
_CHUNK_ROWS = 1 << 18

Label = Tuple[int, ...]


@dataclass
class CompiledModel:
    """A joined SAN model compiled to an event model.

    ``dropped_transitions`` counts case firings whose target violated a
    declared invariant; they can only originate from unreachable states of
    the over-approximated local spaces (a true invariant is closed under
    reachable transitions), and the count is surfaced so tests can assert
    it stays plausible.  ``stats["firings"]`` counts (activity, private
    marking, shared marking) firings; ``stats["evaluations"]`` counts the
    calls of the activities' functions those firings took, one per
    distinct footprint valuation plus one per retry that grew a footprint.
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
        labels = self.event_model.state_labels(state)
        for names, label in zip(self.level_place_names, labels):
            marking.update(zip(names, label))
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
    if abs(total_probability - 1.0) > _PROBABILITY_TOL:
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
    stats = dict.fromkeys(
        ("local_events", "shared_events", "firings", "evaluations"), 0
    )
    # A wrong shared=False declaration is raised once every level is
    # enumerated, so an error met while firing takes precedence over it.
    declaration_error: Optional[ModelError] = None
    for k, model in enumerate(join.submodels):
        level = k + 2
        submodel = _SubmodelPass(join, k, shared_states, max_local_states)
        submodel.close()
        if declaration_error is None:
            declaration_error = submodel.declaration_error()
        states, tables = submodel.tables()
        dropped += submodel.dropped
        stats["firings"] += submodel.firings
        stats["evaluations"] += submodel.evaluations
        level_spaces.append(LevelSpace(model.name, states))
        level_names.append(model.name)
        level_place_names.append(join.private_place_names(k))
        for pair, table in tables:
            if pair is None:
                name, effects = f"{model.name}.local", {level: table}
            else:
                name = f"{model.name}.sync[{pair[0]}->{pair[1]}]"
                effects = {1: {pair[0]: [(pair[1], 1.0)]}, level: table}
            events.append(Event(name, 1.0, effects))
            stats["shared_events" if pair else "local_events"] += 1
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


class _Unread:
    """The value of a place outside an activity's footprint.  Any use of
    it adds the place to ``reads`` and raises ``KeyError``, so an
    evaluation that finishes has used footprint values only."""

    __slots__ = ("name", "index", "reads")

    def __init__(self, name: str, index: int, reads: Set[int]) -> None:
        self.name, self.index, self.reads = name, index, reads

    def _use(self, *_args: object) -> NoReturn:
        self.reads.add(self.index)
        raise KeyError(self.name)

    __getattr__ = _use


# Everything an int can be used for; only a test of a value's identity
# or type goes unseen.
for _method in (
    "bool int float complex index round trunc floor ceil hash repr str "
    "format eq ne lt le gt ge neg pos abs invert add radd sub rsub mul "
    "rmul truediv rtruediv floordiv rfloordiv mod rmod divmod rdivmod pow "
    "rpow lshift rlshift rshift rrshift and rand xor rxor or ror"
).split():
    setattr(_Unread, f"__{_method}__", _Unread._use)


class _SubmodelPass:
    """One submodel's enumerate-and-record pass.

    :meth:`close` closes the private markings from the initial one a
    frontier at a time, admitting every target that passes the
    submodel's capacities and local invariant (the standard
    over-approximation of the projection; the initial marking is admitted
    unchecked), and records the kept outcomes and the declaration errors.
    A target that fails a check is counted in ``dropped`` (a local
    activity's once per context).  :meth:`tables` builds the event tables.

    Places are numbered the join's shared places first, as every
    activity sees them, then the submodel's private places.  Codes are
    mixed-radix over ``capacity + 1``: a label's over the private places,
    a valuation's over an activity's footprint; Python ints in object
    arrays where they could pass int64.
    """

    def __init__(
        self,
        join: Join,
        submodel_index: int,
        shared_states: List[Label],
        max_states: Optional[int],
    ) -> None:
        self.model = join.submodels[submodel_index]
        self.names = join.private_place_names(submodel_index)
        self._own = dict.fromkeys((p.name for p in self.model.places), 0)
        self.max_states = max_states
        activities = self.model.activities
        places = join.shared_places + join.private_places[submodel_index]
        self.place_names = [place.name for place in places]
        self.limits = [place.capacity + 1 for place in places]
        wide = math.prod(self.limits) * max(len(activities), 1) >= 2**63
        self.dtype = object if wide else np.int64
        self.shared = len(join.shared_places)
        self.shared_states = shared_states
        self.shared_index = {state: i for i, state in enumerate(shared_states)}
        self.contexts = np.array(shared_states, dtype=np.int64)
        self.radix = np.array(self.limits[self.shared:], dtype=self.dtype)
        self.strides = np.cumprod(np.append(1, self.radix[:0:-1]))[::-1]
        self.last = len(shared_states) - 1
        # A source fires a shared activity in every shared marking and a
        # local one in the first and the last: one slot each.
        slots = [
            (j, s1)
            for j, activity in enumerate(activities)
            for s1 in (
                range(self.last + 1) if activity.shared else {0, self.last}
            )
        ]
        self.slot_activity, self.slot_context = np.array(
            slots, dtype=np.int64
        ).reshape(-1, 2).T
        self.activity_shared = np.array([a.shared for a in activities], bool)
        self.dropped = self.firings = self.evaluations = 0
        self._footprints: List[Set[int]] = [set() for _ in activities]
        self._weights = np.zeros((len(activities), len(places)), self.dtype)
        #: Per activity: valuation code -> (first outcome row, row count).
        self._memo: List[Dict[int, Tuple[int, int]]] = [{} for _ in activities]
        self._reads: Set[int] = set()
        self._unread = [
            _Unread(name, p, self._reads)
            for p, name in enumerate(self.place_names)
        ]
        #: Outcome rows, a column each: rate, change of the label code,
        #: whether the private target is within the capacities, and the
        #: shared target from each shared marking (-1: not a shared
        #: state).  Rows evaluated since the last flush wait in _pending.
        self._table = [np.zeros(0), np.zeros(0, self.dtype), np.zeros(0, bool)]
        self._table.append(np.zeros((0, len(shared_states)), np.int64))
        self._pending: List[Tuple[float, int, bool, List[int]]] = []
        initial = _marking_tuple(self.names, self.model.initial_marking())
        self._initial_code = sum(map(mul, initial, self.strides.tolist()))
        #: Admitted label codes by id; target code -> id (-1: rejected).
        self._codes = [self._initial_code]
        self._ids: Dict[int, int] = {}
        #: Kept outcomes by chunk: activity, shared marking, source id,
        #: shared target, target id, rate.
        self._rows: List[Tuple[np.ndarray, ...]] = []
        self._errors: List[List[Tuple[int, str]]] = [[] for _ in activities]

    def close(self) -> None:
        """Fire the activities from every admitted marking and record."""
        step = max(1, _CHUNK_ROWS // max(len(self.slot_activity), 1))
        ids = np.zeros(1, dtype=np.int64)
        codes = np.array(self._codes, dtype=self.dtype)
        while len(self.slot_activity) and len(ids):
            found = [
                self._chunk(ids[start:start + step], codes[start:start + step])
                for start in range(0, len(ids), step)
            ]
            ids, codes = (np.concatenate(parts) for parts in zip(*found))

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

    def tables(
        self,
    ) -> Tuple[List[Label], List[Tuple[Optional[Tuple[int, int]], Columns]]]:
        """The sorted level and its event tables as option columns: the
        local table (pair ``None``), then one per (shared source, shared
        target) pair, sorted.  Rows go in activity by activity, by shared
        marking and source index, then a local activity's by target index
        and rate and a shared one's cases in firing order: that fixes the
        source and option order of the merged tables."""
        codes = np.array(self._codes, dtype=self.dtype)
        order = np.argsort(codes)
        rank = np.empty(len(codes), dtype=np.int64)
        rank[order] = np.arange(len(codes))
        labels = list(map(tuple, self._decode(codes[order]).tolist()))
        if not self._rows:
            return labels, []
        activity, s1, source, s1_target, target, rate = (
            np.concatenate(column) for column in zip(*self._rows)
        )
        self._rows = []
        local = ~self.activity_shared[activity]
        n = len(self.shared_states)
        table = np.where(local, -1, s1 * n + s1_target)
        order = np.lexsort(
            (rate * local, rank[target] * local, rank[source], s1, activity)
            + (table,)
        )
        table = table[order]
        columns = (rank[source[order]], rank[target[order]], rate[order])
        starts = np.flatnonzero(np.diff(table, prepend=-2))
        return labels, [
            (None if key < 0 else divmod(key, n), table_columns)
            for key, *table_columns in zip(
                table[starts].tolist(),
                *(np.split(column, starts[1:]) for column in columns),
            )
        ]

    def _decode(self, codes: np.ndarray) -> np.ndarray:
        """The private values of label codes, a row each."""
        return (codes[:, None] // self.strides % self.radix).astype(np.int64)

    def _chunk(
        self, ids: np.ndarray, codes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fire every slot from the sources ``ids`` (label ``codes``
        alongside), admit the targets and record the kept outcomes;
        returns the ids and codes of the labels admitted."""
        start, count = self._outcome_rows(self._decode(codes))
        self.firings += len(start)
        pair = np.repeat(np.arange(len(start)), count)
        row = np.arange(len(pair)) + np.repeat(
            start - np.cumsum(count) + count, count
        )
        source, slot = np.divmod(pair, len(self.slot_activity))
        activity = self.slot_activity[slot]
        context = self.slot_context[slot]
        rate, delta, fits, s1_targets = self._table
        fits = fits[row]
        target = np.full(len(row), -1, dtype=np.int64)
        target[fits], admitted = self._admit(
            codes[source[fits]] + delta[row[fits]]
        )
        rate, s1_target = rate[row], s1_targets[row, context]
        shared = self.activity_shared[activity]
        kept = shared & (target >= 0) & (s1_target >= 0)
        # A local outcome that keeps the shared marking keeps its index.
        modifies = ~shared & (s1_target != context)
        options = ~shared & ~modifies
        self.dropped += int(np.count_nonzero(shared & ~kept))
        self.dropped += int(np.count_nonzero(options & (target < 0)))
        options &= target >= 0
        n = len(self.activity_shared)
        group = source * n + activity
        errors = dict.fromkeys(group[modifies].tolist(), _MODIFIES)
        if self.last > 0:
            last = context == self.last
            compared = (a[options] for a in (group, last, target, rate))
            for g in _disagree(*compared):
                errors.setdefault(g, _DEPENDS)
            options &= last
        for g, reason in errors.items():
            self._errors[g % n].append((codes[g // n], reason))
        # Options are kept from the last shared marking.  A mis-declared
        # activity's are kept too: compile_join raises its error anyway.
        kept |= options
        columns = (activity, np.where(shared, context, 0), ids[source])
        columns += (np.where(shared, s1_target, 0), target, rate)
        self._rows.append(tuple(column[kept] for column in columns))
        return admitted

    def _outcome_rows(
        self, values: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The first outcome row and the row count of every firing from
        the private ``values``, source ``i`` and slot ``k`` at
        ``i * slots + k``.  Activities are evaluated where the memo
        misses; after a footprint grew, the codes are computed again."""
        n_activities = len(self.activity_shared)
        while True:
            weights = self._weights.T
            codes = (values @ weights[self.shared:])[:, self.slot_activity]
            codes += (self.contexts @ weights[:self.shared])[
                self.slot_context, self.slot_activity
            ]
            keys = (codes * n_activities + self.slot_activity).ravel()
            unique, first, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            found = []
            for key, pair in zip(unique.tolist(), first.tolist()):
                code, j = divmod(key, n_activities)
                rows = self._memo[j].get(code)
                if rows is None:
                    i, slot = divmod(pair, len(self.slot_activity))
                    s1 = self.shared_states[self.slot_context[slot]]
                    rows = self._evaluate(j, s1 + tuple(values[i].tolist()))
                found.append(rows)
            if None not in found:
                if self._pending:
                    new = zip(self._table, zip(*self._pending))
                    self._table = [
                        np.concatenate([column, np.array(rows, column.dtype)])
                        for column, rows in new
                    ]
                    self._pending = []
                rows = np.array(found, dtype=np.int64).reshape(-1, 2)[inverse]
                return rows[:, 0], rows[:, 1]

    def _evaluate(
        self, j: int, valuation: Label
    ) -> Optional[Tuple[int, int]]:
        """Evaluate activity ``j`` at ``valuation`` (every place's value),
        growing its footprint until an evaluation finishes without using
        another place.  The outcomes join the memo under the final
        footprint; returns their first row and row count, or None if the
        footprint grew (the codes computed before are stale)."""
        activity = self.model.activities[j]
        footprint = self._footprints[j]
        grown = False
        while True:
            self.evaluations += 1
            self._reads.clear()
            marking = {
                name: valuation[p] if p in footprint else self._unread[p]
                for p, name in enumerate(self.place_names)
            }
            try:
                outcomes = [
                    self._outcome(target, rate, valuation, footprint)
                    for target, rate in _fire_activity(activity, marking)
                ]
            except Exception:
                # Once a placeholder was used, whatever the evaluation
                # raised may be an artefact of the placeholder.
                if not self._reads:
                    raise
            if not self._reads:
                break
            footprint |= self._reads
            grown = True
        if grown:
            self._weights[j] = 0
            stride = 1
            for p in sorted(footprint, reverse=True):
                self._weights[j, p] = stride
                stride *= self.limits[p]
            self._memo[j] = {}
        code = sum(map(mul, valuation, self._weights[j].tolist()))
        rows = self._memo[j][code] = (
            len(self._table[0]) + len(self._pending),
            len(outcomes),
        )
        self._pending += outcomes
        return None if grown else rows

    def _outcome(
        self,
        target: Marking,
        rate: float,
        valuation: Label,
        footprint: Set[int],
    ) -> Tuple[float, int, bool, List[int]]:
        """The outcome row of ``target`` from ``valuation``; a missing
        place reads 0.  A place the target sets or drops outside the
        footprint is recorded as read, since its change depends on its
        value.  Values are clamped to one step outside their range, which
        keeps every check they fail."""
        delta = []
        for p, name in enumerate(self.place_names):
            value = target.get(name, 0)
            if value is self._unread[p]:
                delta.append(0)
            elif p in footprint:
                value = min(max(int(value), -1), self.limits[p])
                delta.append(value - valuation[p])
            else:
                self._reads.add(p)
                delta.append(0)
        shared, private = delta[:self.shared], delta[self.shared:]
        s1_target = [
            self.shared_index.get(tuple(map(add, s1, shared)), -1)
            for s1 in self.shared_states
        ]
        after = map(add, valuation[self.shared:], private)
        limits = self.limits[self.shared:]
        fits = all(0 <= v < limit for v, limit in zip(after, limits))
        code = sum(map(mul, private, self.strides.tolist()))
        return rate, code, fits, s1_target

    def _admit(
        self, codes: np.ndarray
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """The ids of the target labels ``codes``, -1 for a label that
        fails the submodel's checks.  Each label is checked when first
        met as a target (the initial label too, which is in the level
        already), and a new one that passes joins the level.  Returns the
        ids, and the ids and codes of the labels admitted."""
        unique, inverse = np.unique(codes, return_inverse=True)
        met = unique.tolist()
        found = [self._ids.get(code) for code in met]
        new = [i for i, known in enumerate(found) if known is None]
        admitted = []
        # Targets are within the capacities, so the local invariant is
        # the one check left: on ``check_marking``'s own-places marking.
        invariant = self.model.local_invariant
        for i, label in zip(new, self._decode(unique[new]).tolist()):
            own = {**self._own, **dict(zip(self.names, label))}
            if invariant is not None and not invariant(own):
                found[i] = -1
            elif met[i] == self._initial_code:
                found[i] = 0
            else:
                found[i] = len(self._codes)
                self._codes.append(met[i])
                admitted.append(i)
            self._ids[met[i]] = found[i]
        if self.max_states is not None and len(self._codes) > self.max_states:
            raise StateSpaceError(
                f"submodel {self.model.name!r} exceeds "
                f"{self.max_states} local states"
            )
        ids = np.array(found, dtype=np.int64)
        return ids[inverse], (ids[admitted], unique[admitted])


def _disagree(
    group: np.ndarray, last: np.ndarray, target: np.ndarray, rate: np.ndarray
) -> List[int]:
    """The groups whose options in the first and in the last shared
    marking differ as multisets of (target, rate)."""
    if not len(group):
        return []
    order = np.lexsort((rate, target, group))
    group, target, rate = group[order], target[order], rate[order]
    change = (np.diff(group) != 0) | (np.diff(target) != 0)
    runs = np.flatnonzero(np.append(True, change | (np.diff(rate) != 0)))
    balance = np.add.reduceat(np.where(last[order], -1, 1), runs)
    return group[runs[balance != 0]].tolist()
