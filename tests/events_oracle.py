"""The event-table code the array tables replaced.

Events used to keep each level's table as a dict of per-source option
lists, and each stage rebuilt it in its own form: ``Event`` cleaned the
given dicts option by option into new tuples, lists and dicts;
``project_event_model`` and ``EventModel.restricted_events`` rebuilt every
table through dicts, one copy of the loop each; ``EventModel._factors``
summed the options into a ``{(source, target): factor}`` dict per level;
and ``matrix_entries`` converted a sparse factor entry by entry.  The
library now keeps option columns from the SAN compile to the MD build
(``repro.statespace.events``); ``tests/test_events_oracle.py`` holds it
to the code below.  ``Event``, ``EventModel`` (the parts these functions
use), ``project_event_model`` and ``matrix_entries`` are moved verbatim.
"""

from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import MatrixDiagramError, ModelError, StateSpaceError
from repro.matrixdiagram.build import MatrixLike
from repro.statespace.events import LevelSpace

#: Per-level effect: local state index -> list of (target index, factor>0).
LevelEffect = Dict[int, List[Tuple[int, float]]]


def matrix_entries(matrix: MatrixLike) -> Dict[Tuple[int, int], float]:
    """Normalize a matrix-like object to a ``{(row, col): value}`` dict
    of its non-zero entries."""
    if isinstance(matrix, Mapping):
        return {
            (int(r), int(c)): float(v)
            for (r, c), v in matrix.items()
            if float(v) != 0.0
        }
    if sparse.issparse(matrix):
        coo = matrix.tocoo()
        return {
            (int(r), int(c)): float(v)
            for r, c, v in zip(coo.row, coo.col, coo.data)
            if float(v) != 0.0
        }
    array = np.asarray(matrix, dtype=float)
    if array.ndim != 2:
        raise MatrixDiagramError("level matrices must be 2-dimensional")
    rows, cols = np.nonzero(array)
    return {
        (int(r), int(c)): float(array[r, c]) for r, c in zip(rows, cols)
    }


class Event:
    """One event of an :class:`EventModel`.

    ``effects`` maps 1-based level numbers to :data:`LevelEffect` tables.
    Levels not in ``effects`` are untouched (identity).  A local state
    missing from a touched level's table disables the event there.
    """

    def __init__(
        self,
        name: str,
        weight: float,
        effects: Mapping[int, LevelEffect],
    ) -> None:
        if not weight >= 0:
            raise ModelError(
                f"event {name!r} has weight {weight}; weights must be >= 0"
            )
        self.name = name
        self.weight = float(weight)
        cleaned: Dict[int, LevelEffect] = {}
        for level, table in effects.items():
            level_table: LevelEffect = {}
            for source, options in table.items():
                kept = [
                    (int(t), float(f)) for (t, f) in options if float(f) != 0.0
                ]
                if any(f < 0 for _t, f in kept):
                    raise ModelError(
                        f"event {name!r} has a negative factor at level {level}"
                    )
                if kept:
                    level_table[int(source)] = kept
            cleaned[int(level)] = level_table
        self.effects = cleaned


class EventModel:
    """Levels + events + initial state: a complete compositional model."""

    def __init__(
        self,
        levels: Sequence[LevelSpace],
        events: Sequence[Event],
        initial_state: Sequence[Hashable],
    ) -> None:
        if not levels:
            raise ModelError("an event model needs at least one level")
        self.levels: List[LevelSpace] = list(levels)
        self.events: List[Event] = list(events)
        if len(initial_state) != len(self.levels):
            raise ModelError(
                f"initial state has {len(initial_state)} components, "
                f"expected {len(self.levels)}"
            )
        self.initial_state: Tuple[int, ...] = tuple(
            level.index(label) for level, label in zip(self.levels, initial_state)
        )
        for event in self.events:
            self._check_event(event)

    def _check_event(self, event: Event) -> None:
        for level, table in event.effects.items():
            if not 1 <= level <= len(self.levels):
                raise ModelError(
                    f"event {event.name!r} touches invalid level {level}"
                )
            size = len(self.levels[level - 1])
            for source, options in table.items():
                if not 0 <= source < size:
                    raise ModelError(
                        f"event {event.name!r}: source {source} outside "
                        f"level {level} of size {size}"
                    )
                for target, _factor in options:
                    if not 0 <= target < size:
                        raise ModelError(
                            f"event {event.name!r}: target {target} outside "
                            f"level {level} of size {size}"
                        )

    @property
    def num_levels(self) -> int:
        """Number of levels ``L``."""
        return len(self.levels)

    def state_labels(self, state: Sequence[int]) -> Tuple[Hashable, ...]:
        """The label tuple of a global state given by indices."""
        return tuple(
            level.label(s) for level, s in zip(self.levels, state)
        )

    def _factors(
        self, event: Event
    ) -> List[Optional[Dict[Tuple[int, int], float]]]:
        """``W_i^e`` for every level: the factors summed per (source,
        target) in option order, sorted by (source, target); ``None``
        (the identity) on levels ``event`` does not touch."""
        factors: List[Optional[Dict[Tuple[int, int], float]]] = [
            None
        ] * self.num_levels
        for level, table in event.effects.items():
            entries: Dict[Tuple[int, int], float] = {}
            for source, options in table.items():
                for target, factor in options:
                    key = (source, target)
                    entries[key] = entries.get(key, 0.0) + factor
            factors[level - 1] = dict(sorted(entries.items()))
        return factors

    def restricted_events(
        self, allowed: Sequence[Iterable[int]]
    ) -> "EventModel":
        """A copy whose events are restricted to the given per-level allowed
        local states (options leading outside are dropped)."""
        allowed_sets = [set(states) for states in allowed]
        if len(allowed_sets) != self.num_levels:
            raise ModelError("need one allowed set per level")
        new_events = []
        for event in self.events:
            effects: Dict[int, LevelEffect] = {}
            for level, table in event.effects.items():
                keep: LevelEffect = {}
                for source, options in table.items():
                    if source not in allowed_sets[level - 1]:
                        continue
                    kept = [
                        (t, f)
                        for t, f in options
                        if t in allowed_sets[level - 1]
                    ]
                    if kept:
                        keep[source] = kept
                effects[level] = keep
            new_events.append(Event(event.name, event.weight, effects))
        initial_labels = self.state_labels(self.initial_state)
        return EventModel(self.levels, new_events, initial_labels)


def project_event_model(
    model: EventModel, supports: Sequence[Sequence[int]]
) -> EventModel:
    """Shrink each level's local state space to the given substates.

    ``supports[i]`` lists the level-(i+1) substates to keep (typically the
    reachable projections from a :class:`ReachabilityResult`).  Events are
    remapped to the compacted indices; options involving removed substates
    are dropped.  The model's initial state must survive the projection.

    This realizes the paper's setting in which each MD level's index set is
    exactly the projection of the reachable state space.
    """
    if len(supports) != model.num_levels:
        raise ModelError("need one support per level")
    keep: List[List[int]] = [sorted(set(s)) for s in supports]
    for level_number, (level, kept) in enumerate(
        zip(model.levels, keep), start=1
    ):
        outside = [s for s in kept if not 0 <= s < len(level)]
        if outside:
            raise StateSpaceError(
                f"support of level {level_number} ({level.name!r}, size "
                f"{len(level)}) has substate {outside[0]} outside the level"
            )
    position: List[Dict[int, int]] = [
        {substate: i for i, substate in enumerate(kept)} for kept in keep
    ]
    new_levels = [
        LevelSpace(level.name, [level.label(s) for s in kept])
        for level, kept in zip(model.levels, keep)
    ]
    for level_number, (state, table) in enumerate(
        zip(model.initial_state, position), start=1
    ):
        if state not in table:
            raise StateSpaceError(
                f"initial substate of level {level_number} was projected away"
            )
    new_events = []
    for event in model.events:
        effects: Dict[int, LevelEffect] = {}
        for level, table in event.effects.items():
            mapping = position[level - 1]
            new_table: LevelEffect = {}
            for source, options in table.items():
                new_source = mapping.get(source)
                if new_source is None:
                    continue
                kept_options = [
                    (mapping[target], factor)
                    for target, factor in options
                    if target in mapping
                ]
                if kept_options:
                    new_table[new_source] = kept_options
            effects[level] = new_table
        new_events.append(Event(event.name, event.weight, effects))
    initial_labels = model.state_labels(model.initial_state)
    return EventModel(new_levels, new_events, initial_labels)
