"""Event models: the compositional form every front end compiles to.

An :class:`EventModel` is a set of levels (each with a finite local state
space) plus events.  An event acts on a subset of levels; on each level it
touches, it maps a local state to weighted successor options; levels it
does not touch are left unchanged.  The rate of a global transition is the
event weight times the product of the chosen options' factors — exactly the
structure of a stochastic automata network, and exactly what converts
losslessly to a Kronecker descriptor and hence to a matrix diagram.

Semantics of an event ``e`` in global state ``s = (s_1, .., s_L)``:

* if some touched level has no option for its local state, ``e`` is
  disabled in ``s``;
* otherwise each combination of per-level options ``(t_i, f_i)`` yields a
  transition ``s -> t`` with rate ``weight(e) * prod_i f_i``.

:class:`SuccessorTables` applies the same semantics to a whole set of
states at once, encoded as ``int64`` mixed-radix codes.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, StateSpaceError
from repro.kronecker.descriptor import KroneckerDescriptor
from repro.matrixdiagram.build import md_from_kronecker_terms
from repro.matrixdiagram.md import MatrixDiagram


class LevelSpace:
    """An ordered local state space with label <-> index lookup."""

    def __init__(self, name: str, labels: Sequence[Hashable]) -> None:
        if not labels:
            raise StateSpaceError(f"level {name!r} has an empty state space")
        self.name = name
        self._labels: List[Hashable] = list(labels)
        self._index: Dict[Hashable, int] = {
            label: i for i, label in enumerate(self._labels)
        }
        if len(self._index) != len(self._labels):
            raise StateSpaceError(f"level {name!r} has duplicate state labels")

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: Hashable) -> bool:
        return label in self._index

    def index(self, label: Hashable) -> int:
        """Index of a label; raises if unknown."""
        try:
            return self._index[label]
        except KeyError:
            raise StateSpaceError(
                f"unknown state {label!r} in level {self.name!r}"
            ) from None

    def label(self, index: int) -> Hashable:
        """Label at ``index``."""
        return self._labels[index]

    @property
    def labels(self) -> List[Hashable]:
        """All labels in index order (copy)."""
        return list(self._labels)

    def __repr__(self) -> str:
        return f"LevelSpace({self.name!r}, size={len(self)})"


#: Per-level effect: local state index -> list of (target index, factor>0).
LevelEffect = Dict[int, List[Tuple[int, float]]]


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

    def levels(self) -> Tuple[int, ...]:
        """The levels this event touches, sorted."""
        return tuple(sorted(self.effects))

    def top_level(self) -> int:
        """Highest (closest-to-root) level touched; used by saturation."""
        return min(self.effects) if self.effects else 1

    def __repr__(self) -> str:
        return f"Event({self.name!r}, weight={self.weight}, levels={self.levels()})"


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

    # ------------------------------------------------------------------
    # sizes / encodings
    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """Number of levels ``L``."""
        return len(self.levels)

    def level_sizes(self) -> Tuple[int, ...]:
        """Sizes of the local state spaces."""
        return tuple(len(level) for level in self.levels)

    def potential_size(self) -> int:
        """Size of the potential product space."""
        return math.prod(self.level_sizes())

    def encode(self, state: Sequence[int]) -> int:
        """Mixed-radix flat index of a global state (top level most
        significant, matching the MD flattening order)."""
        index = 0
        for digit, level in zip(state, self.levels):
            index = index * len(level) + digit
        return index

    def decode(self, index: int) -> Tuple[int, ...]:
        """Inverse of :meth:`encode`."""
        digits = []
        for level in reversed(self.levels):
            digits.append(index % len(level))
            index //= len(level)
        return tuple(reversed(digits))

    def state_labels(self, state: Sequence[int]) -> Tuple[Hashable, ...]:
        """The label tuple of a global state given by indices."""
        return tuple(
            level.label(s) for level, s in zip(self.levels, state)
        )

    def encode_states(self, states: Sequence[Sequence[int]]) -> np.ndarray:
        """:meth:`encode` of many states at once, as ``int64`` codes.

        Raises :class:`StateSpaceError` naming the level when a state has
        the wrong number of components or a substate outside its level —
        such a state has no code of its own (it would alias another).
        """
        if self.potential_size() > np.iinfo(np.int64).max:
            raise StateSpaceError(
                f"potential state space of {self.potential_size()} states "
                "does not fit int64 state codes; use symbolic_reachability"
            )
        sizes = self.level_sizes()
        wrong = next((s for s in states if len(s) != len(sizes)), None)
        if wrong is not None:
            raise StateSpaceError(
                f"state {tuple(wrong)} has {len(wrong)} components, "
                f"expected one per level ({len(sizes)})"
            )
        digits = np.array(states, dtype=np.int64)
        digits = digits.reshape(len(states), len(sizes))
        codes = np.zeros(len(states), dtype=np.int64)
        for level, size in enumerate(sizes):
            column = digits[:, level]
            bad = np.flatnonzero((column < 0) | (column >= size))
            if bad.size:
                raise StateSpaceError(
                    f"state {tuple(states[bad[0]])} has substate "
                    f"{column[bad[0]]} outside level {level + 1} "
                    f"({self.levels[level].name!r}, size {size})"
                )
            codes = codes * size + column
        return codes

    def state_digits(self, codes: np.ndarray) -> List[np.ndarray]:
        """Per level (top first), the substates of the states ``codes``."""
        columns = []
        remainder = np.asarray(codes, dtype=np.int64)
        for size in reversed(self.level_sizes()):
            columns.append(remainder % size)
            remainder = remainder // size
        return columns[::-1]

    def decode_states(self, codes: np.ndarray) -> List[Tuple[int, ...]]:
        """Inverse of :meth:`encode_states`: tuples of Python ints."""
        columns = self.state_digits(codes)
        return list(zip(*(column.tolist() for column in columns)))

    # ------------------------------------------------------------------
    # transition semantics
    # ------------------------------------------------------------------

    def successors(
        self, state: Sequence[int]
    ) -> List[Tuple[Tuple[int, ...], float]]:
        """All transitions out of ``state`` as ``(target, rate)`` pairs.

        Multiple events (or option combinations) reaching the same target
        are *not* merged here; the rate matrix construction sums them.
        """
        out: List[Tuple[Tuple[int, ...], float]] = []
        state = tuple(state)
        for event in self.events:
            out.extend(self._fire(event, state))
        return out

    def _fire(
        self, event: Event, state: Tuple[int, ...]
    ) -> Iterator[Tuple[Tuple[int, ...], float]]:
        touched = event.levels()
        per_level_options: List[List[Tuple[int, float]]] = []
        for level in touched:
            options = event.effects[level].get(state[level - 1])
            if not options:
                return
            per_level_options.append(options)
        combos: List[Tuple[Tuple[int, ...], float]] = [((), 1.0)]
        for options in per_level_options:
            combos = [
                (chosen + (target,), factor * option_factor)
                for chosen, factor in combos
                for target, option_factor in options
            ]
        for chosen, factor in combos:
            target_state = list(state)
            for level, target in zip(touched, chosen):
                target_state[level - 1] = target
            rate = event.weight * factor
            if rate > 0:
                yield tuple(target_state), rate

    # ------------------------------------------------------------------
    # representations
    # ------------------------------------------------------------------

    def kronecker_descriptor(self) -> KroneckerDescriptor:
        """The descriptor ``R = sum_e weight_e * W_1^e (x) .. (x) W_L^e``
        with ``W_i^e[s, t] = sum of factors`` and identity on untouched
        levels."""
        descriptor = KroneckerDescriptor(self.level_sizes())
        for event in self.events:
            descriptor.add_term(event.weight, self._factors(event))
        return descriptor

    def to_md(self) -> MatrixDiagram:
        """The (reduced) MD of the model's rate matrix ``R``, labeled with
        the levels' substate labels.

        The event tables go to :func:`md_from_kronecker_terms` as they
        are: one term per event, its factors summed per (source, target)
        in option order and sorted by (source, target), ``None`` on the
        levels it leaves untouched.  Those are the values and the order
        :meth:`kronecker_descriptor` gives, so the MD is the descriptor's,
        node for node and bit for bit.
        """
        return md_from_kronecker_terms(
            ((event.weight, self._factors(event)) for event in self.events),
            self.level_sizes(),
            level_state_labels=[level.labels for level in self.levels],
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

    def __repr__(self) -> str:
        return (
            f"EventModel(levels={self.level_sizes()}, "
            f"events={len(self.events)})"
        )


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


class _LevelTable:
    """One event's effect on one level, as CSR lookup arrays: the options
    of local state ``s`` are ``ptr[s]:ptr[s + 1]`` in ``targets`` (already
    multiplied by the level's place value ``stride``) and ``factors``."""

    __slots__ = ("stride", "size", "ptr", "targets", "factors")

    def __init__(self, stride: int, size: int, table: LevelEffect) -> None:
        counts = np.zeros(size, dtype=np.int64)
        targets: List[int] = []
        factors: List[float] = []
        for source in sorted(table):
            options = table[source]
            counts[source] = len(options)
            targets.extend(target for target, _factor in options)
            factors.extend(factor for _target, factor in options)
        self.stride = stride
        self.size = size
        self.ptr = np.concatenate(([0], np.cumsum(counts)))
        self.targets = np.array(targets, dtype=np.int64) * stride
        self.factors = np.array(factors, dtype=np.float64)


class SuccessorTables:
    """An event model compiled for set-at-a-time successor generation.

    States are ``int64`` codes in :meth:`EventModel.encode`'s radix.
    :meth:`successors` applies :meth:`EventModel._fire`'s semantics to a
    whole array of states: an event is disabled where a touched level has
    no option, and an option combination is dropped exactly when
    ``weight * (1.0 * f_1 * f_2 ...)``, multiplied in the same order, is
    not ``> 0``.
    """

    def __init__(self, model: EventModel) -> None:
        sizes = model.level_sizes()
        strides = [math.prod(sizes[i + 1 :]) for i in range(len(sizes))]
        self._events: List[Tuple[float, List[_LevelTable], bool]] = []
        for event in model.events:
            tables = [
                _LevelTable(
                    strides[level - 1], sizes[level - 1], event.effects[level]
                )
                for level in event.levels()
            ]
            if any(table.targets.size == 0 for table in tables):
                continue  # disabled in every state
            # Products of positive floats are monotone, so when the
            # smallest factor combination has a positive rate, all do.
            smallest = 1.0
            for table in tables:
                smallest = smallest * float(table.factors.min())
            filtered = not event.weight * smallest > 0
            self._events.append((event.weight, tables, filtered))

    def successors(self, codes: np.ndarray) -> np.ndarray:
        """Targets of every transition out of the states ``codes``
        (unsorted, with repeats)."""
        found = [np.empty(0, dtype=np.int64)]
        # Overflow to inf and NaN rates are legal here, as in ``_fire``.
        with np.errstate(over="ignore", invalid="ignore"):
            for weight, tables, filtered in self._events:
                found.append(self._fire_all(codes, weight, tables, filtered))
        return np.concatenate(found)

    @staticmethod
    def _fire_all(
        codes: np.ndarray,
        weight: float,
        tables: List[_LevelTable],
        filtered: bool,
    ) -> np.ndarray:
        """One event fired in every state of ``codes``."""
        current = codes
        factor = np.ones(len(codes)) if filtered else None
        for table in tables:
            digit = current // table.stride % table.size
            start = table.ptr[digit]
            count = table.ptr[digit + 1] - start
            # Row i expands to options start[i] .. start[i] + count[i];
            # rows without options disappear (the event is disabled).
            first = np.cumsum(count) - count
            option = np.arange(int(count.sum()))
            option += np.repeat(start - first, count)
            current = np.repeat(current - digit * table.stride, count)
            current += table.targets[option]
            if factor is not None:
                factor = np.repeat(factor, count) * table.factors[option]
        if factor is not None:
            current = current[weight * factor > 0]
        return current
