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

An event stores each touched level's table as option columns
(:attr:`Event.tables`), the one form from the SAN compiler to the MD
build.  :class:`SuccessorTables` fires them on whole arrays of ``int64``
state codes, the projection gathers them through position arrays,
``to_md`` sums them and the MDD image reads them; per-state readers use
:attr:`Event.options`.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

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
        """Label at ``index``; raises if ``index`` is outside the level."""
        if not 0 <= index < len(self._labels):
            raise StateSpaceError(
                f"substate {index} outside level {self.name!r} "
                f"(size {len(self._labels)})"
            )
        return self._labels[index]

    @property
    def labels(self) -> List[Hashable]:
        """All labels in index order (copy)."""
        return list(self._labels)

    def __repr__(self) -> str:
        return f"LevelSpace({self.name!r}, size={len(self)})"


#: Per-level effect: local state index -> list of (target index, factor>0).
LevelEffect = Dict[int, List[Tuple[int, float]]]
#: A level's table as stored: ``int64`` sources and targets and ``float64``
#: factors, one entry per option, the options grouped by source.
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]
#: A level's options by local state, as per-state readers look them up.
Options = Dict[int, Tuple[Tuple[int, float], ...]]


def _shared(column: np.ndarray) -> List:
    """``column.tolist()``, with one Python object per distinct value."""
    values, index = np.unique(column, return_inverse=True)
    return np.array(values.tolist(), dtype=object)[index].tolist()


class Event:
    """One event of an :class:`EventModel`.

    ``effects`` maps 1-based level numbers to :data:`LevelEffect` tables
    or to option columns ``(sources, targets, factors)`` in option order.
    Levels not in ``effects`` are untouched (identity).  A local state
    without options on a touched level disables the event there.
    """

    def __init__(
        self,
        name: str,
        weight: float,
        effects: Mapping[int, Union[LevelEffect, Sequence]],
    ) -> None:
        if not weight >= 0:
            raise ModelError(
                f"event {name!r} has weight {weight}; weights must be >= 0"
            )
        self.name = name
        self.weight = float(weight)
        #: Per touched level, in the order given: its table, grouped by
        #: source in first-given order, the options with factor 0 dropped.
        self.tables: Dict[int, Columns] = {}
        for level, table in effects.items():
            if isinstance(table, Mapping):
                table = [(s, t, f) for s, ts in table.items() for t, f in ts]
                table = tuple(zip(*table)) or ((), (), ())
            sources, targets, factors = (
                np.asarray(column, dtype)
                for column, dtype in zip(table, (np.int64, np.int64, float))
            )
            _, first, group = np.unique(
                sources, return_index=True, return_inverse=True
            )
            order = np.argsort(first[group], kind="stable")
            kept = order[factors[order] != 0.0]
            if np.any(factors[kept] < 0):
                raise ModelError(
                    f"event {name!r} has a negative factor at level {level}"
                )
            self.tables[int(level)] = tuple(
                column[kept] for column in (sources, targets, factors)
            )
        self._options: Optional[Dict[int, Options]] = None

    @property
    def options(self) -> Dict[int, Options]:
        """Per touched level, local state -> its ``(target, factor)``
        options, in table order: the lookup of :meth:`EventModel._fire`,
        built on first use.  Equal values share one object, which saves a
        third of its memory."""
        if self._options is None:
            self._options = {}
            for level, (sources, targets, factors) in self.tables.items():
                change = np.diff(sources, prepend=sources[:1] - 1)
                bounds = np.flatnonzero(change).tolist() + [len(sources)]
                pairs = list(zip(_shared(targets), _shared(factors)))
                self._options[level] = {
                    sources[begin].item(): tuple(pairs[begin:end])
                    for begin, end in zip(bounds, bounds[1:])
                }
        return self._options

    @property
    def effects(self) -> Dict[int, LevelEffect]:
        """:attr:`options` as :data:`LevelEffect` dicts (a new copy)."""
        return {
            level: {source: list(options) for source, options in table.items()}
            for level, table in self.options.items()
        }

    def levels(self) -> Tuple[int, ...]:
        """The levels this event touches, sorted."""
        return tuple(sorted(self.tables))

    def top_level(self) -> int:
        """Highest (closest-to-root) level touched; used by saturation."""
        return min(self.tables) if self.tables else 1

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
        for level, (sources, targets, _factors) in event.tables.items():
            if not 1 <= level <= len(self.levels):
                raise ModelError(
                    f"event {event.name!r} touches invalid level {level}"
                )
            size = len(self.levels[level - 1])
            outside = (sources < 0) | (sources >= size)
            bad = outside | (targets < 0) | (targets >= size)
            if bad.any():
                # The first bad option; a source is named before a target.
                i = int(np.argmax(bad))
                kind = "source" if outside[i] else "target"
                value = sources[i] if outside[i] else targets[i]
                raise ModelError(
                    f"event {event.name!r}: {kind} {value} outside "
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
        self.state_labels(state)  # raises for a state outside the levels
        index = 0
        for digit, level in zip(state, self.levels):
            index = index * len(level) + digit
        return index

    def decode(self, index: int) -> Tuple[int, ...]:
        """Inverse of :meth:`encode`."""
        if not 0 <= index < self.potential_size():
            raise StateSpaceError(
                f"state index {index} outside 0..{self.potential_size() - 1}"
            )
        digits = []
        for level in reversed(self.levels):
            digits.append(index % len(level))
            index //= len(level)
        return tuple(reversed(digits))

    def state_labels(self, state: Sequence[int]) -> Tuple[Hashable, ...]:
        """The label tuple of a global state given by indices; raises
        unless it has one substate inside each level."""
        if len(state) != self.num_levels:
            raise StateSpaceError(
                f"state {tuple(state)} has {len(state)} components, "
                f"expected one per level ({self.num_levels})"
            )
        return tuple(level.label(s) for level, s in zip(self.levels, state))

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
        per_level_options: List[Tuple[Tuple[int, float], ...]] = []
        for level in touched:
            options = event.options[level].get(state[level - 1])
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

        Each event is one term of :func:`md_from_kronecker_terms`, its
        :meth:`_factors`: the descriptor's values and order, so the MD is
        the descriptor's, node for node and bit for bit.
        """
        return md_from_kronecker_terms(
            ((event.weight, self._factors(event)) for event in self.events),
            self.level_sizes(),
            level_state_labels=[level.labels for level in self.levels],
        )

    def _factors(self, event: Event) -> List[Optional[sparse.coo_matrix]]:
        """``W_i^e`` for every level, as a COO matrix whose entries are
        sorted by (source, target), each the sum of its options' factors
        taken left to right in option order; ``None`` (the identity) on
        levels ``event`` does not touch."""
        factors: List[Optional[sparse.coo_matrix]] = [None] * self.num_levels
        for level, (sources, targets, values) in event.tables.items():
            size = len(self.levels[level - 1])
            keys, group = np.unique(
                sources * size + targets, return_inverse=True
            )
            # bincount adds each group's weights in input order.
            sums = np.bincount(group, weights=values, minlength=len(keys))
            factors[level - 1] = sparse.coo_matrix(
                (sums, np.divmod(keys, size)), shape=(size, size)
            )
        return factors

    def restricted_events(
        self, allowed: Sequence[Iterable[int]]
    ) -> "EventModel":
        """A copy whose events are restricted to the given per-level allowed
        local states (options leading outside are dropped)."""
        allowed_sets = [set(states) for states in allowed]
        if len(allowed_sets) != self.num_levels:
            raise ModelError("need one allowed set per level")
        kept = [
            [s for s in states if 0 <= s < len(level)]
            for level, states in zip(self.levels, allowed_sets)
        ]
        return self._gather(self.levels, kept, kept)

    def _gather(
        self, levels: List[LevelSpace], old: List, new: List
    ) -> "EventModel":
        """This model on ``levels``: per level, the substates ``old``
        become ``new``, and the rest are dropped with every option that
        touches them.  The options kept keep their order, and the initial
        state keeps its labels."""
        positions = []
        for level, substates, renumbered in zip(self.levels, old, new):
            position = np.full(len(level), -1, dtype=np.int64)
            position[substates] = renumbered
            positions.append(position)
        events = []
        for event in self.events:
            tables = {}
            for level, (sources, targets, factors) in event.tables.items():
                position = positions[level - 1]
                sources, targets = position[sources], position[targets]
                kept = (sources >= 0) & (targets >= 0)
                tables[level] = (sources[kept], targets[kept], factors[kept])
            events.append(Event(event.name, event.weight, tables))
        initial_labels = self.state_labels(self.initial_state)
        return EventModel(levels, events, initial_labels)

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
    new_levels = [
        LevelSpace(level.name, [level.label(s) for s in kept])
        for level, kept in zip(model.levels, keep)
    ]
    for level_number, (state, kept) in enumerate(
        zip(model.initial_state, keep), start=1
    ):
        if state not in kept:
            raise StateSpaceError(
                f"initial substate of level {level_number} was projected away"
            )
    return model._gather(new_levels, keep, [range(len(k)) for k in keep])


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
        #: Per event: the weight, per touched level (place value, size,
        #: ``ptr``, targets times the place value, factors) with local
        #: state ``s``'s options at ``ptr[s]:ptr[s + 1]``, and whether to
        #: filter rates.
        self._events: List[Tuple[float, List[Tuple], bool]] = []
        for event in model.events:
            tables = []
            for level in event.levels():
                sources, targets, factors = event.tables[level]
                stride, size = strides[level - 1], sizes[level - 1]
                order = np.argsort(sources, kind="stable")
                counts = np.bincount(sources, minlength=size)
                ptr = np.concatenate(([0], np.cumsum(counts)))
                targets, factors = targets[order] * stride, factors[order]
                tables.append((stride, size, ptr, targets, factors))
            if any(len(table[-1]) == 0 for table in tables):
                continue  # disabled in every state
            # Products of positive floats are monotone, so when the
            # smallest factor combination has a positive rate, all do.
            smallest = 1.0
            for table in tables:
                smallest = smallest * float(table[-1].min())
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
        tables: List[Tuple],
        filtered: bool,
    ) -> np.ndarray:
        """One event fired in every state of ``codes``."""
        current = codes
        factor = np.ones(len(codes)) if filtered else None
        for stride, size, ptr, targets, factors in tables:
            digit = current // stride % size
            start = ptr[digit]
            count = ptr[digit + 1] - start
            # Row i expands to options start[i] .. start[i] + count[i];
            # rows without options disappear (the event is disabled).
            first = np.cumsum(count) - count
            option = np.arange(int(count.sum()))
            option += np.repeat(start - first, count)
            current = np.repeat(current - digit * stride, count)
            current += targets[option]
            if factor is not None:
                factor = np.repeat(factor, count) * factors[option]
        if factor is not None:
            current = current[weight * factor > 0]
        return current
