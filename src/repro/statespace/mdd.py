"""Multi-valued decision diagrams (MDDs) for sets of global states.

An MDD here represents a set of tuples ``(s_1, .., s_L)`` with ``s_i`` in
level i's local state space — the state-set companion of the matrix
diagram.  The layout matches the MD: level 1 at the top.  Node 0 is the
empty set (FALSE), node 1 the terminal TRUE.  Every other node is a dense
``int32`` array of children, one per substate of its level, hash-consed
in an :class:`MDDManager` on its level and bytes, so set equality is
node equality.  The set operations run on whole child arrays; the image
of an event reads its option columns (``Event.tables``).
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import StateSpaceError
from repro.util.numeric import check_int64_codes, strides

FALSE = 0
TRUE = 1


def _integer(value) -> int:
    """``value`` as an int, or -1 (outside every level) if it is not an
    integer."""
    try:
        return operator.index(value)
    except TypeError:
        return -1


def _remap(children: np.ndarray, image: Callable[[int], int]) -> np.ndarray:
    """``children`` with each child ``c`` replaced by ``image(c)``, which is
    called once per distinct child, in increasing order."""
    counts = np.bincount(children, minlength=1)
    lookup = np.zeros(len(counts), dtype=np.int32)
    distinct = np.flatnonzero(counts)
    lookup[distinct] = [image(child) for child in distinct.tolist()]
    return lookup[children]


class MDDManager:
    """Owner of all MDD nodes for one sequence of level sizes."""

    def __init__(self, level_sizes: Sequence[int]) -> None:
        if not level_sizes:
            raise StateSpaceError("MDD needs at least one level")
        self.level_sizes = tuple(int(s) for s in level_sizes)
        self.num_levels = len(self.level_sizes)
        # node -> its child array (None for the terminals) and its level
        # (FALSE at 0, TRUE just below the bottom level), with spare room
        self._children: List[np.ndarray] = [None, None]
        self._levels = np.array([0, self.num_levels + 1], dtype=np.int64)
        self._unique: Dict[Tuple[int, bytes], int] = {}
        # (is union, smaller node, larger node) -> result
        self._memo: Dict[Tuple[bool, int, int], int] = {}
        self._count_cache: Dict[int, int] = {FALSE: 0, TRUE: 1}

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------

    def make(self, level: int, children: Mapping[int, int]) -> int:
        """Intern a node at ``level`` with the given substate -> child map.

        FALSE children are dropped; a node with no children collapses to
        FALSE.  (No TRUE-collapse across levels: tuples have fixed length,
        so a full node is still a node.)  A level outside ``1..L``, a
        substate that is not an integer inside its level or a child that
        is not a node of the next level raises :class:`StateSpaceError`.
        """
        self._check_level(level)
        array = np.zeros(self.level_sizes[level - 1], dtype=np.int32)
        for substate, child in children.items():
            if child == FALSE:
                continue
            node = _integer(child)
            if not 0 <= node < len(self._children):
                raise StateSpaceError(
                    f"unknown child node {child!r} at level {level}"
                )
            array[self._position(level, substate)] = node
        return self._node(level, array)

    def _position(self, level: int, substate) -> int:
        """``substate`` as an index into ``level``; raises
        :class:`StateSpaceError` unless it is an integer inside it."""
        position, size = _integer(substate), self.level_sizes[level - 1]
        if not 0 <= position < size:
            raise StateSpaceError(
                f"substate {substate!r} at level {level} is not an "
                f"integer in 0..{size - 1}"
            )
        return position

    def _node(self, level: int, children: np.ndarray) -> int:
        """Intern the node of ``level`` whose ``int32`` child array is
        ``children`` (which the manager keeps, read-only).  A new node's
        children must be nodes of the next level, or TRUE at the bottom."""
        if not children.any():
            return FALSE
        key = (level, children.tobytes())
        node = self._unique.get(key)
        if node is not None:
            return node
        levels = self._levels[children[children != FALSE]]
        wrong = levels[levels != level + 1]
        if wrong.size:
            if level == self.num_levels:
                raise StateSpaceError("bottom-level children must be TRUE")
            if wrong[0] == self.num_levels + 1:
                raise StateSpaceError("TRUE child above the bottom level")
            raise StateSpaceError(
                f"child at level {wrong[0]}, expected {level + 1}"
            )
        node = len(self._children)
        if node == len(self._levels):  # no room: double it
            self._levels = np.resize(self._levels, 2 * node)
        self._levels[node] = level
        children.flags.writeable = False
        self._children.append(children)
        self._unique[key] = node
        return node

    def _check_level(self, level: int) -> None:
        if not 1 <= level <= self.num_levels:
            raise StateSpaceError(
                f"level {level} outside 1..{self.num_levels}"
            )

    def children(self, node: int) -> Tuple[Tuple[int, int], ...]:
        """The ``(substate, child)`` pairs of a node."""
        children = self._children[node]
        substates = np.flatnonzero(children)
        return tuple(zip(substates.tolist(), children[substates].tolist()))

    def level_of(self, node: int) -> int:
        """The level of a (non-terminal) node."""
        return int(self._levels[node])

    @property
    def num_nodes(self) -> int:
        """Number of interned nodes (excluding terminals)."""
        return len(self._children) - 2

    # ------------------------------------------------------------------
    # set construction
    # ------------------------------------------------------------------

    def from_tuples(self, tuples: Sequence[Sequence[int]]) -> int:
        """The MDD of an explicit collection of global states."""
        unique = sorted({tuple(t) for t in tuples})
        for t in unique:
            if len(t) != self.num_levels:
                raise StateSpaceError(
                    f"tuple {t} has wrong length for {self.num_levels} levels"
                )
        return self._from_sorted(unique, 1)

    def _from_sorted(self, tuples: List[Tuple[int, ...]], level: int) -> int:
        if level > self.num_levels:
            return TRUE
        groups = itertools.groupby(tuples, key=operator.itemgetter(level - 1))
        return self.make(level, {
            substate: self._from_sorted(list(group), level + 1)
            for substate, group in groups
        })

    def singleton(self, state: Sequence[int]) -> int:
        """The MDD containing exactly one state."""
        return self.from_tuples([tuple(state)])

    # ------------------------------------------------------------------
    # set operations
    # ------------------------------------------------------------------

    def union(self, a: int, b: int) -> int:
        """Set union of two MDDs (must be same-level roots)."""
        if a == b or b == FALSE:
            return a
        if a == FALSE:
            return b
        if a == TRUE or b == TRUE:
            return TRUE
        return self._combine(a, b, union=True)

    def intersect(self, a: int, b: int) -> int:
        """Set intersection of two MDDs."""
        if a == FALSE or b == FALSE:
            return FALSE
        if a == b or b == TRUE:
            return a
        if a == TRUE:
            return b
        return self._combine(a, b, union=False)

    def _combine(self, a: int, b: int, union: bool) -> int:
        """:meth:`union` (or :meth:`intersect`) of two distinct
        non-terminal nodes, elementwise over their child arrays: it
        recurses only where both children are non-FALSE and differ, once
        per distinct pair, through one memo per manager (nodes never
        change, so it never goes stale)."""
        key = (union, a, b) if a < b else (union, b, a)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        level = int(self._levels[a])
        if level != self._levels[b]:
            raise StateSpaceError("operands at different levels")
        ca, cb = self._children[a], self._children[b]
        if union:
            result = np.where(ca == FALSE, cb, ca)
        else:
            result = np.where(ca == cb, ca, FALSE)
        clash = np.flatnonzero((ca != cb) & (ca != FALSE) & (cb != FALSE))
        if clash.size:
            low = np.minimum(ca[clash], cb[clash]).astype(np.int64)
            high = np.maximum(ca[clash], cb[clash]).astype(np.int64)
            pairs, inverse = np.unique(low << 32 | high, return_inverse=True)
            combine = self.union if union else self.intersect
            parts = [combine(p >> 32, p & 0xFFFFFFFF) for p in pairs.tolist()]
            result[clash] = np.array(parts, dtype=np.int32)[inverse]
        node = self._node(level, result)
        self._memo[key] = node
        return node

    def _gather(
        self, level: int, substates: np.ndarray, children: np.ndarray
    ) -> int:
        """The node of ``level`` whose child at each substate is the union
        of the ``children`` paired with it, folded in the order given."""
        live = children != FALSE
        substates, children = substates[live], children[live]
        # Drop repeated pairs (a union with a subset adds nothing).
        _, first = np.unique(
            substates.astype(np.int64) << 32 | children, return_index=True
        )
        first.sort()
        substates, children = substates[first], children[first]
        result = np.zeros(self.level_sizes[level - 1], dtype=np.int32)
        counts = np.bincount(substates, minlength=len(result))
        single = counts[substates] == 1
        result[substates[single]] = children[single]
        for substate in np.flatnonzero(counts > 1).tolist():
            members = children[substates == substate].tolist()
            result[substate] = functools.reduce(self.union, members)
        return self._node(level, result)

    def contains(self, node: int, state: Sequence[int]) -> bool:
        """Membership test; a state with other than one substate per level
        raises :class:`StateSpaceError`."""
        if len(state) != self.num_levels:
            raise StateSpaceError(
                f"state {tuple(state)} has {len(state)} components, "
                f"expected {self.num_levels}"
            )
        current = node
        for substate in state:
            if current == FALSE:
                return False
            children = self._children[current]
            position = _integer(substate)
            if not 0 <= position < len(children):
                return False
            current = int(children[position])
        return current == TRUE

    def count(self, node: int) -> int:
        """Number of states in the set (an exact Python int)."""
        if node not in self._count_cache:
            repeats = np.bincount(self._children[node]).tolist()
            self._count_cache[node] = sum(
                self.count(child) * times
                for child, times in enumerate(repeats)
                if times and child != FALSE
            )
        return self._count_cache[node]

    def tuples(self, node: int) -> Iterator[Tuple[int, ...]]:
        """Enumerate the set's states in lexicographic order."""
        if node == FALSE:
            return
        if node == TRUE:
            yield ()
            return
        for substate, child in self.children(node):
            for suffix in self.tuples(child):
                yield (substate,) + suffix

    def codes(self, node: int) -> np.ndarray:
        """The set's states as sorted ``int64`` mixed-radix codes (top
        level most significant, as :meth:`EventModel.encode`), read from
        the child arrays without enumerating tuples."""
        check_int64_codes(self.level_sizes)
        place = strides(self.level_sizes)
        memo = {FALSE: np.zeros(0, np.int64), TRUE: np.zeros(1, np.int64)}

        def walk(current: int) -> np.ndarray:
            cached = memo.get(current)
            if cached is None:
                children = self._children[current]
                positions = np.flatnonzero(children)
                parts = [walk(child) for child in children[positions].tolist()]
                offsets = positions * place[self._levels[current] - 1]
                cached = np.repeat(offsets, [len(p) for p in parts])
                cached += np.concatenate(parts)
                memo[current] = cached
            return cached

        return walk(node)

    def level_support(self, node: int, level: int) -> List[int]:
        """Substates of ``level`` that occur in at least one member state
        (the projection of the set onto that level)."""
        self._check_level(level)
        if node in (FALSE, TRUE):
            return []
        nodes = [node]
        for _ in range(level - 1):
            children = np.concatenate([self._children[n] for n in nodes])
            nodes = np.unique(children[children != FALSE]).tolist()
        occurs = np.stack([self._children[n] for n in nodes]).any(axis=0)
        return np.flatnonzero(occurs).tolist()

    def map_levels(
        self,
        node: int,
        mappings: Sequence[Mapping[int, int]],
        target: "MDDManager",
    ) -> int:
        """Apply per-level substate maps and rebuild the set in ``target``.

        ``mappings[i]`` maps level-(i+1) substates to target substates;
        substates missing from a map are dropped.  Used to (a) re-express
        a reachable set in projected (support-compacted) coordinates and
        (b) project a state set through per-level lumping partitions —
        both without ever enumerating the set.  A target with another
        number of levels, or a map to an integer outside the target's
        level, raises :class:`StateSpaceError`.
        """
        if len(mappings) != self.num_levels:
            raise StateSpaceError("need one mapping per level")
        if target.num_levels != self.num_levels:
            raise StateSpaceError(
                f"target has {target.num_levels} levels, expected "
                f"{self.num_levels}"
            )
        # Per level, substate -> target substate, or -1 where dropped.
        lookups = [np.full(size, -1) for size in self.level_sizes]
        for level, (mapping, lookup) in enumerate(zip(mappings, lookups), 1):
            for substate in range(len(lookup)):
                if substate in mapping:
                    image = mapping[substate]
                    lookup[substate] = target._position(level, image)
        memo: Dict[int, int] = {}

        def walk(current: int, level: int) -> int:
            if current in (FALSE, TRUE):
                return current
            cached = memo.get(current)
            if cached is not None:
                return cached
            children, lookup = self._children[current], lookups[level - 1]
            kept = np.flatnonzero((lookup >= 0) & (children != FALSE))
            images = _remap(
                children[kept], lambda child: walk(child, level + 1)
            )
            result = target._gather(level, lookup[kept], images)
            memo[current] = result
            return result

        return walk(node, 1)

    # ------------------------------------------------------------------
    # relational image
    # ------------------------------------------------------------------

    def image(self, node: int, event) -> int:
        """The set of states reachable from ``node`` by firing ``event``
        once (:class:`repro.statespace.events.Event` semantics, read from
        its option columns ``event.tables``; factors are positive, so they
        are ignored, and an event of weight 0 never fires)."""
        if not event.weight > 0:
            return FALSE
        # Per touched level, (sources, targets) sorted by source, options
        # in table order: the order repeated targets are folded in, which
        # decides the union nodes interned on the way.  Below the lowest
        # touched level the image of a node is the node.
        columns = {}
        for level, (sources, targets, _factors) in event.tables.items():
            order = np.argsort(sources, kind="stable")
            columns[level] = (sources[order], targets[order])
        bottom = max(columns, default=0)
        memo: Dict[int, int] = {}

        def walk(current: int, level: int) -> int:
            if current in (FALSE, TRUE) or level > bottom:
                return current
            cached = memo.get(current)
            if cached is not None:
                return cached
            mapped = _remap(
                self._children[current], lambda child: walk(child, level + 1)
            )
            if level in columns:
                sources, targets = columns[level]
                result = self._gather(level, targets, mapped[sources])
            else:
                result = self._node(level, mapped)
            memo[current] = result
            return result

        return walk(node, 1)
