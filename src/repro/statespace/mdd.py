"""Multi-valued decision diagrams (MDDs) for sets of global states.

An MDD here represents a set of tuples ``(s_1, .., s_L)`` with ``s_i`` in
level i's local state space — the state-set companion of the matrix
diagram.  Nodes are hash-consed in an :class:`MDDManager`, so set equality
is pointer equality and fixpoint detection in reachability is O(1).

The layout matches the MD: level 1 at the top.  Node 0 is the empty set
(FALSE), node 1 the terminal TRUE.  The image of an event reads its
per-state lookup, ``Event.options``, built once from its option columns.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.errors import StateSpaceError

FALSE = 0
TRUE = 1


class MDDManager:
    """Owner of all MDD nodes for one sequence of level sizes."""

    def __init__(self, level_sizes: Sequence[int]) -> None:
        if not level_sizes:
            raise StateSpaceError("MDD needs at least one level")
        self.level_sizes = tuple(int(s) for s in level_sizes)
        self.num_levels = len(self.level_sizes)
        # node id -> (level, ((substate, child), ..)) sorted by substate
        self._nodes: Dict[int, Tuple[int, Tuple[Tuple[int, int], ...]]] = {}
        self._unique: Dict[Tuple[int, Tuple[Tuple[int, int], ...]], int] = {}
        self._next_id = 2
        self._count_cache: Dict[int, int] = {FALSE: 0, TRUE: 1}

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------

    def make(self, level: int, children: Mapping[int, int]) -> int:
        """Intern a node at ``level`` with the given substate -> child map.

        FALSE children are dropped; a node with no children collapses to
        FALSE.  (No TRUE-collapse across levels: tuples have fixed length,
        so a full node is still a node.)  A level outside ``1..L``, a
        substate outside its level or a child that is not a node of the
        next level raises :class:`StateSpaceError`.
        """
        if not 1 <= level <= self.num_levels:
            raise StateSpaceError(
                f"level {level} outside 1..{self.num_levels}"
            )
        items = tuple(
            sorted((s, c) for s, c in children.items() if c != FALSE)
        )
        if not items:
            return FALSE
        size = self.level_sizes[level - 1]
        for substate, child in items:
            if not 0 <= substate < size:
                raise StateSpaceError(
                    f"substate {substate} out of range at level {level}"
                )
            expected_child_level = level + 1
            if expected_child_level > self.num_levels:
                if child != TRUE:
                    raise StateSpaceError(
                        "bottom-level children must be TRUE"
                    )
            elif child != FALSE and child != TRUE:
                try:
                    child_level = self._nodes[child][0]
                except KeyError:
                    raise StateSpaceError(
                        f"unknown child node {child} at level {level}"
                    ) from None
                if child_level != expected_child_level:
                    raise StateSpaceError(
                        f"child at level {child_level}, expected "
                        f"{expected_child_level}"
                    )
            elif child == TRUE and expected_child_level <= self.num_levels:
                raise StateSpaceError(
                    "TRUE child above the bottom level"
                )
        key = (level, items)
        existing = self._unique.get(key)
        if existing is not None:
            return existing
        node_id = self._next_id
        self._next_id += 1
        self._nodes[node_id] = key
        self._unique[key] = node_id
        return node_id

    def children(self, node: int) -> Tuple[Tuple[int, int], ...]:
        """The ``(substate, child)`` pairs of a node."""
        return self._nodes[node][1]

    def level_of(self, node: int) -> int:
        """The level of a (non-terminal) node."""
        return self._nodes[node][0]

    @property
    def num_nodes(self) -> int:
        """Number of interned nodes (excluding terminals)."""
        return len(self._nodes)

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
        if not tuples:
            return FALSE
        if level > self.num_levels:
            return TRUE
        children: Dict[int, int] = {}
        start = 0
        while start < len(tuples):
            substate = tuples[start][level - 1]
            end = start
            while end < len(tuples) and tuples[end][level - 1] == substate:
                end += 1
            children[substate] = self._from_sorted(
                [t for t in tuples[start:end]], level + 1
            ) if level < self.num_levels else TRUE
            start = end
        return self.make(level, children)

    def singleton(self, state: Sequence[int]) -> int:
        """The MDD containing exactly one state."""
        return self.from_tuples([tuple(state)])

    # ------------------------------------------------------------------
    # set operations
    # ------------------------------------------------------------------

    def union(self, a: int, b: int) -> int:
        """Set union of two MDDs (must be same-level roots)."""
        return self._union(a, b, {})

    def _union(self, a: int, b: int, memo: Dict[Tuple[int, int], int]) -> int:
        if a == b:
            return a
        if a == FALSE:
            return b
        if b == FALSE:
            return a
        if a == TRUE or b == TRUE:
            return TRUE
        key = (a, b) if a < b else (b, a)
        cached = memo.get(key)
        if cached is not None:
            return cached
        level = self.level_of(a)
        if level != self.level_of(b):
            raise StateSpaceError("union of nodes at different levels")
        merged: Dict[int, int] = dict(self.children(a))
        for substate, child in self.children(b):
            existing = merged.get(substate, FALSE)
            merged[substate] = self._union(existing, child, memo)
        result = self.make(level, merged)
        memo[key] = result
        return result

    def intersect(self, a: int, b: int) -> int:
        """Set intersection of two MDDs."""
        return self._intersect(a, b, {})

    def _intersect(
        self, a: int, b: int, memo: Dict[Tuple[int, int], int]
    ) -> int:
        if a == FALSE or b == FALSE:
            return FALSE
        if a == b:
            return a
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        key = (a, b) if a < b else (b, a)
        cached = memo.get(key)
        if cached is not None:
            return cached
        level = self.level_of(a)
        if level != self.level_of(b):
            raise StateSpaceError("intersection of nodes at different levels")
        b_children = dict(self.children(b))
        merged: Dict[int, int] = {}
        for substate, child in self.children(a):
            other = b_children.get(substate, FALSE)
            merged[substate] = self._intersect(child, other, memo)
        result = self.make(level, merged)
        memo[key] = result
        return result

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
            if current == TRUE:
                raise StateSpaceError("state longer than MDD depth")
            children = dict(self.children(current))
            current = children.get(substate, FALSE)
        return current == TRUE

    def count(self, node: int) -> int:
        """Number of states in the set."""
        cached = self._count_cache.get(node)
        if cached is not None:
            return cached
        total = sum(
            self.count(child) for _substate, child in self.children(node)
        )
        self._count_cache[node] = total
        return total

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

    def level_support(self, node: int, level: int) -> List[int]:
        """Substates of ``level`` that occur in at least one member state
        (the projection of the set onto that level)."""
        if not 1 <= level <= self.num_levels:
            raise StateSpaceError(
                f"level {level} outside 1..{self.num_levels}"
            )
        seen: set = set()
        visited: set = set()

        def walk(current: int, current_level: int) -> None:
            if current in (FALSE, TRUE) or current in visited:
                return
            visited.add(current)
            if current_level == level:
                seen.update(s for s, _c in self.children(current))
                return
            for _substate, child in self.children(current):
                walk(child, current_level + 1)

        walk(node, 1)
        return sorted(seen)

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
        both without ever enumerating the set.
        """
        if len(mappings) != self.num_levels:
            raise StateSpaceError("need one mapping per level")
        memo: Dict[int, int] = {}

        def walk(current: int, level: int) -> int:
            if current in (FALSE, TRUE):
                return current
            cached = memo.get(current)
            if cached is not None:
                return cached
            mapping = mappings[level - 1]
            children: Dict[int, int] = {}
            for substate, child in self.children(current):
                target_substate = mapping.get(substate)
                if target_substate is None:
                    continue
                mapped_child = walk(child, level + 1)
                if mapped_child == FALSE:
                    continue
                existing = children.get(target_substate, FALSE)
                children[target_substate] = target._union(
                    existing, mapped_child, {}
                )
            result = target.make(level, children)
            memo[current] = result
            return result

        return walk(node, 1)

    # ------------------------------------------------------------------
    # relational image
    # ------------------------------------------------------------------

    def image(self, node: int, event) -> int:
        """The set of states reachable from ``node`` by firing ``event``
        once (:class:`repro.statespace.events.Event` semantics, read from
        ``event.options``; factors are positive, so they are ignored, and
        an event of weight 0 never fires)."""
        if not event.weight > 0:
            return FALSE
        options = event.options
        memo: Dict[int, int] = {}

        def walk(current: int, level: int) -> int:
            if current == FALSE:
                return FALSE
            if current == TRUE:
                return TRUE
            cached = memo.get(current)
            if cached is not None:
                return cached
            table = options.get(level)
            result_children: Dict[int, int] = {}
            for substate, child in self.children(current):
                child_image = walk(child, level + 1)
                if child_image == FALSE:
                    continue
                if table is None:
                    merged = result_children.get(substate, FALSE)
                    result_children[substate] = self._union(
                        merged, child_image, {}
                    )
                else:
                    for target, _factor in table.get(substate, ()):
                        merged = result_children.get(target, FALSE)
                        result_children[target] = self._union(
                            merged, child_image, {}
                        )
            result = self.make(level, result_children)
            memo[current] = result
            return result

        return walk(node, 1)
