"""Reachability analysis for event models.

Two algorithms produce the same set:

* :func:`reachable_bfs` — explicit breadth-first search, set-at-a-time:
  each round expands the whole frontier per event over ``int64`` state
  codes.  Fast for up to a few million states.
* saturation — the one symbolic fixpoint, on MDDs: events are grouped by
  their top level and the set is closed bottom-up.  It keeps the set
  symbolic, as the paper's symbolic state-space generator [10] does.
  :func:`symbolic_reachability` returns it unenumerated; the ``mdd`` and
  ``saturation`` engines (:func:`reachable_mdd`,
  :func:`reachable_saturation`) read its state codes straight from the
  MDD and differ only in their engine label.

The engines return a :class:`ReachabilityResult`, which also knows how to
materialize the reachable-restricted CTMC (for flat verification and the
unlumped baseline) and the per-level projections (the paper's per-level
state-space sizes ``S1, S2, S3`` in Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StateSpaceError
from repro.markov.ctmc import CTMC
from repro.robust import budgets, checkpoint, faults
from repro.robust.budgets import BudgetExceeded
from repro.statespace.events import EventModel, SuccessorTables
from repro.statespace.mdd import FALSE, TRUE, MDDManager


def _reach_guard(model: EventModel, seeds) -> dict:
    """Snapshot guard tying a reachability checkpoint to its problem:
    the level sizes plus a digest of the seed set."""
    return {
        "level_sizes": list(model.level_sizes()),
        "seeds": checkpoint.digest(repr(sorted(seeds)).encode("utf-8")),
    }


@dataclass(eq=False)
class ReachabilityResult:
    """The reachable state space of an event model.

    ``codes`` holds the states' mixed-radix codes
    (:meth:`EventModel.encode`: top level most significant), sorted, so
    code order is the lexicographic order of the state tuples.
    """

    model: EventModel
    codes: np.ndarray
    engine: str
    _states: Optional[List[Tuple[int, ...]]] = field(default=None, repr=False)

    @property
    def states(self) -> List[Tuple[int, ...]]:
        """The reachable states as tuples, sorted lexicographically
        (decoded from ``codes`` on first use)."""
        if self._states is None:
            self._states = self.model.decode_states(self.codes)
        return self._states

    @property
    def num_states(self) -> int:
        """Number of reachable states."""
        return len(self.codes)

    def index_of(self, state: Sequence[int]) -> int:
        """Dense index of a reachable state; raises if unreachable."""
        try:
            code = self.model.encode_states([state])[0]
        except StateSpaceError:
            code = -1  # not a state of this model, so not reachable
        position = int(np.searchsorted(self.codes, code))
        if position < len(self.codes) and self.codes[position] == code:
            return position
        raise StateSpaceError(f"state {tuple(state)} is not reachable")

    def level_sizes(self) -> Tuple[int, ...]:
        """Number of *reachable* substates per level (the projections)."""
        supports = self.level_supports()
        return tuple(len(support) for support in supports)

    def level_supports(self) -> List[List[int]]:
        """Per level, the sorted substates that occur in a reachable state."""
        return [
            np.flatnonzero(np.bincount(digits, minlength=size)).tolist()
            for digits, size in zip(
                self.model.state_digits(self.codes), self.model.level_sizes()
            )
        ]

    def to_ctmc(self) -> CTMC:
        """The CTMC over the reachable states (densely indexed, labeled by
        the per-level label tuples)."""
        index = {state: i for i, state in enumerate(self.states)}
        triples = []
        for source_index, state in enumerate(self.states):
            for target, rate in self.model.successors(state):
                triples.append((source_index, index[target], rate))
        labels = [self.model.state_labels(state) for state in self.states]
        return CTMC.from_transitions(
            len(self.states), triples, state_labels=labels
        )

    def potential_indices(self) -> List[int]:
        """``codes`` as a list: the mixed-radix flat indices of the
        reachable states within the potential product space."""
        return self.codes.tolist()


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of ``codes``, sorted.  (Sort and neighbour
    comparison: ``np.unique``'s hash path is slow for large int64
    arrays.)"""
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _unseen(codes: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """The codes absent from the sorted, non-empty ``seen``."""
    position = np.searchsorted(seen, codes)
    np.minimum(position, len(seen) - 1, out=position)
    return codes[seen[position] != codes]


def _merge(sorted_a: np.ndarray, sorted_b: np.ndarray) -> np.ndarray:
    """The sorted union of two disjoint sorted code arrays."""
    return np.insert(sorted_a, np.searchsorted(sorted_a, sorted_b), sorted_b)


def reachable_bfs(
    model: EventModel,
    initial: Optional[Sequence[Tuple[int, ...]]] = None,
    max_states: Optional[int] = None,
) -> ReachabilityResult:
    """Explicit BFS from the model's initial state (or a given seed set).

    Each round expands the whole frontier at once
    (:class:`~repro.statespace.events.SuccessorTables`) and merges the
    new states into the sorted ``seen`` code array.  Seeds with the wrong
    arity or a substate outside its level raise :class:`StateSpaceError`.

    Cooperates with active :mod:`repro.robust.budgets` once per round: a
    round admits new states only up to the first one over the tightest
    state cap, so a state budget fires at exactly ``limit + 1`` states
    instead of after full exploration.
    """
    faults.check("reachability.bfs")
    if initial is None:
        seeds = [model.initial_state]
    else:
        seeds = [tuple(state) for state in initial]
    seen = frontier = _distinct(model.encode_states(seeds))
    ck = checkpoint.active()
    key = guard = None
    if ck is not None:
        key = ck.sequence_key("reachability.bfs")
        # A snapshot of state tuples, the earlier layout, reads as stale.
        guard = _reach_guard(model, seeds)
        guard["layout"] = "codes"
        record = ck.load(key, guard=guard)
        if record is not None:
            payload = record["payload"]
            if record["complete"]:
                codes = np.array(payload["codes"], dtype=np.int64)
                return ReachabilityResult(model, codes, "bfs")
            seen = np.array(payload["seen"], dtype=np.int64)
            frontier = np.array(payload["frontier"], dtype=np.int64)
    tables = SuccessorTables(model)
    # States admitted to ``seen`` this round but not yet in ``frontier``:
    # the BudgetExceeded handler snapshots them with the frontier.
    fresh = frontier[:0]
    try:
        budgets.check_states(len(seen), stage="reachability")
        while len(frontier):
            budgets.charge_iterations(1, stage="reachability")
            fresh = _unseen(_distinct(tables.successors(frontier)), seen)
            caps = [
                cap
                for cap in (max_states, budgets.state_allowance())
                if cap is not None
            ]
            if caps:  # admit up to the first state over the tightest cap
                fresh = fresh[: min(caps) + 1 - len(seen)]
            seen = _merge(seen, fresh)
            budgets.check_states(len(seen), stage="reachability")
            if max_states is not None and len(seen) > max_states:
                raise StateSpaceError(
                    f"state space exceeds max_states={max_states}"
                )
            frontier, fresh = fresh, fresh[:0]
            if ck is not None and ck.tick(key):
                ck.save(
                    key,
                    {"seen": seen.tolist(), "frontier": frontier.tolist()},
                    guard=guard,
                )
    except BudgetExceeded:
        if ck is not None:
            # Re-expanding the round's frontier on resume is idempotent:
            # its already-admitted successors are in ``seen``.
            ck.save(
                key,
                {
                    "seen": seen.tolist(),
                    "frontier": _merge(frontier, fresh).tolist(),
                },
                guard=guard,
            )
        raise
    result = ReachabilityResult(model, seen, "bfs")
    if ck is not None:
        ck.save(key, {"codes": seen.tolist()}, guard=guard, complete=True)
    return result


@dataclass
class SymbolicStateSpace:
    """A reachable set kept symbolic (never enumerated).

    Supports the queries the Table-1 pipeline needs at scales where
    materializing states is impossible: exact count, per-level supports,
    and projection through per-level substate maps.
    """

    model: EventModel
    manager: MDDManager
    node: int
    engine: str

    @property
    def num_states(self) -> int:
        """Exact reachable state count (via MDD counting)."""
        return self.manager.count(self.node)

    def level_supports(self) -> List[List[int]]:
        """Per level, the substates occurring in some reachable state."""
        return [
            self.manager.level_support(self.node, level)
            for level in range(1, self.model.num_levels + 1)
        ]

    def level_sizes(self) -> Tuple[int, ...]:
        """Reachable projection sizes per level."""
        return tuple(len(support) for support in self.level_supports())

    def mapped_count(
        self, mappings, target_sizes: Sequence[int]
    ) -> int:
        """Number of distinct images of the set under per-level substate
        maps — e.g. the lumped reachable count when the maps send each
        substate to its class index."""
        target = MDDManager(tuple(target_sizes))
        mapped = self.manager.map_levels(self.node, mappings, target)
        return target.count(mapped)


def symbolic_reachability(model: EventModel) -> SymbolicStateSpace:
    """Reachability that never enumerates states (for very large spaces),
    by saturation (Ciardo et al., cited as the paper's route to very large
    state spaces).

    Events are grouped by their *top level* (the highest level they
    touch).  Working bottom-up, the state set is closed under all events
    whose top level is at or below the current level before moving up, and
    every upper-level firing is followed by re-closing the lower levels.
    Exploits event locality: low events never disturb high levels, so
    their fixpoints are computed once per upper configuration instead of
    once per global iteration.
    """
    faults.check("reachability.mdd")
    manager = MDDManager(model.level_sizes())
    node = _saturate(manager, model)
    return SymbolicStateSpace(
        model=model, manager=manager, node=node, engine="saturation"
    )


def _node_list(manager: MDDManager, root: int) -> List[list]:
    """The nodes reachable from ``root``, children before parents, each as
    ``[level, children]``: its ``(substate, child)`` pairs, with a child
    numbered 0 (FALSE), 1 (TRUE) or 2 + its position in the list."""
    numbers = {FALSE: 0, TRUE: 1}
    nodes: List[list] = []

    def visit(node: int) -> int:
        if node not in numbers:
            pairs = [[s, visit(c)] for s, c in manager.children(node)]
            numbers[node] = len(nodes) + 2
            nodes.append([manager.level_of(node), pairs])
        return numbers[node]

    visit(root)
    return nodes


def _saturate(manager: MDDManager, model: EventModel) -> int:
    current = manager.singleton(model.initial_state)
    start_top = model.num_levels
    ck = checkpoint.active()
    key = guard = None
    if ck is not None:
        key = ck.sequence_key("reachability.saturation")
        # The layout marker makes a snapshot of state tuples (the earlier
        # layout) stale, so such a run starts afresh.
        guard = _reach_guard(model, [model.initial_state])
        guard["layout"] = "nodes"
        record = ck.load(key, guard=guard)
        if record is not None:
            built = [FALSE, TRUE]
            for level, pairs in record["payload"]["nodes"]:
                children = {s: built[c] for s, c in pairs}
                built.append(manager.make(level, children))
            current = built[-1]  # the root is listed last
            if record["complete"]:
                return current
            # Resuming the outer sweep at the saved level is sound: the
            # final sweep (lowest_top == 1) closes under *all* events, so
            # any intermediate set still converges to the same closure.
            start_top = int(record["payload"]["top"])
    events_by_top: dict = {}
    for event in model.events:
        events_by_top.setdefault(event.top_level(), []).append(event)
    # Last node/level observed at a budget hook, for the exception save.
    progress = {"node": current, "top": start_top}

    def save(node: int, top: int, complete: bool = False) -> None:
        payload = {"nodes": _node_list(manager, node), "top": top}
        ck.save(key, payload, guard=guard, complete=complete)

    def close_from(node: int, lowest_top: int) -> int:
        while True:
            budgets.charge_iterations(1, stage="reachability")
            previous = node
            for top in range(model.num_levels, lowest_top - 1, -1):
                for event in events_by_top.get(top, ()):
                    node = manager.union(node, manager.image(node, event))
            progress["node"] = node
            if budgets.active_budget() is not None:
                budgets.check_states(
                    manager.count(node), stage="reachability"
                )
            if node == previous:
                return node
            if ck is not None and ck.tick(key):
                save(node, lowest_top)

    try:
        for top in range(start_top, 0, -1):
            progress["top"] = top
            current = close_from(current, top)
            progress["node"] = current
    except BudgetExceeded:
        if ck is not None:
            save(progress["node"], progress["top"])
        raise
    if ck is not None:
        save(current, 1, complete=True)
    return current


def _enumerated(model: EventModel, engine: str) -> ReachabilityResult:
    """The saturation fixpoint's states, labeled ``engine``: the one body
    of the ``mdd`` and ``saturation`` engines.  The codes come straight
    from the MDD's child arrays (:meth:`MDDManager.codes`)."""
    symbolic = symbolic_reachability(model)
    codes = symbolic.manager.codes(symbolic.node)
    return ReachabilityResult(model, codes, engine)


def reachable_mdd(model: EventModel) -> ReachabilityResult:
    """The ``mdd`` engine: the symbolic fixpoint
    (:func:`symbolic_reachability`), enumerated into a
    :class:`ReachabilityResult`."""
    return _enumerated(model, "mdd")


def reachable_saturation(model: EventModel) -> ReachabilityResult:
    """The ``saturation`` engine: :func:`reachable_mdd` under the label
    ``"saturation"``."""
    return _enumerated(model, "saturation")
