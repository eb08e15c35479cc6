"""The matrix diagram container: leveled DAG of :class:`MDNode` objects.

Follows Section 3 of the paper: a connected DAG with a unique root node,
levels ``1..L``, arcs only between adjacent levels, and (after
quasi-reduction) no two equal nodes on any level.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import MatrixDiagramError
from repro.matrixdiagram.node import MDNode


class MatrixDiagram:
    """A matrix diagram over per-level local state spaces.

    Parameters
    ----------
    level_sizes:
        ``level_sizes[i - 1]`` is ``|S_i|``, the size of level i's local
        state space.  Substates are ``0..|S_i| - 1``.
    nodes:
        Mapping of unique node index -> :class:`MDNode`.
    root:
        Index of the root node (must be at level 1).
    level_state_labels:
        Optional per-level sequences of substate labels, for presentation.
    """

    def __init__(
        self,
        level_sizes: Sequence[int],
        nodes: Mapping[int, MDNode],
        root: int,
        level_state_labels: Optional[Sequence[Sequence[object]]] = None,
    ) -> None:
        if not level_sizes:
            raise MatrixDiagramError("an MD needs at least one level")
        if any(size < 1 for size in level_sizes):
            raise MatrixDiagramError("every level needs at least one substate")
        self._level_sizes = tuple(int(s) for s in level_sizes)
        self._nodes: Dict[int, MDNode] = dict(nodes)
        self._root = root
        if level_state_labels is not None:
            if len(level_state_labels) != len(self._level_sizes):
                raise MatrixDiagramError(
                    "level_state_labels must have one sequence per level"
                )
            for size, labels in zip(self._level_sizes, level_state_labels):
                if len(labels) != size:
                    raise MatrixDiagramError(
                        f"{len(labels)} labels for a level of size {size}"
                    )
            self._labels: Optional[List[List[object]]] = [
                list(labels) for labels in level_state_labels
            ]
        else:
            self._labels = None
        self.validate()

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """Number of levels ``L``."""
        return len(self._level_sizes)

    @property
    def level_sizes(self) -> Tuple[int, ...]:
        """Per-level local state-space sizes ``(|S_1|, .., |S_L|)``."""
        return self._level_sizes

    @property
    def root_index(self) -> int:
        """Index of the root node."""
        return self._root

    @property
    def root(self) -> MDNode:
        """The root node."""
        return self._nodes[self._root]

    def node(self, index: int) -> MDNode:
        """The node with the given index."""
        try:
            return self._nodes[index]
        except KeyError:
            raise MatrixDiagramError(f"no node with index {index}") from None

    @property
    def num_nodes(self) -> int:
        """Total number of nodes."""
        return len(self._nodes)

    def node_indices(self) -> Tuple[int, ...]:
        """All node indices, sorted."""
        return tuple(sorted(self._nodes))

    def nodes_at(self, level: int) -> Dict[int, MDNode]:
        """Mapping ``index -> node`` of all nodes at ``level`` (1-based)."""
        return {
            index: node
            for index, node in self._nodes.items()
            if node.level == level
        }

    def level_size(self, level: int) -> int:
        """``|S_level|`` (1-based level)."""
        return self._level_sizes[level - 1]

    def potential_size(self) -> int:
        """Size of the potential product space ``|S_1| * .. * |S_L|``."""
        return math.prod(self._level_sizes)

    def substate_label(self, level: int, substate: int) -> object:
        """Presentation label of a substate (the index itself if unlabeled)."""
        if self._labels is None:
            return substate
        return self._labels[level - 1][substate]

    def level_labels(self, level: int) -> Optional[List[object]]:
        """All labels of a level, or ``None`` if unlabeled."""
        if self._labels is None:
            return None
        return list(self._labels[level - 1])

    def all_level_labels(self) -> Optional[List[List[object]]]:
        """Labels for every level, or ``None``."""
        if self._labels is None:
            return None
        return [list(labels) for labels in self._labels]

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every MD structural invariant; raise on violation.

        * the root exists and is at level 1,
        * every node's level is within ``1..L``; terminal iff at level L,
        * formal sums reference only existing nodes at the next level,
        * entry substates fit within the level's local state space,
        * every node is reachable from the root.
        """
        num_levels = self.num_levels
        if self._root not in self._nodes:
            raise MatrixDiagramError("root index does not name a node")
        if self._nodes[self._root].level != 1:
            raise MatrixDiagramError("root node must be at level 1")
        for index, node in self._nodes.items():
            if not 1 <= node.level <= num_levels:
                raise MatrixDiagramError(
                    f"node {index} at invalid level {node.level}"
                )
            if node.terminal != (node.level == num_levels):
                raise MatrixDiagramError(
                    f"node {index} terminal flag inconsistent with level"
                )
            if node.max_substate() >= self.level_size(node.level):
                raise MatrixDiagramError(
                    f"node {index} has substate beyond |S_{node.level}| = "
                    f"{self.level_size(node.level)}"
                )
            for child in node.children():
                child_node = self._nodes.get(child)
                if child_node is None:
                    raise MatrixDiagramError(
                        f"node {index} references missing node {child}"
                    )
                if child_node.level != node.level + 1:
                    raise MatrixDiagramError(
                        f"node {index} (level {node.level}) references node "
                        f"{child} at level {child_node.level}, expected "
                        f"{node.level + 1}"
                    )
        unreachable = set(self._nodes) - set(self.reachable_nodes())
        if unreachable:
            raise MatrixDiagramError(
                f"nodes unreachable from the root: {sorted(unreachable)[:10]}"
            )

    def reachable_nodes(self) -> List[int]:
        """Node indices reachable from the root (the root included)."""
        return sorted(_reachable(self._nodes, self._root))

    # ------------------------------------------------------------------
    # quasi-reduction
    # ------------------------------------------------------------------

    def quasi_reduce(self) -> "MatrixDiagram":
        """Remove duplicate nodes level by level, bottom-up.

        Returns a new MD in which no two nodes of a level have equal
        structure (the paper's reducedness assumption, the basis of MD
        efficiency).  Node indices of surviving nodes are preserved;
        references to removed duplicates are redirected to the surviving
        representative (smallest index).
        """
        mapping: Dict[int, int] = {}
        new_nodes: Dict[int, MDNode] = {}
        for level in range(self.num_levels, 0, -1):
            by_key: Dict[Tuple, int] = {}
            for index in sorted(self.nodes_at(level)):
                node = self._nodes[index].remapped_children(mapping)
                key = node.structure_key()
                survivor = by_key.get(key)
                if survivor is None:
                    by_key[key] = index
                    new_nodes[index] = node
                else:
                    mapping[index] = survivor
        root = mapping.get(self._root, self._root)
        # A merge can cancel a parent's formal sum to zero (``A + (-A)``)
        # and orphan its children, which validation would reject.
        reachable = _reachable(new_nodes, root)
        return MatrixDiagram(
            self._level_sizes,
            {i: n for i, n in new_nodes.items() if i in reachable},
            root,
            level_state_labels=self._labels,
        )

    def is_reduced(self) -> bool:
        """True if no level contains two structurally equal nodes."""
        for level in range(1, self.num_levels + 1):
            keys = [
                node.structure_key() for node in self.nodes_at(level).values()
            ]
            if len(keys) != len(set(keys)):
                return False
        return True

    # ------------------------------------------------------------------
    # rebuilding
    # ------------------------------------------------------------------

    def with_nodes(self, replacements: Mapping[int, MDNode]) -> "MatrixDiagram":
        """A copy with some nodes replaced; level sizes and labels are
        kept.  Used to rescale nodes in place: the root by
        :func:`repro.matrixdiagram.algebra.scale`, a sweep point's rate
        sites by :func:`repro.sweep.spec.apply_point`.
        """
        nodes = dict(self._nodes)
        nodes.update(replacements)
        return MatrixDiagram(
            self._level_sizes, nodes, self._root, level_state_labels=self._labels
        )

    def __repr__(self) -> str:
        per_level = [len(self.nodes_at(lv)) for lv in range(1, self.num_levels + 1)]
        return (
            f"MatrixDiagram(levels={self.num_levels}, "
            f"level_sizes={self._level_sizes}, nodes_per_level={per_level})"
        )


def _reachable(nodes: Mapping[int, MDNode], root: int) -> Set[int]:
    """Indices in ``nodes`` reachable from ``root`` (the root included)."""
    seen = {root}
    frontier = [root]
    while frontier:
        index = frontier.pop()
        for child in nodes[index].children():
            if child not in seen and child in nodes:
                seen.add(child)
                frontier.append(child)
    return seen
