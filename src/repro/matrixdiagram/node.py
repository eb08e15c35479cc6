"""Matrix diagram nodes.

A node at level ``i`` is a sparse matrix over the level's local state space
``S_i = {0, .., n_i - 1}``.  Non-terminal entries are :class:`FormalSum`
objects over next-level node indices; terminal entries are floats.  Row and
column *supports* (the paper's row/column index sets ``S_n``, ``S'_n``,
which may be proper subsets of ``S_i``) are implicit: a substate is in the
support iff some entry touches it.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

from repro.errors import MatrixDiagramError
from repro.matrixdiagram.formal_sum import FormalSum
from repro.util.numeric import quantize

Entry = Union[FormalSum, float]


class MDNode:
    """One node of a matrix diagram.

    Parameters
    ----------
    level:
        1-based level of the node (level 1 is the root level).
    entries:
        Mapping ``(row_substate, col_substate) -> entry``.  Entries must all
        be :class:`FormalSum` (non-terminal node) or all floats (terminal
        node); zero entries are dropped.
    terminal:
        Whether this node sits at the last level (real-valued matrix).
        Required explicitly so an all-zero node still knows its kind.
    """

    __slots__ = ("level", "terminal", "_entries", "_children")

    def __init__(
        self,
        level: int,
        entries: Mapping[Tuple[int, int], Entry],
        terminal: bool,
    ) -> None:
        if level < 1:
            raise MatrixDiagramError(f"level must be >= 1, got {level}")
        self.level = level
        self.terminal = terminal
        cleaned: Dict[Tuple[int, int], Entry] = {}
        for (row, col), entry in entries.items():
            if row < 0 or col < 0:
                raise MatrixDiagramError(
                    f"negative substate in entry ({row}, {col})"
                )
            if terminal:
                if isinstance(entry, FormalSum):
                    raise MatrixDiagramError(
                        "terminal node entries must be real numbers"
                    )
                value = float(entry)
                if value != 0.0:
                    cleaned[(row, col)] = value
            else:
                if not isinstance(entry, FormalSum):
                    raise MatrixDiagramError(
                        "non-terminal node entries must be FormalSum objects"
                    )
                if not entry.is_zero():
                    cleaned[(row, col)] = entry
        self._entries = cleaned
        self._children: Optional[Tuple[int, ...]] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[Tuple[int, int, Entry]]:
        """Iterate ``(row, col, entry)`` over non-zero entries."""
        for (row, col), entry in self._entries.items():
            yield row, col, entry

    def entry(self, row: int, col: int) -> Entry:
        """The entry at ``(row, col)``; zero (``FormalSum.zero()`` or 0.0)
        if absent."""
        try:
            return self._entries[(row, col)]
        except KeyError:
            return 0.0 if self.terminal else FormalSum.zero()

    @property
    def num_entries(self) -> int:
        """Number of non-zero entries."""
        return len(self._entries)

    def row_support(self) -> Tuple[int, ...]:
        """Substates with at least one non-zero row entry, sorted."""
        return tuple(sorted({row for (row, _c) in self._entries}))

    def col_support(self) -> Tuple[int, ...]:
        """Substates with at least one non-zero column entry, sorted."""
        return tuple(sorted({col for (_r, col) in self._entries}))

    def max_substate(self) -> int:
        """Largest substate index appearing in any entry (-1 if empty)."""
        if not self._entries:
            return -1
        return max(max(r, c) for (r, c) in self._entries)

    def children(self) -> Tuple[int, ...]:
        """All next-level node indices referenced by this node, sorted
        (worked out on the first call; nodes are immutable)."""
        if self._children is None:
            refs = set()
            if not self.terminal:
                # Nodes share formal sums, so walk each distinct one once.
                for entry in set(self._entries.values()):
                    refs.update(entry.children())
            self._children = tuple(sorted(refs))
        return self._children

    # ------------------------------------------------------------------
    # row/col aggregation used by the lumping key functions
    # ------------------------------------------------------------------

    def row_sum_over(self, row: int, cols: Tuple[int, ...]) -> Entry:
        """``R_n(s, C)``: the (formal or real) sum of entries in row ``row``
        restricted to columns ``cols`` (paper's ``A(i, C)`` identity)."""
        if self.terminal:
            return sum(
                self._entries.get((row, col), 0.0) for col in cols
            )
        return FormalSum.accumulate(
            self._entries[(row, col)]
            for col in cols
            if (row, col) in self._entries
        )

    def col_sum_over(self, rows: Tuple[int, ...], col: int) -> Entry:
        """``R_n(C, s)``: the (formal or real) sum of entries in column
        ``col`` restricted to rows ``rows``."""
        if self.terminal:
            return sum(
                self._entries.get((row, col), 0.0) for row in rows
            )
        return FormalSum.accumulate(
            self._entries[(row, col)]
            for row in rows
            if (row, col) in self._entries
        )

    # ------------------------------------------------------------------
    # structure / equality
    # ------------------------------------------------------------------

    def structure_key(self) -> Tuple:
        """A hashable key identifying this node's matrix *structurally*.

        Two nodes with equal structure keys represent the same matrix
        provided their referenced children do (coefficients are quantized).
        Quasi-reduction merges nodes with equal keys (the paper's
        requirement that "at any level, no two nodes are equal").
        """
        # Sorting the (unique) positions orders the entries as sorting
        # the items would, without a (position, formal sum) pair per
        # entry: such pairs stay tracked by the garbage collector and, on
        # nodes of 10^5 entries, set off full collections.
        entries = self._entries
        if self.terminal:
            body = tuple((rc, quantize(entries[rc])) for rc in sorted(entries))
        else:
            body = tuple(
                (rc, entries[rc].signature) for rc in sorted(entries)
            )
        return (self.level, self.terminal, body)

    def remapped_children(self, mapping: Mapping[int, int]) -> "MDNode":
        """A copy with child references renamed through ``mapping``."""
        if self.terminal:
            return MDNode(self.level, dict(self._entries), terminal=True)
        return MDNode(
            self.level,
            {rc: entry.remapped(mapping) for rc, entry in self._entries.items()},
            terminal=False,
        )

    def __repr__(self) -> str:
        kind = "terminal" if self.terminal else "inner"
        return (
            f"MDNode(level={self.level}, {kind}, entries={self.num_entries})"
        )
