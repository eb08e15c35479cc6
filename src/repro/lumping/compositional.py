"""``CompositionalLump`` (Figure 3b): lump an MD level by level.

For each level ``i``: compute ``P_i_ini``, run ``CompLumpingLevel``, then
replace every node of the level with its lumped version (Theorem 2 applied
node-locally):

* ordinary: ``Rhat_n(i~, j~) = R_n(s, C_j~)`` for the class representative
  ``s in C_i~`` — a formal sum, so no child matrix is ever expanded;
* exact:    ``Rhat_n(i~, j~) = R_n(C_i~, s)`` for the representative
  ``s in C_j~``.

Rewards and initial factors are lumped per level (line 7 of Figure 3b):
``f_i`` is constant on ordinary classes (taken from the representative) and
averaged for exact lumping; ``f_pi,i`` sums over class members, which under
the product combiner realizes ``pihat_ini(C) = pi_ini(C)``.

The node count per level never changes ("the compositional lumping
algorithm only replaces each MD node with a possibly smaller one and does
not create or delete any node" — Section 5); only node contents shrink.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import LumpingError
from repro.lumping.local import (
    comp_lumping_level,
    initial_partition_exact,
    initial_partition_ordinary,
)
from repro.lumping.md_model import MDModel
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.node import MDNode
from repro.partitions import Partition
from repro.robust import budgets, checkpoint, faults
from repro.robust.budgets import BudgetExceeded
from repro.util.numeric import mixed_radix_codes, mixed_radix_digits


@dataclass
class LevelReduction:
    """Size bookkeeping for one lumped level."""

    level: int
    original_size: int
    lumped_size: int

    @property
    def factor(self) -> float:
        """Original substates per lumped substate."""
        return self.original_size / max(1, self.lumped_size)


@dataclass
class SkippedLevel:
    """A level whose local lumping was skipped (graceful degradation).

    The level keeps the discrete (identity) partition, so the resulting
    MD is still a valid — just less lumped — representation: the level's
    contribution to the flattened CTMC is exactly the input's.
    """

    level: int
    reason: str


@dataclass
class CompositionalLumpingResult:
    """Outcome of :func:`compositional_lump`."""

    kind: str
    original: MDModel
    lumped: MDModel
    partitions: List[Partition]  # one per level
    reductions: List[LevelReduction] = field(default_factory=list)
    skipped_levels: List[SkippedLevel] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Whether any level's lumping was skipped."""
        return bool(self.skipped_levels)

    @property
    def potential_reduction_factor(self) -> float:
        """Reduction of the potential product space."""
        return self.original.potential_size() / max(
            1, self.lumped.potential_size()
        )

    def class_tuple(self, state: Sequence[int]) -> Tuple[int, ...]:
        """Map per-level substates to per-level class indices."""
        out = []
        for level, substate in enumerate(state):
            partition = self.partitions[level]
            index_map = partition.block_index_map()
            out.append(index_map[partition.block_of(substate)])
        return tuple(out)

    def project_potential_index(self, index: int) -> int:
        """Map an original potential-space index to the lumped one."""
        return int(
            project_indices(
                [index], self.original.md.level_sizes, self.partitions
            )[0]
        )

    def projection_vector(self) -> np.ndarray:
        """For every original state (reachable if restricted, else all
        potential states), the dense index of its lumped state."""
        original = self.original.reachable
        if original is None:
            original = np.arange(self.original.potential_size())
        projected = project_indices(
            original, self.original.md.level_sizes, self.partitions
        )
        if self.lumped.reachable is None:
            return projected
        return np.searchsorted(self.lumped.reachable, projected)

    def project_distribution(self, pi: np.ndarray) -> np.ndarray:
        """Aggregate a distribution over original states into the lumped
        state space (``pihat(C) = sum_{s in C} pi(s)``)."""
        projection = self.projection_vector()
        pi = np.asarray(pi, dtype=float)
        if pi.shape != projection.shape:
            raise LumpingError(
                f"distribution has shape {pi.shape}, expected {projection.shape}"
            )
        out = np.zeros(self.lumped.num_states())
        np.add.at(out, projection, pi)
        return out


def project_indices(
    indices: Sequence[int],
    level_sizes: Sequence[int],
    partitions: Sequence[Partition],
) -> np.ndarray:
    """Map potential-space indices to the lumped potential space of the
    per-level ``partitions``: split each index into its mixed-radix
    digits, replace every digit by its class, and recombine in the
    lumped radix.  Works in ``int64``, so the indices must fit it, as
    the explicit state-space engines' codes do; raises
    :class:`LumpingError` for an index outside the potential space."""
    try:
        digits = mixed_radix_digits(indices, level_sizes)
    except ValueError as exc:
        raise LumpingError(f"potential {exc}") from None
    classes = [
        np.asarray(partition.state_class_vector(), dtype=np.int64)[digit]
        for partition, digit in zip(partitions, digits)
    ]
    return mixed_radix_codes(classes, [len(p) for p in partitions])


def _lump_node(
    node: MDNode,
    partition: Partition,
    kind: str,
) -> MDNode:
    """Theorem 2 applied to a single node, on formal sums."""
    index_map = partition.block_index_map()
    class_of = partition.state_class_vector()
    representative = {}
    members: Dict[int, Tuple[int, ...]] = {}
    for block_id, dense in index_map.items():
        representative[dense] = partition.representative(block_id)
        members[dense] = partition.block(block_id)
    is_rep = [False] * partition.n
    for dense, rep in representative.items():
        is_rep[rep] = True

    new_entries: Dict[Tuple[int, int], object] = {}

    def accumulate(key: Tuple[int, int], entry) -> None:
        existing = new_entries.get(key)
        new_entries[key] = entry if existing is None else existing + entry

    sizes = {dense: len(block) for dense, block in members.items()}
    for r, c, entry in node.entries():
        if kind == "ordinary":
            # Keep only the representative's row; sum over column classes.
            if not is_rep[r]:
                continue
            accumulate((class_of[r], class_of[c]), entry)
        else:
            # Keep only the representative's column; sum over row classes,
            # scaled by |C_col| / |C_row| (the aggregate-evolving exact
            # lumped matrix; see repro.lumping.state_level).  Applied per
            # level, the factors multiply across levels into the global
            # class-size ratio.
            if not is_rep[c]:
                continue
            scale = sizes[class_of[c]] / sizes[class_of[r]]
            if node.terminal:
                accumulate((class_of[r], class_of[c]), entry * scale)
            else:
                accumulate((class_of[r], class_of[c]), entry.scaled(scale))
    return MDNode(node.level, new_entries, terminal=node.terminal)


def _lumped_labels(
    md: MatrixDiagram, level: int, partition: Partition
) -> Optional[List[object]]:
    labels = md.level_labels(level)
    if labels is None:
        return None
    index_map = partition.block_index_map()
    out: List[object] = [None] * len(partition)
    for block_id, dense in index_map.items():
        block_members = partition.block(block_id)
        if len(block_members) == 1:
            out[dense] = labels[block_members[0]]
        else:
            out[dense] = tuple(labels[s] for s in block_members)
    return out


def compositional_lump(
    model: MDModel,
    kind: str = "ordinary",
    levels: Optional[Sequence[int]] = None,
    key: str = "formal",
    iterate: bool = False,
    degrade: bool = False,
    report=None,
) -> CompositionalLumpingResult:
    """Lump an MD-represented MRP level by level (Figure 3b).

    Parameters
    ----------
    model:
        The MD model (matrix diagram + decomposable rewards/initial).
    kind:
        ``"ordinary"`` or ``"exact"``.
    levels:
        The levels to lump (default: all).  Unlumped levels keep the
        discrete (identity) partition, which lets tests exercise
        Theorems 3/4 one level at a time.
    key:
        ``"formal"`` (paper) or ``"matrix"`` (ablation); see
        :func:`repro.lumping.local.comp_lumping_level`.
    iterate:
        Extension beyond the paper's single pass: after lumping, lumped
        nodes that became structurally equal are merged (quasi-reduction),
        which can make the *formal-sum* condition succeed where it was
        previously blocked by two distinct-but-equal children (the
        incompleteness source the paper notes in Section 4).  Passes
        repeat until a fixed point.  The composed result is reported as a
        single :class:`CompositionalLumpingResult` whose per-level
        partitions are the compositions of all passes.
    degrade:
        Graceful degradation: when a level's local lumping fails (a
        :class:`~repro.errors.LumpingError`) or exhausts an active budget
        (:class:`~repro.robust.budgets.BudgetExceeded`), skip the level —
        it keeps the identity partition, the failure is recorded in
        ``skipped_levels`` (and in ``report`` when given), and lumping
        continues with the remaining levels.  The result is still a
        valid, just less-lumped, MD.  Without ``degrade`` such failures
        propagate.
    report:
        Optional :class:`~repro.robust.report.RunReport` that receives a
        fallback event per skipped level.
    """
    if not iterate:
        return _compositional_lump_once(
            model, kind, levels, key, degrade, report
        )
    current = model
    composed: Optional[CompositionalLumpingResult] = None
    pass_number = 0
    while True:
        # Each pass gets its own checkpoint scope so the per-level
        # snapshot keys of successive passes never collide.
        with checkpoint.scoped(f"pass{pass_number}"):
            result = _compositional_lump_once(
                current, kind, levels, key, degrade, report
            )
        pass_number += 1
        composed = result if composed is None else _compose_results(
            composed, result
        )
        progressed = any(
            reduction.original_size != reduction.lumped_size
            for reduction in result.reductions
        )
        # Merge nodes that became equal so the next pass can see the
        # additional sharing.  Canonicalization (scale normalization +
        # quasi-reduction) also merges scalar multiples, which plain
        # reduction cannot.
        from repro.matrixdiagram.canonical import canonicalize

        reduced_md = canonicalize(result.lumped.md)
        merged = reduced_md.num_nodes < result.lumped.md.num_nodes
        if not progressed and not merged:
            return composed
        current = MDModel(
            reduced_md,
            level_rewards=result.lumped.level_rewards,
            level_initial=result.lumped.level_initial,
            reward_combiner=result.lumped.reward_combiner,
            reachable=result.lumped.reachable,
        )


def _compose_results(
    first: CompositionalLumpingResult, second: CompositionalLumpingResult
) -> CompositionalLumpingResult:
    """Compose two successive lumping passes into one result: the block of
    an original substate under the composition is its second-pass block's
    preimage through the first pass."""
    partitions: List[Partition] = []
    for p1, p2 in zip(first.partitions, second.partitions):
        class1 = p1.state_class_vector()
        class2 = p2.state_class_vector()
        labels = [class2[class1[s]] for s in range(p1.n)]
        partitions.append(Partition.from_labels(labels))
    reductions = [
        LevelReduction(
            level=r1.level,
            original_size=r1.original_size,
            lumped_size=len(partitions[r1.level - 1]),
        )
        for r1 in first.reductions
    ]
    return CompositionalLumpingResult(
        kind=first.kind,
        original=first.original,
        lumped=second.lumped,
        partitions=partitions,
        reductions=reductions,
        skipped_levels=first.skipped_levels + second.skipped_levels,
    )


def _compositional_lump_once(
    model: MDModel,
    kind: str,
    levels: Optional[Sequence[int]],
    key: str,
    degrade: bool = False,
    report=None,
) -> CompositionalLumpingResult:
    """One pass of Figure 3b."""
    if kind not in ("ordinary", "exact"):
        raise LumpingError(f"kind must be 'ordinary' or 'exact', not {kind!r}")
    # Checked here, not only per level: ``degrade`` would turn the
    # error into an identity partition on every level.
    if key not in ("formal", "matrix"):
        raise LumpingError(f"key must be 'formal' or 'matrix', not {key!r}")
    md = model.md
    selected = (
        sorted(set(levels))
        if levels is not None
        else list(range(1, md.num_levels + 1))
    )
    for level in selected:
        if not 1 <= level <= md.num_levels:
            raise LumpingError(f"invalid level {level}")

    partitions: List[Partition] = []
    skipped: List[SkippedLevel] = []
    for level in range(1, md.num_levels + 1):
        if level not in selected:
            partitions.append(Partition.discrete(md.level_size(level)))
            continue
        try:
            faults.check("lumping.level")
            budgets.check_time("lumping")
            if kind == "ordinary":
                start = initial_partition_ordinary(model, level)
            else:
                start = initial_partition_exact(model, level)
            # Scope the refinement checkpoints per level, so a run killed
            # at level k resumes levels 1..k-1 from complete snapshots
            # and level k from its partial one.
            with checkpoint.scoped(f"level{level}"):
                partitions.append(
                    comp_lumping_level(md, level, start, kind=kind, key=key)
                )
        except (LumpingError, BudgetExceeded) as exc:
            if not degrade:
                raise
            # Graceful degradation: the level keeps the identity
            # partition, so its contribution to the flattened CTMC is
            # exactly the input's (valid, just not lumped).
            partitions.append(Partition.discrete(md.level_size(level)))
            reason = f"{type(exc).__name__}: {exc}"
            skipped.append(SkippedLevel(level=level, reason=reason))
            if report is not None:
                report.record_fallback(
                    stage="lumping",
                    requested=f"lump level {level}",
                    used="identity partition",
                    reason=reason,
                )

    return apply_partitions(model, partitions, kind, skipped_levels=skipped)


def apply_partitions(
    model: MDModel,
    partitions: Sequence[Partition],
    kind: str = "ordinary",
    skipped_levels: Sequence[SkippedLevel] = (),
) -> CompositionalLumpingResult:
    """Build the lumped model a given per-level partition list induces.

    This is the construction half of Figure 3b — replace every node with
    its lumped version (Theorem 2 node-locally), lump the per-level
    reward/initial vectors, and project the reachable set — separated
    from the refinement half so a caller that already *has* a valid
    partition (the parameter-sweep reuse gate,
    :mod:`repro.sweep.reuse`) can apply it without re-running the
    fixed-point iteration.  The caller is responsible for the
    partitions' validity: any per-level partition satisfying the
    lumpability condition yields exact results (Theorems 2/3/4 hold for
    every valid partition, coarsest or not).
    """
    if kind not in ("ordinary", "exact"):
        raise LumpingError(f"kind must be 'ordinary' or 'exact', not {kind!r}")
    md = model.md
    if len(partitions) != md.num_levels:
        raise LumpingError(
            f"{len(partitions)} partitions for a {md.num_levels}-level MD"
        )
    for level in range(1, md.num_levels + 1):
        if partitions[level - 1].n != md.level_size(level):
            raise LumpingError(
                f"level {level} partition covers {partitions[level - 1].n} "
                f"substates, level has {md.level_size(level)}"
            )
    partitions = list(partitions)
    skipped = list(skipped_levels)

    # Build the lumped MD: same node indices, shrunken contents.
    new_nodes: Dict[int, MDNode] = {}
    new_sizes: List[int] = []
    new_labels: Optional[List[List[object]]] = (
        [] if md.all_level_labels() is not None else None
    )
    for level in range(1, md.num_levels + 1):
        partition = partitions[level - 1]
        new_sizes.append(len(partition))
        if new_labels is not None:
            new_labels.append(_lumped_labels(md, level, partition))
        for index, node in md.nodes_at(level).items():
            new_nodes[index] = _lump_node(node, partition, kind)
    lumped_md = MatrixDiagram(
        new_sizes,
        new_nodes,
        md.root_index,
        level_state_labels=new_labels,
    )

    # Lump the per-level reward and initial vectors (Figure 3b, line 7).
    new_rewards: List[np.ndarray] = []
    new_initial: List[np.ndarray] = []
    for level in range(1, md.num_levels + 1):
        partition = partitions[level - 1]
        index_map = partition.block_index_map()
        rewards = model.level_rewards[level - 1]
        initial = model.level_initial[level - 1]
        r_hat = np.zeros(len(partition))
        pi_hat = np.zeros(len(partition))
        for block_id, dense in index_map.items():
            block = partition.block(block_id)
            if kind == "ordinary":
                r_hat[dense] = rewards[block[0]]
            else:
                r_hat[dense] = float(np.mean([rewards[s] for s in block]))
            pi_hat[dense] = float(sum(initial[s] for s in block))
        new_rewards.append(r_hat)
        new_initial.append(pi_hat)

    lumped_reachable = None
    if model.reachable is not None:
        lumped_reachable = np.unique(
            project_indices(model.reachable, md.level_sizes, partitions)
        )

    lumped_model = MDModel(
        lumped_md,
        level_rewards=new_rewards,
        level_initial=new_initial,
        reward_combiner=model.reward_combiner,
        reachable=lumped_reachable,
    )
    reductions = [
        LevelReduction(
            level=level,
            original_size=md.level_size(level),
            lumped_size=len(partitions[level - 1]),
        )
        for level in range(1, md.num_levels + 1)
    ]
    return CompositionalLumpingResult(
        kind=kind,
        original=model,
        lumped=lumped_model,
        partitions=partitions,
        reductions=reductions,
        skipped_levels=skipped,
    )
