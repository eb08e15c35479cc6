"""The partition-reuse gate: prove a rate change kept the partition.

Rates enter the refinement keys only as formal-sum coefficients, so
many rate changes — uniform scalings of a site's entries in particular
— cannot alter the lumping partition.  Instead of *assuming* that, the
gate checks the base partition on the derived model with the lumping
package's own test of local lumpability (Definition 3):

* the **initial condition** (Section 4): every class lies inside one
  class of ``P_i_ini`` — rewards for ordinary lumping
  (:func:`~repro.lumping.local.initial_partition_ordinary`), initial
  factors and every node's full coefficient row sums for exact
  lumping (:func:`~repro.lumping.local.initial_partition_exact`);
* the **stability condition** (Figure 3a): for every node of the
  level, the formal-sum key :func:`~repro.lumping.keys.md_node_splitter`
  with any class as the splitter gives every class a single key.

That is the fixed point at which ``CompLumpingLevel`` stops, so a
partition that passes is a valid — not necessarily coarsest — lumping
of the derived model, and Theorems 2/3/4 make its results exact.  One
that fails (quantization ties flipping under scaling, a site that
breaks a symmetry) falls back to full re-lumping, recorded in the
:class:`~repro.robust.report.RunReport` as a ``sweep.reuse`` fallback.
"""

from __future__ import annotations

from dataclasses import replace
from typing import AbstractSet, Mapping, Optional, Sequence, Tuple

from repro.lumping.compositional import (
    CompositionalLumpingResult,
    apply_partitions,
    compositional_lump,
)
from repro.lumping.keys import md_node_splitter
from repro.lumping.local import (
    initial_partition_exact,
    initial_partition_ordinary,
)
from repro.lumping.md_model import MDModel
from repro.lumping.refinement import SplitterFactory
from repro.partitions import Partition
from repro.sweep.spec import apply_point
from repro.robust.report import RunReport


def _unstable(
    splitter: SplitterFactory, partition: Partition
) -> Optional[str]:
    """Name a class that some class of ``partition``, as the splitter,
    would split; ``None`` at the refinement's fixed point."""
    blocks = dict(partition.blocks_with_ids())
    for members in blocks.values():
        key, touched = splitter(members)
        for block_id in sorted({partition.block_of(s) for s in touched}):
            block = blocks[block_id]
            if len(block) > 1 and len({key(s) for s in block}) > 1:
                return f"class sums over {members} differ inside class {block}"
    return None


def partition_reuse_proof(
    model: MDModel,
    partitions: Sequence[Partition],
    kind: str = "ordinary",
    changed_nodes: Optional[AbstractSet[int]] = None,
) -> Optional[str]:
    """Check that ``partitions`` remains a valid per-level lumping of
    ``model``.

    Returns ``None`` when the proof goes through, else a one-line
    reason naming the first violated condition (level, node, class) —
    the caller records it and re-lumps from scratch.  It only evaluates
    key functions: no refinement budget is charged, no checkpoint taken.

    ``changed_nodes`` restricts the per-node stability scan to those
    node indices.  This is the incremental form of the proof: it is
    ONLY sound when the caller knows every other node of ``model`` is
    entry-identical to a model the partition is already stable on (a
    sweep point differs from the anchored base model exactly at its
    site nodes).  The initial condition is always checked in full; for
    exact lumping it covers the full row sums of every node of the
    level, so a ``changed_nodes`` set that breaks the contract may get
    a rejection a scan of the named nodes alone would not give.
    """
    md = model.md
    if len(partitions) != md.num_levels:
        return f"{len(partitions)} partitions for a {md.num_levels}-level MD"
    initial_partition, differ = (
        (initial_partition_ordinary, "rewards")
        if kind == "ordinary"
        else (initial_partition_exact, "initial factors or full row sums")
    )
    for level, partition in enumerate(partitions, start=1):
        if partition.n != md.level_size(level):
            return (
                f"level {level}: partition covers {partition.n} substates, "
                f"level has {md.level_size(level)}"
            )
        if partition.is_discrete():
            continue
        initial = initial_partition(model, level)
        if not partition.refines(initial):
            block = next(
                b for b in partition.blocks()
                if len({initial.block_of(s) for s in b}) > 1
            )
            return f"level {level}: {differ} differ inside class {block}"
        for index, node in sorted(md.nodes_at(level).items()):
            if changed_nodes is None or index in changed_nodes:
                reason = _unstable(md_node_splitter(node, kind), partition)
                if reason is not None:
                    return f"level {level} node {index}: {reason}"
    return None


def scaled_lumping(
    base: CompositionalLumpingResult,
    sites: Mapping[str, Sequence[int]],
    factors: Mapping[str, float],
    derived: MDModel,
) -> CompositionalLumpingResult:
    """The lumped model of a rate point, built by scaling ``base``'s
    lumped model directly.

    :func:`~repro.lumping.compositional.apply_partitions` keeps node
    indices ("same node indices, shrunken contents") and lumping is
    linear in each node's entries, so scaling a site's nodes by ``f``
    commutes with quotient construction: the quotient of the scaled
    model *is* the scaled quotient.  Only valid once
    :func:`partition_reuse_proof` has licensed the partition for the
    derived model; ``derived`` becomes the result's ``original``.
    """
    return replace(
        base,
        original=derived,
        lumped=apply_point(base.lumped, sites, factors),
    )


def lump_with_reuse(
    model: MDModel,
    base: CompositionalLumpingResult,
    *,
    key: str = "formal",
    iterate: bool = False,
    report: Optional[RunReport] = None,
    sites: Optional[Mapping[str, Sequence[int]]] = None,
    factors: Optional[Mapping[str, float]] = None,
    changed_nodes: Optional[AbstractSet[int]] = None,
) -> Tuple[CompositionalLumpingResult, bool]:
    """Lump ``model`` by reusing ``base``'s partitions when the proof
    licenses it, else by full re-lumping.

    Returns ``(lumping, reused)``.  A failed proof is recorded in
    ``report`` as a ``sweep.reuse`` fallback with the proof's reason;
    it is a (slower) success path, never an error.  When the caller
    passes the point's ``sites``/``factors``, a successful proof skips
    re-quotienting entirely and scales ``base``'s lumped model instead
    (:func:`scaled_lumping`).  ``changed_nodes`` narrows the proof's
    stability scan (see :func:`partition_reuse_proof` for the soundness
    contract — for a sweep point, the union of its site node sets).
    """
    reason = partition_reuse_proof(
        model,
        base.partitions,
        kind=base.kind,
        changed_nodes=changed_nodes,
    )
    if reason is None:
        if sites is not None and factors is not None:
            return scaled_lumping(base, sites, factors, model), True
        return (
            apply_partitions(model, base.partitions, kind=base.kind),
            True,
        )
    if report is not None:
        report.record_fallback(
            stage="sweep.reuse",
            requested="reuse base partition",
            used="full re-lumping",
            reason=reason,
        )
    return (
        compositional_lump(
            model, kind=base.kind, key=key, iterate=iterate
        ),
        False,
    )
