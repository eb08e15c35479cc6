"""Random CTMC generators used by tests and property-based checks.

Beyond uniformly random chains, this module can *plant* a lumpable
structure: :func:`random_ordinarily_lumpable` builds a chain whose states
group into blocks with equal block-to-block cumulative rates, so the optimal
state-level lumping algorithm must recover a partition at least as coarse as
the planted one.  The construction mirrors the definition directly
(Theorem 1): pick a quotient chain first, then expand each quotient state
into a block and distribute the outgoing rate of each member over the
target block.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.markov.ctmc import CTMC
from repro.partitions import Partition


def random_ctmc(
    num_states: int,
    density: float = 0.3,
    rate_scale: float = 2.0,
    seed: Optional[int] = None,
) -> CTMC:
    """A random CTMC with roughly ``density`` fraction of off-diagonal
    entries present, rates uniform in ``(0, rate_scale]``.

    A Hamiltonian cycle of small rates is added so the chain is strongly
    connected (solvers require irreducibility).
    """
    rng = np.random.default_rng(seed)
    triples: List[Tuple[int, int, float]] = []
    for i in range(num_states):
        for j in range(num_states):
            if i != j and rng.random() < density:
                triples.append((i, j, float(rng.uniform(0.05, rate_scale))))
    if num_states > 1:
        for i in range(num_states):
            triples.append((i, (i + 1) % num_states, 0.01))
    return CTMC.from_transitions(num_states, triples)


def random_partition(
    num_states: int, num_blocks: int, seed: Optional[int] = None
) -> Partition:
    """A uniformly random partition of ``range(num_states)`` into exactly
    ``num_blocks`` non-empty blocks."""
    if not 1 <= num_blocks <= num_states:
        raise ValueError("need 1 <= num_blocks <= num_states")
    rng = np.random.default_rng(seed)
    # Guarantee non-emptiness: first num_blocks states seed the blocks.
    assignment = list(range(num_blocks))
    assignment += [int(rng.integers(num_blocks)) for _ in range(num_states - num_blocks)]
    rng.shuffle(assignment)
    blocks: List[List[int]] = [[] for _ in range(num_blocks)]
    for state, block in enumerate(assignment):
        blocks[block].append(state)
    return Partition(num_states, blocks)


def random_ordinarily_lumpable(
    num_states: int,
    num_blocks: int,
    seed: Optional[int] = None,
) -> Tuple[CTMC, Partition]:
    """A random CTMC ordinarily lumpable w.r.t. a planted partition.

    Construction: draw a random irreducible quotient chain on
    ``num_blocks`` states, then expand block ``B`` into its members.  For a
    quotient rate ``lambda(B, B')``, every member ``s`` of ``B`` receives
    outgoing rates to the members of ``B'`` that sum to ``lambda(B, B')``
    but are split randomly (and differently per member), so the chain is
    not block-diagonal-trivial yet satisfies
    ``R(s, B') = R(s_hat, B')`` for all ``s, s_hat in B``.
    """
    rng = np.random.default_rng(seed)
    partition = random_partition(num_states, num_blocks, seed=None if seed is None else seed + 1)
    quotient = random_ctmc(
        num_blocks,
        density=0.5,
        seed=None if seed is None else seed + 2,
    )
    blocks = list(partition.blocks())
    triples: List[Tuple[int, int, float]] = []
    for b_index, block in enumerate(blocks):
        for c_index, target_block in enumerate(blocks):
            total = quotient.rate(b_index, c_index)
            if total <= 0:
                continue
            for s in block:
                # Split `total` across the target block with random positive
                # weights; each member of the source block gets its own split.
                weights = rng.uniform(0.1, 1.0, size=len(target_block))
                weights *= total / weights.sum()
                for t, w in zip(target_block, weights):
                    if s != t or True:  # self-loops allowed in R
                        triples.append((s, t, float(w)))
    chain = CTMC.from_transitions(num_states, triples)
    return chain, partition


def random_exactly_lumpable(
    num_states: int,
    num_blocks: int,
    seed: Optional[int] = None,
) -> Tuple[CTMC, Partition]:
    """A random CTMC exactly lumpable w.r.t. a planted partition.

    Exact lumpability needs ``R(B', s)`` constant over ``s in B`` (column
    sums from each block equal) *and* equal exit rates within each block.
    We construct the transpose the same way as
    :func:`random_ordinarily_lumpable` splits rows, then fix exit rates by
    adding self-loops, which change ``R`` but not ``Q``-level behaviour
    and preserve the column-sum property within blocks only if distributed
    equally -- so instead we split incoming rate *uniformly* across source
    block members, which yields both properties at once.
    """
    rng = np.random.default_rng(seed)
    partition = random_partition(num_states, num_blocks, seed=None if seed is None else seed + 1)
    quotient = random_ctmc(
        num_blocks,
        density=0.5,
        seed=None if seed is None else seed + 2,
    )
    blocks = list(partition.blocks())
    triples: List[Tuple[int, int, float]] = []
    for b_index, block in enumerate(blocks):
        for c_index, target_block in enumerate(blocks):
            total = quotient.rate(b_index, c_index)
            if total <= 0:
                continue
            # Every member of the source block sends total/|B| to *each*
            # member of the target block: then R(B, t) = total for each t,
            # i.e. columns within the target block have equal sums from B,
            # and every source member has equal contribution to exit rate.
            rate = total / len(block)
            for s in block:
                for t in target_block:
                    triples.append((s, t, float(rate)))
    chain = CTMC.from_transitions(num_states, triples)
    return chain, partition


def random_distribution(
    num_states: int, seed: Optional[int] = None
) -> np.ndarray:
    """A random probability vector of length ``num_states``."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=num_states)
    return raw / raw.sum()


def block_constant_vector(
    partition: Partition, values: Optional[Sequence[float]] = None,
    seed: Optional[int] = None,
) -> np.ndarray:
    """A vector constant on each block of ``partition`` (random per-block
    values unless given) -- a valid reward vector for ordinary lumping."""
    rng = np.random.default_rng(seed)
    blocks = list(partition.blocks())
    if values is None:
        values = rng.uniform(0.0, 10.0, size=len(blocks))
    out = np.zeros(partition.n)
    for value, block in zip(values, blocks):
        for s in block:
            out[s] = value
    return out
