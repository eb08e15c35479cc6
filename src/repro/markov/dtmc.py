"""Discrete-time Markov chains and their lumping.

Buchholz's exact/ordinary lumpability theory (the paper's reference [2])
is stated for DTMCs; the CTMC algorithms in this library are its
continuous-time instantiation.  This module provides the discrete-time
side: a :class:`DTMC` with stationary/transient analysis, conversions to
and from CTMCs via uniformization, and lumping that reuses the same
partition-refinement engine (the key functions only ever see a
non-negative matrix, so ``P`` works exactly like ``R``).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.solvers import steady_state_power
from repro.partitions import Partition


class DTMC:
    """A finite discrete-time Markov chain with row-stochastic matrix P."""

    def __init__(
        self,
        transition_matrix,
        state_labels: Optional[Sequence[object]] = None,
        tol: float = 1e-9,
    ) -> None:
        matrix = sparse.csr_matrix(transition_matrix, dtype=float)
        if matrix.shape[0] != matrix.shape[1]:
            raise ModelError(
                f"transition matrix must be square, got {matrix.shape}"
            )
        if matrix.nnz and matrix.data.min() < 0:
            raise ModelError("transition probabilities must be non-negative")
        row_sums = np.asarray(matrix.sum(axis=1)).ravel()
        if matrix.shape[0] and np.abs(row_sums - 1.0).max() > tol:
            worst = int(np.abs(row_sums - 1.0).argmax())
            raise ModelError(
                f"row {worst} sums to {row_sums[worst]}, expected 1"
            )
        matrix.eliminate_zeros()
        self._matrix = matrix
        if state_labels is not None and len(state_labels) != matrix.shape[0]:
            raise ModelError(
                f"{len(state_labels)} labels for {matrix.shape[0]} states"
            )
        self._labels = list(state_labels) if state_labels is not None else None

    @property
    def num_states(self) -> int:
        """Size of the state space."""
        return self._matrix.shape[0]

    @property
    def transition_matrix(self) -> sparse.csr_matrix:
        """The matrix ``P`` (CSR).  Treat as read-only."""
        return self._matrix

    @property
    def state_labels(self):
        """State labels if provided, else ``None``."""
        return list(self._labels) if self._labels is not None else None

    def probability(self, source: int, target: int) -> float:
        """``P[source, target]``."""
        return float(self._matrix[source, target])

    def step(self, distribution: np.ndarray, steps: int = 1) -> np.ndarray:
        """``distribution @ P^steps``."""
        pi = np.asarray(distribution, dtype=float)
        if pi.shape != (self.num_states,):
            raise ModelError(
                f"distribution has shape {pi.shape}, "
                f"expected ({self.num_states},)"
            )
        for _ in range(steps):
            pi = pi @ self._matrix
        return pi

    def is_irreducible(self) -> bool:
        """True if the chain is strongly connected."""
        n_components, _ = sparse.csgraph.connected_components(
            self._matrix, directed=True, connection="strong"
        )
        return bool(n_components == 1)

    def stationary_distribution(self) -> np.ndarray:
        """The stationary distribution: the power solver
        (:func:`~repro.markov.solvers.steady_state_power`, ``tol=1e-13``,
        at most 10^6 iterations) on :meth:`to_ctmc`.  It uniformizes at
        1.01 times the largest exit rate, which leaves every state a
        self-loop, so periodic chains converge too.  Budgets, checkpoints
        and the ``solver.power`` fault site apply as to any solve."""
        return steady_state_power(
            self.to_ctmc(), tol=1e-13, max_iterations=1_000_000
        ).distribution

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_ctmc(cls, ctmc: CTMC, rate: Optional[float] = None) -> "DTMC":
        """The uniformized DTMC of a CTMC (same stationary distribution)."""
        return cls(
            ctmc.embedded_dtmc(rate), state_labels=ctmc.state_labels
        )

    def to_ctmc(self, rate: float = 1.0) -> CTMC:
        """A CTMC whose uniformization (at ``rate``) is this DTMC: rate
        matrix ``rate * P`` (self-loops preserved in R)."""
        if rate <= 0:
            raise ModelError("rate must be positive")
        return CTMC(self._matrix * rate, state_labels=self.state_labels)

    def __repr__(self) -> str:
        return f"DTMC(states={self.num_states}, nnz={self._matrix.nnz})"


def lump_dtmc(
    dtmc: DTMC,
    kind: str = "ordinary",
    initial: Optional[Partition] = None,
    strategy: str = "all-but-largest",
) -> Tuple[Partition, DTMC]:
    """Optimal lumping of a DTMC (Buchholz 1994).

    Reuses the CTMC machinery: the key functions see only a non-negative
    matrix, and the lumped-matrix formulas coincide (``P(C_i, C_j)/|C_i|``
    for exact, representative row sums for ordinary).  The lumped matrix
    is again row-stochastic, which this function asserts.
    """
    from repro.lumping.state_level import lump_mrp
    from repro.markov.mrp import MarkovRewardProcess

    pseudo_ctmc = CTMC(dtmc.transition_matrix, state_labels=dtmc.state_labels)
    result = lump_mrp(
        MarkovRewardProcess(pseudo_ctmc),
        kind=kind,
        initial=initial,
        strategy=strategy,
    )
    lumped = DTMC(
        result.lumped.ctmc.rate_matrix,
        state_labels=result.lumped.ctmc.state_labels,
    )
    return result.partition, lumped
