"""MD-represented Markov reward processes with decomposable rewards.

Section 3 of the paper requires the reward vector and the initial
probability distribution to be *decomposable* over levels:

* ``r(s) = g(f_1(s_1), .., f_L(s_L))``,
* ``pi_ini(s) = g_pi(f_pi,1(s_1), .., f_pi,L(s_L))``.

:class:`MDModel` stores the per-level vectors ``f_i`` and ``f_pi,i``
explicitly, with the combiner ``g`` restricted to the two forms that both
cover the practical cases and commute with per-level lumping:

* ``"sum"``: ``r(s) = sum_i f_i(s_i)`` — typical rate rewards (e.g. the
  total number of jobs is the sum of per-level job counts),
* ``"product"``: ``r(s) = prod_i f_i(s_i)`` — typical indicators (e.g.
  "subsystem available AND pool non-empty").

``g_pi`` is always a product, which covers point-mass initial states
(products of indicator vectors, the paper's own worked example of
``f_pi``) and independent per-level distributions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ModelError
from repro.markov.ctmc import CTMC
from repro.markov.mrp import MarkovRewardProcess
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.operations import flatten


class MDModel:
    """An MRP whose CTMC is represented by a matrix diagram.

    Parameters
    ----------
    md:
        The matrix diagram of the rate matrix ``R`` over the potential
        product space.
    level_rewards:
        Per-level reward vectors ``f_i`` (defaults to all zeros).
    level_initial:
        Per-level initial-distribution factors ``f_pi,i`` (defaults to
        uniform).  The global initial distribution is their product,
        normalized over the given state space.
    reward_combiner:
        ``"sum"`` or ``"product"``; see module docstring.
    reachable:
        Optional sorted list of reachable potential-space indices; when
        set, global vectors and flat MRPs are restricted to it.
    """

    def __init__(
        self,
        md: MatrixDiagram,
        level_rewards: Optional[Sequence[Sequence[float]]] = None,
        level_initial: Optional[Sequence[Sequence[float]]] = None,
        reward_combiner: str = "sum",
        reachable: Optional[Sequence[int]] = None,
    ) -> None:
        if reward_combiner not in ("sum", "product"):
            raise ModelError(
                f"reward_combiner must be 'sum' or 'product', "
                f"not {reward_combiner!r}"
            )
        self.md = md
        self.reward_combiner = reward_combiner
        sizes = md.level_sizes
        if level_rewards is None:
            self.level_rewards = [np.zeros(size) for size in sizes]
        else:
            self.level_rewards = [
                np.asarray(vector, dtype=float).copy()
                for vector in level_rewards
            ]
        if level_initial is None:
            self.level_initial = [np.ones(size) for size in sizes]
        else:
            self.level_initial = [
                np.asarray(vector, dtype=float).copy()
                for vector in level_initial
            ]
        for name, vectors in (
            ("level_rewards", self.level_rewards),
            ("level_initial", self.level_initial),
        ):
            if len(vectors) != md.num_levels:
                raise ModelError(f"{name} must have one vector per level")
            for level, vector in enumerate(vectors, start=1):
                if vector.shape != (md.level_size(level),):
                    raise ModelError(
                        f"{name}[{level - 1}] has shape {vector.shape}, "
                        f"expected ({md.level_size(level)},)"
                    )
        if any(np.any(v < 0) for v in self.level_initial):
            raise ModelError("initial factors must be non-negative")
        self.reachable = (
            sorted(int(i) for i in reachable) if reachable is not None else None
        )
        if self.reachable is not None:
            n = md.potential_size()
            if self.reachable and (
                self.reachable[0] < 0 or self.reachable[-1] >= n
            ):
                raise ModelError("reachable indices outside potential space")
            repeated = np.flatnonzero(np.diff(self.reachable) == 0)
            if repeated.size:
                index = self.reachable[repeated[0]]
                raise ModelError(f"reachable index {index} is listed twice")

    # ------------------------------------------------------------------
    # global vectors
    # ------------------------------------------------------------------

    def _combine(self, vectors: List[np.ndarray], combiner: str) -> np.ndarray:
        result = vectors[0]
        for vector in vectors[1:]:
            if combiner == "sum":
                result = np.add.outer(result, vector)
            else:
                result = np.multiply.outer(result, vector)
        return result.reshape(-1)

    def global_rewards(self) -> np.ndarray:
        """The reward vector ``r`` over the potential space (or the
        reachable subspace if one is set)."""
        full = self._combine(self.level_rewards, self.reward_combiner)
        if self.reachable is None:
            return full
        return full[self.reachable]

    def global_initial(self, normalize: bool = True) -> np.ndarray:
        """The initial distribution over the potential space (or reachable
        subspace), optionally normalized to sum 1."""
        full = self._combine(self.level_initial, "product")
        if self.reachable is not None:
            full = full[self.reachable]
        if normalize:
            total = full.sum()
            if total <= 0:
                raise ModelError(
                    "initial factors give zero total mass on the state space"
                )
            full = full / total
        return full

    # ------------------------------------------------------------------
    # materialization
    # ------------------------------------------------------------------

    def potential_size(self) -> int:
        """Size of the potential product space."""
        return self.md.potential_size()

    def num_states(self) -> int:
        """Number of states of the (restricted) chain."""
        if self.reachable is None:
            return self.potential_size()
        return len(self.reachable)

    def flat_ctmc(self, max_states: int = 5_000_000) -> CTMC:
        """The flat CTMC (restricted to reachable states when set).

        Only valid for spaces small enough to materialize; intended for
        verification and for the flat-baseline comparisons.  Raises
        :class:`ModelError` beyond ``max_states`` potential states instead
        of exhausting memory — use :class:`repro.matrixdiagram.MDOperator`
        for solver iterations at that scale.
        """
        if self.potential_size() > max_states:
            raise ModelError(
                f"potential space has {self.potential_size()} states "
                f"(> {max_states}); flattening would exhaust memory — "
                f"use MDOperator for iteration at this scale"
            )
        matrix = flatten(self.md)
        if self.reachable is not None:
            matrix = matrix[self.reachable, :][:, self.reachable]
        return CTMC(matrix)

    def flat_mrp(self) -> MarkovRewardProcess:
        """The flat MRP with combined rewards and initial distribution."""
        return MarkovRewardProcess(
            self.flat_ctmc(),
            rewards=self.global_rewards(),
            initial_distribution=self.global_initial(),
        )

    def state_tuple(self, potential_index: int):
        """Decode a potential-space index into per-level substates."""
        digits = []
        for size in reversed(self.md.level_sizes):
            digits.append(potential_index % size)
            potential_index //= size
        return tuple(reversed(digits))

    def __repr__(self) -> str:
        restriction = (
            f", reachable={len(self.reachable)}"
            if self.reachable is not None
            else ""
        )
        return (
            f"MDModel(levels={self.md.num_levels}, "
            f"potential={self.potential_size()}{restriction})"
        )
