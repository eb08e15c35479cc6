"""Vector products with MD-represented matrices, without flattening.

This is what makes MDs useful for numerical solution: the iteration vector
is the only object of global size; the matrix stays symbolic.

An MD over levels ``1..L`` is a sum of Kronecker products, one per
terminal node ``t``: ``R = sum_t A_t (x) B_t``, with ``B_t`` ``t``'s own
``|S_L| x |S_L|`` matrix and ``A_t`` a sparse matrix over the upper
levels' potential space ``S_1 x .. x S_{L-1}``.  :class:`MDOperator`
compiles the root's terms once with
:func:`repro.matrixdiagram.operations._kronecker_terms`, the function
:func:`~repro.matrixdiagram.operations.flatten` sums, so a product and a
flatten read an MD the same way.  On the 2-D view
``X = x.reshape(-1, |S_L|)`` a product is two sparse multiplies per
terminal node, ``x R = sum_t A_t^T (X B_t)`` and
``R x = sum_t A_t (X B_t^T)``: the last-axis reshape-and-multiply of
:func:`repro.kronecker.ops._apply_axis`.

Memory: ``sum_t nnz(A_t)`` is at most the number of upper-level paths
(one record per path before duplicates are summed), which is the number
of terminal blocks a path-by-path product would visit.  The old
path-by-path product is the test oracle, ``tests/md_multiply_oracle.py``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np
from scipy import sparse

from repro.errors import MatrixDiagramError, SolverError
from repro.markov.transient import _start_vector, _uniformization_series
from repro.matrixdiagram.md import MatrixDiagram
from repro.matrixdiagram.operations import Term, _kronecker_terms
from repro.util.numeric import JACOBI_RELAXATION


def md_vector_multiply(
    md: MatrixDiagram, vector: np.ndarray, side: str = "left"
) -> np.ndarray:
    """``vector @ R`` (``side='left'``) or ``R @ vector`` (``side='right'``)
    where ``R`` is the matrix the MD represents over the potential space.

    The vector must have length ``md.potential_size()``.  This builds an
    :class:`MDOperator` for one product; keep the operator to multiply
    more than once.  The flat matrix is never materialized.
    """
    if side not in ("left", "right"):
        raise MatrixDiagramError(f"side must be 'left' or 'right', not {side!r}")
    operator = MDOperator(md)
    return operator.left(vector) if side == "left" else operator.right(vector)


class MDOperator:
    """One MD compiled for repeated products: ``R = sum_t A_t (x) B_t``,
    one term per terminal node (see the module docstring).

    Also provides derived quantities iterative solvers need: row sums
    (exit rates when the MD represents ``R``), the diagonal and a
    uniformized-step operator.
    """

    def __init__(self, md: MatrixDiagram) -> None:
        self.md = md
        self._terms = _kronecker_terms(md, md.root_index)
        # ``x R`` multiplies by the transposed factors; ``.T`` of a CSR
        # matrix is a view, so both sides share one copy of the terms.
        self._transposed_terms = [(a.T, b.T) for a, b in self._terms]
        self._row_sums: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        """Dimension of the potential space."""
        return self.md.potential_size()

    def _product(self, vector: np.ndarray, terms: List[Term]) -> np.ndarray:
        """``sum_t a_t X b_t^T`` over ``terms``, on the 2-D view ``X``."""
        x = np.asarray(vector, dtype=float)
        if x.shape != (self.size,):
            raise MatrixDiagramError(
                f"vector has shape {x.shape}, expected ({self.size},)"
            )
        # Sparse-times-dense only: ``b @ X^T`` rather than ``X @ b^T``,
        # which scipy runs on transposed copies.  ``X^T`` is copied to C
        # order once here, not once per term inside scipy.
        columns = np.ascontiguousarray(
            x.reshape(-1, self.md.level_sizes[-1]).T
        )
        y = np.zeros(columns.shape[::-1])
        for a, b in terms:
            y += a @ (b @ columns).T
        return y.ravel()

    def left(self, vector: np.ndarray) -> np.ndarray:
        """``vector @ R``: ``sum_t A_t^T (X B_t)``."""
        return self._product(vector, self._transposed_terms)

    def right(self, vector: np.ndarray) -> np.ndarray:
        """``R @ vector``: ``sum_t A_t (X B_t^T)``."""
        return self._product(vector, self._terms)

    def _kron_sum(
        self, reduce: Callable[[sparse.csr_matrix], np.ndarray]
    ) -> np.ndarray:
        """``sum_t kron(reduce(A_t), reduce(B_t))``."""
        total = np.zeros(self.size)
        for a, b in self._terms:
            total += np.kron(reduce(a), reduce(b))
        return total

    def row_sums(self) -> np.ndarray:
        """``R(i, S)`` for every potential state ``i`` (cached):
        ``sum_t kron(A_t 1, B_t 1)``."""
        if self._row_sums is None:
            self._row_sums = self._kron_sum(
                lambda matrix: np.asarray(matrix.sum(axis=1)).ravel()
            )
        return self._row_sums

    def diagonal(self) -> np.ndarray:
        """``R(i, i)`` for every potential state: ``sum_t kron(diag A_t,
        diag B_t)``, since a global state is on the diagonal iff its
        upper-level prefix and its terminal substate both are."""
        return self._kron_sum(lambda matrix: matrix.diagonal())

    def steady_state_jacobi(
        self,
        initial: np.ndarray,
        tol: float = 1e-12,
        max_iterations: int = 500_000,
    ) -> np.ndarray:
        """Stationary distribution by damped Jacobi sweeps on ``pi Q = 0``
        using only MD products and the symbolic diagonal.

        With ``Q = R - diag(rowsums)``, the Jacobi split uses the diagonal
        ``d = diag(R) - rowsums`` and off-diagonal action
        ``pi O = pi R - pi * diag(R)``; the damping weight is
        :data:`repro.util.numeric.JACOBI_RELAXATION` (see
        :func:`repro.markov.solvers.steady_state_jacobi`).  Same support
        requirements as :meth:`steady_state_power`.
        """
        pi = _start_vector(initial, self.size)
        w = JACOBI_RELAXATION
        diag_r = self.diagonal()
        q_diagonal = diag_r - self.row_sums()
        # States with zero Q-diagonal have no outgoing behaviour; they can
        # never receive Jacobi mass (their inflow is zero when the initial
        # support lies in a closed class), so they are simply excluded.
        support = q_diagonal != 0
        if np.any(pi[~support] > 0):
            raise SolverError(
                "initial mass on a state with zero exit rate; Jacobi "
                "needs a non-singular diagonal on the support"
            )
        for _iteration in range(1, max_iterations + 1):
            off = self.left(pi) - pi * diag_r
            step = np.zeros_like(pi)
            step[support] = -off[support] / q_diagonal[support]
            total = step.sum()
            if total <= 0:
                raise SolverError("MD jacobi iteration collapsed to zero")
            new_pi = (1.0 - w) * pi + w * (step / total)
            np.clip(new_pi, 0.0, None, out=new_pi)
            new_pi /= new_pi.sum()
            delta = float(np.abs(new_pi - pi).max())
            pi = new_pi
            if delta < tol:
                return pi
        raise SolverError(
            f"MD jacobi did not converge in {max_iterations} iterations"
        )

    def transient(
        self,
        initial: np.ndarray,
        time: float,
        tol: float = 1e-12,
    ) -> np.ndarray:
        """Transient distribution at ``time`` by uniformization, using only
        MD-vector products — the matrix is never materialized.

        ``pi(t) = sum_k Poisson(k; lambda t) * pi(0) P^k`` with
        ``pi P = pi + (pi R - pi * rowsums) / lambda``.
        """
        pi = _start_vector(initial, self.size)
        row_sums = self.row_sums()
        lam = 1.01 * float(row_sums.max()) if row_sums.max() > 0 else 1.0

        def step(term: np.ndarray) -> np.ndarray:
            return term + (self.left(term) - term * row_sums) / lam

        return _uniformization_series(pi, time, lam, step, tol)

    def steady_state_power(
        self,
        initial: np.ndarray,
        tol: float = 1e-12,
        max_iterations: int = 500_000,
    ) -> np.ndarray:
        """Stationary distribution by power iteration using only MD
        products: ``pi <- pi + (pi R - pi * rowsums) / lambda``.

        ``initial`` must be a distribution supported on (a subset of) one
        closed communicating class of the potential space; iteration never
        moves mass out of the class's closure, so unreachable potential
        states simply stay at probability zero.
        """
        pi = _start_vector(initial, self.size)
        row_sums = self.row_sums()
        lam = 1.01 * float(row_sums.max()) if row_sums.max() > 0 else 1.0
        for _iteration in range(1, max_iterations + 1):
            flow = self.left(pi)
            new_pi = pi + (flow - pi * row_sums) / lam
            # Clip tiny negatives from roundoff, renormalize.
            np.clip(new_pi, 0.0, None, out=new_pi)
            new_pi /= new_pi.sum()
            delta = float(np.abs(new_pi - pi).max())
            pi = new_pi
            if delta < tol:
                return pi
        raise SolverError(
            f"MD power iteration did not converge in {max_iterations} iterations"
        )
