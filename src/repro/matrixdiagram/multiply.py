"""Vector products with MD-represented matrices, without flattening.

This is what makes MDs useful for numerical solution: the iteration vector
is the only object of global size; the matrix stays symbolic.  The product
recurses over MD paths, accumulating the product of path coefficients, and
vectorizes over the terminal level where the real-valued blocks live.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np
from scipy import sparse

from repro.errors import MatrixDiagramError, SolverError
from repro.markov.transient import _start_vector, _uniformization_series
from repro.matrixdiagram.md import MatrixDiagram
from repro.util.numeric import JACOBI_RELAXATION


def _terminal_matrix(
    md: MatrixDiagram, index: int, cache: Dict[int, sparse.csr_matrix]
) -> sparse.csr_matrix:
    cached = cache.get(index)
    if cached is not None:
        return cached
    node = md.node(index)
    size = md.level_sizes[-1]
    rows, cols, data = [], [], []
    for r, c, value in node.entries():
        rows.append(r)
        cols.append(c)
        data.append(value)
    matrix = sparse.coo_matrix(
        (data, (rows, cols)), shape=(size, size)
    ).tocsr()
    cache[index] = matrix
    return matrix


def md_vector_multiply(
    md: MatrixDiagram,
    vector: np.ndarray,
    side: str = "left",
    terminal_cache: Optional[Dict[int, sparse.csr_matrix]] = None,
) -> np.ndarray:
    """``vector @ R`` (``side='left'``) or ``R @ vector`` (``side='right'``)
    where ``R`` is the matrix the MD represents over the potential space.

    The vector must have length ``md.potential_size()``.  Memory use is
    O(vector) plus the (small) terminal-block cache; the flat matrix is
    never materialized.
    """
    if side not in ("left", "right"):
        raise MatrixDiagramError(f"side must be 'left' or 'right', not {side!r}")
    x = np.asarray(vector, dtype=float)
    n = md.potential_size()
    if x.shape != (n,):
        raise MatrixDiagramError(
            f"vector has shape {x.shape}, expected ({n},)"
        )
    y = np.zeros(n)
    sizes = md.level_sizes
    strides = [math.prod(sizes[level:]) for level in range(len(sizes) + 1)]
    cache: Dict[int, sparse.csr_matrix] = (
        {} if terminal_cache is None else terminal_cache
    )
    terminal_size = sizes[-1]

    def recurse(index: int, row_offset: int, col_offset: int, scale: float) -> None:
        node = md.node(index)
        if node.terminal:
            block = _terminal_matrix(md, index, cache)
            if side == "left":
                segment = x[row_offset : row_offset + terminal_size]
                y[col_offset : col_offset + terminal_size] += scale * (
                    segment @ block
                )
            else:
                segment = x[col_offset : col_offset + terminal_size]
                y[row_offset : row_offset + terminal_size] += scale * (
                    block @ segment
                )
            return
        stride = strides[node.level]
        for r, c, formal_sum in node.entries():
            new_row = row_offset + r * stride
            new_col = col_offset + c * stride
            for child, coefficient in formal_sum.items():
                recurse(child, new_row, new_col, scale * coefficient)

    recurse(md.root_index, 0, 0, 1.0)
    return y


class MDOperator:
    """A reusable multiply context for one MD (caches terminal blocks).

    Also provides derived quantities iterative solvers need: row sums
    (exit rates when the MD represents ``R``) and a uniformized-step
    operator.
    """

    def __init__(self, md: MatrixDiagram) -> None:
        self.md = md
        self._terminal_cache: Dict[int, sparse.csr_matrix] = {}
        self._row_sums: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        """Dimension of the potential space."""
        return self.md.potential_size()

    def left(self, vector: np.ndarray) -> np.ndarray:
        """``vector @ R``."""
        return md_vector_multiply(
            self.md, vector, side="left", terminal_cache=self._terminal_cache
        )

    def right(self, vector: np.ndarray) -> np.ndarray:
        """``R @ vector``."""
        return md_vector_multiply(
            self.md, vector, side="right", terminal_cache=self._terminal_cache
        )

    def row_sums(self) -> np.ndarray:
        """``R(i, S)`` for every potential state ``i`` (cached)."""
        if self._row_sums is None:
            self._row_sums = self.right(np.ones(self.size))
        return self._row_sums

    def diagonal(self) -> np.ndarray:
        """``R(i, i)`` for every potential state, extracted symbolically.

        A global state lies on the diagonal iff every level's entry is
        diagonal, so the diagonal vector is assembled by recursing only
        through diagonal entries — cost proportional to the MD's diagonal
        support, not the potential space.
        """
        md = self.md
        sizes = md.level_sizes
        strides = [
            int(np.prod(sizes[level:])) for level in range(len(sizes) + 1)
        ]
        diagonal = np.zeros(self.size)

        def recurse(index: int, offset: int, scale: float) -> None:
            node = md.node(index)
            stride = strides[node.level]
            for r, c, entry in node.entries():
                if r != c:
                    continue
                position = offset + r * stride
                if node.terminal:
                    diagonal[position] += scale * entry
                else:
                    for child, coefficient in entry.items():
                        recurse(child, position, scale * coefficient)

        recurse(md.root_index, 0, 1.0)
        return diagonal

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
