"""Kronecker descriptors of structured rate matrices.

A :class:`KroneckerDescriptor` holds component sizes ``(n_1, .., n_L)`` and
terms ``lambda_e * W_1^e (x) .. (x) W_L^e``.  A term's factor may be
``None`` to denote the identity matrix — the common case for components an
event does not touch — which both saves memory and lets the shuffle
product skip whole components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import ModelError
from repro.matrixdiagram.build import MatrixLike, matrix_entries


@dataclass(frozen=True)
class KroneckerTerm:
    """One term ``weight * W_1 (x) .. (x) W_L``; ``factors[i] is None``
    denotes the identity on component ``i``."""

    weight: float
    factors: Tuple[Optional[Tuple[Tuple[int, int, float], ...]], ...]

    @staticmethod
    def build(
        weight: float,
        factors: Sequence[Optional[MatrixLike]],
    ) -> "KroneckerTerm":
        """Normalize matrix-like factors into entry tuples."""
        normalized: List[Optional[Tuple[Tuple[int, int, float], ...]]] = []
        for factor in factors:
            if factor is None:
                normalized.append(None)
            else:
                entries = matrix_entries(factor)
                normalized.append(
                    tuple(sorted((r, c, v) for (r, c), v in entries.items()))
                )
        return KroneckerTerm(float(weight), tuple(normalized))

    def factor_entries(self, component: int) -> Optional[Dict[Tuple[int, int], float]]:
        """Entries of the factor for ``component`` (``None`` = identity)."""
        factor = self.factors[component]
        if factor is None:
            return None
        return {(r, c): v for r, c, v in factor}


class KroneckerDescriptor:
    """``R = sum_e weight_e * W_1^e (x) .. (x) W_L^e`` over components of
    sizes ``component_sizes``."""

    def __init__(
        self,
        component_sizes: Sequence[int],
        terms: Sequence[KroneckerTerm] = (),
    ) -> None:
        if not component_sizes:
            raise ModelError("descriptor needs at least one component")
        if any(size < 1 for size in component_sizes):
            raise ModelError("component sizes must be positive")
        self._sizes = tuple(int(s) for s in component_sizes)
        self._terms: List[KroneckerTerm] = []
        for term in terms:
            self._check_term(term)
            self._terms.append(term)

    def _check_term(self, term: KroneckerTerm) -> None:
        if len(term.factors) != len(self._sizes):
            raise ModelError(
                f"term has {len(term.factors)} factors, "
                f"expected {len(self._sizes)}"
            )
        for component, factor in enumerate(term.factors):
            if factor is None:
                continue
            size = self._sizes[component]
            for r, c, _v in factor:
                if not (0 <= r < size and 0 <= c < size):
                    raise ModelError(
                        f"factor entry ({r},{c}) outside component "
                        f"{component} of size {size}"
                    )

    @property
    def component_sizes(self) -> Tuple[int, ...]:
        """Sizes ``(n_1, .., n_L)`` of the component state spaces."""
        return self._sizes

    @property
    def num_components(self) -> int:
        """Number of components ``L``."""
        return len(self._sizes)

    @property
    def terms(self) -> List[KroneckerTerm]:
        """The descriptor's terms (copy of the list; terms are immutable)."""
        return list(self._terms)

    @property
    def num_terms(self) -> int:
        """Number of Kronecker terms."""
        return len(self._terms)

    def add_term(
        self, weight: float, factors: Sequence[Optional[MatrixLike]]
    ) -> None:
        """Append a term; see :class:`KroneckerTerm`."""
        term = KroneckerTerm.build(weight, factors)
        self._check_term(term)
        self._terms.append(term)

    def potential_size(self) -> int:
        """Size of the product space ``n_1 * .. * n_L``."""
        return math.prod(self._sizes)

    def factor_matrix(
        self, term_index: int, component: int
    ) -> sparse.csr_matrix:
        """The factor of term ``term_index`` on ``component`` as a sparse
        matrix (identity if the stored factor is ``None``)."""
        size = self._sizes[component]
        factor = self._terms[term_index].factors[component]
        if factor is None:
            return sparse.eye(size, format="csr")
        rows = [r for r, _c, _v in factor]
        cols = [c for _r, c, _v in factor]
        data = [v for _r, _c, v in factor]
        return sparse.coo_matrix(
            (data, (rows, cols)), shape=(size, size)
        ).tocsr()

    def flat_matrix(self) -> sparse.csr_matrix:
        """The full matrix, materialized (for verification on small spaces)."""
        n = self.potential_size()
        total = sparse.csr_matrix((n, n))
        for term_index, term in enumerate(self._terms):
            product = sparse.csr_matrix(np.array([[term.weight]]))
            for component in range(self.num_components):
                product = sparse.kron(
                    product, self.factor_matrix(term_index, component), format="csr"
                )
            total = total + product
        total.eliminate_zeros()
        return sparse.csr_matrix(total)

    def __repr__(self) -> str:
        return (
            f"KroneckerDescriptor(sizes={self._sizes}, "
            f"terms={len(self._terms)})"
        )
