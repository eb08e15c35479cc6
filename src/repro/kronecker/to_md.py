"""Conversion of Kronecker descriptors to matrix diagrams.

Every Kronecker term becomes a chain of MD nodes, and hash-consing inside
the MD builder shares equal suffixes (identity tails, repeated factors)
across terms.  A term's identity factors reach the builder as ``None``,
as the term stores them, so the builder makes each identity node once
per (level, child) instead of reading an identity matrix per term.  The
resulting MD represents exactly the descriptor's matrix (verified in
tests by flattening both).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.kronecker.descriptor import KroneckerDescriptor
from repro.matrixdiagram.build import md_from_kronecker_terms
from repro.matrixdiagram.md import MatrixDiagram


def descriptor_to_md(
    descriptor: KroneckerDescriptor,
    level_state_labels: Optional[Sequence[Sequence[object]]] = None,
) -> MatrixDiagram:
    """The MD of the descriptor's matrix, with component ``i`` at level
    ``i + 1``'s place (components map to levels in order)."""
    terms = [
        (
            term.weight,
            [
                term.factor_entries(component)
                for component in range(descriptor.num_components)
            ],
        )
        for term in descriptor.terms
    ]
    return md_from_kronecker_terms(
        terms, descriptor.component_sizes, level_state_labels=level_state_labels
    )
