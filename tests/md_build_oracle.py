"""The MD build that ``md_from_kronecker_terms`` replaced.

``md_from_kronecker_terms`` below builds one chain of nodes per Kronecker
term and one ``FormalSum`` per entry of every chain, and relies on the
builder's hash-consing to throw the repeats away.  ``descriptor_to_md``
writes every level a term leaves untouched out as an identity dict first.
``EventModel.to_md`` used to run both on ``kronecker_descriptor()``.  The
library now builds each identity node once per (level, child) and each
(child, coefficient) formal sum once per call, straight from the event
tables; ``tests/test_md_build.py`` holds its MDs to these, node index for
node index and bit for bit.
"""

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import MatrixDiagramError
from repro.kronecker.descriptor import KroneckerDescriptor
from repro.matrixdiagram.build import MDBuilder, MatrixLike, matrix_entries
from repro.matrixdiagram.formal_sum import FormalSum
from repro.matrixdiagram.md import MatrixDiagram


def md_from_kronecker_terms(
    terms: Iterable[Tuple[float, Sequence[MatrixLike]]],
    level_sizes: Sequence[int],
    level_state_labels: Optional[Sequence[Sequence[object]]] = None,
) -> MatrixDiagram:
    """The MD of ``R = sum_e lambda_e * W_1^e (x) W_2^e (x) .. (x) W_L^e``.

    Each term contributes a chain of nodes (one per level below the root);
    the root combines all terms in its formal sums.  Hash-consing shares
    equal suffixes across terms — e.g. all terms whose lower levels are
    identity matrices share a single identity chain, which is where the MD's
    compactness comes from.
    """
    level_sizes = tuple(int(s) for s in level_sizes)
    num_levels = len(level_sizes)
    if num_levels == 0:
        raise MatrixDiagramError("need at least one level")
    builder = MDBuilder(level_sizes, level_state_labels)
    term_list: List[Tuple[float, List[Dict[Tuple[int, int], float]]]] = []
    for weight, matrices in terms:
        matrices = list(matrices)
        if len(matrices) != num_levels:
            raise MatrixDiagramError(
                f"term has {len(matrices)} level matrices, expected {num_levels}"
            )
        term_list.append(
            (float(weight), [matrix_entries(m) for m in matrices])
        )
    if not term_list:
        raise MatrixDiagramError("need at least one Kronecker term")

    root_entries: Dict[Tuple[int, int], FormalSum] = {}
    if num_levels == 1:
        flat: Dict[Tuple[int, int], float] = {}
        for weight, (entries,) in term_list:
            for rc, value in entries.items():
                flat[rc] = flat.get(rc, 0.0) + weight * value
        root = builder.add_node(1, flat)
        return builder.finish(root)

    for weight, matrices in term_list:
        # Build the chain bottom-up: terminal node first.
        child = builder.add_node(num_levels, matrices[-1])
        for level in range(num_levels - 1, 1, -1):
            entries = {
                rc: FormalSum.of(child, value)
                for rc, value in matrices[level - 1].items()
            }
            child = builder.add_node(level, entries)
        for rc, value in matrices[0].items():
            term_sum = FormalSum.of(child, weight * value)
            existing = root_entries.get(rc)
            root_entries[rc] = term_sum if existing is None else existing + term_sum
    root = builder.add_node(1, root_entries)
    return builder.finish(root)


def descriptor_to_md(
    descriptor: KroneckerDescriptor,
    level_state_labels: Optional[Sequence[Sequence[object]]] = None,
) -> MatrixDiagram:
    """The MD of the descriptor's matrix, with component ``i`` at level
    ``i + 1``'s place (components map to levels in order)."""
    sizes = descriptor.component_sizes
    terms = []
    for term in descriptor.terms:
        matrices = []
        for component in range(descriptor.num_components):
            entries = term.factor_entries(component)
            if entries is None:
                entries = {
                    (s, s): 1.0 for s in range(sizes[component])
                }
            matrices.append(entries)
        terms.append((term.weight, matrices))
    return md_from_kronecker_terms(
        terms, sizes, level_state_labels=level_state_labels
    )


def event_model_to_md(model) -> MatrixDiagram:
    """``EventModel.to_md`` as it was: the descriptor, then the MD."""
    return descriptor_to_md(
        model.kronecker_descriptor(),
        level_state_labels=[level.labels for level in model.levels],
    )
