"""Differential tests for the compiled MD product.

The oracle is the path-by-path product ``MDOperator`` replaced
(``tests/md_multiply_oracle.py``): it recursed over every MD path and
made one scipy call per terminal node it reached.  The operator now
multiplies by ``sum_t A_t (x) B_t``, one Kronecker term per terminal
node.  The two sum the same products in a different order, so they must
agree to ``1e-12 * (1 + max|oracle|)`` on ``left``, ``right``,
``row_sums`` and ``diagonal`` for:

* the three-level MDs of ``test_lumping_keys.py``, with cancelling
  coefficients, empty terminal nodes and partial supports;
* 1-, 2- and 4-level MDs from ``md_from_kronecker_terms``, where
  identity factors share suffixes across terms.

``flatten_node`` sums the same terms, ``kron(A_t, B_t)`` from the node
down, where the oracle's recursion resolved formal sums bottom-up.  On
the random MDs every node's flatten must agree to
``1e-14 * (1 + max|oracle|)``; on every model builder, as built and
lumped both ways, every node's CSR arrays must be byte-identical.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.lumping import MDModel, compositional_lump
from repro.matrixdiagram import MDOperator, flatten_node, md_from_kronecker_terms
from repro.statespace import reachable_bfs
from tests import md_multiply_oracle as oracle
from tests.test_lumping_keys import COEFFICIENTS, three_level_mds
from tests.test_reachability_codes import BUILDERS

DIFFERENTIAL = settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def kronecker_mds(draw, num_levels):
    """An MD of one to three weighted Kronecker terms over ``num_levels``
    levels of 1-4 substates; each factor is the identity, or random with
    a drawn density (possibly all zero)."""
    sizes = [draw(st.integers(1, 4)) for _ in range(num_levels)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = []
        for size in sizes:
            if draw(st.booleans()):
                factors.append(np.eye(size))
            else:
                density = draw(st.sampled_from((0.0, 0.3, 1.0)))
                mask = rng.random((size, size)) < density
                factors.append(rng.standard_normal((size, size)) * mask)
        terms.append((draw(st.sampled_from(COEFFICIENTS)), factors))
    return md_from_kronecker_terms(terms, sizes)


def assert_matches_oracle(md, seed):
    x = np.random.default_rng(seed).standard_normal(md.potential_size())
    operator = MDOperator(md)
    pairs = {
        "left": (operator.left(x), oracle.md_vector_multiply(md, x, "left")),
        "right": (
            operator.right(x), oracle.md_vector_multiply(md, x, "right")
        ),
        "row_sums": (operator.row_sums(), oracle.row_sums(md)),
        "diagonal": (operator.diagonal(), oracle.diagonal(md)),
    }
    for name, (new, old) in pairs.items():
        bound = 1e-12 * (1.0 + np.abs(old).max(initial=0.0))
        error = np.abs(new - old).max(initial=0.0)
        assert error <= bound, f"{name}: {error:.3e} > {bound:.3e}"


@DIFFERENTIAL
@given(md=three_level_mds(), seed=st.integers(0, 2**32 - 1))
def test_three_level_mds_match_oracle(md, seed):
    assert_matches_oracle(md, seed)


@pytest.mark.parametrize("num_levels", [1, 2, 4])
@DIFFERENTIAL
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_kronecker_mds_match_oracle(num_levels, data, seed):
    assert_matches_oracle(data.draw(kronecker_mds(num_levels)), seed)


def node_flattens(md):
    """``(index, new, oracle)`` flattens of every node of ``md``."""
    cache = {}
    for index in md.node_indices():
        yield index, flatten_node(md, index), oracle.flatten_node(
            md, index, cache
        )


def assert_flattens_match_oracle(md):
    for index, new, old in node_flattens(md):
        assert new.shape == old.shape, index
        bound = 1e-14 * (1.0 + np.abs(old.data).max(initial=0.0))
        error = np.abs((new - old).data).max(initial=0.0)
        assert error <= bound, f"node {index}: {error:.3e} > {bound:.3e}"


@DIFFERENTIAL
@given(md=three_level_mds())
def test_three_level_flattens_match_oracle(md):
    assert_flattens_match_oracle(md)


@pytest.mark.parametrize("num_levels", [1, 2, 4])
@DIFFERENTIAL
@given(data=st.data())
def test_kronecker_flattens_match_oracle(num_levels, data):
    assert_flattens_match_oracle(data.draw(kronecker_mds(num_levels)))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builder_flattens_are_byte_identical(name):
    event_model = BUILDERS[name]()
    model = MDModel(
        event_model.to_md(),
        reachable=reachable_bfs(event_model).potential_indices(),
    )
    for md in (
        model.md,
        compositional_lump(model, "ordinary").lumped.md,
        compositional_lump(model, "exact").lumped.md,
    ):
        for index, new, old in node_flattens(md):
            assert new.shape == old.shape, index
            for part in ("indptr", "indices", "data"):
                got, want = getattr(new, part), getattr(old, part)
                assert got.tobytes() == want.tobytes(), (index, part)
                assert got.dtype == want.dtype, (index, part)
