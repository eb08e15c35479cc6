"""MD-based vector products vs flat sparse products.

The MD's raison d'etre (Section 1): iteration vectors, not the matrix,
bound the solvable model size.  This bench compares the symbolic product
against the flat sparse product and against the path-by-path product it
replaced (``tests/md_multiply_oracle.py``), checks the paper-scale
flatten against the recursive flatten it replaced, and reports the memory
gap.
"""

import hashlib

import numpy as np

from repro.lumping import compositional_lump
from repro.matrixdiagram import MDOperator, flatten, md_stats
from tests import md_multiply_oracle


def test_md_product(benchmark, small_tandem_bench):
    md = small_tandem_bench["model"].md
    op = MDOperator(md)
    x = np.random.default_rng(0).random(md.potential_size())
    benchmark(op.left, x)


def test_oracle_product(benchmark, small_tandem_bench):
    """The path-by-path product on ``test_md_product``'s MD and vector."""
    md = small_tandem_bench["model"].md
    x = np.random.default_rng(0).random(md.potential_size())
    benchmark(md_multiply_oracle.md_vector_multiply, md, x)


def test_flat_product(benchmark, small_tandem_bench):
    md = small_tandem_bench["model"].md
    flat = flatten(md)
    x = np.random.default_rng(0).random(md.potential_size())
    benchmark(lambda: x @ flat)


def test_products_agree(small_tandem_bench):
    md = small_tandem_bench["model"].md
    op = MDOperator(md)
    flat = flatten(md)
    x = np.random.default_rng(1).random(md.potential_size())
    assert np.abs(op.left(x) - x @ flat).max() < 1e-9


def test_paper_scale_products_agree(paper_tandem_j1):
    """On the unlumped paper-scale J=1 MD (3,538,944 potential states)
    both products equal the path-by-path oracle to 1e-12 relative."""
    md = paper_tandem_j1["model"].md
    op = MDOperator(md)
    x = np.random.default_rng(2).random(md.potential_size())
    for side in ("left", "right"):
        expected = md_multiply_oracle.md_vector_multiply(md, x, side)
        error = np.abs(getattr(op, side)(x) - expected).max()
        assert error <= 1e-12 * np.abs(expected).max(), (side, error)


def _csr_digest(matrix) -> str:
    digest = hashlib.sha256()
    for part in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(part.tobytes())
    return digest.hexdigest()


def test_paper_scale_flatten_matches_oracle(paper_tandem_j1):
    """On the paper-scale J=1 MD (41,779,200 nonzeros) and on its ordinary
    lumping, ``flatten`` gives the recursive oracle's CSR arrays byte for
    byte.  Each side is hashed and freed before the other is built: the
    oracle alone peaks at about 2.1 GB."""
    model = paper_tandem_j1["model"]
    for md in (model.md, compositional_lump(model, "ordinary").lumped.md):
        expected = _csr_digest(md_multiply_oracle.flatten_node(md, md.root_index))
        assert _csr_digest(flatten(md)) == expected


def test_memory_gap(small_tandem_bench):
    """The MD stores the matrix in far fewer bytes than CSR."""
    md = small_tandem_bench["model"].md
    flat = flatten(md)
    flat_bytes = flat.data.nbytes + flat.indices.nbytes + flat.indptr.nbytes
    md_bytes = md_stats(md).memory_bytes
    print(f"\nMD: {md_bytes} B, flat CSR: {flat_bytes} B "
          f"({flat_bytes / md_bytes:.1f}x larger)")
    assert md_bytes * 2 < flat_bytes


def test_md_steady_state_power():
    """Steady state computed purely with MD products matches the flat
    solver on the reachable class.

    Uses a fast-mixing tandem variant: the default failure rate of 1e-3
    makes the chain stiff, and power iteration would need millions of
    sweeps to reach a tight tolerance.
    """
    from repro.lumping import compositional_lump  # noqa: F401 (import cost excluded)
    from repro.markov import steady_state
    from repro.models import TandemParams, build_tandem, tandem_md_model
    from repro.models.tandem import projected_event_model
    from repro.statespace import reachable_bfs

    params = TandemParams(
        jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2,
        failure_rate=0.5, repair_rate=2.0,
    )
    compiled = build_tandem(params)
    reach = reachable_bfs(compiled.event_model)
    event_model = projected_event_model(compiled, reach)
    reach = reachable_bfs(event_model)
    model = tandem_md_model(event_model, params, reachable=reach)

    md = model.md
    op = MDOperator(md)
    n = md.potential_size()
    reachable = model.reachable
    initial = np.zeros(n)
    initial[reachable] = 1.0 / len(reachable)
    pi = op.steady_state_power(initial, tol=1e-11)
    flat_pi = steady_state(model.flat_ctmc()).distribution
    assert np.abs(pi[reachable] - flat_pi).max() < 1e-6
