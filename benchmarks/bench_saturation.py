"""Saturation at paper scale: the Table 1 tandems at J=2 and J=3.

``symbolic_reachability`` saturates on array MDD nodes
(``repro.statespace.mdd``).  The J=2 and J=3 reachable sets are pinned to
the state counts, reachable projections and interned node counts that
the dict manager it replaced (``tests/mdd_oracle.py``) gave, and the J=2
symbolic row's lumped count, which ``SymbolicStateSpace.mapped_count``
takes through the per-level partitions, to Table 1's 22,600.  The timing
is of ``symbolic_reachability`` alone at J=2.
"""

import pytest

from repro.bench.table1 import run_table1_row_symbolic
from repro.models import TandemParams, build_tandem
from repro.statespace.reachability import symbolic_reachability

#: jobs -> (reachable states, reachable projection sizes, nodes interned).
PINS = {
    2: (2_457_600, (6, 11520, 2112), 175),
    3: (15_040_512, (10, 42240, 6144), 289),
}


@pytest.mark.parametrize("jobs", sorted(PINS))
def test_paper_scale_saturation_matches_pins(jobs):
    symbolic = symbolic_reachability(
        build_tandem(TandemParams(jobs=jobs)).event_model
    )
    states, sizes, nodes = PINS[jobs]
    assert symbolic.num_states == states
    assert symbolic.level_sizes() == sizes
    assert symbolic.manager.num_nodes == nodes


def test_paper_scale_lumped_count_j2():
    assert run_table1_row_symbolic(2).lumped_overall == 22_600


def test_symbolic_reachability_j2(benchmark):
    model = build_tandem(TandemParams(jobs=2)).event_model
    symbolic = benchmark(symbolic_reachability, model)
    assert symbolic.num_states == PINS[2][0]
