"""Ablation: formal-sum key vs concrete-matrix key (Section 4's trade-off).

The paper rejects the "first obvious" key — comparing represented matrices
of size up to |S3| x |S3| — as prohibitively expensive, and uses the
formal-sum signature instead.  This bench quantifies that choice on level
3 of the small bench tandem (J=2, 4-server hypercube, 2x2 MSMQ) and
checks the formal key loses nothing there.  On the paper-scale J=1 tandem
it times the formal key alone (level 2, 2304 substates): the matrix key
would flatten the whole level-3 space for every key there.
"""

from repro.lumping import comp_lumping_level
from repro.partitions import Partition


def _level_partition(md, level, key):
    return comp_lumping_level(
        md, level, Partition.trivial(md.level_size(level)), key=key
    )


def test_formal_key_benchmark(benchmark, small_tandem_bench):
    md = small_tandem_bench["model"].md
    partition = benchmark(_level_partition, md, 3, "formal")
    assert len(partition) < md.level_size(3)


def test_matrix_key_benchmark(benchmark, small_tandem_bench):
    md = small_tandem_bench["model"].md
    partition = benchmark(_level_partition, md, 3, "matrix")
    assert len(partition) < md.level_size(3)


def test_formal_key_is_not_coarser_here(small_tandem_bench):
    """On the tandem the sufficient (formal) condition finds the same
    partition as the necessary-and-sufficient (matrix) condition."""
    md = small_tandem_bench["model"].md
    for level in (2, 3):
        formal = _level_partition(md, level, "formal")
        concrete = _level_partition(md, level, "matrix")
        assert formal == concrete


def test_paper_scale_formal_key(benchmark, paper_tandem_j1):
    """The formal key on the 8-server hypercube level (2304 substates)."""
    md = paper_tandem_j1["model"].md
    partition = benchmark(_level_partition, md, 2, "formal")
    assert len(partition) < md.level_size(2) / 4
