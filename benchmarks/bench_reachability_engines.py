"""Reachability engine comparison: explicit BFS vs symbolic saturation
(the technique the paper credits for 10^1000-state MDs).  Saturation is
the one MDD fixpoint; the ``mdd`` and ``saturation`` engines enumerate
its result and differ only in their engine label."""

from repro.statespace import (
    reachable_bfs,
    reachable_mdd,
    reachable_saturation,
)


def test_bfs(benchmark, small_tandem_bench):
    model = small_tandem_bench["event_model"]
    result = benchmark(reachable_bfs, model)
    assert result.num_states == small_tandem_bench["reach"].num_states


def test_mdd(benchmark, small_tandem_bench):
    model = small_tandem_bench["event_model"]
    result = benchmark(reachable_mdd, model)
    assert result.num_states == small_tandem_bench["reach"].num_states


def test_saturation(benchmark, small_tandem_bench):
    model = small_tandem_bench["event_model"]
    result = benchmark(reachable_saturation, model)
    assert result.num_states == small_tandem_bench["reach"].num_states


def test_all_engines_agree(small_tandem_bench):
    model = small_tandem_bench["event_model"]
    bfs = reachable_bfs(model).states
    assert reachable_mdd(model).states == bfs
    assert reachable_saturation(model).states == bfs
