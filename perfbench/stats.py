"""Metric names, units and the summary statistics the benchmark reports.

Two rules live here so that every report follows them:

* a percentile is reported only when at least ``MIN_BEYOND`` samples lie
  beyond it (a p90 of 24 samples rests on two or three points and moves
  with the scheduler, not with the program);
* metric names and units follow the patterns ``BENCHMARK.json`` allows.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, Optional, Sequence, Tuple

MIN_BEYOND = 10

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_PATTERN = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

#: End-to-end metrics every untraced run reports, name -> unit.
END_TO_END: Dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics every traced run reports, name -> unit.  A layer a
#: workload does not exercise reads 0.  Each ``<span>_s`` time is the
#: summed time of the calls recorded under span ``<span>`` in one
#: operation, median over the run's operations, except
#: ``matrixdiagram.product_s`` (median time per product).
PER_LAYER: Dict[str, str] = {
    "san.compile_s": "s",
    "statespace.bfs_s": "s",
    "statespace.encode_s": "s",
    "statespace.saturate_s": "s",
    "statespace.lumped_count_s": "s",
    "statespace.project_s": "s",
    "statespace.states": "count",
    "matrixdiagram.build_s": "s",
    "matrixdiagram.md_bytes": "B",
    "matrixdiagram.flatten_s": "s",
    "matrixdiagram.product_s": "s",
    "matrixdiagram.products": "count",
    "lumping.lump_s": "s",
    "lumping.lumped_states": "count",
    "lumping.lumped_md_bytes": "B",
    "sweep.plan_s": "s",
    "sweep.reuse_s": "s",
    "sweep.reuse_hits": "count",
    "sweep.point_p50_s": "s",
    "sweep.point_p90_s": "s",
    "markov.solve_s": "s",
    "markov.solve_iterations": "count",
    "certify.certify_s": "s",
    "service.submit_s": "s",
    "service.store_s": "s",
    "service.cache_s": "s",
    "service.cache_hits": "count",
    "trace.wall_s": "s",
    "host.probe_s": "s",
}

#: Per-layer metrics that are counts: they must repeat exactly between
#: runs of the same workload and seed.
COUNTS = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "B")
)


def percentile(samples: Sequence[float], q: float) -> Optional[float]:
    """The nearest-rank ``q``-quantile of ``samples`` (``0 < q < 1``), or
    ``None`` when fewer than ``MIN_BEYOND`` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"quantile must lie in (0, 1), not {q}")
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)`` of run-level values, with
    the quartiles as :func:`statistics.quantiles` gives them."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / median if median else 0.0
    return median, q1, q3, share
