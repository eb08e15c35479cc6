"""Check that the speed clock tracks the program, not its memory use.

    python3 perfbench/clockcheck.py             # about 3 minutes

Run from the root of a checkout.  The program is ``md-transient``'s
timed operation over a quarter of its horizon (25 MD-vector
products).  Known work is added after every product, once compute-bound
(a pure-Python integer loop) and once memory-bound (passes over a 64 MB
array, which flush the caches the tick kernel uses), each about as long
as the program.  The added work is also timed alone, the same number of
times.  Rounds interleave all five variants; medians over the rounds
are printed, clocked and raw.

Two readings say whether the clock tracks the program:

* ``rate``: the clock's rate (clocked over raw seconds) during a
  variant, over its rate during the plain program in the same round.
  If the program's memory traffic slowed the tick kernel, the clock
  would run slow during the memory-bound variant: its rate ratio would
  fall below 1, and a change that adds memory traffic would have part
  of its cost discounted.
* ``growth/added``: how much a variant's time grows over the plain
  program's, as a share of its added work's own time; clocked and raw.
  Memory-bound work also slows the program's own products by evicting
  their data, so its raw share exceeds 1; the clocked share should
  match the raw one.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from typing import Callable, Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import numpy as np  # noqa: E402

from perfbench.clock import SpeedClock  # noqa: E402
from perfbench.workloads import MDTransient  # noqa: E402
from repro.matrixdiagram import MDOperator  # noqa: E402

COMPUTE_LOOP = 1_200_000
MEMORY_BYTES = 64 * 2**20
MEMORY_PASSES = 18


def _timed(clock: SpeedClock, work: Callable[[], object]) -> tuple:
    begun = time.perf_counter()
    clock.start()
    work()
    return clock.stop(), time.perf_counter() - begun


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=16)
    args = parser.parse_args()

    workload = MDTransient(ROOT)
    workload.HORIZON /= 4
    state = workload.inputs(seed=1, small=False)
    buffer = np.ones(MEMORY_BYTES // 8)

    def compute() -> None:
        acc = 0
        for i in range(COMPUTE_LOOP):
            acc = (acc * 31 + i) % 1_000_003

    def memory() -> None:
        for _ in range(MEMORY_PASSES):
            np.add(buffer, 1.0, out=buffer)

    original = MDOperator.left
    products = [0]

    def counted(self: MDOperator, x: np.ndarray) -> np.ndarray:
        products[0] += 1
        return original(self, x)

    MDOperator.left = counted
    workload.run(state, None, None)
    MDOperator.left = original
    count = products[0]

    def with_extra(extra: Callable[[], None]) -> Callable[[], object]:
        def left(self: MDOperator, x: np.ndarray) -> np.ndarray:
            y = original(self, x)
            extra()
            return y

        def run() -> object:
            MDOperator.left = left
            try:
                return workload.run(state, None, None)
            finally:
                MDOperator.left = original

        return run

    def alone(extra: Callable[[], None]) -> Callable[[], object]:
        def run() -> None:
            for _ in range(count):
                extra()

        return run

    variants = {
        "program": lambda: workload.run(state, None, None),
        "program + compute": with_extra(compute),
        "program + memory": with_extra(memory),
        "compute alone": alone(compute),
        "memory alone": alone(memory),
    }
    clock = SpeedClock()
    clocked: Dict[str, List[float]] = {name: [] for name in variants}
    raw: Dict[str, List[float]] = {name: [] for name in variants}
    for _ in range(args.rounds):
        for name, work in variants.items():
            seconds, wall = _timed(clock, work)
            clocked[name].append(seconds)
            raw[name].append(wall)

    def med(table: Dict[str, List[float]], name: str) -> float:
        return statistics.median(table[name])

    print(f"{count} products, {args.rounds} rounds; medians:")
    print(f"  {'variant':<18} {'clocked':>9} {'raw':>9}  rate vs program")
    for name in variants:
        rates = [
            (c / r) / (cp / rp) for c, r, cp, rp in zip(
                clocked[name], raw[name], clocked["program"], raw["program"]
            )
        ]
        print(f"  {name:<18} {med(clocked, name):8.3f}s {med(raw, name):8.3f}s"
              f"  {statistics.median(rates):.3f}")
    for kind in ("compute", "memory"):
        for label, table in (("clocked", clocked), ("raw", raw)):
            growth = [
                with_ - base for with_, base in
                zip(table[f"program + {kind}"], table["program"])
            ]
            added = med(table, f"{kind} alone")
            print(f"  {kind:<8} {label:<8} growth {statistics.median(growth):.3f} s"
                  f"  added {added:.3f} s"
                  f"  growth/added {statistics.median(growth) / added:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
