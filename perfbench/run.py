"""Run one benchmark workload and print its result.

    python3 perfbench/run.py --workload table1-j1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The process re-executes itself once with the run hygiene in its
environment (single-threaded BLAS and OpenMP, fixed hash seed).  Then it

1. times the drift probe (``host.DriftProbe``, a diagnostic);
2. times set-up ``SETUP_REPEATS`` times: a fresh interpreter importing
   the workloads, then the workload's input build (``setup_s`` is the
   median of the repeats);
3. runs the workload once at small parameters, untimed, so lazy imports
   and first-call caches land on no measured operation;
4. runs timed operations back to back, one at a time, until the next
   one would end more than ``--seconds`` after the first began (at
   least one), checking each result after its clock stops.  The
   process's peak resident memory is reset before each operation and
   read after it, so ``peak_rss_mb`` covers the timed operations (and
   the inputs they hold) but not the probe, the warm-up or the checks.

Every time is read on a :class:`~perfbench.clock.SpeedClock`, which
scales the program's time to a reference speed of the host as it goes
(see ``clock.py``); the raw wall times are kept in the details.

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones, from spans recorded by the benchmark.
The last line of standard output is the JSON result; the line before
it, prefixed ``perfbench-run``, carries the details (raw and scaled
per-operation times, the probe, the fingerprint, errors, and the
sweep's per-point percentiles).  The exit code is 0 only when every
oracle held.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("table1-j1", "table1-j2-symbolic", "sweep-200", "md-transient")
HYGIENE = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_REPEATS = 3


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small",
        action="store_true",
        help="small parameters, same code paths (for the benchmark's tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _ensure_hygiene(argv: Sequence[str]) -> None:
    """Re-execute this script with the hygiene variables set.  BLAS reads
    its thread count when numpy loads and the hash seed is fixed at
    interpreter start, so neither can be set later in-process."""
    if all(os.environ.get(k) == v for k, v in HYGIENE.items()):
        return
    os.environ.update(HYGIENE)
    script = os.path.abspath(__file__)
    os.execv(sys.executable, [sys.executable, script, *argv])


def _layer_metrics(
    names: Dict[str, str], ops: List[Dict[str, Any]], samples: List[float],
    wall_s: float, probe_s: float,
) -> Dict[str, float]:
    """Per-layer values of a traced run.  ``ops`` holds, per operation,
    its span totals, product durations and outcome."""
    from perfbench import stats

    values: Dict[str, float] = {}
    for name in names:
        if name.endswith("_s"):
            span = name[:-2]
            values[name] = statistics.median(
                op["totals"].get(span, (0.0, 0))[0] for op in ops
            )
        else:
            values[name] = ops[0]["outcome"].counts.get(name, 0)
    # Metrics that are not a per-operation span sum or outcome count.
    products = [d for op in ops for d in op["products"]]
    values["matrixdiagram.product_s"] = stats.percentile(products, 0.5) or 0.0
    values["matrixdiagram.products"] = len(ops[0]["products"])
    values["sweep.point_p50_s"] = stats.percentile(samples, 0.5) or 0.0
    values["sweep.point_p90_s"] = stats.percentile(samples, 0.9) or 0.0
    values["trace.wall_s"] = wall_s
    values["host.probe_s"] = probe_s
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"perfbench: no program sources at {os.path.join(ROOT, 'src')}",
            file=sys.stderr,
        )
        return 2
    _ensure_hygiene(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    from perfbench import host, stats, workloads
    from perfbench.clock import SpeedClock
    from perfbench.trace import Tracer

    workload = workloads.WORKLOADS[args.workload](ROOT)
    fingerprint = host.fingerprint(ROOT)
    probe = host.DriftProbe()()
    clock = SpeedClock()

    setups = []
    for _ in range(SETUP_REPEATS):
        imported = host.import_seconds(ROOT, os.environ)
        clock.start()
        inputs = workload.inputs(args.seed, args.small)
        setups.append(imported + clock.stop())
    setup_s = statistics.median(setups)

    warm = workload.prepare(workload.inputs(args.seed, small=True))
    clock.start()
    result = workload.run(warm, Tracer(enabled=False), clock)
    clock.stop()
    workload.finish(warm, result)
    del warm, result

    tracer = Tracer(enabled=bool(args.trace), now=clock.now)
    for owner, attr, span in workloads.LAYER_PATCHES:
        tracer.patch(owner, attr, span)
    walls: List[float] = []
    raws: List[float] = []
    ops: List[Dict[str, Any]] = []
    errors: List[str] = []
    peaks: List[float] = []
    started = time.perf_counter()
    last = 0.0  # seconds the last operation took, checks included
    try:
        while not walls or time.perf_counter() - started + last <= args.seconds:
            op_started = time.perf_counter()
            # The previous operation's garbage must not count towards
            # this one's memory or time.
            gc.collect()
            state = workload.prepare(inputs)
            mark = len(tracer.spans)
            host.reset_peak_rss()
            tracer.active = True
            clock.start()
            error = None
            try:
                result = workload.run(state, tracer, clock)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            walls.append(clock.stop())
            raws.append(clock.raw)
            tracer.active = False
            peaks.append(host.peak_rss_mb())
            if error is None:
                outcome = workload.finish(state, result)
            else:
                outcome = workloads.OpOutcome(
                    attempted=1, failed=1, errors=[error]
                )
            ops.append({
                "totals": tracer.totals(mark),
                "products": tracer.durations("matrixdiagram.product", mark),
                "outcome": outcome,
            })
            state = result = outcome = None
            last = time.perf_counter() - op_started
    finally:
        tracer.restore()
    peak_rss_mb = max(peaks)

    outcomes = [op["outcome"] for op in ops]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    errors += [e for o in outcomes for e in o.errors]
    for outcome in outcomes[1:]:
        if outcome.counts != outcomes[0].counts:
            errors.append(
                f"counts differ between operations: {outcome.counts} "
                f"!= {outcomes[0].counts}"
            )
            failed = min(attempted, failed + 1)
    samples = [s for o in outcomes for s in o.samples]
    wall_s = statistics.median(walls)

    if args.trace:
        values = _layer_metrics(
            stats.PER_LAYER, ops, samples, wall_s, sum(probe)
        )
        units = stats.PER_LAYER
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = stats.END_TO_END
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "small": args.small,
        "operations": len(walls),
        "walls_s": walls,
        "raw_walls_s": raws,
        "setups_s": setups,
        "probe_s": probe,
        "fingerprint": fingerprint,
        "failed_frac": failed / attempted,
        "point_samples": len(samples),
        "point_p50_s": stats.percentile(samples, 0.5),
        "point_p90_s": stats.percentile(samples, 0.9),
        "errors": errors,
    }
    print("perfbench-run " + json.dumps(details))
    print(
        json.dumps(
            {
                "correct": failed == 0 and not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if failed == 0 and not errors else 1


if __name__ == "__main__":
    sys.exit(main())
