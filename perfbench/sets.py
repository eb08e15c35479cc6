"""Run sets of benchmark runs and report every metric by name and unit.

    python3 perfbench/sets.py                       # 3 reps
    python3 perfbench/sets.py --reps 10 --traced 2  # the steadiness check

Run from the root of a checkout.  One process at a time:

1. one discarded warm-up run per workload (``.pyc`` compilation and a
   cold page cache land on no measured run);
2. ``--reps`` untraced rounds, workloads interleaved round-robin so
   minute-scale host drift spreads over all of them, seed ``--seed + r``
   in round ``r``;
3. ``--traced`` traced rounds, all with seed ``--seed``, so every
   per-layer count must repeat exactly.

For each workload it prints the median, quartiles and quartile spread
(``(q3 - q1) / median``) of each end-to-end metric, the failed share,
the sweep's per-point percentiles, the drift probe, the per-layer
medians with the tracing overhead (traced ``wall_s`` median minus the
untraced one), and whether the counts repeated.  The exit code is 1
when any run failed an oracle or crashed, or a count did not repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

from perfbench import stats  # noqa: E402
from perfbench.run import WORKLOAD_NAMES  # noqa: E402

RUN_TIMEOUT = 600


def _run(
    workload: str, seed: int, seconds: float, trace: int, small: bool
) -> Dict[str, Any]:
    """One run of ``run.py``: its result line, details line and exit code."""
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--small"] if small else [])
    started = time.perf_counter()
    proc = subprocess.run(
        command,
        cwd=os.path.dirname(HERE),
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT,
    )
    elapsed = time.perf_counter() - started
    lines = proc.stdout.splitlines()
    details: Dict[str, Any] = {}
    result: Dict[str, Any] = {}
    for line in lines:
        if line.startswith("perfbench-run "):
            details = json.loads(line[len("perfbench-run "):])
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = {}
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "returncode": proc.returncode,
        "elapsed_s": elapsed,
        "result": result,
        "details": details,
    }


def _describe(values: Sequence[float], unit: str) -> str:
    median, q1, q3, share = stats.spread(values)
    return (
        f"median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  "
        f"spread {100 * share:.1f}%  (n={len(values)})"
    )


def _metric(run: Dict[str, Any], name: str) -> float:
    return float(run["result"]["metrics"][name]["value"])


def report(runs: List[Dict[str, Any]]) -> bool:
    """Print the summary; ``True`` when every run passed and every count
    repeated."""
    ok = True
    for workload in WORKLOAD_NAMES:
        mine = [r for r in runs if r["workload"] == workload]
        plain = [r for r in mine if r["trace"] == 0 and r["result"]]
        traced = [r for r in mine if r["trace"] == 1 and r["result"]]
        bad = [
            r for r in mine
            if r["returncode"] != 0 or not r["result"].get("correct")
        ]
        print(f"\n== {workload}")
        for run in bad:
            ok = False
            errors = run["details"].get("errors", [])
            print(
                f"  FAILED run seed={run['seed']} trace={run['trace']} "
                f"exit={run['returncode']}: {errors[:3]}"
            )
        attempted = sum(r["result"].get("attempted", 0) for r in plain)
        failed = sum(r["result"].get("failed", 0) for r in plain)
        if attempted:
            print(f"  failed_frac = {failed / attempted:.6g}  "
                  f"({failed}/{attempted} operations)")
        for name, unit in stats.END_TO_END.items():
            values = [_metric(r, name) for r in plain]
            if values:
                print(f"  {name:<12} {_describe(values, unit)}")
        for name in ("point_p50_s", "point_p90_s"):
            values = [
                r["details"][name] for r in plain
                if r["details"].get(name) is not None
            ]
            if values:
                samples = plain[0]["details"]["point_samples"]
                print(f"  {name:<12} {_describe(values, 's')}  "
                      f"[{samples} points per run]")
        raw = [
            statistics.median(r["details"]["raw_walls_s"])
            for r in plain if r["details"]
        ]
        if raw:
            print(f"  {'raw wall_s':<12} {_describe(raw, 's')}  [wall clock]")
        probes = [sum(r["details"]["probe_s"]) for r in plain if r["details"]]
        if probes:
            print(f"  {'probe_s':<12} {_describe(probes, 's')}  [diagnostic]")
        elapsed = [r["elapsed_s"] for r in mine]
        print(f"  {'run time':<12} {_describe(elapsed, 's')}  "
              "[whole run, set-up and checks included]")
        if not traced:
            continue
        print("  per-layer (traced):")
        for name, unit in stats.PER_LAYER.items():
            values = [_metric(r, name) for r in traced]
            if not any(values):
                continue
            repeat = ""
            if name in stats.COUNTS:
                if len(set(values)) > 1:
                    ok = False
                    repeat = f"  COUNT DID NOT REPEAT: {values}"
                else:
                    repeat = "  (repeats)"
            print(f"    {name:<28} {statistics.median(values):.6g} {unit}"
                  f"{repeat}")
        if plain:
            overhead = statistics.median(
                _metric(r, "trace.wall_s") for r in traced
            ) - statistics.median(_metric(r, "wall_s") for r in plain)
            print(f"  tracing overhead: {overhead:+.4f} s per operation "
                  "(traced wall_s median - untraced)")
    return ok


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--traced", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--small", action="store_true",
                        help="small parameters (for the benchmark's tests)")
    parser.add_argument("--json", help="also write every run to this file")
    args = parser.parse_args(argv)

    for workload in WORKLOAD_NAMES:
        _run(workload, 0, 1, 0, args.small)
    runs = []
    for rep in range(args.reps):
        for workload in WORKLOAD_NAMES:
            runs.append(
                _run(workload, args.seed + rep, args.seconds, 0, args.small)
            )
    for _ in range(args.traced):
        for workload in WORKLOAD_NAMES:
            runs.append(_run(workload, args.seed, args.seconds, 1, args.small))
    if runs and runs[0]["details"]:
        print("host: " + json.dumps(runs[0]["details"]["fingerprint"]))
    ok = report(runs)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    print("\nall oracles held" if ok else "\nFAILED: see above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
