"""Command-line Table-1 regeneration.

Usage::

    python -m repro.bench --jobs 1,2 [--cube-dim 3] [--kind ordinary]
                          [--engine bfs|mdd] [--output table1.txt]

Prints the paper's three-part Table 1 for the requested J values.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.table1 import render_table1, run_table1_row
from repro.models import TandemParams


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's Table 1 for the tandem system.",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        help="comma-separated J values (default: 1; the paper uses 1,2,3)",
    )
    parser.add_argument(
        "--cube-dim",
        type=int,
        default=3,
        help="hypercube dimension (default 3 = 8 servers, as in the paper)",
    )
    parser.add_argument(
        "--msmq-servers", type=int, default=3, help="MSMQ servers (default 3)"
    )
    parser.add_argument(
        "--msmq-queues", type=int, default=4, help="MSMQ queues (default 4)"
    )
    parser.add_argument(
        "--kind",
        choices=["ordinary", "exact"],
        default="ordinary",
        help="lumpability kind (default ordinary, as in the paper)",
    )
    parser.add_argument(
        "--engine",
        choices=["bfs", "mdd"],
        default="bfs",
        help="reachability engine (default bfs)",
    )
    parser.add_argument(
        "--symbolic",
        action="store_true",
        help="use the fully symbolic pipeline (MDD saturation + level "
        "mapping; never enumerates states — required for J >= 3 at the "
        "paper's configuration)",
    )
    parser.add_argument(
        "--robust",
        action="store_true",
        help="use the resilient pipeline (engine + solver fallback chains, "
        "graceful lumping degradation) and print a run report per J; "
        "combine with REPRO_FAULTS / --time-budget to exercise degraded "
        "paths",
    )
    parser.add_argument(
        "--supervised",
        action="store_true",
        help="run each robust J in a watchdog-supervised child process "
        "with automatic restart from checkpoint on crash/hang/OOM and "
        "progressive degradation (implies --robust)",
    )
    parser.add_argument(
        "--max-restarts",
        type=int,
        help="supervised: restarts before the crash-loop breaker trips "
        "(default 4)",
    )
    parser.add_argument(
        "--mem-limit",
        type=int,
        metavar="BYTES",
        help="supervised: hard RLIMIT_AS for each child process",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        metavar="SECONDS",
        help="supervised: heartbeat staleness before the watchdog "
        "declares the child hung and kills it (default 30)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        help="wall-clock budget in seconds for each robust J run",
    )
    parser.add_argument(
        "--iteration-budget",
        type=int,
        help="iteration budget for each robust J run (deterministic, so "
        "useful for exercising checkpoint/resume in CI)",
    )
    parser.add_argument(
        "--checkpoint-dir",
        help="directory for crash-safe checkpoints of each robust J run "
        "(requires --robust); a budget-stopped or killed run can then be "
        "continued with --resume",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume from the snapshots in --checkpoint-dir instead of "
        "starting fresh (corrupt or stale snapshots fall back to a fresh "
        "start, recorded in the run report)",
    )
    parser.add_argument(
        "--output", help="also write the rendered table to this file"
    )
    args = parser.parse_args(argv)
    if args.supervised:
        args.robust = True
    elif (
        args.max_restarts is not None
        or args.mem_limit is not None
        or args.heartbeat_timeout is not None
    ):
        parser.error(
            "--max-restarts/--mem-limit/--heartbeat-timeout require "
            "--supervised"
        )
    if args.max_restarts is not None and args.max_restarts < 0:
        parser.error("--max-restarts must be >= 0")
    if args.mem_limit is not None and args.mem_limit <= 0:
        parser.error("--mem-limit must be positive")
    if args.heartbeat_timeout is not None and args.heartbeat_timeout <= 0:
        parser.error("--heartbeat-timeout must be positive")
    if args.symbolic and args.robust:
        parser.error(
            "--symbolic cannot be combined with --robust or --supervised "
            "(the robust pipeline generates the state space explicitly)"
        )
    if args.checkpoint_dir and not args.robust:
        parser.error("--checkpoint-dir requires --robust")
    if args.resume and not args.checkpoint_dir:
        parser.error("--resume requires --checkpoint-dir")
    if (
        args.iteration_budget is not None or args.time_budget is not None
    ) and not args.robust:
        parser.error("--time-budget/--iteration-budget require --robust")

    rows = []
    reports = []
    for jobs in (int(x) for x in args.jobs.split(",")):
        params = TandemParams(
            jobs=jobs,
            cube_dim=args.cube_dim,
            msmq_servers=args.msmq_servers,
            msmq_queues=args.msmq_queues,
        )
        print(f"running J={jobs} ...", file=sys.stderr, flush=True)
        if args.robust:
            from repro.bench.table1 import run_table1_row_robust
            from repro.robust.budgets import Budget, BudgetExceeded
            from repro.robust.supervisor import CrashLoopError

            if args.time_budget is not None and args.time_budget <= 0:
                parser.error("--time-budget must be positive")
            if args.iteration_budget is not None and args.iteration_budget <= 0:
                parser.error("--iteration-budget must be positive")
            budget = None
            if args.time_budget is not None or args.iteration_budget is not None:
                budget = Budget(
                    wall_clock_seconds=args.time_budget,
                    max_iterations=args.iteration_budget,
                )
            engines = (
                ("mdd", "bfs") if args.engine == "mdd" else ("bfs", "mdd")
            )
            supervisor_config = None
            if args.supervised:
                from repro.robust.retry import RetryPolicy
                from repro.robust.supervisor import SupervisorConfig

                policy_kwargs = {}
                if args.max_restarts is not None:
                    policy_kwargs["max_restarts"] = args.max_restarts
                config_kwargs = {}
                if args.mem_limit is not None:
                    config_kwargs["mem_limit_bytes"] = args.mem_limit
                if args.heartbeat_timeout is not None:
                    config_kwargs["heartbeat_timeout_seconds"] = (
                        args.heartbeat_timeout
                    )
                supervisor_config = SupervisorConfig(
                    policy=RetryPolicy(**policy_kwargs), **config_kwargs
                )
            try:
                run = run_table1_row_robust(
                    jobs, params, engines=engines, kind=args.kind,
                    budget=budget,
                    checkpoint_dir=args.checkpoint_dir,
                    resume=args.resume,
                    supervised=args.supervised,
                    supervisor=supervisor_config,
                )
            except CrashLoopError as exc:
                # The circuit breaker tripped: emit the structured
                # diagnosis (machine-readable, one JSON object) plus the
                # merged per-attempt history, then fail loudly.
                print(f"J={jobs}: crash loop: {exc}", file=sys.stderr)
                print(
                    json.dumps(exc.diagnosis, indent=2), file=sys.stderr
                )
                print(f"J={jobs} {exc.report.render()}", file=sys.stderr)
                return 3
            except BudgetExceeded as exc:
                print(f"J={jobs}: budget exhausted: {exc}", file=sys.stderr)
                if args.checkpoint_dir:
                    print(
                        f"J={jobs}: progress checkpointed in "
                        f"{args.checkpoint_dir!r}; re-run with --resume "
                        "(and a larger budget) to continue",
                        file=sys.stderr,
                    )
                return 2
            rows.append(run.row)
            reports.append((jobs, run.report))
        elif args.symbolic:
            from repro.bench.table1 import run_table1_row_symbolic

            rows.append(
                run_table1_row_symbolic(jobs, params, kind=args.kind)
            )
        else:
            rows.append(
                run_table1_row(
                    jobs, params, reach_engine=args.engine, kind=args.kind
                )
            )
    rendered = render_table1(rows)
    for jobs, run_report in reports:
        rendered += f"\n\nJ={jobs} {run_report.render()}"
    print(rendered)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
