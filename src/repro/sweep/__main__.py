"""Command-line front end of the sweep engine.

Usage::

    python -m repro.sweep run    --store DIR (--spec FILE | --demo NAME)
                                 [--site auto | --site name=node[,node...]]
                                 [--grid name=start:stop:count | name=f,...]
                                 [--kind K --method M --iterate --key K]
                                 [--no-certify] [--resume]
                                 [--frontier DIR] [--table FILE.json]
                                 [--queue-limit N]
    python -m repro.sweep status --store DIR [--frontier DIR] [--verbose]
    python -m repro.sweep sites  (--spec FILE | --demo NAME)

``run`` drives every point of the sweep to a terminal outcome (``done``
or ``failed``) and prints the per-point table; a killed run continues
with ``--resume`` and replays nothing the frontier already recorded.

Exit codes: 0 every point done; 1 usage/plan error; 5 submission shed
by admission control; 7 the sweep completed but some points are
terminally ``failed`` (their condemning certificates are in the table).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError, SweepError
from repro.robust.checkpoint import atomic_write_text
from repro.robust.report import RunReport
from repro.service.spec import SOLVE_CHOICES, SpecError, spec_from_args
from repro.sweep.engine import SweepEngine, default_frontier_dir
from repro.sweep.frontier import POINT_DONE, SweepFrontier
from repro.sweep.spec import (
    auto_sites,
    normalize_sweep_spec,
    parse_grid_arg,
    parse_site_arg,
    sweep_digest,
    sweep_points,
)

EXIT_SHED = 5
EXIT_POINTS_FAILED = 7


def _build_sweep_spec(args: argparse.Namespace) -> dict:
    base = spec_from_args(args)
    sites: Dict[str, List[int]] = {}
    site_args = args.site or ["auto"]
    for raw in site_args:
        if raw == "auto":
            from repro.service.spec import model_from_spec

            sites.update(auto_sites(model_from_spec(base).md))
        else:
            name, nodes = parse_site_arg(raw)
            sites[name] = nodes
    grid: Dict[str, List[float]] = {}
    for raw in args.grid or []:
        name, factors = parse_grid_arg(raw)
        grid[name] = factors
    if not grid:
        # A useful default: five factors around 1x on every site.
        grid = {name: [0.5, 0.75, 1.0, 1.5, 2.0] for name in sites}
    return normalize_sweep_spec(
        {"base": base, "sites": sites, "grid": grid}
    )


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _build_sweep_spec(args)
    try:
        engine_kwargs = {}
        if args.lease_seconds is not None:
            engine_kwargs["lease_seconds"] = args.lease_seconds
        engine = SweepEngine(
            spec,
            args.store,
            frontier_dir=args.frontier,
            resume=args.resume,
            report=RunReport(),
            queue_limit=args.queue_limit,
            **engine_kwargs,
        )
        result = engine.run()
    except SweepError as exc:
        if "shed" in str(exc):
            print(f"shed: {exc}", file=sys.stderr)
            return EXIT_SHED
        raise
    table = result.table()
    if args.table:
        atomic_write_text(
            args.table, json.dumps(table, indent=2) + "\n"
        )
    stats = result.stats
    print(
        f"sweep {result.sweep_digest[:12]}: {stats.points} point(s), "
        f"{stats.done} done, {stats.failed} failed "
        f"({stats.replayed} replayed, {stats.cache_hits} cache hits, "
        f"{stats.reuse_hits} partition reuses, {stats.relumps} relumps, "
        f"{stats.warm_started} warm starts, "
        f"{stats.fallback_to_cold} cold fallbacks)"
    )
    for outcome in result.outcomes:
        if outcome.status != POINT_DONE:
            print(
                f"  {outcome.point_id} failed: {outcome.error}",
                file=sys.stderr,
            )
    return 0 if stats.failed == 0 else EXIT_POINTS_FAILED


def _cmd_status(args: argparse.Namespace) -> int:
    spec = _build_sweep_spec(args)
    digest = sweep_digest(spec)
    points = sweep_points(spec)
    frontier_dir = args.frontier or default_frontier_dir(
        args.store, digest
    )
    if not os.path.exists(os.path.join(frontier_dir, "MANIFEST.json")):
        print(
            f"sweep {digest[:12]}: {len(points)} point(s), not started "
            f"(no frontier at {frontier_dir})"
        )
        return 0
    frontier = SweepFrontier(
        frontier_dir, digest, len(points), resume=True
    )
    outcomes = frontier.outcomes()
    done = sum(
        1 for o in outcomes.values() if o.get("status") == POINT_DONE
    )
    failed = len(outcomes) - done
    pending = len(points) - len(outcomes)
    print(
        f"sweep {digest[:12]}: {len(points)} point(s), "
        f"{done} done, {failed} failed, {pending} pending"
    )
    if args.verbose:
        for point in points:
            record = outcomes.get(point.point_id)
            if record is None:
                line = f"  {point.point_id} pending"
            else:
                line = f"  {point.point_id} {record.get('status')}"
                if record.get("error"):
                    line += f" error={record['error']!r}"
            line += f" factors={point.factor_map()}"
            print(line)
    return 0


def _cmd_sites(args: argparse.Namespace) -> int:
    from repro.service.spec import model_from_spec

    base = spec_from_args(args)
    md = model_from_spec(base).md
    for level in range(1, md.num_levels + 1):
        nodes = sorted(md.nodes_at(level))
        print(f"level {level} (size {md.level_size(level)}): nodes {nodes}")
    try:
        print(f"auto pick: {auto_sites(md)}")
    except SweepError as exc:
        print(f"auto pick: none ({exc})")
    return 0


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--spec", help="base job spec JSON file (see repro.service.spec)"
    )
    source.add_argument(
        "--demo",
        help="built-in demo model: redundant:U,S or tandem:J,C,S,Q",
    )


def _add_plan_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--site",
        action="append",
        metavar="NAME=NODE[,NODE...]|auto",
        help="rate site (repeatable); 'auto' picks one deterministically",
    )
    parser.add_argument(
        "--grid",
        action="append",
        metavar="NAME=START:STOP:COUNT|NAME=F1,F2,...",
        help="factor grid per site (repeatable); default 0.5..2.0 x5",
    )
    parser.add_argument("--kind", choices=SOLVE_CHOICES["kind"])
    parser.add_argument("--method", choices=SOLVE_CHOICES["method"])
    parser.add_argument("--key", choices=SOLVE_CHOICES["key"])
    parser.add_argument("--iterate", action="store_true")
    parser.add_argument(
        "--no-certify",
        action="store_true",
        help="skip per-point certification (on by default)",
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sweep",
        description="Crash-resumable parameter sweeps over MD models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run (or resume) a sweep")
    p_run.add_argument("--store", required=True)
    _add_model_args(p_run)
    _add_plan_args(p_run)
    p_run.add_argument(
        "--frontier",
        help="frontier directory (default: <store>/sweep/<digest>)",
    )
    p_run.add_argument(
        "--resume",
        action="store_true",
        help="continue an interrupted sweep (replays nothing recorded)",
    )
    p_run.add_argument(
        "--table", metavar="FILE.json", help="write the outcome table here"
    )
    p_run.add_argument(
        "--queue-limit",
        type=int,
        metavar="N",
        help="admission bound for point submissions (exit 5 when shed)",
    )
    p_run.add_argument(
        "--lease-seconds",
        type=float,
        default=None,
        metavar="S",
        help="per-point job lease (a resume waits at most this long to "
        "reclaim the killed driver's in-flight point)",
    )

    p_status = sub.add_parser(
        "status", help="summarize a sweep's frontier"
    )
    p_status.add_argument("--store", required=True)
    _add_model_args(p_status)
    _add_plan_args(p_status)
    p_status.add_argument("--frontier")
    p_status.add_argument(
        "--verbose", action="store_true", help="one line per point"
    )

    p_sites = sub.add_parser(
        "sites", help="list a model's MD nodes per level"
    )
    _add_model_args(p_sites)

    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "status": _cmd_status,
        "sites": _cmd_sites,
    }
    try:
        return handlers[args.command](args)
    except (SweepError, SpecError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
