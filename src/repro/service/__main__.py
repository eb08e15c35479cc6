"""Command-line front end of the analysis service.

Usage::

    python -m repro.service submit     --store DIR (--spec FILE | --demo NAME)
                                       [--kind K --method M --iterate --key K]
                                       [--queue-limit N]
    python -m repro.service status     --store DIR [JOB ...]
    python -m repro.service result     --store DIR JOB [--output FILE]
                                       [--certificate]
    python -m repro.service run-workers --store DIR [--workers N]
                                       [--lease-seconds S --max-attempts A]
                                       [--heartbeat-timeout S] [--no-drain]
                                       [--max-restarts R]
    python -m repro.service gc         --store DIR [--keep-seconds S]
                                       [--prune-cache]

Exit codes: 0 ok; 1 usage/internal error; 5 submission shed by admission
control; 6 requested job is not ``done`` (still queued/running, failed,
or dead — ``status`` shows which, and for dead jobs the diagnosis).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Optional, Sequence, Tuple

from repro.robust.checkpoint import atomic_write_text
from repro.robust.retry import RetryPolicy
from repro.service.cache import ResultCache
from repro.service.dispatcher import Dispatcher, DispatcherConfig
from repro.service.spec import SpecError, spec_from_args, spec_summary
from repro.service.store import DEAD, DONE, STATES, JobStore, StoreError

EXIT_SHED = 5
EXIT_NOT_DONE = 6


def _open(store_root: str) -> Tuple[JobStore, ResultCache]:
    store = JobStore(store_root)
    cache = ResultCache(os.path.join(store_root, "cache"))
    return store, cache


def _cmd_submit(args: argparse.Namespace) -> int:
    store, cache = _open(args.store)
    spec = spec_from_args(args)
    outcome = store.submit(
        spec, queue_limit=args.queue_limit, cache=cache
    )
    if outcome.shed:
        print(
            f"shed: queue limit {args.queue_limit} reached; "
            "retry later or raise --queue-limit",
            file=sys.stderr,
        )
        return EXIT_SHED
    line = f"{outcome.job_id} {outcome.state}"
    if outcome.coalesced_with:
        line += f" (coalesced with {outcome.coalesced_with})"
    if outcome.cache_hit:
        line += " (cache hit)"
    print(line)
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    store, _cache = _open(args.store)
    job_ids = args.jobs or store.list_jobs()
    if not job_ids:
        print("no jobs")
        return 0
    if not args.jobs and not args.verbose:
        # Compact default: a parameter sweep leaves hundreds of jobs
        # behind, and a scan printing one line each buries the signal.
        # Summarize by state; per-job lines are one --verbose (or an
        # explicit job id) away.
        counts: Dict[str, int] = {}
        unreadable = 0
        for job_id in job_ids:
            try:
                state = store.view(job_id).state or "submitted"
            except StoreError:
                unreadable += 1
                continue
            counts[state] = counts.get(state, 0) + 1
        parts = [
            f"{state}={counts[state]}"
            for state in (*STATES, "submitted")
            if counts.get(state)
        ]
        line = f"{len(job_ids)} job(s): {' '.join(parts)}"
        if unreadable:
            line += f" unreadable={unreadable}"
        print(line)
        return 0
    code = 0
    for job_id in job_ids:
        try:
            view = store.view(job_id)
            summary = spec_summary(store.load_spec(job_id)["spec"])
        except StoreError as exc:
            # Unknown id, an orphan directory whose spec never landed,
            # or a corrupt spec: one clean line, never a traceback.  An
            # explicitly requested job that is unreadable fails the
            # command; a scan just skips past it.
            print(f"{job_id} unreadable: {exc}", file=sys.stderr)
            if args.jobs:
                code = 1
            continue
        last = view.last or {}
        detail = last.get("detail") or {}
        extra = ""
        if view.state == DONE:
            extra = f" source={detail.get('source')}"
        elif detail.get("error"):
            extra = f" error={detail['error']!r}"
        print(
            f"{job_id} {view.state or 'submitted'} "
            f"attempt={view.attempt}{extra} [{summary}]"
        )
        if view.state == DEAD and args.verbose:
            print(json.dumps(detail.get("diagnosis", {}), indent=2))
    return code


def _cmd_result(args: argparse.Namespace) -> int:
    store, cache = _open(args.store)
    try:
        view = store.view(args.job)
    except StoreError as exc:
        print(f"error: {args.job} unreadable: {exc}", file=sys.stderr)
        return 1
    if view.state != DONE:
        last = view.last or {}
        detail = last.get("detail") or {}
        print(
            f"{args.job} is {view.state or 'submitted'}, not done",
            file=sys.stderr,
        )
        if view.state == DEAD:
            print(
                json.dumps(detail.get("diagnosis", {}), indent=2),
                file=sys.stderr,
            )
        elif detail.get("error"):
            print(f"error: {detail['error']}", file=sys.stderr)
        if args.certificate and detail.get("certificate") is not None:
            # A failed/dead job carries the certificate that condemned
            # it: print it as the diagnosis the exit code points at.
            print(
                json.dumps(detail["certificate"], indent=2),
                file=sys.stderr,
            )
        return EXIT_NOT_DONE
    entry = cache.get(view.spec_digest)
    if entry is None:
        print(
            f"{args.job} is done but its cache entry is missing or "
            "corrupt; re-submit to recompute",
            file=sys.stderr,
        )
        return EXIT_NOT_DONE
    payload = {
        "job": args.job,
        "spec_digest": view.spec_digest,
        "result_digest": entry["digest"],
        "source": (view.last.get("detail") or {}).get("source"),
        "result": entry["result"],
    }
    if args.certificate:
        payload["certificate"] = entry.get("certificate")
    text = json.dumps(payload, indent=2)
    if args.output:
        atomic_write_text(args.output, text + "\n")
    else:
        print(text)
    return 0


def _cmd_run_workers(args: argparse.Namespace) -> int:
    store, cache = _open(args.store)
    policy_kwargs = {"backoff_initial_seconds": 0.1}
    if args.max_restarts is not None:
        policy_kwargs["max_restarts"] = args.max_restarts
    config = DispatcherConfig(
        workers=args.workers,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        policy=RetryPolicy(**policy_kwargs),
        heartbeat_timeout_seconds=args.heartbeat_timeout,
        drain=not args.no_drain,
    )
    dispatcher = Dispatcher(store, cache, config=config)
    stats = dispatcher.run()
    print(
        f"workers: {stats.worker_starts} started, "
        f"{stats.worker_deaths} died, "
        f"{stats.worker_retirements} retired; "
        f"recover: {stats.recover_requeued} requeued, "
        f"{stats.recover_buried} dead-lettered",
        file=sys.stderr,
    )
    if dispatcher.report.pool_events or dispatcher.report.notes:
        print(dispatcher.report.render(), file=sys.stderr)
    return 0


def _cmd_gc(args: argparse.Namespace) -> int:
    store, cache = _open(args.store)
    removed = store.gc(keep_seconds=args.keep_seconds)
    pruned = 0
    if args.prune_cache:
        # Drop cache entries no remaining job references.
        live = set()
        for job_id in store.list_jobs():
            live.add(store.view(job_id).spec_digest)
        for dirpath, _dirnames, filenames in os.walk(cache.root):
            for name in filenames:
                digest = name.rsplit(".json", 1)[0]
                if digest not in live and cache.evict(digest):
                    pruned += 1
    print(
        f"removed {len(removed)} job(s)"
        + (f", pruned {pruned} cache entr(ies)" if args.prune_cache else "")
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Durable fault-tolerant analysis service.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="queue one analysis job")
    p_submit.add_argument("--store", required=True)
    source = p_submit.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--spec", help="job spec JSON file (see repro.service.spec)"
    )
    source.add_argument(
        "--demo",
        help="built-in demo model: redundant:U,S or tandem:J,C,S,Q",
    )
    p_submit.add_argument("--kind", choices=["ordinary", "exact"])
    p_submit.add_argument(
        "--method", choices=["direct", "gauss-seidel", "jacobi", "power"]
    )
    p_submit.add_argument("--key")
    p_submit.add_argument("--iterate", action="store_true")
    p_submit.add_argument(
        "--no-certify",
        action="store_true",
        help="skip result certification (certificates are on by default)",
    )
    p_submit.add_argument(
        "--queue-limit",
        type=int,
        metavar="N",
        help="admission bound: shed (exit 5) when N jobs are active",
    )

    p_status = sub.add_parser("status", help="list job states")
    p_status.add_argument("--store", required=True)
    p_status.add_argument("jobs", nargs="*")
    p_status.add_argument(
        "--verbose",
        action="store_true",
        help="one line per job plus dead-letter diagnoses (the default "
        "for a store-wide scan is a one-line count by state)",
    )

    p_result = sub.add_parser("result", help="fetch a finished result")
    p_result.add_argument("--store", required=True)
    p_result.add_argument("job")
    p_result.add_argument("--output", help="write JSON here (atomic)")
    p_result.add_argument(
        "--certificate",
        action="store_true",
        help="include the stored numerical certificate in the payload "
        "(for failed jobs, print the condemning certificate to stderr)",
    )

    p_run = sub.add_parser(
        "run-workers", help="run the dispatcher + worker pool"
    )
    p_run.add_argument("--store", required=True)
    p_run.add_argument("--workers", type=int, default=2)
    p_run.add_argument("--lease-seconds", type=float, default=30.0)
    p_run.add_argument("--max-attempts", type=int, default=4)
    p_run.add_argument("--max-restarts", type=int, default=None)
    p_run.add_argument("--heartbeat-timeout", type=float, default=30.0)
    p_run.add_argument(
        "--no-drain",
        action="store_true",
        help="keep serving after the queue empties (stop with SIGTERM; "
        "the shutdown is drain-and-stop either way)",
    )

    p_gc = sub.add_parser("gc", help="remove old terminal jobs")
    p_gc.add_argument("--store", required=True)
    p_gc.add_argument(
        "--keep-seconds",
        type=float,
        default=0.0,
        help="keep terminal jobs younger than this (default: remove all)",
    )
    p_gc.add_argument(
        "--prune-cache",
        action="store_true",
        help="also drop cache entries no remaining job references",
    )

    args = parser.parse_args(argv)
    handlers = {
        "submit": _cmd_submit,
        "status": _cmd_status,
        "result": _cmd_result,
        "run-workers": _cmd_run_workers,
        "gc": _cmd_gc,
    }
    try:
        return handlers[args.command](args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout went away (| head); not our error.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
