"""The sweep engine: one crash-safe job per rate point, failure-isolated.

``run_sweep`` drives every point of a sweep spec through the durable
analysis service: each point becomes a service job (batch-submitted, so
identical points coalesce and cache hits complete instantly), the
engine claims and solves them in deterministic plan order, publishes
certified results to the content cache, and records each terminal
outcome in the :class:`~repro.sweep.frontier.SweepFrontier`.  A killed
driver loses at most the point it was solving; ``resume=True`` replays
nothing that the frontier already recorded.

Three optimizations ride on the robustness substrate, each with an
explicit fallback:

* **partition reuse** — the base model is lumped once (the *anchor*);
  every point first tries :func:`~repro.sweep.reuse.lump_with_reuse`,
  which re-proves the anchor partition's validity on the derived model
  before applying it, and re-lumps from scratch (recorded in the
  :class:`~repro.robust.report.RunReport`) when the proof fails.
* **warm starts** — iterative solves seed from the nearest solved
  neighbor's stationary vector (log-factor distance, lowest plan index
  on ties), read back from the cache so an uninterrupted run and a
  resumed one see byte-identical seeds.
* **failure isolation** — a point that diverges, faults, or fails
  certification walks a quarantine ladder (retry with backoff → cold
  start with fresh lumping → terminally ``failed``), always with a
  condemning certificate attached to the ``failed`` record.  The sweep
  itself always completes with a full per-point outcome table.

The deterministic fault site ``sweep.point`` fires (position-addressed
by plan index) at the start of every solve attempt; ``sweep.frontier``
fires before every frontier write (see :mod:`repro.sweep.frontier`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import lump_and_solve
from repro.errors import LumpingError, SolverError, SweepError
from repro.lumping.compositional import (
    CompositionalLumpingResult,
    compositional_lump,
)
from repro.lumping.md_model import MDModel
from repro.robust import faults
from repro.robust.budgets import BudgetExceeded
from repro.robust.faults import InjectedFault
from repro.robust.report import RunReport
from repro.service import store as job_store
from repro.service.cache import ResultCache
from repro.service.spec import canonical_digest, model_from_spec, solve_params
from repro.service.store import DEFAULT_LEASE_SECONDS, JobStore
from repro.service.worker import payload_from_solution
from repro.sweep.frontier import POINT_DONE, POINT_FAILED, SweepFrontier
from repro.sweep.spec import (
    RatePoint,
    apply_point,
    nearest_neighbor,
    normalize_sweep_spec,
    point_spec,
    sweep_points,
)
from repro.sweep.reuse import lump_with_reuse

#: Base backoff between quarantine-ladder attempts (seconds); attempt
#: ``k`` waits ``k`` times this.  Short by design — the ladder handles
#: deterministic failures, not transient infrastructure.
DEFAULT_BACKOFF_SECONDS = 0.05

#: How long to wait for a coalesced/backing-off job to become claimable.
CLAIM_POLL_SECONDS = 0.05


def default_frontier_dir(store_root: str, sweep_digest: str) -> str:
    """Where a sweep's frontier lives when the caller does not choose:
    inside the job store, keyed by the sweep digest, so two different
    sweeps against one store never collide."""
    return os.path.join(store_root, "sweep", sweep_digest[:12])


@dataclass
class PointOutcome:
    """Terminal outcome of one sweep point."""

    index: int
    point_id: str
    spec_digest: str
    status: str  # "done" | "failed"
    factors: Dict[str, float]
    job_id: Optional[str] = None
    error: Optional[str] = None
    certificate: Optional[dict] = None
    stationary: Optional[List[float]] = None
    solve_method: Optional[str] = None
    stats: Dict[str, Any] = field(default_factory=dict)

    def record(self) -> dict:
        """The frontier record (everything but the stationary vector,
        which lives in the content cache under ``spec_digest``)."""
        return {
            "index": self.index,
            "spec_digest": self.spec_digest,
            "status": self.status,
            "factors": self.factors,
            "job_id": self.job_id,
            "error": self.error,
            "solve_method": self.solve_method,
            "stats": self.stats,
        }


@dataclass
class SweepStats:
    """Honest accounting of what the sweep engine did (and skipped)."""

    points: int = 0
    done: int = 0
    failed: int = 0
    replayed: int = 0  # terminal in the frontier before this run
    cache_hits: int = 0
    reuse_hits: int = 0
    relumps: int = 0
    warm_started: int = 0
    warm_unavailable: int = 0
    fallback_to_cold: int = 0
    retries: int = 0
    solve_iterations: int = 0

    def to_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


@dataclass
class SweepResult:
    """Everything a sweep run produced."""

    sweep_digest: str
    outcomes: List[PointOutcome]
    stats: SweepStats
    report: RunReport

    @property
    def completed(self) -> bool:
        """Every point reached a terminal outcome."""
        return len(self.outcomes) == self.stats.points

    def table(self) -> dict:
        """The JSON-compatible per-point outcome table."""
        return {
            "sweep_digest": self.sweep_digest,
            "stats": self.stats.to_dict(),
            "points": [
                {
                    "index": o.index,
                    "point_id": o.point_id,
                    "status": o.status,
                    "factors": o.factors,
                    "spec_digest": o.spec_digest,
                    "job_id": o.job_id,
                    "error": o.error,
                    "solve_method": o.solve_method,
                    "stationary": o.stationary,
                    "certificate": o.certificate,
                    "stats": o.stats,
                }
                for o in self.outcomes
            ],
        }


def _condemning_certificate(
    exc: BaseException,
    lumped_ctmc: Optional[Any],
    method: str,
    kind: str,
) -> dict:
    """The certificate a terminally failed point carries as diagnosis.

    Preference order: the failing certificate the exception already
    carries (an exhausted escalation ladder); else a fresh
    :func:`~repro.robust.certify.certify_stationary` run over the
    solver's last iterate (or the uniform vector) against the lumped
    chain — real numerical evidence of *how* the answer is wrong; else,
    when not even a lumped chain exists, a synthetic failed certificate
    naming the error.
    """
    from repro.robust.certify import Certificate, CertificateCheck

    carried = getattr(exc, "certificate", None)
    if carried is not None and hasattr(carried, "to_dict"):
        return dict(carried.to_dict())
    if lumped_ctmc is not None:
        from repro.robust.certify import certify_stationary

        vector = getattr(exc, "last_iterate", None)
        if vector is None:
            n = lumped_ctmc.num_states
            vector = np.full(n, 1.0 / n)
        return dict(
            certify_stationary(
                np.asarray(vector, dtype=float),
                lumped_ctmc,
                method=method,
                kind=kind,
            ).to_dict()
        )
    return dict(
        Certificate(
            passed=False,
            checks=[
                CertificateCheck(
                    name="solve",
                    passed=False,
                    detail=f"{type(exc).__name__}: {exc}",
                )
            ],
            method=method,
            kind=kind,
        ).to_dict()
    )


class SweepEngine:
    """Drives one sweep spec to completion against a job store."""

    def __init__(
        self,
        sweep_spec: dict,
        store_root: str,
        *,
        frontier_dir: Optional[str] = None,
        resume: bool = False,
        report: Optional[RunReport] = None,
        queue_limit: Optional[int] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        progress: Optional[Callable[[PointOutcome], None]] = None,
    ) -> None:
        self.spec = normalize_sweep_spec(sweep_spec)
        self.sweep_digest = canonical_digest(self.spec)
        self.points = sweep_points(self.spec)
        self.base_model = model_from_spec(self.spec["base"])
        self.params = solve_params(self.spec["base"])
        self.report = report if report is not None else RunReport()
        self.store = JobStore(store_root)
        self.cache = ResultCache(os.path.join(store_root, "cache"))
        self.queue_limit = queue_limit
        self.lease_seconds = float(lease_seconds)
        self.worker_id = f"sweep-{os.getpid()}"
        self.progress = progress
        self.resume = resume
        if frontier_dir is None:
            frontier_dir = default_frontier_dir(
                store_root, self.sweep_digest
            )
        self.frontier = SweepFrontier(
            frontier_dir,
            self.sweep_digest,
            len(self.points),
            resume=resume,
        )
        self.stats = SweepStats(points=len(self.points))
        # Deterministic per-point derived specs and cache keys.  The
        # derived model built for each spec is kept so the solve path
        # does not rebuild (and re-validate) it.
        self.derived: List[Tuple[RatePoint, dict, str]] = []
        self._derived_models: Dict[int, MDModel] = {}
        for point in self.points:
            derived_model = apply_point(
                self.base_model, self.spec["sites"], point.factor_map()
            )
            spec = point_spec(
                self.spec["base"],
                self.base_model,
                self.spec["sites"],
                point,
                derived=derived_model,
            )
            if self.derived:  # apply_point keeps the set: share one list
                spec["reachable"] = self.derived[0][1]["reachable"]
            self.derived.append((point, spec, canonical_digest(spec)))
            self._derived_models[point.index] = derived_model
        self._iterative = self.params["method"] != "direct"
        self._anchor: Optional[CompositionalLumpingResult] = None
        # A point differs from the base model exactly at its site
        # nodes, so the reuse proof's stability scan (but never its
        # initial-condition check) is narrowed to these.
        self._site_nodes = frozenset(
            index
            for nodes in self.spec["sites"].values()
            for index in nodes
        )

    # ------------------------------------------------------------------

    @property
    def anchor(self) -> CompositionalLumpingResult:
        """The base model's lumping — computed once per run, from the
        *base* model (not the first point), so the reuse anchor is the
        same in an uninterrupted run and every resumed one."""
        if self._anchor is None:
            self._anchor = compositional_lump(
                self.base_model,
                kind=self.params["kind"],
                key=self.params["key"],
                iterate=self.params["iterate"],
            )
        return self._anchor

    def run(self) -> SweepResult:
        """Run (or resume) the sweep to a full per-point outcome table."""
        if self.resume:
            # A killed driver leaves leased/running jobs behind; the
            # standard recovery scan requeues them before we re-claim.
            self.store.recover(report=self.report)
        self._submit_pending()
        solved: List[Tuple[RatePoint, str]] = []
        outcomes: List[PointOutcome] = []
        for point, spec, digest in self.derived:
            existing = self.frontier.lookup(point.point_id)
            if existing is not None:
                outcome = self._outcome_from_record(point, existing)
                self.stats.replayed += 1
            else:
                outcome = self._process_point(point, spec, digest, solved)
                self.frontier.record(point.point_id, outcome.record())
            outcomes.append(outcome)
            if outcome.status == POINT_DONE:
                self.stats.done += 1
                solved.append((point, digest))
            else:
                self.stats.failed += 1
            if self.progress is not None:
                self.progress(outcome)
        return SweepResult(
            sweep_digest=self.sweep_digest,
            outcomes=outcomes,
            stats=self.stats,
            report=self.report,
        )

    # ------------------------------------------------------------------

    def _submit_pending(self) -> None:
        """Sweep-batch submission: one job per point that has neither a
        frontier record nor a registered primary job yet."""
        pending = set(
            self.frontier.pending([p.point_id for p in self.points])
        )
        to_submit = [
            (spec, digest)
            for point, spec, digest in self.derived
            if point.point_id in pending
            and self.store.primary_for(digest) is None
        ]
        submitted = self.store.submit_batch(
            [spec for spec, _ in to_submit],
            queue_limit=self.queue_limit,
            cache=self.cache,
            report=self.report,
            digests=[digest for _, digest in to_submit],
        )
        shed = sum(1 for outcome in submitted if outcome.shed)
        if shed:
            raise SweepError(
                f"{shed} of {len(to_submit)} point submissions shed by "
                f"queue_limit={self.queue_limit}; raise the limit or "
                "drain the store before sweeping"
            )

    def _outcome_from_record(
        self, point: RatePoint, record: dict
    ) -> PointOutcome:
        """Rehydrate a frontier record (a point finished in an earlier
        run); the stationary vector comes back from the cache."""
        digest = str(record.get("spec_digest"))
        outcome = PointOutcome(
            index=point.index,
            point_id=point.point_id,
            spec_digest=digest,
            status=str(record.get("status")),
            factors=point.factor_map(),
            job_id=record.get("job_id"),
            error=record.get("error"),
            solve_method=record.get("solve_method"),
            stats=dict(record.get("stats") or {}),
        )
        if outcome.status == POINT_DONE:
            entry = self.cache.get(digest, report=self.report)
            if entry is not None:
                outcome.stationary = list(entry["result"]["stationary"])
        else:
            outcome.certificate = self._failure_certificate(outcome.job_id)
        return outcome

    def _failure_certificate(
        self, job_id: Optional[str]
    ) -> Optional[dict]:
        """The condemning certificate a failed job's record carries."""
        if job_id is None:
            return None
        try:
            view = self.store.view(job_id)
        except job_store.StoreError:
            return None
        last = view.last or {}
        detail = last.get("detail") or {}
        certificate = detail.get("certificate")
        return dict(certificate) if isinstance(certificate, dict) else None

    # ------------------------------------------------------------------

    def _claim(self, job_id: str) -> Optional[Any]:
        """Claim the point's job, waiting out requeue backoff; returns
        the leased view, or ``None`` when the job is already terminal
        (another worker, or a pre-kill completion).

        A killed driver leaves its in-flight point leased; the startup
        recovery scan only requeues leases that have *already* expired,
        so when we find a held lease we re-run recovery as soon as it
        expires instead of waiting for a dispatcher that may never run.
        """
        while True:
            view = self.store.view(job_id)
            if view.terminal:
                return None
            claimed = self.store.claim(
                job_id, self.worker_id, self.lease_seconds
            )
            if claimed is not None:
                return claimed
            if view.lease_expired(float(self.store.clock())):
                self.store.recover(report=self.report)
                continue
            time.sleep(CLAIM_POLL_SECONDS)

    def _process_point(
        self,
        point: RatePoint,
        spec: dict,
        digest: str,
        solved: List[Tuple[RatePoint, str]],
    ) -> PointOutcome:
        outcome = PointOutcome(
            index=point.index,
            point_id=point.point_id,
            spec_digest=digest,
            status=POINT_FAILED,
            factors=point.factor_map(),
        )
        job_id = self.store.primary_for(digest)
        if job_id is None:
            # The submitter's byhash registration was lost (killed
            # mid-submit and gc'd); submit fresh.
            submitted = self.store.submit(
                spec, cache=self.cache, report=self.report
            )
            job_id = submitted.job_id
            if job_id is None:
                raise SweepError(
                    f"point {point.point_id}: resubmission shed"
                )
        outcome.job_id = job_id
        leased = self._claim(job_id)
        if leased is None:
            return self._absorb_terminal_job(point, digest, outcome)
        running = self.store.start_running(
            leased, self.worker_id, self.lease_seconds
        )
        if running is None:
            # Lost the lease race; fall back to whatever terminal state
            # the winner produces.
            return self._absorb_terminal_job(point, digest, outcome)
        cached = self.cache.get(digest, report=self.report)
        if cached is not None:
            self.store.complete(
                running, self.worker_id, "cache", cached["digest"]
            )
            self.stats.cache_hits += 1
            outcome.status = POINT_DONE
            outcome.stationary = list(cached["result"]["stationary"])
            outcome.solve_method = cached["result"].get("solve_method")
            outcome.stats = {"source": "cache"}
            return outcome
        return self._solve_point(point, digest, running, solved, outcome)

    def _absorb_terminal_job(
        self, point: RatePoint, digest: str, outcome: PointOutcome
    ) -> PointOutcome:
        """A point whose job is already terminal (cache hit at submit,
        a pre-kill completion, or a concurrent worker)."""
        view = self.store.view(outcome.job_id)
        last = view.last or {}
        detail = last.get("detail") or {}
        if view.state == job_store.DONE:
            entry = self.cache.get(digest, report=self.report)
            if entry is not None:
                outcome.status = POINT_DONE
                outcome.stationary = list(entry["result"]["stationary"])
                outcome.solve_method = entry["result"].get("solve_method")
                outcome.stats = {"source": detail.get("source", "cache")}
                self.stats.cache_hits += 1
                return outcome
            outcome.error = (
                f"job {outcome.job_id} is done but its cache entry is "
                "missing or corrupt"
            )
        else:
            outcome.error = detail.get(
                "error", f"job {outcome.job_id} ended {view.state}"
            )
            certificate = detail.get("certificate")
            if isinstance(certificate, dict):
                outcome.certificate = dict(certificate)
        outcome.status = POINT_FAILED
        return outcome

    # ------------------------------------------------------------------

    def _warm_vector(
        self,
        point: RatePoint,
        solved: List[Tuple[RatePoint, str]],
    ) -> Tuple[Optional[np.ndarray], Optional[int]]:
        """The nearest solved neighbor's stationary vector (from the
        cache, so seeds are byte-identical across resume), or ``None``."""
        if not self._iterative or not solved:
            return None, None
        by_point = {p.index: d for p, d in solved}
        neighbor = nearest_neighbor(point, [p for p, _ in solved])
        if neighbor is None:
            return None, None
        entry = self.cache.get(by_point[neighbor.index], report=self.report)
        if entry is None:
            return None, None
        vector = np.asarray(entry["result"]["stationary"], dtype=float)
        return vector, neighbor.index

    def _solve_point(
        self,
        point: RatePoint,
        digest: str,
        running: Any,
        solved: List[Tuple[RatePoint, str]],
        outcome: PointOutcome,
    ) -> PointOutcome:
        """The quarantine ladder: warm attempt, one retry with backoff,
        then a cold start; an exhausted ladder fails the job with a
        condemning certificate."""
        point_model = self._derived_models[point.index]
        warm, warm_source = self._warm_vector(point, solved)
        if self._iterative and solved and warm is None:
            self.stats.warm_unavailable += 1
        ladder = [
            ("warm" if warm is not None else "initial", True, warm),
            ("retry", True, warm),
            ("cold", False, None),
        ]
        last_error: Optional[BaseException] = None
        last_lumping: Optional[CompositionalLumpingResult] = None
        for attempt_number, (label, try_reuse, seed) in enumerate(
            ladder, start=1
        ):
            if attempt_number > 1:
                self.stats.retries += 1
                time.sleep(DEFAULT_BACKOFF_SECONDS * (attempt_number - 1))
                # The first attempt runs on the lease claim just
                # granted; later attempts renew it after backoff sleep.
                renewed = self.store.renew(
                    running, self.worker_id, self.lease_seconds
                )
                if renewed is not None:
                    running = renewed
            point_report = RunReport()
            started = time.perf_counter()
            try:
                faults.check_at("sweep.point", point.index)
                reused = False
                lumping: Optional[CompositionalLumpingResult] = None
                if try_reuse:
                    lumping, reused = lump_with_reuse(
                        point_model,
                        self.anchor,
                        key=self.params["key"],
                        iterate=self.params["iterate"],
                        report=point_report,
                        sites=self.spec["sites"],
                        factors=point.factor_map(),
                        changed_nodes=self._site_nodes,
                    )
                    last_lumping = lumping
                x0 = seed
                if (
                    lumping is not None
                    and x0 is not None
                    and x0.size != lumping.lumped.num_states()
                ):
                    # A re-lumped neighbor lives on a different lumped
                    # space; seeding across spaces is meaningless.
                    x0 = None
                solution = lump_and_solve(
                    point_model,
                    kind=self.params["kind"],
                    method=self.params["method"],
                    iterate=self.params["iterate"],
                    key=self.params["key"],
                    robust=True,
                    report=point_report,
                    certify=bool(self.params["certify"]),
                    lumping=lumping,
                    x0=x0,
                )
            except BudgetExceeded:
                raise
            except (SolverError, LumpingError, InjectedFault) as exc:
                last_error = exc
                self.report.merge(point_report)
                self.report.record_attempt(
                    stage="sweep.point",
                    name=f"{point.point_id}:{label}",
                    succeeded=False,
                    seconds=time.perf_counter() - started,
                    error=f"{type(exc).__name__}: {exc}",
                )
                continue
            # Success: publish, complete, account.
            self.report.merge(point_report)
            self.report.record_attempt(
                stage="sweep.point",
                name=f"{point.point_id}:{label}",
                succeeded=True,
                seconds=time.perf_counter() - started,
            )
            iterations = sum(
                a.iterations or 0
                for a in point_report.attempts
                if a.stage == "solve"
            )
            self.stats.solve_iterations += iterations
            if reused:
                self.stats.reuse_hits += 1
            elif try_reuse or label == "cold":
                self.stats.relumps += 1
            warm_used = x0 is not None
            if warm_used:
                self.stats.warm_started += 1
            if label == "cold" and warm is not None:
                self.stats.fallback_to_cold += 1
            payload = payload_from_solution(solution)
            certificate = (
                None
                if solution.certificate is None
                else solution.certificate.to_dict()
            )
            entry_digest = self.cache.put(
                digest, payload, certificate=certificate
            )
            self.store.complete(
                running, self.worker_id, "solve", entry_digest
            )
            outcome.status = POINT_DONE
            outcome.stationary = payload["stationary"]
            outcome.solve_method = payload["solve_method"]
            outcome.stats = {
                "attempt": label,
                "attempts": attempt_number,
                "reused_partition": reused,
                "warm_started": warm_used,
                "warm_source": warm_source if warm_used else None,
                "iterations": iterations,
            }
            return outcome
        # Ladder exhausted: quarantine the point as terminally failed,
        # with the condemning certificate as diagnosis.
        assert last_error is not None
        # The lumped chain is only flattened here, on the failure path —
        # successful points never pay for the condemnation evidence.
        last_ctmc = (
            None
            if last_lumping is None
            else last_lumping.lumped.flat_ctmc()
        )
        certificate = _condemning_certificate(
            last_error,
            last_ctmc,
            method=self.params["method"],
            kind=self.params["kind"],
        )
        outcome.status = POINT_FAILED
        outcome.error = f"{type(last_error).__name__}: {last_error}"
        outcome.certificate = certificate
        outcome.stats = {
            "attempts": len(ladder),
            "warm_source": warm_source,
        }
        self.report.note(
            f"sweep: point {point.point_id} quarantined after "
            f"{len(ladder)} attempt(s): {outcome.error}"
        )
        self.store.fail(
            running, self.worker_id, outcome.error, certificate=certificate
        )
        return outcome


def run_sweep(sweep_spec: dict, store_root: str, **kwargs: Any) -> SweepResult:
    """Convenience wrapper: build a :class:`SweepEngine` and run it."""
    return SweepEngine(sweep_spec, store_root, **kwargs).run()
