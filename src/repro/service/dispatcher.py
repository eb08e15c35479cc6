"""The dispatcher: supervised worker processes over the shared store.

The dispatcher is the service's parent process.  It runs ``workers``
slots, each a :class:`~repro.robust.supervisor.WatchedChild` — the
supervisor's own forked, heartbeat-watched child — running the
:class:`ServiceWorker` loop against the same store root:

* each worker's heartbeat is hooked into the budget-check sites; a
  stale heartbeat means the worker is hung, and the watchdog SIGKILLs
  and reaps it — one ``worker-crashed`` event per death,
* a dead worker (crash, OOM-kill, watchdog kill) is restarted with the
  :class:`RetryPolicy`'s exponential backoff + deterministic jitter,
* a worker slot that keeps dying trips a per-slot crash-loop breaker
  and is retired (remaining slots absorb the load),
* the parent periodically runs :meth:`JobStore.recover`, so jobs whose
  leases died with their workers are requeued — or dead-lettered once
  their attempts are exhausted.

Shutdown is drain-and-stop: in drain mode the dispatcher exits when
every job is terminal; on SIGTERM/SIGINT it tells workers to finish
their current job and stop claiming new ones.

Worker starts, deaths, restarts and retirements land in the
dispatcher's :class:`RunReport` as pool events
(:class:`~repro.robust.report.PoolEvent`), so one report renders the
whole recovery trail.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.robust import faults, heartbeat
from repro.robust.report import RunReport
from repro.robust.retry import RetryPolicy
from repro.robust.supervisor import ChildExit, WatchedChild
from repro.service.cache import ResultCache
from repro.service.store import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    JobStore,
)
from repro.service.worker import ServiceWorker


#: Dispatcher poll cadence, and the workers' idle poll.
POLL_INTERVAL_SECONDS = 0.05
#: Cadence of :meth:`JobStore.recover` passes while the queue drains.
RECOVER_INTERVAL_SECONDS = 0.5
#: Drain-and-stop: how long a worker gets after SIGTERM to finish its
#: current job before it is SIGKILLed.
_STOP_GRACE_SECONDS = 5.0


@dataclass
class DispatcherConfig:
    """Tunables for one dispatcher run."""

    workers: int = 2
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    heartbeat_timeout_seconds: float = 30.0
    drain: bool = True

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, not {self.workers!r}"
            )


@dataclass
class _Slot:
    """One supervised worker slot."""

    index: int
    child: Optional[WatchedChild] = None
    deaths: int = 0
    retired: bool = False
    restart_at: float = 0.0


@dataclass
class DispatcherStats:
    """What one dispatcher run did."""

    worker_starts: int = 0
    worker_deaths: int = 0
    worker_retirements: int = 0
    recover_requeued: int = 0
    recover_buried: int = 0


class Dispatcher:
    """Fork, watch, restart, recover — until the queue drains."""

    def __init__(
        self,
        store: JobStore,
        cache: ResultCache,
        config: Optional[DispatcherConfig] = None,
        report: Optional[RunReport] = None,
    ) -> None:
        self.store = store
        self.cache = cache
        self.config = config or DispatcherConfig()
        self.report = report if report is not None else RunReport()
        self.stats = DispatcherStats()
        self.stopping = False
        self._slots: List[_Slot] = []
        self._scratch = os.path.join(store.root, "workers")

    # ------------------------------------------------------------------
    # worker processes
    # ------------------------------------------------------------------

    def _spawn(self, slot: _Slot) -> None:
        slot.child = WatchedChild(
            lambda: self._work(slot.index),
            os.path.join(self._scratch, f"slot{slot.index}.hb"),
        )
        self.stats.worker_starts += 1
        self.report.record_pool_event(
            "worker-started",
            worker=slot.index,
            detail=f"pid {slot.child.pid}",
        )

    def _work(self, index: int) -> int:
        """A worker slot's child: run the worker loop until the queue
        drains or SIGTERM asks it to stop."""
        faults.check_at("service.slot", index + 1)
        # The watched child's heartbeat is hooked into the cooperative
        # budget-check sites, so the worker proves liveness *during* a
        # long solve — not just between jobs — and a slow-but-healthy
        # job outlives the watchdog.
        worker = ServiceWorker(
            self.store,
            self.cache,
            worker_id=f"w{index}-{os.getpid()}",
            lease_seconds=self.config.lease_seconds,
            heartbeat=heartbeat.installed(),
            drain_when_empty=self.config.drain,
        )
        signal.signal(signal.SIGTERM, lambda *_: _stop_worker(worker))
        worker.drain(poll_seconds=POLL_INTERVAL_SECONDS)
        return 0

    def _on_death(self, slot: _Slot, ended: ChildExit) -> None:
        slot.child = None
        if ended.reason == "ok":
            # A clean exit — the worker drained the queue or honored a
            # stop request.  Not a crash, so it never feeds the
            # crash-loop breaker; but only in drain mode (or during
            # shutdown) does it retire the slot.  In serve mode the
            # queue emptying is routine, and a retired slot would
            # silently demote --workers N to inline single-process
            # draining for the rest of the service's life.
            if self.config.drain or self.stopping:
                slot.retired = True
                self.report.record_pool_event(
                    "worker-exited", worker=slot.index, detail="drained"
                )
            else:
                slot.restart_at = time.monotonic()
                self.report.record_pool_event(
                    "worker-exited",
                    worker=slot.index,
                    detail="clean exit in serve mode; respawning",
                )
            return
        self.stats.worker_deaths += 1
        self.report.record_pool_event(
            "worker-crashed", worker=slot.index, detail=ended.detail
        )
        slot.deaths += 1
        if slot.deaths > self.config.policy.max_restarts:
            slot.retired = True
            self.stats.worker_retirements += 1
            self.report.record_pool_event(
                "worker-retired",
                worker=slot.index,
                detail=f"crash loop: {slot.deaths} death(s)",
            )
            return
        delay = self.config.policy.backoff_seconds(slot.deaths - 1)
        slot.restart_at = time.monotonic() + delay

    def _watch_slots(self) -> None:
        for slot in self._slots:
            if slot.retired:
                continue
            if slot.child is None:
                if time.monotonic() >= slot.restart_at:
                    self._spawn(slot)
                    self.report.record_pool_event(
                        "worker-restarted", worker=slot.index
                    )
                continue
            ended = slot.child.poll(self.config.heartbeat_timeout_seconds)
            if ended is not None:
                self._on_death(slot, ended)

    def _recover(self, last: float) -> float:
        """Run :meth:`JobStore.recover` if ``RECOVER_INTERVAL_SECONDS``
        have passed since ``last``; returns the time of the latest pass.
        Leases that died with their workers are requeued this way, or
        dead-lettered once their attempts are exhausted."""
        now = time.monotonic()
        if now - last < RECOVER_INTERVAL_SECONDS:
            return last
        stats = self.store.recover(
            policy=self.config.policy,
            max_attempts=self.config.max_attempts,
            report=self.report,
        )
        self.stats.recover_requeued += len(stats.requeued)
        self.stats.recover_buried += len(stats.buried)
        return now

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------

    def run(self) -> DispatcherStats:
        """Run until drained (drain mode) or stopped.

        Returns the stats; the full trail is in :attr:`report`.
        """
        os.makedirs(self._scratch, exist_ok=True)
        self._install_signals()
        self._slots = [_Slot(index=i) for i in range(self.config.workers)]
        for slot in self._slots:
            self._spawn(slot)
        last_recover = 0.0
        try:
            while True:
                self._watch_slots()
                last_recover = self._recover(last_recover)
                if self.stopping:
                    break
                active = self.store.active_count()
                if self.config.drain and active == 0:
                    break
                if active and not any(
                    not s.retired for s in self._slots
                ):
                    # Every slot crash-looped out: run the remaining
                    # jobs inline rather than abandoning the queue.
                    self.report.record_pool_event(
                        "pool-degraded",
                        detail=(
                            f"all {len(self._slots)} worker slot(s) "
                            f"retired; draining {active} job(s) inline"
                        ),
                    )
                    self._drain_inline()
                    if self.config.drain:
                        break
                time.sleep(POLL_INTERVAL_SECONDS)
        finally:
            # Drain-and-stop: SIGTERM lets each worker finish its job.
            for slot in self._slots:
                if slot.child is not None:
                    slot.child.stop(_STOP_GRACE_SECONDS)
        return self.stats

    def _drain_inline(self) -> None:
        """Drain the queue in this process, interleaving ``recover()``:
        leases orphaned by the crashed slots would otherwise never be
        requeued, and a coalesced duplicate would wait on its dead
        primary forever."""
        worker = ServiceWorker(
            self.store,
            self.cache,
            worker_id="dispatcher-inline",
            lease_seconds=self.config.lease_seconds,
            report=self.report,
        )
        last_recover = 0.0
        while not self.stopping and self.store.active_count() > 0:
            last_recover = self._recover(last_recover)
            if not worker.run_once():
                time.sleep(POLL_INTERVAL_SECONDS)

    def _install_signals(self) -> None:
        def _request_stop(_signum: int, _frame: object) -> None:
            self.stopping = True

        try:
            signal.signal(signal.SIGTERM, _request_stop)
            signal.signal(signal.SIGINT, _request_stop)
        except ValueError:  # not the main thread (tests)
            pass


def _stop_worker(worker: ServiceWorker) -> None:
    """SIGTERM handler body: finish the current job, then stop."""
    worker.stopping = True
