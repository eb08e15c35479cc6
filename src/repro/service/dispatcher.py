"""The dispatcher: supervised worker processes over the shared store.

The dispatcher is the service's parent process.  It forks ``workers``
child processes, each running the :class:`ServiceWorker` loop against
the same store root, and supervises them the way
:mod:`repro.robust.supervisor` supervises a pipeline stage:

* each worker writes a file heartbeat; a stale heartbeat means the
  worker is hung and gets SIGKILLed,
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
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.robust import faults, heartbeat
from repro.robust.heartbeat import HeartbeatMonitor
from repro.robust.report import RunReport
from repro.robust.retry import RetryPolicy
from repro.service.cache import ResultCache
from repro.service.store import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    JobStore,
)
from repro.service.worker import ServiceWorker


@dataclass
class DispatcherConfig:
    """Tunables for one dispatcher run."""

    workers: int = 2
    lease_seconds: float = DEFAULT_LEASE_SECONDS
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    heartbeat_timeout_seconds: float = 30.0
    poll_interval_seconds: float = 0.05
    recover_interval_seconds: float = 0.5
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
    pid: Optional[int] = None
    heartbeat_path: str = ""
    deaths: int = 0
    retired: bool = False
    restart_at: float = 0.0
    spawned_at: float = 0.0


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
        slot.heartbeat_path = os.path.join(
            self._scratch, f"slot{slot.index}.hb"
        )
        try:
            os.unlink(slot.heartbeat_path)
        except OSError:
            pass
        pid = os.fork()
        if pid == 0:
            # Child: run the worker loop and never return.
            code = 1
            try:
                faults.check_at("service.slot", slot.index + 1)
                # install (not a bare Heartbeat) hooks the beat into the
                # cooperative budget-check sites, so the worker proves
                # liveness *during* a long solve — not just between jobs
                # — and a slow-but-healthy job outlives the watchdog.
                worker = ServiceWorker(
                    self.store,
                    self.cache,
                    worker_id=f"w{slot.index}-{os.getpid()}",
                    lease_seconds=self.config.lease_seconds,
                    heartbeat=heartbeat.install(
                        slot.heartbeat_path, min_interval_seconds=0.01
                    ),
                    drain_when_empty=self.config.drain,
                )
                signal.signal(
                    signal.SIGTERM, lambda *_: _stop_worker(worker)
                )
                worker.drain(
                    poll_seconds=self.config.poll_interval_seconds
                )
                code = 0
            except BaseException:  # reprolint: disable=RL005 -- forked child: the nonzero exit code IS the report; the parent records worker-crashed
                code = 1
            finally:
                os._exit(code)
        slot.pid = pid
        slot.spawned_at = time.monotonic()
        self.stats.worker_starts += 1
        self.report.record_pool_event(
            "worker-started", worker=slot.index, detail=f"pid {pid}"
        )

    def _on_death(self, slot: _Slot, status: int) -> None:
        if not os.WIFSIGNALED(status) and os.WEXITSTATUS(status) == 0:
            # A clean exit — the worker drained the queue or honored a
            # stop request.  Not a crash, so it never feeds the
            # crash-loop breaker; but only in drain mode (or during
            # shutdown) does it retire the slot.  In serve mode the
            # queue emptying is routine, and a retired slot would
            # silently demote --workers N to inline single-process
            # draining for the rest of the service's life.
            slot.pid = None
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
        if os.WIFSIGNALED(status):
            reason = f"signal {os.WTERMSIG(status)}"
        else:
            reason = f"exit {os.WEXITSTATUS(status)}"
        self.report.record_pool_event(
            "worker-crashed", worker=slot.index, detail=reason
        )
        slot.pid = None
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
            if slot.pid is None:
                if time.monotonic() >= slot.restart_at:
                    self._spawn(slot)
                    self.report.record_pool_event(
                        "worker-restarted", worker=slot.index
                    )
                continue
            # Reap if dead.
            try:
                pid, status = os.waitpid(slot.pid, os.WNOHANG)
            except ChildProcessError:
                pid, status = slot.pid, 0
            if pid:
                self._on_death(slot, status)
                continue
            # Hung?  Stale heartbeat -> SIGKILL; the reap happens on the
            # next tick.  A worker with *no* beat yet gets the same
            # deadline measured from its spawn — wedging during startup
            # (import, fault hook, first claim) must not hold the slot
            # forever just because the heartbeat file never appeared.
            monitor = HeartbeatMonitor(slot.heartbeat_path)
            age = monitor.age_seconds()
            timeout = self.config.heartbeat_timeout_seconds
            if age is not None and age > timeout:
                detail = f"hung: heartbeat {age:.1f}s stale; killed"
            elif (
                age is None
                and time.monotonic() - slot.spawned_at > timeout
            ):
                detail = (
                    f"hung: no heartbeat within {timeout:.1f}s "
                    "of spawn; killed"
                )
            else:
                continue
            self.report.record_pool_event(
                "worker-crashed", worker=slot.index, detail=detail
            )
            try:
                os.kill(slot.pid, signal.SIGKILL)
            except OSError:
                pass

    def _live_workers(self) -> int:
        return sum(1 for s in self._slots if s.pid is not None)

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
                now = time.monotonic()
                if now - last_recover >= self.config.recover_interval_seconds:
                    stats = self.store.recover(
                        policy=self.config.policy,
                        max_attempts=self.config.max_attempts,
                        report=self.report,
                    )
                    self.stats.recover_requeued += len(stats.requeued)
                    self.stats.recover_buried += len(stats.buried)
                    last_recover = now
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
                time.sleep(self.config.poll_interval_seconds)
        finally:
            self._shutdown_workers()
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
            now = time.monotonic()
            if now - last_recover >= self.config.recover_interval_seconds:
                stats = self.store.recover(
                    policy=self.config.policy,
                    max_attempts=self.config.max_attempts,
                    report=self.report,
                )
                self.stats.recover_requeued += len(stats.requeued)
                self.stats.recover_buried += len(stats.buried)
                last_recover = now
            if not worker.run_once():
                time.sleep(self.config.poll_interval_seconds)

    def _install_signals(self) -> None:
        def _request_stop(_signum: int, _frame: object) -> None:
            self.stopping = True

        try:
            signal.signal(signal.SIGTERM, _request_stop)
            signal.signal(signal.SIGINT, _request_stop)
        except ValueError:  # not the main thread (tests)
            pass

    def _shutdown_workers(self) -> None:
        """Drain-and-stop: ask nicely, then insist, then reap."""
        for slot in self._slots:
            if slot.pid is not None:
                try:
                    os.kill(slot.pid, signal.SIGTERM)
                except OSError:
                    pass
        deadline = time.monotonic() + 5.0
        for slot in self._slots:
            if slot.pid is None:
                continue
            while time.monotonic() < deadline:
                try:
                    pid, _status = os.waitpid(slot.pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if pid:
                    break
                time.sleep(0.02)
            else:
                try:
                    os.kill(slot.pid, signal.SIGKILL)
                    os.waitpid(slot.pid, 0)
                except (OSError, ChildProcessError):
                    pass
            slot.pid = None


def _stop_worker(worker: ServiceWorker) -> None:
    """SIGTERM handler body: finish the current job, then stop."""
    worker.stopping = True


def run_service(
    store_root: str,
    config: Optional[DispatcherConfig] = None,
    report: Optional[RunReport] = None,
) -> DispatcherStats:
    """Convenience entry point: open the store + cache under
    ``store_root`` and run one dispatcher to completion."""
    store = JobStore(store_root)
    cache = ResultCache(os.path.join(store_root, "cache"))
    dispatcher = Dispatcher(store, cache, config=config, report=report)
    stats = dispatcher.run()
    if report is None and dispatcher.report.notes:
        print(dispatcher.report.render(), file=sys.stderr)
    return stats
