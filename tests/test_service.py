"""Unit and integration tests of the durable analysis service.

The kill-anywhere property lives in ``test_service_crash.py``; this
file covers the store's state machine and CAS semantics, the cache's
corruption handling, duplicate coalescing, admission control, lease
expiry / retry / dead-letter flow, the dispatcher's worker supervision,
and the CLI verbs.
"""

import json
import os
import shutil
import signal
import threading
import time

import pytest

from repro.robust import budgets, faults
from repro.robust import heartbeat as heartbeat_mod
from repro.robust.report import RunReport
from repro.robust.retry import RetryPolicy
from repro.robust.supervisor import ChildExit, WatchedChild
from repro.service.dispatcher import _Slot
from repro.service import (
    Dispatcher,
    DispatcherConfig,
    JobStore,
    ResultCache,
    ServiceWorker,
    canonical_digest,
    demo_spec,
    solve_spec,
    solve_spec_certified,
)
from repro.service.spec import (
    SpecError,
    model_from_spec,
    self_digested,
    spec_from_model,
    verify_digest,
)
from repro.service.store import (
    DEAD,
    DONE,
    FAILED,
    LEASED,
    QUEUED,
    RUNNING,
    StoreError,
)
from repro.service.__main__ import EXIT_NOT_DONE, EXIT_SHED
from repro.service.__main__ import main as service_main


@pytest.fixture(scope="module")
def redundant_spec():
    return demo_spec("redundant:3,1")


@pytest.fixture(scope="module")
def other_spec():
    return demo_spec("redundant:2,1")


@pytest.fixture()
def service(tmp_path):
    store = JobStore(str(tmp_path / "store"))
    cache = ResultCache(str(tmp_path / "store" / "cache"))
    return store, cache


class FakeClock:
    """An injectable store clock tests can advance by hand."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ----------------------------------------------------------------------
# specs and digests
# ----------------------------------------------------------------------


class TestSpec:
    def test_roundtrip_and_digest_stability(self, redundant_spec):
        model = model_from_spec(redundant_spec)
        again = spec_from_model(model)
        assert canonical_digest(again) == canonical_digest(redundant_spec)

    def test_digest_separates_solve_parameters(self, redundant_spec):
        model = model_from_spec(redundant_spec)
        other = spec_from_model(model, method="power")
        assert canonical_digest(other) != canonical_digest(redundant_spec)

    def test_self_digest_verifies_and_rejects_tampering(self):
        stamped = self_digested({"a": 1})
        assert verify_digest(stamped) == {"a": 1}
        stamped["a"] = 2
        with pytest.raises(SpecError, match="digest mismatch"):
            verify_digest(stamped)

    def test_unknown_demo_rejected(self):
        with pytest.raises(SpecError, match="unknown demo"):
            demo_spec("nonsense:1")

    def test_solve_results_are_deterministic(self, redundant_spec):
        assert solve_spec(redundant_spec) == solve_spec(redundant_spec)


# ----------------------------------------------------------------------
# the job store
# ----------------------------------------------------------------------


class TestStore:
    def test_submit_creates_verified_chain(self, service, redundant_spec):
        store, _cache = service
        outcome = store.submit(redundant_spec)
        view = store.view(outcome.job_id)
        assert view.state == QUEUED
        assert view.spec_digest == canonical_digest(redundant_spec)
        assert view.records[0]["seq"] == 1

    def test_illegal_transition_rejected(self, service, redundant_spec):
        store, _cache = service
        outcome = store.submit(redundant_spec)
        view = store.view(outcome.job_id)
        with pytest.raises(StoreError, match="illegal transition"):
            store.start_running(view, "w", 10.0)  # queued -> running

    def test_claim_is_exclusive(self, service, redundant_spec):
        store, _cache = service
        job = store.submit(redundant_spec).job_id
        first = store.claim(job, "w1", 30.0)
        assert first is not None and first.state == LEASED
        assert store.claim(job, "w2", 30.0) is None

    def test_stale_writer_loses_the_sequence_race(
        self, service, redundant_spec
    ):
        store, _cache = service
        job = store.submit(redundant_spec).job_id
        stale = store.view(job)
        fresh = store.view(job)
        assert store.claim(job, "w1", 30.0) is not None
        # ``stale`` still believes the job is queued at seq 1; its next
        # append must lose the CAS instead of clobbering the claim.
        assert (
            store._append(stale, LEASED, worker="w2", attempt=1) is None
        )
        assert store.view(job).records[1]["worker"] == "w1"
        del fresh

    def test_lease_expiry_requeues_with_backoff(self, redundant_spec, tmp_path):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        job = store.submit(redundant_spec).job_id
        store.claim(job, "w1", lease_seconds=10.0)
        stats = store.recover(policy=RetryPolicy(backoff_initial_seconds=1.0))
        assert stats.requeued == []  # lease still live
        clock.advance(11.0)
        report = RunReport()
        stats = store.recover(
            policy=RetryPolicy(backoff_initial_seconds=1.0), report=report
        )
        assert stats.requeued == [job]
        view = store.view(job)
        assert view.state == QUEUED and view.attempt == 1
        assert view.last["not_before"] > clock.now
        assert any("lease expired" in n for n in report.notes)
        # Backoff grows with the attempt (deterministic per-job jitter).
        first_delay = view.last["not_before"] - clock.now
        clock.advance(100.0)  # past not_before, so the claim succeeds
        assert store.claim(job, "w1", lease_seconds=10.0) is not None
        clock.advance(100.0)
        store.recover(policy=RetryPolicy(backoff_initial_seconds=1.0))
        second_delay = store.view(job).last["not_before"] - clock.now
        assert second_delay > first_delay

    def test_attempts_exhausted_dead_letters_with_diagnosis(
        self, redundant_spec, tmp_path
    ):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        job = store.submit(redundant_spec).job_id
        policy = RetryPolicy(backoff_initial_seconds=0.0)
        for _ in range(3):
            clock.advance(100.0)
            assert store.claim(job, "w1", lease_seconds=1.0) is not None
            clock.advance(100.0)
            store.recover(policy=policy, max_attempts=3)
        view = store.view(job)
        assert view.state == DEAD
        diagnosis = view.last["detail"]["diagnosis"]
        assert diagnosis["attempts"] == 3
        assert diagnosis["exit_reasons"] == {"lease-expired": 3}
        assert "lease" in diagnosis["suggestion"]

    def test_admission_shed_leaves_nothing_durable(
        self, service, redundant_spec, other_spec
    ):
        store, _cache = service
        store.submit(redundant_spec, queue_limit=1)
        before = store.list_jobs()
        shed = store.submit(other_spec, queue_limit=1)
        assert shed.shed and shed.job_id is None
        assert store.list_jobs() == before

    def test_recover_sweeps_dead_writers_tmp_files(
        self, service, redundant_spec
    ):
        store, _cache = service
        job = store.submit(redundant_spec).job_id
        litter = os.path.join(
            store._records_dir(job), "00000002.json.tmp.999999"
        )
        with open(litter, "wb") as handle:
            handle.write(b"torn")  # reprolint: disable=RL009 -- simulating a dead writer's litter
        stats = store.recover()
        assert stats.tmp_files_removed == 1
        assert not os.path.exists(litter)

    def test_torn_tail_record_is_ignored(self, service, redundant_spec):
        store, _cache = service
        job = store.submit(redundant_spec).job_id
        with open(store._record_path(job, 2), "wb") as handle:
            handle.write(b'{"state": "done"')  # reprolint: disable=RL009 -- simulating a torn record
        view = store.view(job)
        assert view.state == QUEUED and len(view.records) == 1

    def test_gc_removes_old_terminal_jobs_only(
        self, redundant_spec, other_spec, tmp_path
    ):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        cache = ResultCache(str(tmp_path / "cache"))
        done_job = store.submit(redundant_spec).job_id
        live_job = store.submit(other_spec).job_id
        ServiceWorker(store, cache, lease_seconds=1e6).run_once()
        clock.advance(100.0)
        removed = store.gc(keep_seconds=1000.0)
        assert removed == []
        removed = store.gc(keep_seconds=10.0)
        assert removed == [done_job]
        assert store.list_jobs() == [live_job]


# ----------------------------------------------------------------------
# the result cache
# ----------------------------------------------------------------------


class TestCache:
    def test_put_get_roundtrip(self, service):
        _store, cache = service
        digest = "ab" * 32
        entry_digest = cache.put(digest, {"stationary": [0.5, 0.5]})
        entry = cache.get(digest)
        assert entry["result"] == {"stationary": [0.5, 0.5]}
        assert entry["digest"] == entry_digest

    def test_corrupt_entry_evicted_and_recorded(self, service):
        _store, cache = service
        digest = "cd" * 32
        cache.put(digest, {"stationary": [1.0]})
        path = cache._entry_path(digest)
        with open(path, "ab") as handle:
            handle.write(b"GARBAGE")  # reprolint: disable=RL009 -- simulating bit rot
        report = RunReport()
        assert cache.get(digest, report=report) is None
        assert not os.path.exists(path)
        assert any(
            f.stage == "service-cache" and "corrupt" in f.reason
            for f in report.fallbacks
        )

    def test_mismatched_address_treated_as_corrupt(self, service):
        _store, cache = service
        digest_a, digest_b = "aa" * 32, "bb" * 32
        cache.put(digest_a, {"stationary": [1.0]})
        os.makedirs(
            os.path.dirname(cache._entry_path(digest_b)), exist_ok=True
        )
        shutil.copy(cache._entry_path(digest_a), cache._entry_path(digest_b))
        assert cache.get(digest_b) is None


# ----------------------------------------------------------------------
# workers: coalescing, failures, end-to-end drain
# ----------------------------------------------------------------------


class TestWorker:
    def test_duplicates_coalesce_to_one_solve(self, service, redundant_spec):
        store, cache = service
        outcomes = [
            store.submit(redundant_spec, cache=cache) for _ in range(4)
        ]
        assert [o.coalesced_with for o in outcomes[1:]] == (
            [outcomes[0].job_id] * 3
        )
        worker = ServiceWorker(store, cache, lease_seconds=1e6)
        worker.drain()
        views = store.views()
        assert all(v.state == DONE for v in views)
        sources = [v.last["detail"]["source"] for v in views]
        assert sources.count("solve") == 1
        assert sources.count("cache") == 3

    def test_cache_hit_completes_at_submit(self, service, redundant_spec):
        store, cache = service
        store.submit(redundant_spec, cache=cache)
        ServiceWorker(store, cache, lease_seconds=1e6).drain()
        outcome = store.submit(redundant_spec, cache=cache)
        assert outcome.cache_hit and outcome.state == DONE

    def test_corrupt_cache_recomputed_bitwise_identical(
        self, service, redundant_spec
    ):
        store, cache = service
        digest = canonical_digest(redundant_spec)
        store.submit(redundant_spec, cache=cache)
        ServiceWorker(store, cache, lease_seconds=1e6).drain()
        with open(cache._entry_path(digest), "rb") as handle:
            clean_bytes = handle.read()
        with open(cache._entry_path(digest), "wb") as handle:
            handle.write(b"{}")  # reprolint: disable=RL009 -- simulating corruption
        report = RunReport()
        worker = ServiceWorker(
            store, cache, lease_seconds=1e6, report=report
        )
        # The corrupt entry is noticed (and evicted, with the fallback
        # recorded) by submit's cache probe.
        store.submit(redundant_spec, cache=cache, report=report)
        worker.drain()
        with open(cache._entry_path(digest), "rb") as handle:
            assert handle.read() == clean_bytes
        assert worker.stats.solved == 1
        assert any(f.stage == "service-cache" for f in report.fallbacks)

    def test_deterministic_failure_goes_to_failed_and_mirrors(
        self, service, redundant_spec
    ):
        store, cache = service
        broken = json.loads(json.dumps(redundant_spec))
        broken["solve"]["method"] = "no-such-method"
        store.submit(broken, cache=cache)
        store.submit(broken, cache=cache)
        worker = ServiceWorker(store, cache, lease_seconds=1e6)
        worker.drain()
        views = store.views()
        assert [v.state for v in views] == [FAILED, FAILED]
        assert views[1].last["detail"]["mirrored_from"] == views[0].job_id
        assert worker.stats.failed == 1 and worker.stats.mirrored == 1

    def test_zombie_worker_is_fenced(self, redundant_spec, tmp_path):
        clock = FakeClock()
        store = JobStore(str(tmp_path), clock=clock)
        cache = ResultCache(str(tmp_path / "cache"))
        job = store.submit(redundant_spec).job_id
        zombie_view = store.claim(job, "zombie", lease_seconds=5.0)
        running = store.start_running(zombie_view, "zombie", 5.0)
        # The lease dies; the dispatcher requeues; another worker wins.
        clock.advance(10.0)
        store.recover(policy=RetryPolicy(backoff_initial_seconds=0.0))
        fresh = ServiceWorker(store, cache, "w-fresh", lease_seconds=1e6)
        assert fresh.run_once()
        assert store.view(job).state == DONE
        # The zombie wakes up and tries to publish: it must lose.
        result = solve_spec(redundant_spec)
        entry = cache.put(store.view(job).spec_digest, result)
        assert store.complete(running, "zombie", "solve", entry) is None

    def test_solve_matches_direct_lump_and_solve(
        self, service, redundant_spec
    ):
        store, cache = service
        job = store.submit(redundant_spec, cache=cache).job_id
        ServiceWorker(store, cache, lease_seconds=1e6).drain()
        entry = cache.get(store.view(job).spec_digest)
        assert entry["result"] == solve_spec(redundant_spec)

    def test_long_solve_renews_lease_and_beats_heartbeat(
        self, service, redundant_spec, monkeypatch, tmp_path
    ):
        """A solve longer than the lease keeps both liveness signals
        alive from the budget-pulse sites: the lease is renewed (so
        ``recover()`` never requeues a healthy worker's job) and the
        heartbeat beats (so the watchdog never kills it as hung)."""
        store, cache = service
        store.submit(redundant_spec)
        real_solve = solve_spec_certified

        def slow_solve(spec, report=None):
            deadline = time.monotonic() + 0.35
            while time.monotonic() < deadline:
                budgets.check_time()
            return real_solve(spec, report=report)

        monkeypatch.setattr(
            "repro.service.worker.solve_spec_certified", slow_solve
        )
        hb = heartbeat_mod.install(str(tmp_path / "worker.hb"))
        try:
            worker = ServiceWorker(
                store, cache, lease_seconds=0.3, heartbeat=hb
            )
            assert worker.run_once()
            # The solve restored the composed pulse (the heartbeat's).
            assert budgets.get_pulse() is not None
        finally:
            heartbeat_mod.uninstall()
        assert worker.stats.renewed >= 1
        [view] = store.views()
        assert view.state == DONE
        runnings = [r for r in view.records if r["state"] == RUNNING]
        assert len(runnings) >= 2  # start_running + at least one renewal
        expiries = [r["lease_expires_at"] for r in runnings]
        assert expiries == sorted(expiries)
        assert hb.beats_written >= 2  # beat *during* the solve too

    def test_serve_mode_worker_polls_through_empty_queue(
        self, service, redundant_spec
    ):
        store, cache = service
        polls = []
        holder = {}

        def fake_sleep(_seconds):
            polls.append(_seconds)
            if len(polls) == 2:
                store.submit(redundant_spec)
            if len(polls) >= 5:
                holder["worker"].stopping = True

        worker = ServiceWorker(
            store,
            cache,
            lease_seconds=1e6,
            sleep=fake_sleep,
            drain_when_empty=False,
        )
        holder["worker"] = worker
        worker.drain(poll_seconds=0.01)
        # The empty queue did not end the loop; the late submission was
        # picked up and solved.
        assert len(polls) >= 5
        assert worker.stats.solved == 1
        [view] = store.views()
        assert view.state == DONE


# ----------------------------------------------------------------------
# the dispatcher
# ----------------------------------------------------------------------


class TestDispatcher:
    def _config(self, **kwargs):
        kwargs.setdefault("workers", 2)
        kwargs.setdefault("lease_seconds", 10.0)
        kwargs.setdefault(
            "policy", RetryPolicy(max_restarts=3, backoff_initial_seconds=0.01)
        )
        kwargs.setdefault("heartbeat_timeout_seconds", 10.0)
        return DispatcherConfig(**kwargs)

    def test_drains_queue_with_duplicates(
        self, service, redundant_spec, other_spec
    ):
        store, cache = service
        for spec in (redundant_spec, other_spec, redundant_spec):
            store.submit(spec, cache=cache)
        dispatcher = Dispatcher(store, cache, self._config())
        dispatcher.run()
        views = store.views()
        assert all(v.state == DONE for v in views)
        sources = [v.last["detail"]["source"] for v in views]
        assert sources.count("solve") == 2  # one per distinct digest
        assert dispatcher.report.pool_events_of_kind("worker-started")

    def test_killed_worker_slot_is_restarted(
        self, service, redundant_spec, other_spec
    ):
        store, cache = service
        for spec in (redundant_spec, other_spec):
            store.submit(spec, cache=cache)
        # Slot 1 is killed at startup, every time it starts (no fired
        # log): the dispatcher must restart it, eventually retire it,
        # and still drain the queue through slot 2 (or inline).
        faults.reload_env("service.slot:1@sigkill")
        try:
            dispatcher = Dispatcher(store, cache, self._config())
            dispatcher.run()
        finally:
            faults.reload_env("")
        assert all(v.state == DONE for v in store.views())
        assert dispatcher.report.pool_events_of_kind("worker-crashed")

    def test_all_slots_retired_degrades_to_inline_drain(
        self, service, redundant_spec
    ):
        store, cache = service
        store.submit(redundant_spec, cache=cache)
        faults.reload_env("service.slot:*@sigkill")
        try:
            dispatcher = Dispatcher(
                store,
                cache,
                self._config(
                    workers=2,
                    policy=RetryPolicy(
                        max_restarts=1, backoff_initial_seconds=0.0
                    ),
                ),
            )
            dispatcher.run()
        finally:
            faults.reload_env("")
        assert store.view("j000001").state == DONE
        degraded = dispatcher.report.pool_events_of_kind("pool-degraded")
        assert degraded and "inline" in degraded[0].detail

    def test_serve_mode_clean_exit_respawns_instead_of_retiring(
        self, service
    ):
        store, cache = service
        clean = ChildExit("ok", 0, None, None, "exit 0")
        serve = Dispatcher(store, cache, self._config(drain=False))
        slot = _Slot(index=0)
        serve._on_death(slot, clean)
        assert slot.child is None and not slot.retired
        drain = Dispatcher(store, cache, self._config(drain=True))
        slot = _Slot(index=0)
        drain._on_death(slot, clean)
        assert slot.retired

    def test_serve_mode_keeps_worker_slots_after_idle(
        self, service, redundant_spec, other_spec
    ):
        """The regression the review caught: with --no-drain, the first
        idle moment must not retire every slot and demote the service to
        inline single-process draining forever."""
        store, cache = service
        store.submit(redundant_spec, cache=cache)
        dispatcher = Dispatcher(
            store, cache, self._config(workers=2, drain=False)
        )
        thread = threading.Thread(target=dispatcher.run, daemon=True)
        thread.start()

        def wait_for(predicate, timeout=15.0):
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                if predicate():
                    return
                time.sleep(0.02)
            raise AssertionError("condition not reached in time")

        try:
            wait_for(lambda: store.active_count() == 0)
            time.sleep(0.3)  # let the workers observe the empty queue
            store.submit(other_spec, cache=cache)
            wait_for(lambda: store.active_count() == 0)
        finally:
            dispatcher.stopping = True
            thread.join(timeout=15.0)
        assert not thread.is_alive()
        assert all(v.state == DONE for v in store.views())
        assert not dispatcher.report.pool_events_of_kind("pool-degraded")

    def test_worker_hung_before_first_heartbeat_is_killed(self, tmp_path):
        # A worker wedged during startup never lands a beat: the
        # heartbeat's directory does not exist.
        timeout = 0.05
        child = WatchedChild(
            lambda: time.sleep(30) or 0, str(tmp_path / "missing" / "hb")
        )
        deadline = time.monotonic() + 20 * timeout
        ended = child.poll(timeout)
        while ended is None and time.monotonic() < deadline:
            time.sleep(timeout / 5)
            ended = child.poll(timeout)
        assert ended is not None, "the watchdog did not kill the child"
        assert ended.reason == "hung"
        assert ended.signal == signal.SIGKILL
        assert "no heartbeat" in ended.detail
        with pytest.raises(ChildProcessError):
            os.waitpid(child.pid, os.WNOHANG)  # already reaped

    def test_hung_worker_is_one_crash_per_death(
        self, service, redundant_spec, other_spec
    ):
        """Each watchdog kill is one ``worker-crashed`` event carrying
        the hung detail, not a second event for the reaped signal."""
        store, cache = service
        for spec in (redundant_spec, other_spec):
            store.submit(spec, cache=cache)
        faults.reload_env("service.slot:*@hang:60")
        try:
            dispatcher = Dispatcher(
                store,
                cache,
                self._config(
                    heartbeat_timeout_seconds=0.3,
                    policy=RetryPolicy(
                        max_restarts=1, backoff_initial_seconds=0.0
                    ),
                ),
            )
            stats = dispatcher.run()
        finally:
            faults.reload_env("")
        assert all(v.state == DONE for v in store.views())
        crashed = dispatcher.report.pool_events_of_kind("worker-crashed")
        assert stats.worker_deaths == 4
        assert len(crashed) == stats.worker_deaths
        assert all(e.detail.startswith("hung:") for e in crashed)


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------


class TestCLI:
    def test_submit_status_result_roundtrip(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert service_main(
            ["submit", "--store", root, "--demo", "redundant:2,1"]
        ) == 0
        job = capsys.readouterr().out.split()[0]
        assert service_main(
            ["run-workers", "--store", root, "--workers", "1"]
        ) == 0
        capsys.readouterr()
        assert service_main(["status", "--store", root]) == 0
        assert "done" in capsys.readouterr().out
        out_file = str(tmp_path / "result.json")
        assert service_main(
            ["result", "--store", root, job, "--output", out_file]
        ) == 0
        with open(out_file) as handle:
            payload = json.load(handle)
        assert payload["result"] == solve_spec(demo_spec("redundant:2,1"))

    def test_result_of_unfinished_job_exits_6(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        service_main(["submit", "--store", root, "--demo", "redundant:2,1"])
        job = capsys.readouterr().out.split()[0]
        assert service_main(
            ["result", "--store", root, job]
        ) == EXIT_NOT_DONE

    def test_shed_exits_5(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        service_main(["submit", "--store", root, "--demo", "redundant:2,1"])
        assert service_main(
            [
                "submit", "--store", root, "--demo", "redundant:3,1",
                "--queue-limit", "1",
            ]
        ) == EXIT_SHED

    def test_gc_verb(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        service_main(["submit", "--store", root, "--demo", "redundant:2,1"])
        service_main(["run-workers", "--store", root, "--workers", "1"])
        assert service_main(
            ["gc", "--store", root, "--prune-cache"]
        ) == 0
        capsys.readouterr()
        assert service_main(["status", "--store", root]) == 0
        assert "no jobs" in capsys.readouterr().out

    def test_status_default_is_compact_count_by_state(
        self, tmp_path, capsys
    ):
        root = str(tmp_path / "svc")
        service_main(["submit", "--store", root, "--demo", "redundant:2,1"])
        service_main(["submit", "--store", root, "--demo", "redundant:3,1"])
        capsys.readouterr()
        assert service_main(["status", "--store", root]) == 0
        assert capsys.readouterr().out.strip() == "2 job(s): queued=2"
        service_main(["run-workers", "--store", root, "--workers", "1"])
        capsys.readouterr()
        assert service_main(["status", "--store", root]) == 0
        assert capsys.readouterr().out.strip() == "2 job(s): done=2"
        # Naming a job keeps the per-job line without --verbose.
        assert service_main(["status", "--store", root, "j000001"]) == 0
        assert "j000001 done" in capsys.readouterr().out

    def test_status_and_result_tolerate_unreadable_jobs(
        self, tmp_path, capsys
    ):
        root = str(tmp_path / "svc")
        service_main(["submit", "--store", root, "--demo", "redundant:2,1"])
        capsys.readouterr()
        # An orphaned job directory: the submitter died before its spec
        # landed.  The compact scan counts it; the verbose scan skips
        # past it with a one-line notice.
        os.makedirs(os.path.join(root, "jobs", "j999999", "records"))
        assert service_main(["status", "--store", root]) == 0
        assert "unreadable=1" in capsys.readouterr().out
        assert service_main(["status", "--store", root, "--verbose"]) == 0
        captured = capsys.readouterr()
        assert "j000001" in captured.out
        assert "j999999 unreadable" in captured.err
        # Explicitly asking for an unknown job is a clean failure, not a
        # traceback.
        assert service_main(["status", "--store", root, "jnope"]) == 1
        assert "unreadable" in capsys.readouterr().err
        assert service_main(["result", "--store", root, "jnope"]) == 1
        assert "unreadable" in capsys.readouterr().err
