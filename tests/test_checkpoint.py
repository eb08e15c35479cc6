"""Crash-safe checkpoint/resume: snapshots, corruption fallback, loops."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import lump_and_solve
from repro.bench.table1 import run_table1_row_robust
from repro.lumping import compositional_lump
from repro.lumping.refinement import RefinementStats, comp_lumping
from repro.markov.ctmc import CTMC
from repro.markov.random_chains import random_ctmc
from repro.markov.solvers import (
    steady_state,
    steady_state_gauss_seidel,
    steady_state_jacobi,
    steady_state_power,
)
from repro.models import TandemParams
from repro.partitions import Partition
from repro.robust.budgets import Budget, BudgetExceeded
from repro.robust.faults import inject_faults
from repro.robust.checkpoint import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    Checkpointer,
    atomic_create_bytes,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_text,
    digest,
)
from repro.robust.report import RunReport
from repro.statespace import (
    reachable_bfs,
    reachable_mdd,
    symbolic_reachability,
)
from repro.statespace.reachability import _reach_guard

SMALL = dict(cube_dim=2, msmq_servers=2, msmq_queues=2)


def ring_ctmc(n=40, seed=7):
    """An irreducible ring chain big enough to iterate a while."""
    rng = np.random.default_rng(seed)
    triples = []
    for i in range(n):
        triples.append((i, (i + 1) % n, float(rng.uniform(0.5, 2.0))))
        triples.append((i, (i - 1) % n, float(rng.uniform(0.1, 0.5))))
    return CTMC.from_transitions(n, triples)


# ----------------------------------------------------------------------
# atomic writes
# ----------------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_bytes_text_json(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "b"), b"\x00\x01")
        atomic_write_text(str(tmp_path / "t"), "hello")
        atomic_write_json(str(tmp_path / "j"), {"a": [1, 2]})
        assert (tmp_path / "b").read_bytes() == b"\x00\x01"
        assert (tmp_path / "t").read_text() == "hello"
        assert json.loads((tmp_path / "j").read_text()) == {"a": [1, 2]}

    def test_no_tmp_file_left_behind(self, tmp_path):
        atomic_write_text(str(tmp_path / "f"), "one")
        atomic_write_text(str(tmp_path / "f"), "two")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f"]
        assert (tmp_path / "f").read_text() == "two"

    def test_digest_is_sha256(self):
        import hashlib

        assert digest(b"ab", b"c") == hashlib.sha256(b"abc").hexdigest()

    def test_atomic_create_is_first_writer_wins(self, tmp_path):
        path = str(tmp_path / "cas")
        assert atomic_create_bytes(path, b"first")
        assert not atomic_create_bytes(path, b"second")
        assert (tmp_path / "cas").read_bytes() == b"first"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cas"]


# ----------------------------------------------------------------------
# advisory lock: stale dead-PID reclaim
# ----------------------------------------------------------------------


class TestStaleLockReclaim:
    def _dead_pid(self):
        # A PID far above any default pid_max rollover still in use;
        # verify it is actually unassigned before fabricating the lock.
        pid = 2**22 - 5
        with pytest.raises(OSError):
            os.kill(pid, 0)
        return pid

    def test_dead_pid_lock_is_reclaimed_with_note(self, tmp_path):
        d = str(tmp_path)
        (tmp_path / ".lock").write_text(f"{self._dead_pid()}\n")
        report = RunReport()
        ck = Checkpointer(d, resume=True, report=report)
        with ck._locked():
            pass
        reclaimed = ck.events_of_kind("stale-lock-reclaimed")
        assert len(reclaimed) == 1
        assert str(self._dead_pid()) in reclaimed[0].detail
        assert any("reclaimed" in note for note in report.notes)
        # The lock now carries this process's stamp and keeps working.
        with ck._locked():
            with open(tmp_path / ".lock") as handle:
                assert handle.read().strip() == str(os.getpid())

    def test_own_clean_lock_is_not_reclaimed(self, tmp_path):
        d = str(tmp_path)
        ck = Checkpointer(d)
        with ck._locked():
            pass
        with ck._locked():
            pass
        assert ck.events_of_kind("stale-lock-reclaimed") == []

    def test_live_pid_stamp_is_respected(self, tmp_path):
        # A stamp from a live process (ourselves, simulating another
        # live holder between beats) must not trigger a reclaim.
        d = str(tmp_path)
        (tmp_path / ".lock").write_text(f"{os.getpid()}\n")
        ck = Checkpointer(d, resume=True)
        with ck._locked():
            pass
        assert ck.events_of_kind("stale-lock-reclaimed") == []


# ----------------------------------------------------------------------
# Checkpointer store semantics
# ----------------------------------------------------------------------


class TestCheckpointer:
    def test_save_load_roundtrip(self, tmp_path):
        d = str(tmp_path)
        ck = Checkpointer(d, fingerprint="f")
        ck.save("stage#0", {"x": [1.5, 2.5]}, guard={"n": 2})
        ck2 = Checkpointer(d, resume=True, fingerprint="f")
        record = ck2.load("stage#0", guard={"n": 2})
        assert record["payload"] == {"x": [1.5, 2.5]}
        assert not record["complete"]
        assert [e.kind for e in ck2.events] == ["resumed"]

    def test_resume_false_ignores_snapshots(self, tmp_path):
        d = str(tmp_path)
        Checkpointer(d).save("k", {"x": 1})
        ck = Checkpointer(d, resume=False)
        assert ck.load("k") is None
        assert ck.events == []

    def test_guard_mismatch_is_stale_fresh_start(self, tmp_path):
        d = str(tmp_path)
        Checkpointer(d).save("k", {"x": 1}, guard={"n": 2})
        ck = Checkpointer(d, resume=True)
        assert ck.load("k", guard={"n": 3}) is None
        assert [e.kind for e in ck.events] == ["stale"]

    def test_corrupt_snapshot_bytes_fresh_start(self, tmp_path):
        d = str(tmp_path)
        ck0 = Checkpointer(d)
        ck0.save("k", {"x": 1})
        # Flip bytes behind the manifest's back.
        path = tmp_path / ck0._filename("k")
        path.write_text(path.read_text()[:-4] + "junk")
        ck = Checkpointer(d, resume=True)
        assert ck.load("k") is None
        assert [e.kind for e in ck.events] == ["corrupt"]

    def test_truncated_snapshot_fresh_start(self, tmp_path):
        d = str(tmp_path)
        ck0 = Checkpointer(d)
        ck0.save("k", {"x": list(range(100))})
        path = tmp_path / ck0._filename("k")
        path.write_bytes(path.read_bytes()[:10])
        ck = Checkpointer(d, resume=True)
        assert ck.load("k") is None
        assert [e.kind for e in ck.events] == ["corrupt"]

    def test_version_mismatch_fresh_start(self, tmp_path):
        d = str(tmp_path)
        ck0 = Checkpointer(d)
        ck0.save("k", {"x": 1})
        path = tmp_path / ck0._filename("k")
        record = json.loads(path.read_text())
        record["format"] = FORMAT_VERSION + 1
        blob = json.dumps(record, separators=(",", ":")).encode()
        path.write_bytes(blob)
        # Keep the manifest hash valid so only the version differs.
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        import hashlib

        manifest["files"][ck0._filename("k")] = hashlib.sha256(
            blob
        ).hexdigest()
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        ck = Checkpointer(d, resume=True)
        assert ck.load("k") is None
        assert [e.kind for e in ck.events] == ["version-mismatch"]

    def test_corrupt_manifest_fresh_start(self, tmp_path):
        d = str(tmp_path)
        Checkpointer(d).save("k", {"x": 1})
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        ck = Checkpointer(d, resume=True)
        assert [e.kind for e in ck.events] == ["manifest-corrupt"]
        assert ck.load("k") is None  # manifest gone -> nothing to resume

    def test_fingerprint_mismatch_is_manifest_stale(self, tmp_path):
        d = str(tmp_path)
        Checkpointer(d, fingerprint="run A").save("k", {"x": 1})
        ck = Checkpointer(d, resume=True, fingerprint="run B")
        assert [e.kind for e in ck.events] == ["manifest-stale"]
        assert ck.load("k") is None

    def test_missing_manifest_is_silent(self, tmp_path):
        ck = Checkpointer(str(tmp_path), resume=True)
        assert ck.events == []
        assert ck.load("anything") is None

    def test_events_reach_the_report(self, tmp_path):
        d = str(tmp_path)
        Checkpointer(d).save("k", {"x": 1}, guard={"n": 1})
        report = RunReport()
        ck = Checkpointer(d, resume=True, report=report)
        ck.load("k", guard={"n": 2})
        events = report.fallbacks_for("checkpoint")
        assert len(events) == 1
        assert events[0].used == "fresh start"
        assert "stale" in events[0].reason

    def test_sequence_keys_replay_deterministically(self, tmp_path):
        ck = Checkpointer(str(tmp_path))
        with ck.scoped("lumping"):
            assert ck.sequence_key("refinement") == "lumping/refinement#0"
            assert ck.sequence_key("refinement") == "lumping/refinement#1"
            with ck.scoped("level2"):
                assert (
                    ck.sequence_key("refinement")
                    == "lumping/level2/refinement#0"
                )
        assert ck.sequence_key("refinement") == "refinement#0"

    def test_manifest_and_snapshots_on_disk(self, tmp_path):
        ck = Checkpointer(str(tmp_path), fingerprint="fp")
        ck.save("a/b#0", {"x": 1})
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["format"] == FORMAT_VERSION
        assert manifest["fingerprint"] == "fp"
        (filename,) = manifest["files"]
        assert os.path.exists(tmp_path / filename)


# ----------------------------------------------------------------------
# per-loop kill-and-resume (the crash-equivalence contract, unit level)
# ----------------------------------------------------------------------


class TestSolverResume:
    def test_power_budget_kill_then_resume_bitwise(self, tmp_path):
        ctmc = ring_ctmc()
        clean = steady_state_power(ctmc, tol=1e-10)
        assert clean.iterations > 60
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            with Checkpointer(ck_dir), Budget(max_iterations=50):
                steady_state_power(ctmc, tol=1e-10)
        with Checkpointer(ck_dir, resume=True) as ck:
            resumed = steady_state_power(ctmc, tol=1e-10)
        assert any(e.kind == "resumed" for e in ck.events)
        assert resumed.iterations == clean.iterations
        assert np.array_equal(resumed.distribution, clean.distribution)

    def test_gauss_seidel_budget_kill_then_resume_bitwise(self, tmp_path):
        ctmc = ring_ctmc(n=25)
        clean = steady_state_gauss_seidel(ctmc, tol=1e-12)
        assert clean.iterations > 30
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            with Checkpointer(ck_dir), Budget(max_iterations=20):
                steady_state_gauss_seidel(ctmc, tol=1e-12)
        with Checkpointer(ck_dir, resume=True):
            resumed = steady_state_gauss_seidel(ctmc, tol=1e-12)
        assert resumed.iterations == clean.iterations
        assert np.array_equal(resumed.distribution, clean.distribution)

    def test_jacobi_budget_kill_then_resume_bitwise(self, tmp_path):
        ctmc = ring_ctmc()
        clean = steady_state_jacobi(ctmc, tol=1e-12)
        assert clean.iterations > 60
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            with Checkpointer(ck_dir), Budget(max_iterations=50):
                steady_state_jacobi(ctmc, tol=1e-12)
        with Checkpointer(ck_dir, resume=True) as ck:
            resumed = steady_state_jacobi(ctmc, tol=1e-12)
        assert any(e.kind == "resumed" for e in ck.events)
        assert resumed.iterations == clean.iterations
        assert np.array_equal(resumed.distribution, clean.distribution)

    def test_completed_solve_is_skipped_on_rerun(self, tmp_path):
        ctmc = ring_ctmc()
        ck_dir = str(tmp_path)
        with Checkpointer(ck_dir):
            first = steady_state_power(ctmc, tol=1e-10)
        with Checkpointer(ck_dir, resume=True) as ck, Budget(
            max_iterations=1
        ):
            # One iteration of budget would die instantly if the solver
            # actually ran; the complete snapshot short-circuits it.
            again = steady_state_power(ctmc, tol=1e-10)
        assert any(e.kind == "skipped" for e in ck.events)
        assert np.array_equal(again.distribution, first.distribution)
        assert again.iterations == first.iterations

    def test_different_generator_is_stale(self, tmp_path):
        ck_dir = str(tmp_path)
        with Checkpointer(ck_dir):
            steady_state_power(ring_ctmc(seed=1), tol=1e-10)
        with Checkpointer(ck_dir, resume=True) as ck:
            steady_state_power(ring_ctmc(seed=2), tol=1e-10)
        assert any(e.kind == "stale" for e in ck.events)


#: A child that solves under a checkpointer saving every 8 iterations and
#: an effectively unlimited budget, so that ``REPRO_FAULTS`` can SIGKILL
#: it at a budget-hook call.  argv: checkpoint directory, method.
_KILLED_SOLVE = """
import sys
from repro.markov.random_chains import random_ctmc
from repro.markov.solvers import steady_state
from repro.robust.budgets import Budget
from repro.robust.checkpoint import Checkpointer
with Checkpointer(sys.argv[1], interval_iterations=8):
    with Budget(max_iterations=10**9):
        steady_state(random_ctmc(40, density=0.1, seed=5), method=sys.argv[2])
"""


class TestSolverSigkillResume:
    """A solver process killed outright leaves only its periodic
    ``tick`` snapshots (no ``BudgetExceeded`` handler runs), and a
    resume from the last of them must replay the clean solve bitwise."""

    #: The budget-hook call that kills the child: iteration 24's charge,
    #: after the snapshots of iterations 8 and 16.  Gauss-Seidel, the
    #: fastest of the three, needs 35 iterations on this chain.
    KILL_AT = 24

    @pytest.mark.parametrize("method", ["power", "jacobi", "gauss-seidel"])
    def test_sigkill_then_resume_from_periodic_snapshot_bitwise(
        self, tmp_path, method
    ):
        ctmc = random_ctmc(40, density=0.1, seed=5)
        clean = steady_state(ctmc, method=method)
        assert clean.iterations > self.KILL_AT
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_FAULTS_FIRED_LOG", None)
        env["REPRO_FAULTS"] = f"budget:{self.KILL_AT}@sigkill"
        child = subprocess.run(
            [sys.executable, "-c", _KILLED_SOLVE, str(tmp_path), method],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr
        with Checkpointer(str(tmp_path), resume=True) as ck:
            resumed = steady_state(ctmc, method=method)
        assert any(e.kind == "resumed" for e in ck.events)
        assert resumed.iterations == clean.iterations
        assert np.array_equal(resumed.distribution, clean.distribution)


class TestRefinementResume:
    N = 120
    BLOCKS = 12

    def _chain_factory(self):
        from repro.lumping.keys import flat_ordinary_splitter
        from repro.markov.random_chains import random_ordinarily_lumpable

        chain, planted = random_ordinarily_lumpable(
            self.N, self.BLOCKS, seed=11
        )
        return flat_ordinary_splitter(chain.rate_matrix), planted

    def test_budget_kill_then_resume_identical_partition(self, tmp_path):
        factory, _ = self._chain_factory()
        initial = Partition.trivial(self.N)
        clean = comp_lumping(self.N, factory, initial)
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            with Checkpointer(ck_dir), Budget(max_iterations=3):
                comp_lumping(self.N, factory, initial)
        with Checkpointer(ck_dir, resume=True):
            resumed = comp_lumping(self.N, factory, initial)
        # Bitwise-identical partitions, including the block id layout.
        assert resumed.canonical() == clean.canonical()
        assert resumed.blocks_with_ids() == clean.blocks_with_ids()
        assert resumed.next_block_id == clean.next_block_id

    def test_stats_deltas_survive_resume(self, tmp_path):
        factory, _ = self._chain_factory()
        initial = Partition.trivial(self.N)
        clean_stats = RefinementStats()
        comp_lumping(self.N, factory, initial, stats=clean_stats)
        assert clean_stats.splitters_processed > 3
        ck_dir = str(tmp_path)
        killed_stats = RefinementStats()
        with pytest.raises(BudgetExceeded):
            with Checkpointer(ck_dir), Budget(max_iterations=3):
                comp_lumping(self.N, factory, initial, stats=killed_stats)
        resumed_stats = RefinementStats()
        with Checkpointer(ck_dir, resume=True):
            comp_lumping(self.N, factory, initial, stats=resumed_stats)
        assert (
            resumed_stats.splitters_processed
            == clean_stats.splitters_processed
        )
        assert resumed_stats.blocks_created == clean_stats.blocks_created


def _mdd_states(event_model):
    return reachable_mdd(event_model).states


def _symbolic_states(event_model):
    symbolic = symbolic_reachability(event_model)
    return list(symbolic.manager.tuples(symbolic.node))


# The two entry points to the saturation fixpoint and its snapshots.
SATURATION_RUNS = pytest.mark.parametrize(
    "states_of", [_mdd_states, _symbolic_states], ids=["mdd", "symbolic"]
)


class TestReachabilityResume:
    def test_bfs_budget_kill_then_resume_same_states(
        self, small_tandem, tmp_path
    ):
        event_model = small_tandem["event_model"]
        clean = reachable_bfs(event_model)
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            with Checkpointer(ck_dir), Budget(max_states=100):
                reachable_bfs(event_model)
        with Checkpointer(ck_dir, resume=True) as ck:
            resumed = reachable_bfs(event_model)
        assert any(e.kind == "resumed" for e in ck.events)
        assert resumed.states == clean.states

    def test_completed_bfs_is_skipped(self, small_tandem, tmp_path):
        event_model = small_tandem["event_model"]
        ck_dir = str(tmp_path)
        with Checkpointer(ck_dir):
            first = reachable_bfs(event_model)
        with Checkpointer(ck_dir, resume=True), Budget(max_states=1):
            again = reachable_bfs(event_model)
        assert again.states == first.states

    @SATURATION_RUNS
    def test_saturation_budget_kill_then_resume_same_states(
        self, small_tandem, tmp_path, states_of
    ):
        event_model = small_tandem["event_model"]
        clean = states_of(event_model)
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            with Checkpointer(ck_dir), Budget(max_states=100):
                states_of(event_model)
        with Checkpointer(ck_dir, resume=True) as ck:
            resumed = states_of(event_model)
        assert any(e.kind == "resumed" for e in ck.events)
        assert resumed == clean

    @SATURATION_RUNS
    def test_completed_saturation_is_skipped(
        self, small_tandem, tmp_path, states_of
    ):
        event_model = small_tandem["event_model"]
        ck_dir = str(tmp_path)
        with Checkpointer(ck_dir):
            first = states_of(event_model)
        with Checkpointer(ck_dir, resume=True), Budget(max_states=1):
            again = states_of(event_model)
        assert again == first

    @SATURATION_RUNS
    def test_tuple_layout_saturation_snapshot_is_stale(
        self, small_tandem, tmp_path, states_of
    ):
        # A complete snapshot in the earlier layout (state tuples, under
        # a guard without the layout marker), holding only the initial
        # state: a resume must not take it, and starts afresh.
        event_model = small_tandem["event_model"]
        clean = states_of(event_model)
        initial = event_model.initial_state
        with Checkpointer(str(tmp_path)) as ck:
            ck.save(
                ck.sequence_key("reachability.saturation"),
                {"tuples": [list(initial)], "top": 1},
                guard=_reach_guard(event_model, [initial]),
                complete=True,
            )
        with Checkpointer(str(tmp_path), resume=True) as ck:
            resumed = states_of(event_model)
        assert any(e.kind == "stale" for e in ck.events)
        assert resumed == clean


# ----------------------------------------------------------------------
# pipeline-level resume
# ----------------------------------------------------------------------


class TestPipelineResume:
    def test_lump_and_solve_checkpointed_resume(self, small_tandem, tmp_path):
        model = small_tandem["model"]
        clean = lump_and_solve(model, method="gauss-seidel")
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            with Budget(max_iterations=10):
                lump_and_solve(
                    model, method="gauss-seidel", checkpoint_dir=ck_dir
                )
        resumed = lump_and_solve(
            model,
            method="gauss-seidel",
            checkpoint_dir=ck_dir,
            resume=True,
        )
        assert np.array_equal(resumed.stationary, clean.stationary)
        assert (
            [p.canonical() for p in resumed.lumping.partitions]
            == [p.canonical() for p in clean.lumping.partitions]
        )

    def test_robust_table1_mid_pipeline_kill_resume(self, tmp_path):
        """Kill mid-pipeline (fault-injected budget stop) and resume.

        A real tight budget degrades gracefully instead of dying, so the
        crash is staged with an injected ``InjectedBudgetFault`` (which IS
        a BudgetExceeded) firing from the 200th budget-hook call onward —
        deep inside lumping for this model size.
        """
        params = TandemParams(jobs=1, **SMALL)
        clean = run_table1_row_robust(1, params)
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            with inject_faults("budget:200+"), Budget(
                max_iterations=10**9
            ):
                run_table1_row_robust(1, params, checkpoint_dir=ck_dir)
        assert os.path.exists(os.path.join(ck_dir, MANIFEST_NAME))
        resumed = run_table1_row_robust(
            1, params, checkpoint_dir=ck_dir, resume=True
        )
        assert resumed.row.unlumped_overall == clean.row.unlumped_overall
        assert resumed.row.lumped_overall == clean.row.lumped_overall
        assert (
            resumed.row.unlumped_level_sizes
            == clean.row.unlumped_level_sizes
        )
        assert np.array_equal(resumed.stationary, clean.stationary)
        assert any("resumed" in note for note in resumed.report.notes)

    def test_budget_exhaustion_persists_final_checkpoint(self, tmp_path):
        """A genuinely exhausted budget still lands a final snapshot."""
        params = TandemParams(jobs=1, **SMALL)
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            run_table1_row_robust(
                1,
                params,
                budget=Budget(max_iterations=5),
                checkpoint_dir=ck_dir,
            )
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["files"]  # something was saved before the stop

    def test_resume_after_real_budget_stop_with_larger_budget(
        self, tmp_path
    ):
        """The ISSUE's re-run-with-larger-budget contract."""
        params = TandemParams(jobs=1, **SMALL)
        clean = run_table1_row_robust(1, params)
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            run_table1_row_robust(
                1,
                params,
                budget=Budget(max_iterations=5),
                checkpoint_dir=ck_dir,
            )
        resumed = run_table1_row_robust(
            1,
            params,
            budget=Budget(max_iterations=10**9),
            checkpoint_dir=ck_dir,
            resume=True,
        )
        assert np.array_equal(resumed.stationary, clean.stationary)

    def test_corruption_between_runs_recorded_and_recovered(self, tmp_path):
        params = TandemParams(jobs=1, **SMALL)
        clean = run_table1_row_robust(1, params)
        ck_dir = str(tmp_path)
        with pytest.raises(BudgetExceeded):
            with inject_faults("budget:200+"), Budget(
                max_iterations=10**9
            ):
                run_table1_row_robust(1, params, checkpoint_dir=ck_dir)
        # Corrupt every snapshot on disk.
        for path in tmp_path.iterdir():
            if path.name != MANIFEST_NAME:
                path.write_bytes(path.read_bytes()[:-2] + b"xx")
        resumed = run_table1_row_robust(
            1, params, checkpoint_dir=ck_dir, resume=True
        )
        # Degrades to a fresh start without raising, records the events,
        # and still produces the clean answer.
        assert np.array_equal(resumed.stationary, clean.stationary)
        checkpoint_events = resumed.report.fallbacks_for("checkpoint")
        assert checkpoint_events
        assert all(e.used == "fresh start" for e in checkpoint_events)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestCLI:
    def test_kill_then_resume_via_cli(self, tmp_path, capsys):
        from repro.bench.__main__ import main as cli_main

        ck_dir = str(tmp_path / "ckpt")
        args = [
            "--jobs", "1", "--cube-dim", "2",
            "--msmq-servers", "2", "--msmq-queues", "2",
            "--robust", "--checkpoint-dir", ck_dir,
        ]
        status = cli_main(args + ["--iteration-budget", "5"])
        captured = capsys.readouterr()
        assert status == 2
        assert "budget exhausted" in captured.err
        assert "--resume" in captured.err
        assert os.path.exists(os.path.join(ck_dir, MANIFEST_NAME))
        status = cli_main(args + ["--resume"])
        resumed_out = capsys.readouterr().out
        assert status == 0
        # Straight-through run for comparison.
        status = cli_main(
            [
                "--jobs", "1", "--cube-dim", "2",
                "--msmq-servers", "2", "--msmq-queues", "2",
                "--robust",
            ]
        )
        straight_out = capsys.readouterr().out
        assert status == 0

        def size_sections(text):
            return text.split("Generation/lumping times")[0]

        assert size_sections(resumed_out) == size_sections(straight_out)

    def test_checkpoint_dir_requires_robust(self, tmp_path):
        from repro.bench.__main__ import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["--checkpoint-dir", str(tmp_path)])

    def test_resume_requires_checkpoint_dir(self):
        from repro.bench.__main__ import main as cli_main

        with pytest.raises(SystemExit):
            cli_main(["--robust", "--resume"])
