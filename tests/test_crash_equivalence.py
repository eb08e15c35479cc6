"""Property-based crash-equivalence for checkpoint/resume.

The contract under test: kill the robust pipeline at ANY budget-hook
call site (staged with an injected ``InjectedBudgetFault``, which is a
real ``BudgetExceeded``), resume from the checkpoint directory, and the
final answer must match an uninterrupted run — same table row sizes and
a stationary distribution equal within solver tolerance (observed to be
bitwise-identical, which the test also records).
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.bench.table1 import run_table1_row_robust  # noqa: E402
from repro.models import TandemParams  # noqa: E402
from repro.robust.budgets import Budget, BudgetExceeded  # noqa: E402
from repro.robust.faults import FaultInjector, FaultRule, inject_faults  # noqa: E402

PARAMS = TandemParams(jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2)

_BASELINE = {}


def _baseline():
    """Clean run + total budget-hook call count, computed once."""
    if not _BASELINE:
        # A never-firing rule counts calls without ever failing.  The
        # budget hooks (where 'budget' faults are checked) are live only
        # while a Budget is active, so run under an effectively
        # unlimited one — the same setup the killed runs use.
        counter = FaultRule("budget", fail_on=frozenset())
        injector = FaultInjector([counter])
        with injector, Budget(max_iterations=10**9):
            clean = run_table1_row_robust(1, PARAMS)
        _BASELINE["clean"] = clean
        _BASELINE["total_calls"] = injector.call_count("budget")
    return _BASELINE


def test_baseline_has_enough_fault_sites():
    base = _baseline()
    # The pipeline must expose plenty of distinct kill sites for the
    # property below to be meaningful.
    assert base["total_calls"] > 500


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_kill_anywhere_then_resume_matches_clean(data):
    base = _baseline()
    clean = base["clean"]
    site = data.draw(
        st.integers(min_value=1, max_value=base["total_calls"]),
        label="kill at budget-hook call",
    )
    with tempfile.TemporaryDirectory() as ck_dir:
        with pytest.raises(BudgetExceeded):
            with inject_faults(f"budget:{site}+"), Budget(
                max_iterations=10**9
            ):
                run_table1_row_robust(1, PARAMS, checkpoint_dir=ck_dir)
        resumed = run_table1_row_robust(
            1, PARAMS, checkpoint_dir=ck_dir, resume=True
        )
    assert resumed.row.unlumped_overall == clean.row.unlumped_overall
    assert resumed.row.lumped_overall == clean.row.lumped_overall
    assert (
        resumed.row.unlumped_level_sizes == clean.row.unlumped_level_sizes
    )
    assert resumed.row.lumped_level_sizes == clean.row.lumped_level_sizes
    assert resumed.stationary.shape == clean.stationary.shape
    assert np.allclose(
        resumed.stationary, clean.stationary, rtol=0.0, atol=1e-8
    )
    # Stronger than the contract requires, but it holds: the replayed
    # arithmetic is deterministic, so the match is bitwise.
    assert np.array_equal(resumed.stationary, clean.stationary)


# ----------------------------------------------------------------------
# sweep kill-anywhere (PR 10)
#
# The sweep engine's contract: SIGKILL the driver at ANY ``sweep.point``
# (per-point solve attempt) or ``sweep.frontier`` (persistence boundary:
# the manifest write and every per-point record write) fault site, then
# ``--resume``, and the per-point outcome table is bitwise-identical to
# an uninterrupted sweep — same point ids in the same order (zero lost,
# zero duplicated), same statuses, same stationary vectors.  Real
# SIGKILL needs a real process, so these drive ``python -m repro.sweep``
# in subprocesses.
# ----------------------------------------------------------------------

_REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Plan size of the property-test sweep (small: each example runs two
#: full sweep subprocesses).
_SWEEP_N = 4

#: Sweep CLI tail shared by every run of one sweep (the store/table/
#: resume arguments vary per invocation).  The short lease bounds how
#: long a resume waits to reclaim the killed driver's in-flight point.
_SWEEP_ARGS = [
    "--demo", "tandem:1,2,2,2",
    "--method", "power",
    "--grid", f"rate=0.5:2.0:{_SWEEP_N}",
    "--lease-seconds", "1",
]


def _sweep_cli(store, table, args, *, resume=False, faults=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = _REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULTS_FIRED_LOG", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    cmd = [
        sys.executable, "-m", "repro.sweep", "run",
        "--store", store, "--table", table, *args,
    ]
    if resume:
        cmd.append("--resume")
    return subprocess.run(
        cmd, env=env, capture_output=True, text=True, timeout=600
    )


def _table_points(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["points"]


def _sweep_tables_bitwise_equal(resumed, clean):
    # Zero lost, zero duplicated: identical id sequences.
    assert [p["point_id"] for p in resumed] == [
        p["point_id"] for p in clean
    ]
    for ours, theirs in zip(resumed, clean):
        assert ours["status"] == theirs["status"], ours["point_id"]
        # Bitwise: the JSON float round-trip is exact (repr shortest
        # round-trip), so list equality is bit equality.
        assert ours["stationary"] == theirs["stationary"], ours["point_id"]


_SWEEP_BASELINE = {}


def _sweep_baseline():
    """Uninterrupted sweep table, computed once per test session."""
    if not _SWEEP_BASELINE:
        tmp = tempfile.mkdtemp(prefix="sweep-clean-")
        table = os.path.join(tmp, "table.json")
        proc = _sweep_cli(os.path.join(tmp, "store"), table, _SWEEP_ARGS)
        assert proc.returncode == 0, proc.stderr
        _SWEEP_BASELINE["points"] = _table_points(table)
    return _SWEEP_BASELINE["points"]


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_sweep_kill_anywhere_then_resume_matches_uninterrupted(data):
    clean = _sweep_baseline()
    kind = data.draw(
        st.sampled_from(["point", "frontier"]), label="fault site"
    )
    if kind == "point":
        index = data.draw(
            st.integers(min_value=1, max_value=_SWEEP_N),
            label="kill at sweep.point index",
        )
        fault = f"sweep.point:{index}@sigkill"
    else:
        # Frontier writes in one uninterrupted run: 1 manifest +
        # _SWEEP_N per-point records.
        call = data.draw(
            st.integers(min_value=1, max_value=_SWEEP_N + 1),
            label="kill at sweep.frontier write",
        )
        fault = f"sweep.frontier:{call}@sigkill"
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "store")
        killed = _sweep_cli(
            store, os.path.join(tmp, "killed.json"), _SWEEP_ARGS,
            faults=fault,
        )
        assert killed.returncode == -signal.SIGKILL, (
            killed.returncode, killed.stdout, killed.stderr,
        )
        resumed_table = os.path.join(tmp, "resumed.json")
        resumed = _sweep_cli(
            store, resumed_table, _SWEEP_ARGS, resume=True
        )
        assert resumed.returncode == 0, resumed.stderr
        _sweep_tables_bitwise_equal(_table_points(resumed_table), clean)


def test_sweep_200_points_killed_and_resumed_bitwise_identical():
    """The acceptance-scale deterministic variant: a 200-point sweep
    killed mid-plan and resumed must reproduce the uninterrupted table
    bitwise, with all 200 points present exactly once."""
    args = [
        "--demo", "redundant:2,2",
        "--method", "direct",
        "--no-certify",
        "--grid", "rate=0.5:2.0:200",
        "--lease-seconds", "1",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        clean_table = os.path.join(tmp, "clean.json")
        proc = _sweep_cli(os.path.join(tmp, "clean_store"), clean_table, args)
        assert proc.returncode == 0, proc.stderr
        clean = _table_points(clean_table)
        assert len(clean) == 200
        store = os.path.join(tmp, "store")
        killed = _sweep_cli(
            store, os.path.join(tmp, "killed.json"), args,
            faults="sweep.point:137@sigkill",
        )
        assert killed.returncode == -signal.SIGKILL
        resumed_table = os.path.join(tmp, "resumed.json")
        resumed = _sweep_cli(store, resumed_table, args, resume=True)
        assert resumed.returncode == 0, resumed.stderr
        points = _table_points(resumed_table)
        assert len(points) == 200
        assert all(p["status"] == "done" for p in points)
        _sweep_tables_bitwise_equal(points, clean)
