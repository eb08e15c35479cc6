"""The one lump-and-solve pipeline: golden pins and option coverage.

Golden pins: every option combination of ``lump_and_solve`` runs on two
small models (the small tandem and the ``redundant:3,1`` demo), and the
Table-1 row runners run on the small tandem.  A solve pin holds the
sha256 prefix of the stationary vector's float64 bytes, the method that
produced it, the lumped state count, whether a certificate passed and,
for the modes that record a run report (robust, supervised), the
report's stage, attempt and fallback records.  A row pin holds every
``Table1Row`` field except the two timings.  The pins are bitwise: only
a change that is meant to move these numbers may regenerate them.

The remaining tests cover what every mode must honour: a budget, a
passed report, and a precomputed lumping with a warm start under
supervision.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.analysis import lump_and_solve
from repro.bench.__main__ import main as cli_main
from repro.bench.table1 import (
    run_table1_row,
    run_table1_row_robust,
    run_table1_row_symbolic,
)
from repro.lumping import compositional_lump
from repro.models import TandemParams
from repro.robust import faults
from repro.robust.budgets import Budget, BudgetExceeded
from repro.robust.report import RunReport
from repro.robust.retry import RetryPolicy
from repro.robust.supervisor import SupervisorConfig
from repro.service.spec import demo_spec, model_from_spec

#: No-backoff supervision, so a restart never sleeps.
FAST_SUPERVISOR = SupervisorConfig(
    policy=RetryPolicy(max_restarts=2, backoff_initial_seconds=0.0)
)

SMALL = dict(cube_dim=2, msmq_servers=2, msmq_queues=2)

#: Pin name -> ``lump_and_solve`` keywords.  ``reuse`` stands for a
#: precomputed ``lumping=`` plus an ``x0=`` warm start.
SOLVE_CASES = {
    "plain-direct": {},
    "plain-power": {"method": "power"},
    "robust-direct": {"robust": True},
    "robust-power": {"robust": True, "method": "power"},
    "plain-direct-certify": {"certify": True},
    "plain-power-certify": {"method": "power", "certify": True},
    "robust-direct-certify": {"robust": True, "certify": True},
    "robust-power-certify": {
        "robust": True, "method": "power", "certify": True,
    },
    "plain-power-reuse": {"method": "power", "reuse": True},
    "robust-power-reuse": {"robust": True, "method": "power", "reuse": True},
    "supervised-direct": {"supervised": True},
}

#: Pin name -> (row runner, jobs, keywords).
ROW_CASES = {
    "row": (run_table1_row, 1, {}),
    "row-mdd": (run_table1_row, 1, {"reach_engine": "mdd"}),
    "row-exact": (run_table1_row, 1, {"kind": "exact"}),
    "row-symbolic": (run_table1_row_symbolic, 1, {}),
    "row-symbolic-j2": (run_table1_row_symbolic, 2, {}),
    "row-robust": (run_table1_row_robust, 1, {}),
    "row-robust-bfs-exact": (
        run_table1_row_robust, 1, {"engines": ("bfs",), "kind": "exact"},
    ),
    "row-supervised": (run_table1_row_robust, 1, {"supervised": True}),
}

SOLVE_PINS = {
    "redundant/plain-direct": {
        "sha": "404ae1e6bbe7eb02",
        "method": "direct",
        "states": 15,
        "certified": None,
    },
    "redundant/plain-direct-certify": {
        "sha": "404ae1e6bbe7eb02",
        "method": "direct",
        "states": 15,
        "certified": True,
    },
    "redundant/plain-power": {
        "sha": "dbe8df3510d7e4c9",
        "method": "power",
        "states": 15,
        "certified": None,
    },
    "redundant/plain-power-certify": {
        "sha": "dbe8df3510d7e4c9",
        "method": "power",
        "states": 15,
        "certified": True,
    },
    "redundant/plain-power-reuse": {
        "sha": "f980e02b1577af04",
        "method": "power",
        "states": 15,
        "certified": None,
    },
    "redundant/robust-direct": {
        "sha": "404ae1e6bbe7eb02",
        "method": "direct",
        "states": 15,
        "certified": None,
        "stages": [("lumping", "ok"), ("solve", "ok")],
        "attempts": [("solve", "direct", True)],
        "fallbacks": [],
    },
    "redundant/robust-direct-certify": {
        "sha": "404ae1e6bbe7eb02",
        "method": "direct",
        "states": 15,
        "certified": True,
        "stages": [("lumping", "ok"), ("solve", "ok"), ("certify", "ok")],
        "attempts": [
            ("solve", "direct", True),
            ("certificate", "certify:direct", True),
        ],
        "fallbacks": [],
    },
    "redundant/robust-power": {
        "sha": "dbe8df3510d7e4c9",
        "method": "power",
        "states": 15,
        "certified": None,
        "stages": [("lumping", "ok"), ("solve", "ok")],
        "attempts": [("solve", "power", True)],
        "fallbacks": [],
    },
    "redundant/robust-power-certify": {
        "sha": "dbe8df3510d7e4c9",
        "method": "power",
        "states": 15,
        "certified": True,
        "stages": [("lumping", "ok"), ("solve", "ok"), ("certify", "ok")],
        "attempts": [
            ("solve", "power", True),
            ("certificate", "certify:power", True),
        ],
        "fallbacks": [],
    },
    "redundant/robust-power-reuse": {
        "sha": "f980e02b1577af04",
        "method": "power",
        "states": 15,
        "certified": None,
        "stages": [("lumping", "ok"), ("solve", "ok")],
        "attempts": [("solve", "power", True)],
        "fallbacks": [],
    },
    "redundant/supervised-direct": {
        "sha": "404ae1e6bbe7eb02",
        "method": "direct",
        "states": 15,
        "certified": None,
        "stages": [("lumping", "ok"), ("solve", "ok")],
        "attempts": [("solve", "direct", True)],
        "fallbacks": [],
    },
    "tandem/plain-direct": {
        "sha": "bc4810111eaa3df0",
        "method": "direct",
        "states": 129,
        "certified": None,
    },
    "tandem/plain-direct-certify": {
        "sha": "bc4810111eaa3df0",
        "method": "direct",
        "states": 129,
        "certified": True,
    },
    "tandem/plain-power": {
        "sha": "2d781d841eb4d556",
        "method": "power",
        "states": 129,
        "certified": None,
    },
    "tandem/plain-power-certify": {
        "sha": "2d781d841eb4d556",
        "method": "power",
        "states": 129,
        "certified": True,
    },
    "tandem/plain-power-reuse": {
        "sha": "5984aaf2566375d7",
        "method": "power",
        "states": 129,
        "certified": None,
    },
    "tandem/robust-direct": {
        "sha": "bc4810111eaa3df0",
        "method": "direct",
        "states": 129,
        "certified": None,
        "stages": [("lumping", "ok"), ("solve", "ok")],
        "attempts": [("solve", "direct", True)],
        "fallbacks": [],
    },
    "tandem/robust-direct-certify": {
        "sha": "bc4810111eaa3df0",
        "method": "direct",
        "states": 129,
        "certified": True,
        "stages": [("lumping", "ok"), ("solve", "ok"), ("certify", "ok")],
        "attempts": [
            ("solve", "direct", True),
            ("certificate", "certify:direct", True),
        ],
        "fallbacks": [],
    },
    "tandem/robust-power": {
        "sha": "2d781d841eb4d556",
        "method": "power",
        "states": 129,
        "certified": None,
        "stages": [("lumping", "ok"), ("solve", "ok")],
        "attempts": [("solve", "power", True)],
        "fallbacks": [],
    },
    "tandem/robust-power-certify": {
        "sha": "2d781d841eb4d556",
        "method": "power",
        "states": 129,
        "certified": True,
        "stages": [("lumping", "ok"), ("solve", "ok"), ("certify", "ok")],
        "attempts": [
            ("solve", "power", True),
            ("certificate", "certify:power", True),
        ],
        "fallbacks": [],
    },
    "tandem/robust-power-reuse": {
        "sha": "5984aaf2566375d7",
        "method": "power",
        "states": 129,
        "certified": None,
        "stages": [("lumping", "ok"), ("solve", "ok")],
        "attempts": [("solve", "power", True)],
        "fallbacks": [],
    },
    "tandem/supervised-direct": {
        "sha": "bc4810111eaa3df0",
        "method": "direct",
        "states": 129,
        "certified": None,
        "stages": [("lumping", "ok"), ("solve", "ok")],
        "attempts": [("solve", "direct", True)],
        "fallbacks": [],
    },
}

ROW_PINS = {
    "row": {
        "jobs": 1,
        "unlumped_overall": 640,
        "unlumped_level_sizes": [3, 80, 20],
        "md_nodes_per_level": [1, 6, 4],
        "lumped_overall": 129,
        "lumped_level_sizes": [3, 33, 7],
        "md_memory_bytes": 20584,
        "lumped_md_memory_bytes": 7644,
    },
    "row-exact": {
        "jobs": 1,
        "unlumped_overall": 640,
        "unlumped_level_sizes": [3, 80, 20],
        "md_nodes_per_level": [1, 6, 4],
        "lumped_overall": 198,
        "lumped_level_sizes": [3, 33, 11],
        "md_memory_bytes": 20584,
        "lumped_md_memory_bytes": 8004,
    },
    "row-mdd": {
        "jobs": 1,
        "unlumped_overall": 640,
        "unlumped_level_sizes": [3, 80, 20],
        "md_nodes_per_level": [1, 6, 4],
        "lumped_overall": 129,
        "lumped_level_sizes": [3, 33, 7],
        "md_memory_bytes": 20584,
        "lumped_md_memory_bytes": 7644,
    },
    "row-robust": {
        "sha": "bc4810111eaa3df0",
        "method": "direct",
        "engine": "mdd",
        "jobs": 1,
        "unlumped_overall": 640,
        "unlumped_level_sizes": [3, 80, 20],
        "md_nodes_per_level": [1, 6, 4],
        "lumped_overall": 129,
        "lumped_level_sizes": [3, 33, 7],
        "md_memory_bytes": 20584,
        "lumped_md_memory_bytes": 7644,
        "stages": [("generation", "ok"), ("lumping", "ok"), ("solve", "ok")],
        "attempts": [("generation", "mdd", True), ("solve", "direct", True)],
        "fallbacks": [],
    },
    "row-robust-bfs-exact": {
        "sha": "4bd529019754702d",
        "method": "direct",
        "engine": "bfs",
        "jobs": 1,
        "unlumped_overall": 640,
        "unlumped_level_sizes": [3, 80, 20],
        "md_nodes_per_level": [1, 6, 4],
        "lumped_overall": 198,
        "lumped_level_sizes": [3, 33, 11],
        "md_memory_bytes": 20584,
        "lumped_md_memory_bytes": 8004,
        "stages": [("generation", "ok"), ("lumping", "ok"), ("solve", "ok")],
        "attempts": [("generation", "bfs", True), ("solve", "direct", True)],
        "fallbacks": [],
    },
    "row-supervised": {
        "sha": "bc4810111eaa3df0",
        "method": "direct",
        "engine": "mdd",
        "jobs": 1,
        "unlumped_overall": 640,
        "unlumped_level_sizes": [3, 80, 20],
        "md_nodes_per_level": [1, 6, 4],
        "lumped_overall": 129,
        "lumped_level_sizes": [3, 33, 7],
        "md_memory_bytes": 20584,
        "lumped_md_memory_bytes": 7644,
        "stages": [("generation", "ok"), ("lumping", "ok"), ("solve", "ok")],
        "attempts": [("generation", "mdd", True), ("solve", "direct", True)],
        "fallbacks": [],
    },
    "row-symbolic": {
        "jobs": 1,
        "unlumped_overall": 640,
        "unlumped_level_sizes": [3, 80, 20],
        "md_nodes_per_level": [1, 6, 4],
        "lumped_overall": 129,
        "lumped_level_sizes": [3, 33, 7],
        "md_memory_bytes": 20584,
        "lumped_md_memory_bytes": 7644,
    },
    "row-symbolic-j2": {
        "jobs": 2,
        "unlumped_overall": 3392,
        "unlumped_level_sizes": [6, 240, 52],
        "md_nodes_per_level": [1, 6, 4],
        "lumped_overall": 575,
        "lumped_level_sizes": [6, 91, 18],
        "md_memory_bytes": 67904,
        "lumped_md_memory_bytes": 22708,
    },
}


def _sha(vector):
    data = np.ascontiguousarray(vector, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()[:16]


def _warm_start(n):
    return np.linspace(1.0, 2.0, n)


def _report_records(report):
    return {
        "stages": [(s.name, s.status) for s in report.stages],
        "attempts": [(a.stage, a.name, a.succeeded) for a in report.attempts],
        "fallbacks": [(f.stage, f.requested, f.used) for f in report.fallbacks],
    }


def solve_case(model, case, checkpoint_dir):
    """Run one ``SOLVE_CASES`` entry and observe what its pin holds."""
    kwargs = dict(SOLVE_CASES[case])
    if kwargs.pop("reuse", False):
        kwargs["lumping"] = compositional_lump(model)
        kwargs["x0"] = _warm_start(kwargs["lumping"].lumped.num_states())
    if kwargs.get("supervised"):
        kwargs["checkpoint_dir"] = checkpoint_dir
        kwargs["supervisor"] = FAST_SUPERVISOR
    solution = lump_and_solve(model, **kwargs)
    observed = {
        "sha": _sha(solution.stationary),
        "method": solution.solve_method,
        "states": solution.num_states,
        "certified": (
            None if solution.certificate is None
            else solution.certificate.passed
        ),
    }
    if kwargs.get("robust") or kwargs.get("supervised"):
        observed.update(_report_records(solution.report))
    return observed


def row_case(case, checkpoint_dir):
    """Run one ``ROW_CASES`` entry and observe what its pin holds."""
    runner, jobs, kwargs = ROW_CASES[case]
    kwargs = dict(kwargs)
    if kwargs.get("supervised"):
        kwargs["checkpoint_dir"] = checkpoint_dir
        kwargs["supervisor"] = FAST_SUPERVISOR
    result = runner(jobs, TandemParams(jobs=jobs, **SMALL), **kwargs)
    row = getattr(result, "row", result)
    observed = {
        name: value
        for name, value in dataclasses.asdict(row).items()
        if not name.endswith("_seconds")
    }
    if runner is run_table1_row_robust:
        observed["sha"] = _sha(result.stationary)
        observed["method"] = result.solve_method
        observed["engine"] = result.reach_engine
        observed.update(_report_records(result.report))
    return observed


def redundant_model():
    return model_from_spec(demo_spec("redundant:3,1"))


@pytest.fixture(autouse=True)
def _no_ambient_faults():
    """The pins are of clean runs: suspend any ``REPRO_FAULTS`` rules."""
    faults.reload_env("")
    yield
    faults.reload_env()


@pytest.fixture(scope="module")
def models(small_tandem):
    return {"tandem": small_tandem["model"], "redundant": redundant_model()}


@pytest.mark.parametrize("pin", sorted(SOLVE_PINS))
def test_lump_and_solve_matches_pin(pin, models, tmp_path):
    model_name, case = pin.split("/")
    assert solve_case(models[model_name], case, str(tmp_path)) == (
        SOLVE_PINS[pin]
    )


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_table1_row_matches_pin(case, tmp_path):
    assert row_case(case, str(tmp_path)) == ROW_PINS[case]


def test_every_case_is_pinned():
    assert set(SOLVE_PINS) == {
        f"{model}/{case}"
        for model in ("tandem", "redundant")
        for case in SOLVE_CASES
    }
    assert set(ROW_PINS) == set(ROW_CASES)


def test_plain_lump_and_solve_honours_budget_and_report(small_tandem):
    model = small_tandem["model"]
    with pytest.raises(BudgetExceeded):
        lump_and_solve(model, budget=Budget(max_iterations=1))
    report = RunReport()
    solution = lump_and_solve(model, report=report)
    assert [stage.name for stage in report.stages] == ["lumping", "solve"]
    assert solution.report is report


def test_supervised_takes_precomputed_lumping_and_warm_start(
    small_tandem, tmp_path
):
    model = small_tandem["model"]
    lumping = compositional_lump(model)
    kwargs = dict(
        method="power",
        lumping=lumping,
        x0=_warm_start(lumping.lumped.num_states()),
    )
    supervised = lump_and_solve(
        model,
        supervised=True,
        checkpoint_dir=str(tmp_path),
        supervisor=FAST_SUPERVISOR,
        **kwargs,
    )
    for robust in (False, True):
        unsupervised = lump_and_solve(model, robust=robust, **kwargs)
        assert np.array_equal(supervised.stationary, unsupervised.stationary)
        assert supervised.solve_method == unsupervised.solve_method


@pytest.mark.parametrize("flag", ["--robust", "--supervised"])
def test_cli_rejects_symbolic_with_robust_pipeline(flag, capsys):
    with pytest.raises(SystemExit) as exited:
        cli_main(
            ["--jobs", "1", "--cube-dim", "2", "--msmq-servers", "2",
             "--msmq-queues", "2", "--symbolic", flag]
        )
    assert exited.value.code == 2
    error = capsys.readouterr().err.splitlines()[-1]
    assert "--symbolic" in error and flag in error
