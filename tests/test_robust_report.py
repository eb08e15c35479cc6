"""RunReport serialization: to_json / from_dict round-trips."""

import json

import numpy as np

from repro.robust.budgets import BudgetConsumption
from repro.robust.report import RunReport


def make_report_with_numpy_scalars():
    """A report whose diagnostics carry numpy scalars, the way solver
    attempts record them in practice."""
    report = RunReport()
    with report.stage("solve") as stage:
        stage.status = "degraded"
        stage.detail = "fell back to power"
    report.record_attempt(
        "solve",
        "gauss-seidel",
        succeeded=False,
        seconds=np.float64(0.125),
        error="SolverError: no convergence",
        iterations=np.int64(500),
        residual=np.float64(3.5e-3),
    )
    report.record_attempt(
        "solve",
        "power",
        succeeded=True,
        seconds=0.5,
        iterations=np.int64(123),
        residual=np.float64(1e-12),
    )
    report.record_fallback(
        "solve", requested="gauss-seidel", used="power", reason="diverged"
    )
    report.note("checkpoint: resumed solve/power#0 mid-loop")
    report.budget = BudgetConsumption(
        elapsed_seconds=np.float64(0.7),
        iterations_used=np.int64(623),
        peak_states=640,
        wall_clock_seconds=None,
        max_iterations=1000,
        max_states=None,
    )
    return report


class TestRoundTrip:
    def test_to_json_is_valid_json_with_native_types(self):
        report = make_report_with_numpy_scalars()
        # json.dumps would raise on raw numpy types; this must not.
        data = json.loads(report.to_json())
        assert data["degraded"] is True
        (gs, power) = data["attempts"]
        assert isinstance(gs["iterations"], int)
        assert isinstance(gs["residual"], float)
        assert isinstance(data["budget"]["iterations_used"], int)

    def test_from_dict_round_trip(self):
        report = make_report_with_numpy_scalars()
        restored = RunReport.from_dict(json.loads(report.to_json()))
        assert restored.to_dict() == report.to_dict()
        assert restored.degraded == report.degraded
        assert [s.name for s in restored.stages] == ["solve"]
        assert restored.attempts[0].iterations == 500
        assert restored.attempts[0].residual == 3.5e-3
        assert restored.fallbacks[0].used == "power"
        assert restored.notes == report.notes
        assert restored.budget.iterations_used == 623

    def test_from_json_round_trip(self):
        report = make_report_with_numpy_scalars()
        restored = RunReport.from_json(report.to_json(indent=None))
        assert restored.to_json() == report.to_json()

    def test_degraded_is_recomputed_not_trusted(self):
        report = RunReport()
        with report.stage("generation"):
            pass
        data = report.to_dict()
        assert data["degraded"] is False
        data["degraded"] = True  # lie in the serialized form
        assert RunReport.from_dict(data).degraded is False

    def test_empty_report_round_trips(self):
        restored = RunReport.from_json(RunReport().to_json())
        assert restored.stages == []
        assert restored.attempts == []
        assert restored.fallbacks == []
        assert restored.notes == []
        assert restored.budget is None

    def test_pool_events_round_trip_and_legacy_task_key_loads(self):
        report = RunReport()
        report.record_pool_event("worker-crashed", worker=1, detail="exit 1")
        data = json.loads(report.to_json())
        assert RunReport.from_dict(data).to_dict() == report.to_dict()
        # A report serialized while pool events still had a ``task``
        # field loads; the field is dropped.
        data["pool_events"][0]["task"] = "t3"
        [event] = RunReport.from_dict(data).pool_events
        assert (event.kind, event.worker, event.detail) == (
            "worker-crashed",
            1,
            "exit 1",
        )

    def test_budget_none_fields_preserved(self):
        report = make_report_with_numpy_scalars()
        restored = RunReport.from_json(report.to_json())
        assert restored.budget.wall_clock_seconds is None
        assert restored.budget.max_iterations == 1000
        assert restored.budget.max_states is None
