"""A bad solve parameter or model fails where the spec enters, and a bad
lumping key never turns lumping off.

Every door a spec comes through checks its solve parameters against
``SOLVE_CHOICES``: ``solve_params`` (the worker and the sweep's
planning), ``repro.service submit`` and both CLIs' flags.  The library
checks the lumping key before any level is lumped, so graceful
degradation cannot turn the error into identity partitions.
``repro.service submit`` also rebuilds the model, so a spec whose MD
the constructors reject is refused with :class:`SpecError` before any
job is written.
"""

import copy
import json
import os

import pytest

from repro.analysis import lump_and_solve
from repro.errors import LumpingError
from repro.lumping import compositional_lump
from repro.service.__main__ import main as service_main
from repro.service.spec import (
    SpecError,
    demo_spec,
    model_from_spec,
    solve_params,
)
from repro.service.worker import solve_spec_certified
from repro.sweep.__main__ import main as sweep_main
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import normalize_sweep_spec

BAD_SOLVES = [
    {"kind": "Ordinary"},
    {"method": "sor"},
    {"key": "bogus"},
    {"iterate": "no"},
    {"iterate": 1},
    {"certify": "no"},
    {"certify": None},
]


@pytest.fixture(scope="module")
def redundant_spec():
    return demo_spec("redundant:3,1")


def _with_solve(spec, **solve):
    return dict(spec, solve=dict(spec["solve"], **solve))


class TestLibrary:
    def test_bad_key_raises_even_when_degrading(self, small_tandem):
        with pytest.raises(LumpingError, match="key must be"):
            compositional_lump(
                small_tandem["model"], key="bogus", degrade=True
            )

    def test_robust_solve_with_bad_key_raises(self, small_tandem):
        with pytest.raises(LumpingError, match="key must be"):
            lump_and_solve(small_tandem["model"], key="bogus", robust=True)


class TestSolveParams:
    @pytest.mark.parametrize("solve", BAD_SOLVES, ids=repr)
    def test_value_outside_choices_rejected(self, redundant_spec, solve):
        (name,) = solve
        with pytest.raises(SpecError, match=f"solve parameter {name!r}"):
            solve_params(_with_solve(redundant_spec, **solve))

    def test_defaults_and_choices_accepted(self, redundant_spec):
        spec = _with_solve(
            redundant_spec,
            kind="exact",
            method="gauss-seidel",
            key="matrix",
            iterate=True,
            certify=False,
        )
        assert solve_params(spec)["method"] == "gauss-seidel"
        assert solve_params(redundant_spec)["certify"] is True

    def test_worker_rejects_bad_key(self, redundant_spec):
        with pytest.raises(SpecError, match="'key'"):
            solve_spec_certified(_with_solve(redundant_spec, key="bogus"))


class TestSweepPlanning:
    def test_bad_key_fails_at_planning(self, redundant_spec, tmp_path):
        sweep = {
            "base": _with_solve(redundant_spec, key="bogus"),
            "sites": {"rate": [1]},
            "grid": {"rate": [0.5, 2.0]},
        }
        with pytest.raises(SpecError, match="'key'"):
            normalize_sweep_spec(sweep)
        store = tmp_path / "store"
        with pytest.raises(SpecError, match="'key'"):
            SweepEngine(sweep, str(store))
        assert not store.exists()

    def test_cli_key_takes_choices(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            sweep_main(
                [
                    "run", "--store", str(tmp_path / "svc"),
                    "--demo", "redundant:2,1", "--site", "auto",
                    "--key", "bogus",
                ]
            )
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestServiceSubmit:
    def test_bad_spec_file_writes_no_job(
        self, redundant_spec, tmp_path, capsys
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_with_solve(redundant_spec, key="bogus")))
        store = tmp_path / "svc"
        status = service_main(
            ["submit", "--store", str(store), "--spec", str(path)]
        )
        assert status == 1
        assert "solve parameter 'key'" in capsys.readouterr().err
        assert not os.path.exists(store)

    def test_cli_key_takes_choices(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            service_main(
                [
                    "submit", "--store", str(tmp_path / "svc"),
                    "--demo", "redundant:2,1", "--key", "bogus",
                ]
            )
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "svc")


def _missing_node_spec(spec):
    """``spec`` with an inner entry that points at node 999."""
    spec = copy.deepcopy(spec)
    node = next(n for n in spec["md"]["nodes"] if not n["terminal"])
    node["entries"][0][2] = [[999, 1.0]]
    return spec


class TestMalformedModel:
    def test_missing_node_is_a_spec_error(self, redundant_spec):
        with pytest.raises(SpecError, match="malformed job spec: .*node 999"):
            model_from_spec(_missing_node_spec(redundant_spec))

    def test_non_integral_entry_row_is_a_spec_error(self, redundant_spec):
        spec = copy.deepcopy(redundant_spec)
        spec["md"]["nodes"][0]["entries"][0][0] = 0.5
        with pytest.raises(SpecError, match="MD row 0.5 is not an integer"):
            model_from_spec(spec)

    def test_submit_writes_no_job(self, redundant_spec, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_missing_node_spec(redundant_spec)))
        store = tmp_path / "svc"
        status = service_main(
            ["submit", "--store", str(store), "--spec", str(path)]
        )
        assert status == 1
        assert "malformed job spec" in capsys.readouterr().err
        assert not os.path.exists(store)
