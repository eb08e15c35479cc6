"""Fault injection: rules, call counts, seeding, env activation, types."""

import pytest

from repro.errors import (
    LumpingError,
    SolverError,
    StateSpaceError,
)
from repro.robust import faults
from repro.robust.budgets import BudgetExceeded
from repro.robust.faults import (
    FaultInjector,
    InjectedBudgetFault,
    InjectedFault,
    InjectedLumpingFault,
    InjectedSolverFault,
    InjectedStateSpaceFault,
    inject_faults,
)


@pytest.fixture()
def restore_env_injector():
    """Snapshot/restore the ambient REPRO_FAULTS injector around a test."""
    saved = faults._ENV_INJECTOR
    yield
    faults._ENV_INJECTOR = saved


def test_unmatched_site_is_a_noop():
    with inject_faults("solver.direct"):
        faults.check("solver.power")  # different site: no raise


def test_always_rule_fires_every_call():
    with inject_faults("solver.direct") as injector:
        for _ in range(3):
            with pytest.raises(InjectedSolverFault):
                faults.check("solver.direct")
    assert injector.call_count("solver.direct") == 3
    assert injector.fired == [
        ("solver.direct", 1),
        ("solver.direct", 2),
        ("solver.direct", 3),
    ]


def test_call_count_rule_fires_only_on_chosen_calls():
    with inject_faults("solver.direct:2"):
        faults.check("solver.direct")  # call 1: passes
        with pytest.raises(InjectedSolverFault):
            faults.check("solver.direct")  # call 2: fires
        faults.check("solver.direct")  # call 3: passes again


def test_range_spec():
    with inject_faults("solver.jacobi:1-2"):
        with pytest.raises(InjectedSolverFault):
            faults.check("solver.jacobi")
        with pytest.raises(InjectedSolverFault):
            faults.check("solver.jacobi")
        faults.check("solver.jacobi")  # call 3: passes


def test_alternative_spec():
    with inject_faults("lumping.level:1|3"):
        with pytest.raises(InjectedLumpingFault):
            faults.check("lumping.level")
        faults.check("lumping.level")
        with pytest.raises(InjectedLumpingFault):
            faults.check("lumping.level")


def test_multi_site_spec_and_exception_taxonomy():
    with inject_faults("solver.direct,reachability.bfs,budget"):
        with pytest.raises(InjectedSolverFault) as s:
            faults.check("solver.direct")
        with pytest.raises(InjectedStateSpaceFault) as r:
            faults.check("reachability.bfs")
        with pytest.raises(InjectedBudgetFault) as b:
            faults.check("budget")
    # Injected faults are catchable exactly like the real failure...
    assert isinstance(s.value, SolverError)
    assert isinstance(r.value, StateSpaceError)
    assert isinstance(b.value, BudgetExceeded)
    # ...and all share the InjectedFault marker.
    for caught in (s, r, b):
        assert isinstance(caught.value, InjectedFault)


def test_unknown_site_prefix_raises_base_injected_fault():
    with inject_faults("custom.site"):
        with pytest.raises(InjectedFault) as excinfo:
            faults.check("custom.site")
    assert not isinstance(excinfo.value, (SolverError, LumpingError))


def test_nested_injectors_both_apply():
    with inject_faults("solver.direct:1"):
        with inject_faults("solver.jacobi:1"):
            with pytest.raises(InjectedSolverFault):
                faults.check("solver.direct")
            with pytest.raises(InjectedSolverFault):
                faults.check("solver.jacobi")


def test_env_activation(restore_env_injector):
    faults.reload_env("solver.direct:1")
    with pytest.raises(InjectedSolverFault):
        faults.check("solver.direct")
    faults.check("solver.direct")  # call 2: spec only hits call 1
    faults.reload_env("")
    faults.check("solver.direct")


def test_from_env_returns_none_when_unset():
    assert FaultInjector.from_env("") is None
    assert FaultInjector.from_env("  ") is None


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        FaultInjector.from_spec(":1")


def test_after_rule_fires_from_n_onward():
    with inject_faults("solver.direct:3+"):
        faults.check("solver.direct")  # call 1: passes
        faults.check("solver.direct")  # call 2: passes
        for _ in range(3):  # calls 3, 4, 5: the process "stays dead"
            with pytest.raises(InjectedSolverFault):
                faults.check("solver.direct")


class TestPositionAddressedSites:
    """Position-addressed sites (``service.slot:<slot>``,
    ``sweep.point:<index>``): matched by explicit position via
    ``check_at``, not by call count, and wired through ``REPRO_FAULTS``
    like any other rule.
    """

    def test_check_at_matches_explicit_position(self):
        with inject_faults("task:2"):
            faults.check_at("task", 1)  # position 1: passes
            with pytest.raises(InjectedFault):
                faults.check_at("task", 2)
            faults.check_at("task", 3)  # position 3: passes

    def test_check_at_does_not_consume_call_counts(self):
        with inject_faults("service.slot:2") as injector:
            faults.check_at("service.slot", 1)
            faults.check_at("service.slot", 1)
            # Position addressing never advances the counted-site
            # counter: the same slot can be checked any number of times.
            assert injector.call_count("service.slot") == 0


class TestParseErrors:
    """Satellite: parse errors name the offending token and the grammar."""

    def test_non_integer_call_number_named(self):
        with pytest.raises(ValueError) as excinfo:
            FaultInjector.from_spec("solver.direct:abc")
        message = str(excinfo.value)
        assert "'abc'" in message
        assert "is not an integer" in message
        assert "grammar:" in message
        assert "solver.direct:abc" in message  # the offending rule

    def test_missing_site_named(self):
        with pytest.raises(ValueError) as excinfo:
            FaultInjector.from_spec(":1")
        message = str(excinfo.value)
        assert "missing fault site" in message
        assert "grammar:" in message

    def test_zero_call_number_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            FaultInjector.from_spec("budget:0")
        message = str(excinfo.value)
        assert "'0'" in message
        assert "1-based" in message

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError) as excinfo:
            FaultInjector.from_spec("budget:5-2")
        message = str(excinfo.value)
        assert "empty" in message
        assert "5" in message and "2" in message

    def test_bad_range_endpoint_names_role(self):
        with pytest.raises(ValueError) as excinfo:
            FaultInjector.from_spec("budget:1-x")
        message = str(excinfo.value)
        assert "'x'" in message
        assert "grammar:" in message

    def test_bad_tail_start_named(self):
        with pytest.raises(ValueError) as excinfo:
            FaultInjector.from_spec("budget:x+")
        assert "'x'" in str(excinfo.value)

    def test_offending_rule_identified_in_multi_rule_spec(self):
        spec = "solver.direct:1,budget:oops,lumping.level:2"
        with pytest.raises(ValueError) as excinfo:
            FaultInjector.from_spec(spec)
        message = str(excinfo.value)
        assert "'budget:oops'" in message
        assert repr(spec) in message

    def test_env_error_mentions_env_var(self, restore_env_injector):
        with pytest.raises(ValueError) as excinfo:
            FaultInjector.from_env("budget:nope")
        message = str(excinfo.value)
        assert "REPRO_FAULTS" in message
        assert "'nope'" in message
