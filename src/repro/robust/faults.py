"""Deterministic fault injection for the analysis pipeline.

Every degradation path in the pipeline must be testable without waiting
for a genuinely singular matrix or a genuinely exploding state space.
The library therefore calls :func:`check` with a *site* name at each
failure-prone entry point:

======================  ====================================================
site                    effect when a matching rule fires
======================  ====================================================
``solver.direct``       :class:`InjectedSolverFault` (a ``SolverError``)
``solver.power``        same, at the power-iteration entry
``solver.jacobi``       same, at the Jacobi entry
``solver.gauss-seidel`` same, at the Gauss-Seidel entry
``reachability.mdd``    :class:`InjectedStateSpaceFault` (MDD engine down)
``reachability.bfs``    same, at the BFS engine
``lumping.level``       :class:`InjectedLumpingFault` (per-level lumping)
``budget``              :class:`InjectedBudgetFault` (a ``BudgetExceeded``),
                        fired from the cooperative budget hooks — a budget
                        must be active for these to run
``service.slot``        checked via :func:`check_at` with the 1-based
                        dispatcher slot at service-worker startup —
                        ``service.slot:2@sigkill`` kills the second
                        slot's worker
``certify.corrupt``     :class:`InjectedFault`, caught by
                        :func:`repro.robust.certify.apply_corruption`,
                        which flips one stationary entry instead of
                        raising — simulated result corruption that the
                        certificate layer must catch
``sweep.point``         checked via :func:`check_at` with the 1-based
                        sweep plan index at the start of every solve
                        attempt — ``sweep.point:3`` (no fired log) makes
                        point 3 permanently divergent; with ``@sigkill``
                        it kills the driver mid-point
``sweep.frontier``      :class:`InjectedFault` before every frontier
                        write (manifest and per-point records) — the
                        kill-anywhere persistence boundary of
                        :mod:`repro.sweep.frontier`
======================  ====================================================

Injected exceptions subclass both :class:`InjectedFault` and the error
type a *real* failure at that site would raise, so the production
fallback/degradation code paths handle them identically — which is the
point: CI exercises the same ``except`` clauses users will hit.

Rules are matched by call count (1-based, per site), so runs are
reproducible.  Activation is either lexical::

    with inject_faults("solver.direct"):
        ...  # every direct solve in this block fails

or ambient via the ``REPRO_FAULTS`` environment variable (read once at
first use; tests that mutate the environment call :func:`reload_env`)::

    REPRO_FAULTS="solver.direct,reachability.mdd:1-2" python -m repro.bench

The spec grammar is ``site[:when][@effect]`` comma-separated, where
``when`` is a call number (``3``), an inclusive range (``1-2``), a
comma-free list via ``|`` (``1|3``), an open-ended tail (``3+``: the
third call and every later one), or ``*`` / omitted for every call.

``effect`` selects *how* the rule fails.  The default raises the
injected exception for the site (above); the process-level effects
exist so the supervisor's watchdog/restart machinery can be exercised:

==================  =====================================================
effect              behaviour when the rule fires
==================  =====================================================
(omitted)           raise the site's injected exception
``sigkill``         ``SIGKILL`` the current process — an abrupt crash
``hang:<seconds>``  stall for that long without touching any budget hook
                    (heartbeats stop; the watchdog sees "hung")
``oom``             allocate until the address-space rlimit kills the
                    allocation (raises :class:`MemoryError` directly when
                    no finite ``RLIMIT_AS`` is set — never eats an
                    unlimited host)
==================  =====================================================

Process-killing effects interact with restart-from-checkpoint: a
restarted attempt replays the same call numbers, so an explicit-call
rule like ``budget:40@sigkill`` would re-fire forever.  The *fired log*
(:func:`set_fired_log`, or the ``REPRO_FAULTS_FIRED_LOG`` environment
variable) makes explicit-call rules (``N``, ``N-M``, ``N|M``) one-shot
across processes: each (rule, call-number) firing is appended to the
log — flushed and fsynced *before* the effect happens — and is skipped
on replay.  Open-ended rules (``N+``, ``*``, omitted ``when``) are
intentionally exempt: they model a machine that stays dead, which is
what the crash-loop circuit breaker is for.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from types import TracebackType
from typing import Dict, Iterable, List, Optional, Set, Tuple, Type, Union

from repro.errors import (
    LumpingError,
    ReproError,
    SolverError,
    StateSpaceError,
)
from repro.robust.budgets import BudgetExceeded


class InjectedFault(ReproError):
    """Marker base class for every injected failure."""


class InjectedSolverFault(InjectedFault, SolverError):
    """An injected solver non-convergence (caught as ``SolverError``)."""


class InjectedStateSpaceFault(InjectedFault, StateSpaceError):
    """An injected reachability-engine failure."""


class InjectedLumpingFault(InjectedFault, LumpingError):
    """An injected per-level lumping failure."""


class InjectedBudgetFault(InjectedFault, BudgetExceeded):
    """An injected budget exhaustion."""


_SITE_EXCEPTIONS = {
    "solver": InjectedSolverFault,
    "reachability": InjectedStateSpaceFault,
    "lumping": InjectedLumpingFault,
    "budget": InjectedBudgetFault,
}


def _exception_for(site: str) -> type:
    return _SITE_EXCEPTIONS.get(site.split(".", 1)[0], InjectedFault)


@dataclass(frozen=True)
class FaultRule:
    """When — and how — a given site should fail.

    The trigger is ``fail_on`` (explicit 1-based call numbers),
    ``after`` (the N-th call and every later one — a process that "stays
    dead" until resumed), or neither — meaning *every* call.

    ``effect`` is ``"raise"`` (the site's injected exception),
    ``"sigkill"``, ``"hang"`` (stall ``hang_seconds``), or ``"oom"``.
    """

    site: str
    fail_on: Optional[frozenset] = None
    after: Optional[int] = None
    effect: str = "raise"
    hang_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.effect not in ("raise", "sigkill", "hang", "oom"):
            raise ValueError(
                f"unknown fault effect {self.effect!r} "
                "(expected 'raise', 'sigkill', 'hang', or 'oom')"
            )
        if self.effect == "hang" and (
            self.hang_seconds is None or self.hang_seconds <= 0
        ):
            raise ValueError(
                "hang effect needs a positive duration, "
                f"not {self.hang_seconds!r}"
            )

    @property
    def one_shot(self) -> bool:
        """Whether a fired log should suppress replays of this rule.

        Only explicit-call triggers are one-shot; open-ended triggers
        model a fault that persists across restarts.
        """
        return self.fail_on is not None

    def identity(self) -> str:
        """Deterministic id for fired-log entries (stable across
        processes and restarts)."""
        parts = [self.site]
        if self.fail_on is not None:
            parts.append("on=" + "|".join(str(n) for n in sorted(self.fail_on)))
        if self.after is not None:
            parts.append(f"after={self.after}")
        if self.effect != "raise":
            parts.append(f"effect={self.effect}")
        if self.hang_seconds is not None:
            parts.append(f"hang={self.hang_seconds:g}")
        return ";".join(parts)

    def should_fail(self, call_number: int) -> bool:
        """Whether this rule fires for the ``call_number``-th call."""
        if self.fail_on is not None:
            return call_number in self.fail_on
        if self.after is not None:
            return call_number >= self.after
        return True


class FaultInjector:
    """A set of :class:`FaultRule` with per-site call counters.

    Use as a context manager to activate; :func:`check` consults every
    active injector (plus the ``REPRO_FAULTS`` one).  The ``fired`` list
    records ``(site, call_number)`` for every injected failure, so tests
    and reports can assert exactly which paths were exercised.
    """

    def __init__(self, rules: Iterable[FaultRule]) -> None:
        self.rules: List[FaultRule] = list(rules)
        self._counts: Dict[str, int] = {}
        self.fired: List[Tuple[str, int]] = []

    @classmethod
    def from_spec(cls, spec: str) -> "FaultInjector":
        """Build an injector from the ``REPRO_FAULTS`` grammar."""
        rules = []
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            # '@' splits off the effect first: the hang effect's own
            # ':' ("hang:3") must not be mistaken for the when separator.
            body, _, effect = part.partition("@")
            site, _, when = body.partition(":")
            try:
                rules.append(
                    _parse_rule(site.strip(), when.strip(), effect.strip())
                )
            except ValueError as exc:
                raise ValueError(
                    f"invalid fault rule {part!r} in spec {spec!r}: {exc}"
                    f" (grammar: {GRAMMAR})"
                ) from None
        return cls(rules)

    @classmethod
    def from_env(
        cls, value: Optional[str] = None
    ) -> Optional["FaultInjector"]:
        """Injector from ``REPRO_FAULTS`` (or ``value``); ``None`` if unset."""
        if value is None:
            value = os.environ.get("REPRO_FAULTS", "")
        value = value.strip()
        if not value:
            return None
        try:
            return cls.from_spec(value)
        except ValueError as exc:
            raise ValueError(f"bad REPRO_FAULTS environment value: {exc}") from None

    def check(self, site: str) -> None:
        """Count a call at ``site``; fail if any matching rule fires.

        Raising rules raise the site's injected exception; process-level
        rules perform their effect (SIGKILL / stall / memory
        exhaustion).  With a fired log installed, one-shot rules that
        already fired in a previous process are skipped.
        """
        matching = [rule for rule in self.rules if rule.site == site]
        if not matching:
            return
        call_number = self._counts.get(site, 0) + 1
        self._counts[site] = call_number
        for rule in matching:
            if not rule.should_fail(call_number):
                continue
            if (
                rule.one_shot
                and _FIRED_LOG is not None
                and _FIRED_LOG.already_fired(rule.identity(), call_number)
            ):
                continue
            self.fired.append((site, call_number))
            if _FIRED_LOG is not None:
                # Durable *before* the effect: a SIGKILLed process must
                # not forget that the rule fired, or it re-fires on
                # every restart and the run can never make progress.
                _FIRED_LOG.record(rule.identity(), site, call_number)
            _perform_effect(rule, site, call_number)

    def check_at(self, site: str, index: int) -> None:
        """Like :meth:`check`, but match at an explicit 1-based ``index``
        without touching the site's call counter.

        This is how position-addressed sites work: the service
        dispatcher checks ``("service.slot", slot)`` at each worker's
        startup and the sweep checks ``("sweep.point", index)`` before
        each point, so a rule like ``service.slot:2@sigkill`` targets
        *the second slot* regardless of how many workers started before
        it, or in what order.  One-shot rules honour the fired log
        exactly as counted checks do, which is what keeps a restarted
        worker (same slot) from dying forever.
        """
        matching = [rule for rule in self.rules if rule.site == site]
        for rule in matching:
            if not rule.should_fail(index):
                continue
            if (
                rule.one_shot
                and _FIRED_LOG is not None
                and _FIRED_LOG.already_fired(rule.identity(), index)
            ):
                continue
            self.fired.append((site, index))
            if _FIRED_LOG is not None:
                _FIRED_LOG.record(rule.identity(), site, index)
            _perform_effect(rule, site, index)

    def call_count(self, site: str) -> int:
        """How many calls this injector has seen at ``site``."""
        return self._counts.get(site, 0)

    def __enter__(self) -> "FaultInjector":
        _ACTIVE.append(self)
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        _ACTIVE.remove(self)


#: One-line summary of the ``REPRO_FAULTS`` grammar, quoted by parse
#: errors so a typo in an environment variable is self-explaining.
GRAMMAR = (
    "comma-separated rules of the form site[:when][@effect], where when "
    "is a 1-based call number 'N', an inclusive range 'N-M', a list "
    "'N|M', an open-ended tail 'N+', or '*' / omitted for every call, "
    "and effect is 'sigkill', 'hang:<seconds>', 'oom', or omitted to "
    "raise the site's injected exception"
)


def _parse_call_number(token: str, role: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"{role} {token!r} is not an integer") from None
    if value < 1:
        raise ValueError(f"{role} {token!r} must be >= 1 (calls are 1-based)")
    return value


def _parse_effect(token: str) -> Tuple[str, Optional[float]]:
    """Parse the ``@effect`` suffix into (effect, hang_seconds)."""
    if not token:
        return "raise", None
    if token in ("sigkill", "oom"):
        return token, None
    name, sep, duration = token.partition(":")
    if name == "hang":
        if not sep:
            raise ValueError(
                "hang effect needs a duration: 'hang:<seconds>'"
            )
        try:
            seconds = float(duration)
        except ValueError:
            raise ValueError(
                f"hang duration {duration!r} is not a number"
            ) from None
        if seconds <= 0:
            raise ValueError(f"hang duration {duration!r} must be > 0")
        return "hang", seconds
    raise ValueError(
        f"unknown fault effect {token!r} "
        "(expected 'sigkill', 'hang:<seconds>', or 'oom')"
    )


def _parse_rule(site: str, when: str, effect_token: str = "") -> FaultRule:
    if not site:
        raise ValueError("missing fault site before ':'")
    effect, hang_seconds = _parse_effect(effect_token)
    if not when or when == "*":
        return FaultRule(site, effect=effect, hang_seconds=hang_seconds)
    if when.endswith("+"):
        return FaultRule(
            site,
            after=_parse_call_number(when[:-1], "call number"),
            effect=effect,
            hang_seconds=hang_seconds,
        )
    if "-" in when:
        low_token, _, high_token = when.partition("-")
        low = _parse_call_number(low_token, "range start")
        high = _parse_call_number(high_token, "range end")
        if high < low:
            raise ValueError(f"range {when!r} is empty ({low} > {high})")
        return FaultRule(
            site,
            fail_on=frozenset(range(low, high + 1)),
            effect=effect,
            hang_seconds=hang_seconds,
        )
    if "|" in when:
        return FaultRule(
            site,
            fail_on=frozenset(
                _parse_call_number(token, "call number")
                for token in when.split("|")
            ),
            effect=effect,
            hang_seconds=hang_seconds,
        )
    return FaultRule(
        site,
        fail_on=frozenset({_parse_call_number(when, "call number")}),
        effect=effect,
        hang_seconds=hang_seconds,
    )


def _exhaust_memory() -> None:
    """The ``oom`` effect: allocate until the address-space rlimit bites.

    Refuses to allocate unboundedly on a host without a finite
    ``RLIMIT_AS`` — there it raises :class:`MemoryError` directly, which
    exercises the same recovery path without endangering the machine.
    """
    try:
        import resource
    except ImportError:  # non-POSIX: no rlimits to exhaust
        raise MemoryError(
            "injected oom fault (no resource module; raising directly)"
        ) from None
    soft, _hard = resource.getrlimit(resource.RLIMIT_AS)
    if soft == resource.RLIM_INFINITY:
        raise MemoryError(
            "injected oom fault (no RLIMIT_AS set; raising directly)"
        )
    hog = []
    try:
        while True:
            hog.append(bytearray(16 * 1024 * 1024))
    except MemoryError:
        hog.clear()
        raise MemoryError(
            "injected oom fault (address-space rlimit reached)"
        ) from None


def _perform_effect(rule: FaultRule, site: str, call_number: int) -> None:
    """Carry out a fired rule's effect (raises unless the effect kills
    or stalls the process first)."""
    if rule.effect == "sigkill":
        os.kill(os.getpid(), signal.SIGKILL)
        return  # only reachable if the signal is somehow blocked
    if rule.effect == "hang":
        assert rule.hang_seconds is not None  # enforced by __post_init__
        time.sleep(rule.hang_seconds)
        return  # a transient stall: the call proceeds afterwards
    if rule.effect == "oom":
        _exhaust_memory()
        return  # unreachable: _exhaust_memory always raises
    raise _exception_for(site)(
        f"injected fault at {site!r} (call {call_number})"
    )


class _FiredLog:
    """Append-only, fsynced record of one-shot rule firings.

    Line format: ``identity \\t site \\t call_number``.  Unparseable
    lines (torn writes from a kill mid-append) are ignored — losing a
    record only means a rule may fire once more, never that the run
    wedges.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.seen: Set[Tuple[str, int]] = set()
        try:
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    fields = line.rstrip("\n").split("\t")
                    if len(fields) != 3:
                        continue
                    try:
                        self.seen.add((fields[0], int(fields[2])))
                    except ValueError:
                        continue
        except OSError:
            pass  # no log yet: nothing has fired

    def already_fired(self, identity: str, call_number: int) -> bool:
        return (identity, call_number) in self.seen

    def record(self, identity: str, site: str, call_number: int) -> None:
        self.seen.add((identity, call_number))
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(f"{identity}\t{site}\t{call_number}\n")
            handle.flush()
            os.fsync(handle.fileno())


#: Stack of lexically-activated injectors (innermost last).
_ACTIVE: List[FaultInjector] = []

#: Cross-process fired log (see :class:`_FiredLog`); installed by the
#: supervisor in each child, or via ``REPRO_FAULTS_FIRED_LOG``.
_FIRED_LOG: Optional[_FiredLog] = None


def set_fired_log(path: Optional[str]) -> None:
    """Install (or with ``None`` remove) the one-shot fired log.

    Existing entries at ``path`` are loaded, so a restarted process
    skips one-shot rules that already fired before it crashed.
    """
    global _FIRED_LOG
    _FIRED_LOG = None if path is None else _FiredLog(path)


#: The ambient injector parsed from ``REPRO_FAULTS`` at import (call
#: :func:`reload_env` after mutating the environment).
_ENV_INJECTOR: Optional[FaultInjector] = FaultInjector.from_env()

_env_fired_log = os.environ.get("REPRO_FAULTS_FIRED_LOG", "").strip()
if _env_fired_log:
    set_fired_log(_env_fired_log)
del _env_fired_log


def reload_env(value: Optional[str] = None) -> Optional[FaultInjector]:
    """Re-read ``REPRO_FAULTS`` (or use ``value``); returns the injector."""
    global _ENV_INJECTOR
    _ENV_INJECTOR = FaultInjector.from_env(value)
    return _ENV_INJECTOR


def check(site: str) -> None:
    """Library hook: raise an injected fault if any active rule matches.

    No-op (one global read) when no injector is active, so instrumented
    entry points cost nothing in production.
    """
    if not _ACTIVE and _ENV_INJECTOR is None:
        return
    for injector in _ACTIVE:
        injector.check(site)
    if _ENV_INJECTOR is not None:
        _ENV_INJECTOR.check(site)


def check_at(site: str, index: int) -> None:
    """Library hook for position-addressed sites (service slots, sweep
    points): fire any rule matching the explicit 1-based ``index`` at
    ``site``.

    Unlike :func:`check`, no per-site counter is consumed — the caller
    names the position, so the same rule means the same slot/point in
    every process and on every restart.
    """
    if not _ACTIVE and _ENV_INJECTOR is None:
        return
    for injector in _ACTIVE:
        injector.check_at(site, index)
    if _ENV_INJECTOR is not None:
        _ENV_INJECTOR.check_at(site, index)


def inject_faults(spec: Union[str, Iterable[FaultRule]]) -> FaultInjector:
    """Convenience constructor: ``with inject_faults("solver.direct"): ...``

    ``spec`` is either a spec string (see module docstring) or an
    iterable of :class:`FaultRule`.
    """
    if isinstance(spec, str):
        return FaultInjector.from_spec(spec)
    return FaultInjector(spec)
