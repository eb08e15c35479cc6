"""One-call lump-and-solve pipeline.

``lump_and_solve`` runs the full workflow a user of the paper's system
would: compositional lumping of an MD model, restriction to the (lumped)
reachable states, steady-state solution of the lumped chain, and measure
evaluation — all without ever solving the unlumped chain.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:
    from repro.robust.certify import Certificate

from repro.errors import LumpingError
from repro.lumping.compositional import (
    CompositionalLumpingResult,
    compositional_lump,
)
from repro.lumping.md_model import MDModel
from repro.markov.solvers import steady_state
from repro.markov.transient import transient_distribution
from repro.robust.budgets import Budget
from repro.robust.report import RunReport


@dataclass
class LumpedSolution:
    """Everything a measure evaluation needs, on the lumped chain."""

    lumping: CompositionalLumpingResult
    stationary: np.ndarray  # over the lumped (restricted) state space
    report: Optional[RunReport] = field(default=None, compare=False)
    solve_method: str = "direct"
    certificate: Optional["Certificate"] = field(default=None, compare=False)

    @property
    def lumped_model(self) -> MDModel:
        """The lumped MD model the solution lives on."""
        return self.lumping.lumped

    @property
    def num_states(self) -> int:
        """Size of the solved (lumped) chain."""
        return self.lumped_model.num_states()

    @property
    def reduction_factor(self) -> float:
        """Unlumped states per lumped state (restricted spaces)."""
        original = self.lumping.original.num_states()
        return original / max(1, self.num_states)

    def expected_reward(self) -> float:
        """Steady-state expected rate reward, from the lumped vectors.

        Exact for the original model by Theorems 2/3/4: the lumped reward
        vector is the class (representative/average) reward and the lumped
        stationary distribution carries the aggregated class probability.
        """
        rewards = self.lumped_model.global_rewards()
        return float(self.stationary @ rewards)

    def transient_reward(self, time: float) -> float:
        """Expected rate reward at time ``time`` starting from the lumped
        initial distribution."""
        mrp = self.lumped_model.flat_mrp()
        pi_t = transient_distribution(
            mrp.ctmc, mrp.initial_distribution, time
        )
        return float(pi_t @ mrp.rewards)

    def class_probability(
        self, predicate: Callable[[tuple], bool]
    ) -> float:
        """Steady-state probability of the lumped states whose per-level
        label tuples satisfy ``predicate``.

        ``predicate`` receives a tuple of per-level labels; a lumped
        level's label is the tuple of its merged original labels (or the
        single original label for singleton classes).
        """
        md = self.lumped_model.md
        total = 0.0
        states = (
            self.lumped_model.reachable
            if self.lumped_model.reachable is not None
            else range(md.potential_size())
        )
        for position, index in enumerate(states):
            tuple_state = self.lumped_model.state_tuple(index)
            labels = tuple(
                md.substate_label(level + 1, substate)
                for level, substate in enumerate(tuple_state)
            )
            if predicate(labels):
                total += float(self.stationary[position])
        return total


def _make_checkpointer(
    checkpoint_dir: Optional[str],
    resume: bool,
    model: MDModel,
    kind: str,
    method: str,
    key: str,
    iterate: bool,
    report: Optional[RunReport],
    checkpoint_interval: Optional[int] = None,
    checkpoint_keep_last: Optional[int] = None,
):
    """A :class:`~repro.robust.checkpoint.Checkpointer` for one
    ``lump_and_solve`` configuration, or ``None`` when disabled.

    The fingerprint ties the checkpoint directory to the full pipeline
    configuration, so snapshots from a different model or method are
    treated as stale in their entirety.
    """
    if checkpoint_dir is None:
        return None
    from repro.robust.checkpoint import Checkpointer

    fingerprint = (
        f"lump_and_solve kind={kind} method={method} key={key} "
        f"iterate={iterate} levels={tuple(model.md.level_sizes)} "
        f"n={model.num_states()}"
    )
    kwargs = {}
    if checkpoint_interval is not None:
        kwargs["interval_iterations"] = checkpoint_interval
    return Checkpointer(
        checkpoint_dir,
        resume=resume,
        fingerprint=fingerprint,
        report=report,
        keep_last=checkpoint_keep_last,
        **kwargs,
    )


def lump_and_solve(
    model: MDModel,
    kind: str = "ordinary",
    method: str = "direct",
    iterate: bool = False,
    key: str = "formal",
    *,
    robust: bool = False,
    budget: Optional[Budget] = None,
    solver_chain: Optional[Sequence[str]] = None,
    report: Optional[RunReport] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    checkpoint_interval: Optional[int] = None,
    checkpoint_keep_last: Optional[int] = None,
    supervised: bool = False,
    supervisor=None,
    certify: bool = False,
    certificate_tol: Optional[float] = None,
    lumping: Optional[CompositionalLumpingResult] = None,
    x0: Optional[np.ndarray] = None,
) -> LumpedSolution:
    """Lump ``model`` compositionally and solve the lumped chain.

    The model must carry a ``reachable`` restriction (or be fully
    reachable): the lumped chain is solved over the restricted space.

    With ``robust=True`` the pipeline degrades instead of dying: levels
    whose lumping fails are skipped (identity partition), the solve walks
    a fallback chain starting at ``method`` (see
    :func:`repro.robust.fallback.solve_with_fallback`), everything runs
    under ``budget`` when one is given, and the returned solution carries
    a :class:`~repro.robust.report.RunReport` describing what degraded
    and why.

    With ``checkpoint_dir`` set, the refinement and solver loops write
    crash-safe snapshots there (see :mod:`repro.robust.checkpoint`); with
    ``resume=True`` a rerun continues from the latest valid snapshots
    instead of restarting, falling back to a fresh start (recorded in the
    report, when robust) on any corrupt or stale snapshot.
    ``checkpoint_interval`` overrides the snapshot cadence (cooperative
    iterations between periodic saves) and ``checkpoint_keep_last``
    garbage-collects all but the newest K snapshots per loop sequence.

    With ``supervised=True`` (implies robust) the whole pipeline runs in
    a watchdog-supervised child process that is restarted from the
    latest checkpoint on crash, hang, or OOM, climbing a progressive
    degradation ladder — see :mod:`repro.robust.supervisor`.
    ``supervisor`` is an optional
    :class:`~repro.robust.supervisor.SupervisorConfig`.

    With ``certify=True`` the solved vector is certified
    (:mod:`repro.robust.certify`): NaN/Inf guards, probability-mass
    defect, nonnegativity, an independent extended-precision residual
    recheck, and (for small models) lumped-vs-unlumped measure
    consistency plus a spectral lumpability spot-check.  On failure an
    escalation ladder runs — the next method of the fallback chain, a
    tightened-tolerance re-solve, a float128 refinement — with every
    step recorded as ``certificate``/``certificate-escalation`` events
    in the report; an exhausted ladder raises
    :class:`~repro.errors.CertificationError` with the last certificate
    attached.  ``certificate_tol`` overrides the base tolerance
    (:data:`~repro.robust.certify.DEFAULT_CERTIFICATE_TOL`).  The
    certificate lands on ``LumpedSolution.certificate``.

    With ``lumping`` given (a :class:`CompositionalLumpingResult` whose
    ``original`` matches ``model``), the refinement is skipped entirely
    and the precomputed partition is used as-is — the parameter-sweep
    reuse path (:mod:`repro.sweep`), which proves partition validity
    separately before passing it here.  With ``x0`` given, iterative
    solve methods are warm-started from it instead of the uniform
    vector (``direct`` ignores it); certification still checks the
    answer, so a poisoned warm start cannot certify.  Neither is
    supported under ``supervised=True``.
    """
    if supervised and (lumping is not None or x0 is not None):
        raise LumpingError(
            "lumping=/x0= are not supported with supervised=True"
        )
    if lumping is not None and (
        lumping.original.md.level_sizes != model.md.level_sizes
        or lumping.kind != kind
    ):
        raise LumpingError(
            "precomputed lumping does not match the model/kind "
            f"(lumping: kind={lumping.kind!r} "
            f"levels={lumping.original.md.level_sizes}; requested: "
            f"kind={kind!r} levels={model.md.level_sizes})"
        )
    if supervised:
        return _lump_and_solve_supervised(
            model,
            kind=kind,
            method=method,
            iterate=iterate,
            key=key,
            budget=budget,
            solver_chain=solver_chain,
            report=report,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            config=supervisor,
            certify=certify,
            certificate_tol=certificate_tol,
        )
    if not robust:
        ck = _make_checkpointer(
            checkpoint_dir, resume, model, kind, method, key, iterate, None
        )
        solve_method = method
        certificate = None
        with (ck if ck is not None else nullcontext()):
            if lumping is not None:
                result = lumping
            else:
                result = compositional_lump(
                    model, kind=kind, key=key, iterate=iterate
                )
            lumped_ctmc = result.lumped.flat_ctmc()
            if not lumped_ctmc.is_irreducible():
                raise LumpingError(
                    "the lumped chain is not irreducible; restrict the "
                    "model to a single recurrent class before solving"
                )
            solver_kwargs = {}
            if x0 is not None:
                from repro.robust.fallback import ITERATIVE_METHODS

                if method in ITERATIVE_METHODS:
                    solver_kwargs["x0"] = x0
            stationary = steady_state(
                lumped_ctmc, method=method, **solver_kwargs
            ).distribution
            if certify:
                from repro.robust.certify import certify_with_escalation
                from repro.robust.fallback import DEFAULT_SOLVER_CHAIN

                chain = [method] + [
                    m for m in DEFAULT_SOLVER_CHAIN if m != method
                ]
                certified = certify_with_escalation(
                    stationary,
                    lumped_ctmc,
                    method=method,
                    kind=kind,
                    lumping=result,
                    original=model,
                    chain=chain,
                    tol=certificate_tol,
                )
                stationary = certified.stationary
                solve_method = certified.method
                certificate = certified.certificate
        return LumpedSolution(
            lumping=result,
            stationary=stationary,
            solve_method=solve_method,
            certificate=certificate,
        )
    return _lump_and_solve_robust(
        model,
        kind=kind,
        method=method,
        iterate=iterate,
        key=key,
        budget=budget,
        solver_chain=solver_chain,
        report=report,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        checkpoint_interval=checkpoint_interval,
        checkpoint_keep_last=checkpoint_keep_last,
        certify=certify,
        certificate_tol=certificate_tol,
        lumping=lumping,
        x0=x0,
    )


def _lump_and_solve_supervised(
    model: MDModel,
    kind: str,
    method: str,
    iterate: bool,
    key: str,
    budget: Optional[Budget],
    solver_chain: Optional[Sequence[str]],
    report: Optional[RunReport],
    checkpoint_dir: Optional[str],
    resume: bool,
    config=None,
    certify: bool = False,
    certificate_tol: Optional[float] = None,
) -> LumpedSolution:
    """The supervised variant: robust pipeline in a watched child."""
    from repro.robust.supervisor import run_supervised

    def _attempt(ctx) -> LumpedSolution:
        level = ctx.degradation
        chain = (
            level.solver_chain if level.solver_chain is not None
            else solver_chain
        )
        return _lump_and_solve_robust(
            model,
            kind=kind,
            method=method,
            iterate=iterate,
            key=key,
            budget=ctx.budget,
            solver_chain=chain,
            report=ctx.report,
            checkpoint_dir=ctx.checkpoint_dir,
            resume=ctx.resume,
            checkpoint_interval=ctx.checkpoint_interval,
            checkpoint_keep_last=ctx.checkpoint_keep_last,
            degrade=level.lumping_degrade,
            certify=certify,
            certificate_tol=certificate_tol,
        )

    supervised = run_supervised(
        _attempt,
        checkpoint_dir=checkpoint_dir,
        config=config,
        budget=budget,
        report=report,
        resume=resume,
    )
    solution: LumpedSolution = supervised.result
    solution.report = supervised.report
    return solution


def _lump_and_solve_robust(
    model: MDModel,
    kind: str,
    method: str,
    iterate: bool,
    key: str,
    budget: Optional[Budget],
    solver_chain: Optional[Sequence[str]],
    report: Optional[RunReport],
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    checkpoint_interval: Optional[int] = None,
    checkpoint_keep_last: Optional[int] = None,
    degrade: bool = True,
    certify: bool = False,
    certificate_tol: Optional[float] = None,
    lumping: Optional[CompositionalLumpingResult] = None,
    x0: Optional[np.ndarray] = None,
) -> LumpedSolution:
    """The degrading variant of :func:`lump_and_solve`.

    ``degrade=False`` (used by the supervisor's strict baseline rungs)
    keeps the fallback chain and reporting but makes per-level lumping
    failures fatal to the attempt instead of skipping the level.
    """
    from repro.robust.fallback import (
        DEFAULT_SOLVER_CHAIN,
        solve_with_fallback,
    )

    if report is None:
        report = RunReport()
    if solver_chain is None:
        # Start at the requested method, then the remaining defaults.
        solver_chain = [method] + [
            m for m in DEFAULT_SOLVER_CHAIN if m != method
        ]
    ck = _make_checkpointer(
        checkpoint_dir, resume, model, kind, method, key, iterate, report,
        checkpoint_interval, checkpoint_keep_last,
    )
    scope = budget if budget is not None else nullcontext()
    with scope, (ck if ck is not None else nullcontext()):
        with report.stage("lumping") as stage:
            if lumping is not None:
                result = lumping
                stage.detail = "reused precomputed partition"
            else:
                result = compositional_lump(
                    model, kind=kind, key=key, iterate=iterate,
                    degrade=degrade, report=report,
                )
            if result.skipped_levels:
                stage.status = "degraded"
                stage.detail = (
                    f"{len(result.skipped_levels)} level(s) kept the "
                    "identity partition"
                )
        with report.stage("solve") as stage:
            lumped_ctmc = result.lumped.flat_ctmc()
            if not lumped_ctmc.is_irreducible():
                raise LumpingError(
                    "the lumped chain is not irreducible; restrict the "
                    "model to a single recurrent class before solving"
                )
            from repro.robust.fallback import ITERATIVE_METHODS

            per_method = (
                {m: {"x0": x0} for m in ITERATIVE_METHODS}
                if x0 is not None
                else None
            )
            solution = solve_with_fallback(
                lumped_ctmc, chain=solver_chain, per_method=per_method
            )
            for attempt in solution.attempts:
                report.record_attempt(
                    stage="solve",
                    name=attempt.method,
                    succeeded=attempt.succeeded,
                    seconds=attempt.seconds,
                    error=attempt.error,
                    iterations=attempt.iterations,
                    residual=attempt.residual,
                )
            if solution.degraded:
                stage.status = "degraded"
                stage.detail = f"solved by {solution.method!r}"
                report.record_fallback(
                    stage="solve",
                    requested=solution.requested_method,
                    used=solution.method
                    + (
                        f" (tol relaxed to {solution.relaxed_tolerance:g})"
                        if solution.relaxed_tolerance is not None
                        else ""
                    ),
                    reason="; ".join(
                        a.error for a in solution.attempts if a.error
                    )
                    or "earlier attempts failed",
                )
        if solution.result.note:
            report.note(
                f"solver note ({solution.method}): {solution.result.note}"
            )
        stationary = solution.distribution
        solve_method = solution.method
        certificate = None
        if certify:
            from repro.robust.certify import certify_with_escalation

            with report.stage("certify") as stage:
                certified = certify_with_escalation(
                    stationary,
                    lumped_ctmc,
                    method=solution.method,
                    kind=kind,
                    lumping=result,
                    original=model,
                    chain=solver_chain,
                    report=report,
                    tol=certificate_tol,
                )
                stationary = certified.stationary
                solve_method = certified.method
                certificate = certified.certificate
                if certified.escalated:
                    stage.status = "degraded"
                    stage.detail = "escalated: " + ", ".join(
                        certified.escalations
                    )
    report.attach_budget(budget)
    return LumpedSolution(
        lumping=result,
        stationary=stationary,
        report=report,
        solve_method=solve_method,
        certificate=certificate,
    )
