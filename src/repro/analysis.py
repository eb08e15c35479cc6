"""One-call lump-and-solve pipeline.

``lump_and_solve`` runs the full workflow a user of the paper's system
would: compositional lumping of an MD model, restriction to the (lumped)
reachable states, steady-state solution of the lumped chain, and measure
evaluation — all without ever solving the unlumped chain.

Every mode, and the robust Table-1 row, runs one staged body
(:func:`_staged_solve`) under the caller's budget, checkpointer and
run report; supervision runs the same body in watched child processes
(:func:`_run_body`).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Callable, Optional, TypeVar

import numpy as np

if TYPE_CHECKING:
    from repro.robust.certify import Certificate
    from repro.robust.retry import DegradationLevel

from repro.errors import LumpingError
from repro.lumping.compositional import (
    CompositionalLumpingResult,
    compositional_lump,
)
from repro.lumping.md_model import MDModel
from repro.markov.transient import transient_distribution
from repro.robust import checkpoint
from repro.robust.budgets import Budget
from repro.robust.checkpoint import Checkpointer
from repro.robust.report import RunReport
from repro.util.numeric import mixed_radix_digits

_Run = TypeVar("_Run")


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
        states = self.lumped_model.reachable
        if states is None:
            states = np.arange(md.potential_size())
        digits = mixed_radix_digits(states, md.level_sizes)
        total = 0.0
        for position, state in enumerate(zip(*(d.tolist() for d in digits))):
            labels = tuple(
                md.substate_label(level, substate)
                for level, substate in enumerate(state, start=1)
            )
            if predicate(labels):
                total += float(self.stationary[position])
        return total


def lump_and_solve(
    model: MDModel,
    kind: str = "ordinary",
    method: str = "direct",
    iterate: bool = False,
    key: str = "formal",
    *,
    robust: bool = False,
    budget: Optional[Budget] = None,
    report: Optional[RunReport] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    supervised: bool = False,
    supervisor=None,
    certify: bool = False,
    lumping: Optional[CompositionalLumpingResult] = None,
    x0: Optional[np.ndarray] = None,
) -> LumpedSolution:
    """Lump ``model`` compositionally and solve the lumped chain.

    The model must carry a ``reachable`` restriction (or be fully
    reachable): the lumped chain is solved over the restricted space.

    Every mode runs the same stages (lumping, solve and, with
    ``certify``, certification) under ``budget`` when one is given, and
    records them in ``report`` (a fresh
    :class:`~repro.robust.report.RunReport` when none is passed), which
    the returned solution carries.

    Without ``robust`` the solve is ``method`` alone and any failure
    propagates.  With ``robust=True`` the pipeline degrades instead of
    dying: levels whose lumping fails are skipped (identity partition),
    and the solve walks a fallback chain starting at ``method`` (see
    :func:`repro.robust.fallback.solve_with_fallback`), with every
    degradation recorded in the report.

    With ``checkpoint_dir`` set, the refinement and solver loops write
    crash-safe snapshots there (see :mod:`repro.robust.checkpoint`); with
    ``resume=True`` a rerun continues from the latest valid snapshots
    instead of restarting, falling back to a fresh start (recorded in the
    report) on any corrupt or stale snapshot.

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
    attached.  The certificate lands on ``LumpedSolution.certificate``.

    With ``lumping`` given (a :class:`CompositionalLumpingResult` whose
    ``original`` matches ``model``), the refinement is skipped entirely
    and the precomputed partition is used as-is — the parameter-sweep
    reuse path (:mod:`repro.sweep`), which proves partition validity
    separately before passing it here.  With ``x0`` given, iterative
    solve methods are warm-started from it instead of the uniform
    vector (``direct`` ignores it); certification still checks the
    answer, so a poisoned warm start cannot certify.
    """
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
    fingerprint = (
        f"lump_and_solve kind={kind} method={method} key={key} "
        f"iterate={iterate} levels={tuple(model.md.level_sizes)} "
        f"n={model.num_states()}"
    )
    body = partial(
        _staged_solve, lambda _report: model, fingerprint=fingerprint,
        kind=kind, method=method, iterate=iterate, key=key,
        robust=robust or supervised, certify=certify, lumping=lumping, x0=x0,
    )
    return _run_body(
        body, supervised=supervised, supervisor=supervisor, budget=budget,
        report=report, checkpoint_dir=checkpoint_dir, resume=resume,
    )


def _staged_solve(
    generate: Callable[[RunReport], MDModel],
    *,
    fingerprint: str,
    kind: str,
    method: str = "direct",
    iterate: bool = False,
    key: str = "formal",
    robust: bool,
    certify: bool = False,
    lumping: Optional[CompositionalLumpingResult] = None,
    x0: Optional[np.ndarray] = None,
    budget: Optional[Budget],
    report: Optional[RunReport],
    checkpoint_dir: Optional[str],
    resume: bool,
    rung: Optional["DegradationLevel"] = None,
    keep_last: Optional[int] = None,
) -> LumpedSolution:
    """The pipeline body: ``generate(report)`` returns the model, then
    the ``lumping``, ``solve`` and (with ``certify``) ``certify`` stages.

    Every stage runs under ``budget`` and a checkpointer on
    ``checkpoint_dir`` (manifest ``fingerprint``, one key scope per
    stage) and is recorded in ``report``.  A supervised attempt's
    ``rung`` overrides lumping degradation, the solver chain and the
    checkpoint cadence; ``keep_last`` is the supervisor's snapshot GC
    window.  The other keywords are :func:`lump_and_solve`'s.
    """
    from repro.robust.fallback import (
        DEFAULT_SOLVER_CHAIN,
        ITERATIVE_METHODS,
        solve_with_fallback,
    )

    if report is None:
        report = RunReport()
    # Start at the requested method, then the remaining defaults.
    chain = [method] + [m for m in DEFAULT_SOLVER_CHAIN if m != method]
    degrade = robust
    cadence = {}
    if rung is not None:
        degrade = rung.lumping_degrade
        if rung.solver_chain is not None:
            chain = list(rung.solver_chain)
        if rung.checkpoint_interval is not None:
            cadence["interval_iterations"] = rung.checkpoint_interval
    ck = nullcontext()
    if checkpoint_dir is not None:
        ck = Checkpointer(
            checkpoint_dir, resume=resume, fingerprint=fingerprint,
            report=report, keep_last=keep_last, **cadence,
        )
    with (budget if budget is not None else nullcontext()), ck:
        model = generate(report)
        with report.stage("lumping") as stage, checkpoint.scoped("lumping"):
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
        with report.stage("solve") as stage, checkpoint.scoped("solve"):
            lumped_ctmc = result.lumped.flat_ctmc()
            if not lumped_ctmc.is_irreducible():
                raise LumpingError(
                    "the lumped chain is not irreducible; restrict the "
                    "model to a single recurrent class before solving"
                )
            per_method = (
                {m: {"x0": x0} for m in ITERATIVE_METHODS}
                if x0 is not None
                else None
            )
            # Without robust the solve is the requested method alone:
            # one rung and no relaxed-tolerance round.
            solution = solve_with_fallback(
                lumped_ctmc,
                chain=chain if robust else [method],
                per_method=per_method,
                **({} if robust else {"relaxation_factor": None}),
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

            with report.stage("certify") as stage, checkpoint.scoped(
                "certify"
            ):
                certified = certify_with_escalation(
                    stationary,
                    lumped_ctmc,
                    method=solve_method,
                    kind=kind,
                    lumping=result,
                    original=model,
                    chain=chain,
                    report=report,
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


def _run_body(
    body: Callable[..., _Run],
    *,
    supervised: bool,
    supervisor,
    budget: Optional[Budget],
    report: Optional[RunReport],
    checkpoint_dir: Optional[str],
    resume: bool,
) -> _Run:
    """Run ``body``, a pipeline body with its stage arguments bound, in
    this process or supervised (:mod:`repro.robust.supervisor`: every
    attempt in a watched child, passing the attempt's ``rung`` and
    ``keep_last``; the result gets the merged report of all attempts).
    """
    if not supervised:
        return body(
            budget=budget, report=report, checkpoint_dir=checkpoint_dir,
            resume=resume,
        )
    from repro.robust.supervisor import run_supervised

    run = run_supervised(
        lambda ctx: body(
            budget=ctx.budget, report=ctx.report,
            checkpoint_dir=ctx.checkpoint_dir, resume=ctx.resume,
            rung=ctx.degradation, keep_last=ctx.checkpoint_keep_last,
        ),
        checkpoint_dir=checkpoint_dir, config=supervisor, budget=budget,
        report=report, resume=resume,
    )
    run.result.report = run.report
    return run.result
