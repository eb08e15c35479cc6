"""Regeneration of the paper's Table 1.

For each job count ``J`` the harness runs the same pipeline the paper
describes — build the tandem model, generate the state space, construct the
MD, run compositional (ordinary) lumping — and collects exactly the
columns Table 1 reports:

* upper part: unlumped state-space sizes (overall and per level) and the
  number of MD nodes per level,
* middle part: lumped sizes and the reduction factors (overall, level 2,
  level 3),
* lower part: state-space generation time, unlumped MD memory, lumping
  time, lumped MD memory.

The explicit rows share one generation stage (compile, reachability
engine chain, projection, re-BFS); the robust row hands lumping and the
solve to :mod:`repro.analysis`'s pipeline body.  Every row times its
stages with a :class:`~repro.robust.report.RunReport`.

Absolute values differ from the paper (different host, pure Python, and
rates/encodings the paper does not specify); the *shape* — large
multiplicative reductions, lump time well under generation time, roughly
an order of magnitude less MD memory — is the reproduction target and is
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import _run_body, _staged_solve
from repro.lumping import compositional_lump
from repro.lumping.compositional import CompositionalLumpingResult
from repro.lumping.md_model import MDModel
from repro.matrixdiagram import md_stats
from repro.models import TandemParams, build_tandem, tandem_md_model
from repro.models.tandem import projected_event_model
from repro.robust.budgets import Budget
from repro.robust.checkpoint import scoped as checkpoint_scoped
from repro.robust.fallback import reachable_with_fallback
from repro.robust.report import RunReport
from repro.statespace import reachable_bfs
from repro.statespace.reachability import ReachabilityResult
from repro.util import Table, format_bytes, format_seconds


@dataclass
class Table1Row:
    """One ``J`` row of (our) Table 1."""

    jobs: int
    unlumped_overall: int
    unlumped_level_sizes: List[int]
    md_nodes_per_level: List[int]
    lumped_overall: int
    lumped_level_sizes: List[int]
    generation_seconds: float
    md_memory_bytes: int
    lump_seconds: float
    lumped_md_memory_bytes: int

    @property
    def overall_reduction(self) -> float:
        """Unlumped states per lumped state."""
        return self.unlumped_overall / max(1, self.lumped_overall)

    def level_reduction(self, level: int) -> float:
        """Reduction factor of one level (1-based)."""
        return self.unlumped_level_sizes[level - 1] / max(
            1, self.lumped_level_sizes[level - 1]
        )


def _tandem_params(jobs: int, params: Optional[TandemParams]) -> TandemParams:
    if params is None:
        return TandemParams(jobs=jobs)
    if params.jobs != jobs:
        raise ValueError("params.jobs disagrees with the jobs argument")
    return params


def _generate_explicit(
    params: TandemParams, engines: Sequence[str], report: RunReport
) -> Tuple[ReachabilityResult, MDModel, str]:
    """The explicit generation stage: compile, reach with the first of
    ``engines`` that succeeds, project, build the MD model.  Returns the
    reachable set, the model and the engine that produced the set."""
    with report.stage("generation") as stage, checkpoint_scoped(
        "generation"
    ):
        compiled = build_tandem(params)
        engine_run = reachable_with_fallback(
            compiled.event_model, engines=engines
        )
        for attempt in engine_run.attempts:
            report.record_attempt(
                stage="generation",
                name=attempt.engine,
                succeeded=attempt.succeeded,
                seconds=attempt.seconds,
                error=attempt.error,
            )
        if engine_run.degraded:
            stage.status = "degraded"
            stage.detail = f"reachability via {engine_run.engine!r}"
            report.record_fallback(
                stage="generation",
                requested=engine_run.requested_engine,
                used=engine_run.engine,
                reason="; ".join(
                    a.error for a in engine_run.attempts if a.error
                )
                or "earlier engines failed",
            )
        reach = engine_run.result
        event_model = projected_event_model(compiled, reach)
        if event_model.level_sizes() != compiled.event_model.level_sizes():
            # The projection shrank some level; recompute the reachable
            # set in the projected coordinates (labels are preserved, so
            # the result is the same set; BFS is always available here).
            # Its own checkpoint scope keeps it from ever aliasing the
            # first engine's snapshots.
            with checkpoint_scoped("projected"):
                reach = reachable_bfs(event_model)
        else:
            reach.model = event_model
        model = tandem_md_model(event_model, params, reachable=reach)
    return reach, model, engine_run.engine


def _lump(
    model: MDModel, kind: str, report: RunReport
) -> CompositionalLumpingResult:
    """The lumping stage of the rows that do not solve."""
    with report.stage("lumping"):
        return compositional_lump(model, kind)


def _row(
    jobs: int,
    lumping: CompositionalLumpingResult,
    report: RunReport,
    unlumped_overall: int,
    unlumped_level_sizes: Sequence[int],
    lumped_overall: Optional[int] = None,
) -> Table1Row:
    """Collect a row from the stage products and the stage timings
    (``lumped_overall`` defaults to the lumped reachable set's size)."""
    unlumped_stats = md_stats(lumping.original.md)
    lumped_stats = md_stats(lumping.lumped.md)
    if lumped_overall is None:
        lumped_overall = len(lumping.lumped.reachable)
    return Table1Row(
        jobs=jobs,
        unlumped_overall=unlumped_overall,
        unlumped_level_sizes=list(unlumped_level_sizes),
        md_nodes_per_level=list(unlumped_stats.nodes_per_level),
        lumped_overall=lumped_overall,
        lumped_level_sizes=list(lumping.lumped.md.level_sizes),
        generation_seconds=report.stage_seconds("generation"),
        md_memory_bytes=unlumped_stats.memory_bytes,
        lump_seconds=report.stage_seconds("lumping"),
        lumped_md_memory_bytes=lumped_stats.memory_bytes,
    )


def run_table1_row(
    jobs: int,
    params: Optional[TandemParams] = None,
    reach_engine: str = "bfs",
    kind: str = "ordinary",
) -> Table1Row:
    """Run the full pipeline for one ``J`` and collect the row."""
    if reach_engine not in ("bfs", "mdd"):
        raise ValueError(f"unknown reach engine {reach_engine!r}")
    params = _tandem_params(jobs, params)
    report = RunReport()
    reach, model, _ = _generate_explicit(params, (reach_engine,), report)
    lumping = _lump(model, kind, report)
    return _row(jobs, lumping, report, reach.num_states, reach.level_sizes())


def run_table1_row_symbolic(
    jobs: int,
    params: Optional[TandemParams] = None,
    kind: str = "ordinary",
) -> Table1Row:
    """Fully symbolic Table-1 row: the reachable set is never enumerated.

    Uses MDD saturation for the counts and supports, and MDD
    level-mapping for the lumped state count, so the pipeline scales to
    state spaces far beyond what explicit enumeration can hold — the
    regime the paper's MD representation targets.
    """
    from repro.statespace.events import project_event_model
    from repro.statespace.reachability import symbolic_reachability

    params = _tandem_params(jobs, params)
    report = RunReport()
    with report.stage("generation"):
        compiled = build_tandem(params)
        symbolic = symbolic_reachability(compiled.event_model)
        supports = symbolic.level_supports()
        event_model = project_event_model(compiled.event_model, supports)
        model = tandem_md_model(event_model, params)
    lumping = _lump(model, kind, report)

    # Lumped reachable count: map each original substate to its class
    # (composing the support projection with the per-level partition).
    mappings = []
    for support, partition in zip(supports, lumping.partitions):
        classes = partition.state_class_vector()
        mappings.append(
            {substate: classes[i] for i, substate in enumerate(support)}
        )
    lumped_overall = symbolic.mapped_count(
        mappings, lumping.lumped.md.level_sizes
    )
    return _row(
        jobs, lumping, report, symbolic.num_states,
        [len(s) for s in supports], lumped_overall,
    )


@dataclass
class RobustTable1Run:
    """A Table-1 row produced by the resilient pipeline.

    Besides the row itself, carries the steady-state solution of the
    lumped chain and the :class:`~repro.robust.report.RunReport` saying
    which engines/solvers/levels degraded along the way.
    """

    row: Table1Row
    report: RunReport
    stationary: np.ndarray
    solve_method: str
    reach_engine: str


def run_table1_row_robust(
    jobs: int,
    params: Optional[TandemParams] = None,
    engines: Sequence[str] = ("mdd", "bfs"),
    kind: str = "ordinary",
    budget: Optional[Budget] = None,
    report: Optional[RunReport] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    supervised: bool = False,
    supervisor=None,
) -> RobustTable1Run:
    """The Table-1 pipeline with fallbacks, degradation, and a report.

    Runs generation -> lumping -> steady-state solve end to end:
    reachability falls back across ``engines`` (default MDD -> BFS),
    and lumping and the solve are the robust stages of
    :func:`~repro.analysis.lump_and_solve`: lumping skips levels that
    fail (identity partition) and the solve walks the solver fallback
    chain.  Every degradation is recorded in the returned report, so
    the CLI can print what degraded and why.

    With ``checkpoint_dir`` set, the reachability/refinement/solver loops
    write crash-safe snapshots (see :mod:`repro.robust.checkpoint`);
    ``resume=True`` continues a killed or budget-stopped run from them.

    With ``supervised=True`` the whole pipeline runs in a
    watchdog-supervised child process, restarted from the latest
    checkpoint on crash/hang/OOM with progressive degradation — see
    :mod:`repro.robust.supervisor`.  ``supervisor`` is an optional
    :class:`~repro.robust.supervisor.SupervisorConfig`.
    """
    body = partial(
        _robust_row, jobs, _tandem_params(jobs, params), engines, kind
    )
    return _run_body(
        body, supervised=supervised, supervisor=supervisor, budget=budget,
        report=report, checkpoint_dir=checkpoint_dir, resume=resume,
    )


def _robust_row(
    jobs: int,
    params: TandemParams,
    engines: Sequence[str],
    kind: str,
    **wrapping,
) -> RobustTable1Run:
    """The explicit generation stage as the first stage of the pipeline
    body, under the ``wrapping`` (budget, report, checkpoints) that
    :func:`~repro.analysis._run_body` passes."""
    generated = []

    def generate(report: RunReport) -> MDModel:
        generated.append(_generate_explicit(params, engines, report))
        return generated[-1][1]

    solution = _staged_solve(
        generate,
        fingerprint=f"table1 jobs={jobs} kind={kind} params={params}",
        kind=kind,
        robust=True,
        **wrapping,
    )
    reach, _, engine = generated[-1]
    return RobustTable1Run(
        row=_row(
            jobs, solution.lumping, solution.report, reach.num_states,
            reach.level_sizes(),
        ),
        report=solution.report,
        stationary=solution.stationary,
        solve_method=solution.solve_method,
        reach_engine=engine,
    )


def render_table1(rows: List[Table1Row]) -> str:
    """Render rows in the paper's three-part Table 1 layout."""
    upper = Table(
        ["J", "overall", "S1", "S2", "S3", "N1", "N2", "N3"],
        title="Unlumped state-space sizes and MD nodes per level",
    )
    for row in rows:
        upper.add_row(
            [row.jobs, row.unlumped_overall]
            + row.unlumped_level_sizes
            + row.md_nodes_per_level
        )
    middle = Table(
        ["J", "overall", "S1", "S2", "S3", "red overall", "red l2", "red l3"],
        title="Lumped state-space sizes and reduction factors",
    )
    for row in rows:
        middle.add_row(
            [row.jobs, row.lumped_overall]
            + row.lumped_level_sizes
            + [
                f"{row.overall_reduction:.1f}",
                f"{row.level_reduction(2):.1f}",
                f"{row.level_reduction(3):.1f}",
            ]
        )
    lower = Table(
        ["J", "gen time", "MD space", "lump time", "lumped MD space"],
        title="Generation/lumping times and MD memory",
    )
    for row in rows:
        lower.add_row(
            [
                row.jobs,
                format_seconds(row.generation_seconds),
                format_bytes(row.md_memory_bytes),
                format_seconds(row.lump_seconds),
                format_bytes(row.lumped_md_memory_bytes),
            ]
        )
    return "\n\n".join([upper.render(), middle.render(), lower.render()])
