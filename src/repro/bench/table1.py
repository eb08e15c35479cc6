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

Absolute values differ from the paper (different host, pure Python, and
rates/encodings the paper does not specify); the *shape* — large
multiplicative reductions, lump time well under generation time, roughly
an order of magnitude less MD memory — is the reproduction target and is
recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.lumping import compositional_lump
from repro.matrixdiagram import md_stats
from repro.models import TandemParams, build_tandem, tandem_md_model
from repro.models.tandem import projected_event_model
from repro.robust.budgets import Budget
from repro.robust.checkpoint import scoped as checkpoint_scoped
from repro.robust.report import RunReport
from repro.statespace import reachable_bfs, reachable_mdd
from repro.util import Stopwatch, Table, format_bytes, format_seconds


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


def run_table1_row(
    jobs: int,
    params: Optional[TandemParams] = None,
    reach_engine: str = "bfs",
    kind: str = "ordinary",
) -> Table1Row:
    """Run the full pipeline for one ``J`` and collect the row."""
    if params is None:
        params = TandemParams(jobs=jobs)
    elif params.jobs != jobs:
        raise ValueError("params.jobs disagrees with the jobs argument")
    watch = Stopwatch()
    with watch.phase("generation"):
        compiled = build_tandem(params)
        if reach_engine == "bfs":
            reach = reachable_bfs(compiled.event_model)
        elif reach_engine == "mdd":
            reach = reachable_mdd(compiled.event_model)
        else:
            raise ValueError(f"unknown reach engine {reach_engine!r}")
        event_model = projected_event_model(compiled, reach)
        if event_model.level_sizes() != compiled.event_model.level_sizes():
            # The projection shrank some level; recompute the reachable set
            # in the projected coordinates (labels are preserved, so the
            # result is the same set).
            reach = reachable_bfs(event_model)
        else:
            reach.model = event_model
        model = tandem_md_model(event_model, params, reachable=reach)
    unlumped_stats = md_stats(model.md)

    with watch.phase("lumping"):
        result = compositional_lump(model, kind)
    lumped_stats = md_stats(result.lumped.md)

    return Table1Row(
        jobs=jobs,
        unlumped_overall=reach.num_states,
        unlumped_level_sizes=list(reach.level_sizes()),
        md_nodes_per_level=list(unlumped_stats.nodes_per_level),
        lumped_overall=len(result.lumped.reachable),
        lumped_level_sizes=list(result.lumped.md.level_sizes),
        generation_seconds=watch.elapsed("generation"),
        md_memory_bytes=unlumped_stats.memory_bytes,
        lump_seconds=watch.elapsed("lumping"),
        lumped_md_memory_bytes=lumped_stats.memory_bytes,
    )


def run_table1_row_symbolic(
    jobs: int,
    params: Optional[TandemParams] = None,
    strategy: str = "saturation",
    kind: str = "ordinary",
) -> Table1Row:
    """Fully symbolic Table-1 row: the reachable set is never enumerated.

    Uses MDD reachability (saturation by default) for the counts and
    supports, and MDD level-mapping for the lumped state count, so the
    pipeline scales to state spaces far beyond what explicit enumeration
    can hold — the regime the paper's MD representation targets.
    """
    from repro.statespace.events import project_event_model
    from repro.statespace.reachability import symbolic_reachability

    if params is None:
        params = TandemParams(jobs=jobs)
    elif params.jobs != jobs:
        raise ValueError("params.jobs disagrees with the jobs argument")
    watch = Stopwatch()
    with watch.phase("generation"):
        compiled = build_tandem(params)
        symbolic = symbolic_reachability(
            compiled.event_model, strategy=strategy
        )
        supports = symbolic.level_supports()
        event_model = project_event_model(compiled.event_model, supports)
        model = tandem_md_model(event_model, params)
    unlumped_stats = md_stats(model.md)

    with watch.phase("lumping"):
        result = compositional_lump(model, kind)
    lumped_stats = md_stats(result.lumped.md)

    # Lumped reachable count: map each original substate to its class
    # (composing the support projection with the per-level partition).
    class_vectors = [
        partition.state_class_vector() for partition in result.partitions
    ]
    mappings = []
    for level, support in enumerate(supports):
        position = {substate: i for i, substate in enumerate(support)}
        mappings.append(
            {
                substate: class_vectors[level][position[substate]]
                for substate in support
            }
        )
    lumped_overall = symbolic.mapped_count(
        mappings, result.lumped.md.level_sizes
    )

    return Table1Row(
        jobs=jobs,
        unlumped_overall=symbolic.num_states,
        unlumped_level_sizes=[len(s) for s in supports],
        md_nodes_per_level=list(unlumped_stats.nodes_per_level),
        lumped_overall=lumped_overall,
        lumped_level_sizes=list(result.lumped.md.level_sizes),
        generation_seconds=watch.elapsed("generation"),
        md_memory_bytes=unlumped_stats.memory_bytes,
        lump_seconds=watch.elapsed("lumping"),
        lumped_md_memory_bytes=lumped_stats.memory_bytes,
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
    solver_chain: Optional[Sequence[str]] = None,
    budget: Optional[Budget] = None,
    report: Optional[RunReport] = None,
    checkpoint_dir: Optional[str] = None,
    resume: bool = False,
    checkpoint_interval: Optional[int] = None,
    checkpoint_keep_last: Optional[int] = None,
    lumping_degrade: bool = True,
    supervised: bool = False,
    supervisor=None,
) -> RobustTable1Run:
    """The Table-1 pipeline with fallbacks, degradation, and a report.

    Runs generation -> lumping -> steady-state solve end to end:
    reachability falls back across ``engines`` (default MDD -> BFS),
    lumping skips levels that fail (identity partition; disable with
    ``lumping_degrade=False``), and the solve walks the solver fallback
    chain.  Every degradation is recorded in the returned report, so the
    driver can print what degraded and why.

    With ``checkpoint_dir`` set, the reachability/refinement/solver loops
    write crash-safe snapshots (see :mod:`repro.robust.checkpoint`);
    ``resume=True`` continues a killed or budget-stopped run from them,
    ``checkpoint_interval`` overrides the snapshot cadence, and
    ``checkpoint_keep_last`` garbage-collects old snapshots.

    With ``supervised=True`` the whole pipeline runs in a
    watchdog-supervised child process, restarted from the latest
    checkpoint on crash/hang/OOM with progressive degradation — see
    :mod:`repro.robust.supervisor`.  ``supervisor`` is an optional
    :class:`~repro.robust.supervisor.SupervisorConfig`.
    """
    if supervised:
        return _run_table1_row_supervised(
            jobs,
            params=params,
            engines=engines,
            kind=kind,
            solver_chain=solver_chain,
            budget=budget,
            report=report,
            checkpoint_dir=checkpoint_dir,
            resume=resume,
            config=supervisor,
        )
    from repro.robust.fallback import (
        DEFAULT_SOLVER_CHAIN,
        reachable_with_fallback,
        solve_with_fallback,
    )

    if params is None:
        params = TandemParams(jobs=jobs)
    elif params.jobs != jobs:
        raise ValueError("params.jobs disagrees with the jobs argument")
    if report is None:
        report = RunReport()
    if solver_chain is None:
        solver_chain = DEFAULT_SOLVER_CHAIN
    ck = None
    if checkpoint_dir is not None:
        from repro.robust.checkpoint import Checkpointer

        ck_kwargs = {}
        if checkpoint_interval is not None:
            ck_kwargs["interval_iterations"] = checkpoint_interval
        ck = Checkpointer(
            checkpoint_dir,
            resume=resume,
            fingerprint=(
                f"table1 jobs={jobs} kind={kind} params={params}"
            ),
            report=report,
            keep_last=checkpoint_keep_last,
            **ck_kwargs,
        )
    scope = budget if budget is not None else nullcontext()
    with scope, (ck if ck is not None else nullcontext()):
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
            if (
                event_model.level_sizes()
                != compiled.event_model.level_sizes()
            ):
                # Same recomputation as run_table1_row: the projection
                # shrank a level, so re-derive the set in the projected
                # coordinates (BFS is always available here).  Its own
                # checkpoint scope keeps it from ever aliasing the first
                # BFS's snapshots.
                with checkpoint_scoped("projected"):
                    reach = reachable_bfs(event_model)
            else:
                reach.model = event_model
            model = tandem_md_model(event_model, params, reachable=reach)
        unlumped_stats = md_stats(model.md)

        with report.stage("lumping") as stage, checkpoint_scoped("lumping"):
            result = compositional_lump(
                model, kind, degrade=lumping_degrade, report=report
            )
            if result.skipped_levels:
                stage.status = "degraded"
                stage.detail = (
                    f"{len(result.skipped_levels)} level(s) kept the "
                    "identity partition"
                )
        lumped_stats = md_stats(result.lumped.md)

        with report.stage("solve") as stage, checkpoint_scoped("solve"):
            lumped_ctmc = result.lumped.flat_ctmc()
            solution = solve_with_fallback(lumped_ctmc, chain=solver_chain)
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
                    used=solution.method,
                    reason="; ".join(
                        a.error for a in solution.attempts if a.error
                    )
                    or "earlier attempts failed",
                )
    report.attach_budget(budget)

    row = Table1Row(
        jobs=jobs,
        unlumped_overall=reach.num_states,
        unlumped_level_sizes=list(reach.level_sizes()),
        md_nodes_per_level=list(unlumped_stats.nodes_per_level),
        lumped_overall=len(result.lumped.reachable),
        lumped_level_sizes=list(result.lumped.md.level_sizes),
        generation_seconds=report.stage_seconds("generation"),
        md_memory_bytes=unlumped_stats.memory_bytes,
        lump_seconds=report.stage_seconds("lumping"),
        lumped_md_memory_bytes=lumped_stats.memory_bytes,
    )
    return RobustTable1Run(
        row=row,
        report=report,
        stationary=solution.distribution,
        solve_method=solution.method,
        reach_engine=engine_run.engine,
    )


def _run_table1_row_supervised(
    jobs: int,
    params: Optional[TandemParams],
    engines: Sequence[str],
    kind: str,
    solver_chain: Optional[Sequence[str]],
    budget: Optional[Budget],
    report: Optional[RunReport],
    checkpoint_dir: Optional[str],
    resume: bool,
    config=None,
) -> RobustTable1Run:
    """The supervised variant: the robust Table-1 pipeline in a watched
    child process (see :mod:`repro.robust.supervisor`)."""
    from repro.robust.supervisor import run_supervised

    def _attempt(ctx) -> RobustTable1Run:
        level = ctx.degradation
        chain = (
            level.solver_chain if level.solver_chain is not None
            else solver_chain
        )
        return run_table1_row_robust(
            jobs,
            params=params,
            engines=engines,
            kind=kind,
            solver_chain=chain,
            budget=ctx.budget,
            report=ctx.report,
            checkpoint_dir=ctx.checkpoint_dir,
            resume=ctx.resume,
            checkpoint_interval=ctx.checkpoint_interval,
            checkpoint_keep_last=ctx.checkpoint_keep_last,
            lumping_degrade=level.lumping_degrade,
        )

    supervised = run_supervised(
        _attempt,
        checkpoint_dir=checkpoint_dir,
        config=config,
        budget=budget,
        report=report,
        resume=resume,
    )
    run: RobustTable1Run = supervised.result
    run.report = supervised.report
    return run


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
