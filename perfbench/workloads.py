"""The benchmark's four workloads.

Each workload builds its inputs from the seed (``inputs``; timed as the
build part of ``setup_s``), runs one timed operation (``run``), and
checks that operation's result after the clock stops (``finish``).
``run`` is timed on a running :class:`~perfbench.clock.SpeedClock`,
which it reads for per-item latencies (sweep points).
``small=True`` selects small parameters with the same code paths; it
serves the warm-up before the timed loop and the benchmark's own tests.

The seed changes the inputs but not the amount of work:

* Table 1 rows scale every rate by a power of two.  The scaling is exact
  in floating point, so the reachable set, the partitions and the
  lumped counts stay the paper's.
* ``sweep-200`` shifts its rate grid by up to 1%.
* ``md-transient`` draws its initial distribution over the lumped
  reachable states.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

import numpy as np

import repro.bench.table1 as table1_module
import repro.robust.certify as certify_module
import repro.robust.fallback as fallback_module
import repro.statespace.events as events_module
import repro.statespace.reachability as reachability_module
import repro.sweep.engine as sweep_engine_module
from repro.analysis import lump_and_solve
from repro.bench.table1 import run_table1_row_symbolic
from repro.lumping import compositional_lump
from repro.lumping.md_model import MDModel
from repro.markov.solvers import steady_state
from repro.markov.transient import transient_distribution
from repro.matrixdiagram import MDOperator, md_stats
from repro.models import TandemParams, build_tandem, tandem_md_model
from repro.models.tandem import projected_event_model
from repro.robust.certify import certify_with_escalation
from repro.robust.fallback import DEFAULT_SOLVER_CHAIN
from repro.service.cache import ResultCache
from repro.service.spec import demo_spec, model_from_spec, solve_params
from repro.service.store import JobStore
from repro.statespace import reachable_bfs
from repro.statespace.events import EventModel
from repro.statespace.reachability import (
    ReachabilityResult,
    SymbolicStateSpace,
)
from repro.sweep import auto_sites
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import apply_point, sweep_points
from perfbench.clock import SpeedClock
from perfbench.trace import Tracer

#: Calls made inside the program, recorded in traced runs.  The
#: workloads span the calls they make themselves.
LAYER_PATCHES: Tuple[Tuple[Any, str, str], ...] = (
    (table1_module, "build_tandem", "san.compile"),
    (reachability_module, "symbolic_reachability", "statespace.saturate"),
    (events_module, "project_event_model", "statespace.project"),
    (SymbolicStateSpace, "mapped_count", "statespace.lumped_count"),
    (table1_module, "compositional_lump", "lumping.lump"),
    (EventModel, "to_md", "matrixdiagram.build"),
    (ReachabilityResult, "potential_indices", "statespace.encode"),
    (MDModel, "flat_ctmc", "matrixdiagram.flatten"),
    (MDOperator, "left", "matrixdiagram.product"),
    (sweep_engine_module, "compositional_lump", "lumping.lump"),
    (sweep_engine_module, "lump_with_reuse", "sweep.reuse"),
    (fallback_module, "solve_with_fallback", "markov.solve"),
    (certify_module, "certify_with_escalation", "certify.certify"),
    (JobStore, "submit_batch", "service.submit"),
    (JobStore, "claim", "service.store"),
    (JobStore, "start_running", "service.store"),
    (JobStore, "complete", "service.store"),
    (ResultCache, "put", "service.cache"),
    (ResultCache, "get", "service.cache"),
)

#: Where ``sweep-200`` keeps its temporary job stores, under the
#: checkout root.
SCRATCH_DIR = ".perfbench"


@dataclass
class OpOutcome:
    """What one operation attempted, how much of it failed, and why."""

    attempted: int
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    #: Per-item latencies (sweep points), for percentiles.
    samples: List[float] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        """Count a failed oracle check."""
        if not ok:
            self.errors.append(message)
            self.failed = min(self.attempted, self.failed + 1)


def _scaled_tandem(seed: int, small: bool, jobs: int) -> TandemParams:
    scale = 2.0 ** (seed % 5 - 2)
    params = TandemParams(jobs=jobs)
    if small:
        params = dataclasses.replace(
            params, cube_dim=2, msmq_servers=2, msmq_queues=2
        )
    rates = {
        f.name: getattr(params, f.name) * scale
        for f in dataclasses.fields(params)
        if f.name.endswith("_rate")
    }
    return dataclasses.replace(params, **rates)


class Workload:
    """Base class: ``inputs`` -> (``prepare`` -> ``run`` -> ``finish``)*."""

    name = ""

    def __init__(self, root: str) -> None:
        self.root = root

    def inputs(self, seed: int, small: bool) -> Any:
        raise NotImplementedError

    def prepare(self, inputs: Any) -> Any:
        """Untimed per-operation preparation; returns the run state."""
        return inputs

    def run(self, state: Any, tracer: Tracer, clock: SpeedClock) -> Any:
        raise NotImplementedError

    def finish(self, state: Any, result: Any) -> OpOutcome:
        raise NotImplementedError


class Table1J1(Workload):
    """The paper's J=1 row carried to a certified steady-state solution.

    The steps are ``run_table1_row``'s, composed here because the solve
    and the certificate need the model and the lumping, which the row
    does not return."""

    name = "table1-j1"
    #: (reachable states, lumped states, lumped level sizes)
    EXPECTED = {
        False: (278528, 3040, (3, 286, 35)),
        True: (640, 129, (3, 33, 7)),
    }

    def inputs(self, seed: int, small: bool) -> Any:
        return small, _scaled_tandem(seed, small, jobs=1)

    def run(self, state: Any, tracer: Tracer, clock: SpeedClock) -> Any:
        _, params = state
        with tracer.span("san.compile"):
            compiled = build_tandem(params)
        with tracer.span("statespace.bfs"):
            reach = reachable_bfs(compiled.event_model)
        with tracer.span("statespace.project"):
            event_model = projected_event_model(compiled, reach)
        if event_model.level_sizes() != compiled.event_model.level_sizes():
            # Same step as run_table1_row: the projection shrank a level,
            # so the set is re-derived in the projected coordinates.
            with tracer.span("statespace.bfs"):
                reach = reachable_bfs(event_model)
        else:
            reach.model = event_model
        model = tandem_md_model(event_model, params, reachable=reach)
        with tracer.span("lumping.lump"):
            lumping = compositional_lump(model, "ordinary")
        ctmc = lumping.lumped.flat_ctmc()
        with tracer.span("markov.solve"):
            solved = steady_state(ctmc, method="direct")
        with tracer.span("certify.certify"):
            certified = certify_with_escalation(
                solved.distribution,
                ctmc,
                method="direct",
                kind="ordinary",
                lumping=lumping,
                original=model,
                chain=DEFAULT_SOLVER_CHAIN,
            )
        return reach, model, lumping, solved, certified

    def finish(self, state: Any, result: Any) -> OpOutcome:
        small, _ = state
        reach, model, lumping, solved, certified = result
        lumped = lumping.lumped
        outcome = OpOutcome(attempted=1)
        states, lumped_states, levels = self.EXPECTED[small]
        outcome.expect(
            reach.num_states == states,
            f"reachable states {reach.num_states} != {states}",
        )
        outcome.expect(
            len(lumped.reachable) == lumped_states,
            f"lumped states {len(lumped.reachable)} != {lumped_states}",
        )
        outcome.expect(
            tuple(lumped.md.level_sizes) == levels,
            f"lumped levels {tuple(lumped.md.level_sizes)} != {levels}",
        )
        outcome.expect(
            certified.certificate.passed,
            "certificate failed: " + "; ".join(certified.certificate.reasons),
        )
        outcome.counts = {
            "statespace.states": reach.num_states,
            "matrixdiagram.md_bytes": md_stats(model.md).memory_bytes,
            "lumping.lumped_states": len(lumped.reachable),
            "lumping.lumped_md_bytes": md_stats(lumped.md).memory_bytes,
            "markov.solve_iterations": solved.iterations,
        }
        return outcome


class Table1J2Symbolic(Workload):
    """The paper's J=2 row through the symbolic (saturation) pipeline:
    ``run_table1_row_symbolic`` itself, its layers spanned by
    ``LAYER_PATCHES``."""

    name = "table1-j2-symbolic"
    EXPECTED = {
        False: (2457600, 22600, (6, 1276, 135)),
        True: (3392, 575, (6, 91, 18)),
    }

    def inputs(self, seed: int, small: bool) -> Any:
        return small, _scaled_tandem(seed, small, jobs=2)

    def run(self, state: Any, tracer: Tracer, clock: SpeedClock) -> Any:
        _, params = state
        return run_table1_row_symbolic(2, params)

    def finish(self, state: Any, result: Any) -> OpOutcome:
        small, _ = state
        row = result
        levels = tuple(row.lumped_level_sizes)
        outcome = OpOutcome(attempted=1)
        states, expected_lumped, expected_levels = self.EXPECTED[small]
        outcome.expect(
            row.unlumped_overall == states,
            f"reachable states {row.unlumped_overall} != {states}",
        )
        outcome.expect(
            row.lumped_overall == expected_lumped,
            f"lumped states {row.lumped_overall} != {expected_lumped}",
        )
        outcome.expect(
            levels == expected_levels,
            f"lumped levels {levels} != {expected_levels}",
        )
        outcome.counts = {
            "statespace.states": row.unlumped_overall,
            "matrixdiagram.md_bytes": row.md_memory_bytes,
            "lumping.lumped_states": row.lumped_overall,
            "lumping.lumped_md_bytes": row.lumped_md_memory_bytes,
        }
        return outcome


class Sweep200(Workload):
    """A 200-point service-rate sweep through the job store and cache."""

    name = "sweep-200"
    #: Plan indices (1-based) re-solved by plain ``lump_and_solve``.
    ORACLE_POINTS = (1, 100, 200)

    def inputs(self, seed: int, small: bool) -> Any:
        base = demo_spec("tandem:1,2,2,2" if small else "tandem:2,2,2,2")
        base.setdefault("solve", {})["method"] = "power"
        model = model_from_spec(base)
        sites = auto_sites(model.md)
        points = 24 if small else 200
        low = 0.5 + 0.001 * (seed % 10)
        grid = [low + 1.5 * i / (points - 1) for i in range(points)]
        return {
            "format": 1,
            "base": base,
            "sites": {k: list(v) for k, v in sites.items()},
            "grid": {sorted(sites)[0]: grid},
        }

    def prepare(self, inputs: Any) -> Any:
        scratch = os.path.join(self.root, SCRATCH_DIR)
        os.makedirs(scratch, exist_ok=True)
        return inputs, tempfile.mkdtemp(prefix="sweep-", dir=scratch)

    def run(self, state: Any, tracer: Tracer, clock: SpeedClock) -> Any:
        spec, store = state
        samples: List[float] = []
        last = [0.0]

        def progress(_: Any) -> None:
            now = clock.now()
            samples.append(now - last[0])
            last[0] = now

        with tracer.span("sweep.plan"):
            engine = SweepEngine(spec, store, progress=progress)
        last[0] = clock.now()
        result = engine.run()
        return engine, result, samples

    def finish(self, state: Any, result: Any) -> OpOutcome:
        spec, store = state
        engine, swept, samples = result
        shutil.rmtree(store, ignore_errors=True)
        points = sweep_points(spec)
        stats = swept.stats
        outcome = OpOutcome(
            attempted=len(points), failed=stats.failed, samples=samples
        )
        outcome.errors.extend(
            f"point {o.point_id}: {o.error}"
            for o in swept.outcomes
            if o.status != "done"
        )
        outcome.expect(
            len(swept.outcomes) == len(points) and stats.done == len(points),
            f"{stats.done}/{len(points)} points done",
        )
        outcome.expect(
            stats.reuse_hits == len(points),
            f"reuse hits {stats.reuse_hits} != {len(points)}",
        )
        outcome.expect(stats.cache_hits == 0, f"cache hits {stats.cache_hits}")
        base = model_from_spec(spec["base"])
        params = solve_params(spec["base"])
        for index in self.ORACLE_POINTS:
            point = points[min(index, len(points)) - 1]
            swept_point = swept.outcomes[point.index - 1]
            if swept_point.stationary is None:
                continue  # already counted as a failed point
            derived = apply_point(base, spec["sites"], point.factor_map())
            plain = lump_and_solve(
                derived,
                kind=params["kind"],
                method=params["method"],
                iterate=params["iterate"],
                key=params["key"],
            )
            delta = float(
                np.max(np.abs(np.asarray(swept_point.stationary) - plain.stationary))
            )
            outcome.expect(
                delta <= 1e-8,
                f"point {point.point_id} differs from lump_and_solve by {delta:.2e}",
            )
        anchor = engine.anchor.lumped
        outcome.counts = {
            "lumping.lumped_states": anchor.num_states(),
            "lumping.lumped_md_bytes": md_stats(anchor.md).memory_bytes,
            "sweep.reuse_hits": stats.reuse_hits,
            "service.cache_hits": stats.cache_hits,
            "markov.solve_iterations": stats.solve_iterations,
        }
        return outcome


class MDTransient(Workload):
    """A uniformization transient by MD-vector products on a lumped MD."""

    name = "md-transient"
    HORIZON = 1.0

    def inputs(self, seed: int, small: bool) -> Any:
        params = TandemParams(
            jobs=1 if small else 2, cube_dim=2, msmq_servers=2, msmq_queues=2
        )
        compiled = build_tandem(params)
        reach = reachable_bfs(compiled.event_model)
        model = tandem_md_model(
            compiled.event_model, params, reachable=reach,
            reward="unavailability",
        )
        lumped = compositional_lump(model).lumped
        weights = np.random.default_rng(seed).random(len(lumped.reachable))
        initial = np.zeros(lumped.potential_size())
        initial[lumped.reachable] = weights / weights.sum()
        return {"lumped": lumped, "initial": initial}

    def run(self, state: Any, tracer: Tracer, clock: SpeedClock) -> Any:
        return MDOperator(state["lumped"].md).transient(
            state["initial"], self.HORIZON
        )

    def finish(self, state: Any, result: Any) -> OpOutcome:
        lumped = state["lumped"]
        if "reference" not in state:
            state["reference"] = transient_distribution(
                lumped.flat_ctmc(),
                state["initial"][lumped.reachable],
                self.HORIZON,
            )
        outcome = OpOutcome(attempted=1)
        delta = float(
            np.max(np.abs(result[lumped.reachable] - state["reference"]))
        )
        outcome.expect(
            delta <= 1e-9,
            f"MD transient differs from the flat transient by {delta:.2e}",
        )
        outcome.counts = {
            "lumping.lumped_states": lumped.num_states(),
            "lumping.lumped_md_bytes": md_stats(lumped.md).memory_bytes,
        }
        return outcome


WORKLOADS = {
    cls.name: cls for cls in (Table1J1, Table1J2Symbolic, Sweep200, MDTransient)
}
