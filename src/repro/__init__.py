"""repro — compositional lumping of matrix-diagram-represented Markov models.

A from-scratch reproduction of Derisavi, Kemper & Sanders, *"Lumping Matrix
Diagram Representations of Markov Models"* (DSN 2005), together with every
substrate the paper relies on: CTMCs/MRPs with solvers, matrix diagrams,
Kronecker descriptors, symbolic state spaces (MDDs), a SAN-like modeling
formalism with state-sharing composition, and the paper's tandem
multi-processor example.

Quickstart::

    from repro.models import TandemParams, build_tandem, tandem_md_model
    from repro.models.tandem import projected_event_model
    from repro.statespace import reachable_bfs
    from repro.lumping import compositional_lump

    params = TandemParams(jobs=1, cube_dim=2, msmq_servers=2, msmq_queues=2)
    compiled = build_tandem(params)
    reach = reachable_bfs(compiled.event_model)
    model = tandem_md_model(
        projected_event_model(compiled, reach), params)
    result = compositional_lump(model, "ordinary")
    print(result.reductions)
"""

from repro.errors import (
    CompositionError,
    LumpingError,
    MatrixDiagramError,
    ModelError,
    ReproError,
    SolverError,
    StateSpaceError,
)
from repro.partitions import Partition
from repro.markov import CTMC, MarkovRewardProcess, steady_state
from repro.matrixdiagram import (
    FormalSum,
    MatrixDiagram,
    MDNode,
    flatten,
    md_from_kronecker_terms,
    md_stats,
)
from repro.kronecker import KroneckerDescriptor, descriptor_to_md
from repro.statespace import (
    Event,
    EventModel,
    LevelSpace,
    MDDManager,
    reachable_bfs,
    reachable_mdd,
)
from repro.san import Activity, Case, Join, Place, SANModel, compile_join
from repro.lumping import (
    MDModel,
    comp_lumping,
    comp_lumping_level,
    compositional_lump,
    lump_mrp,
)
from repro.analysis import LumpedSolution, lump_and_solve
from repro.robust import (
    Budget,
    BudgetExceeded,
    FaultInjector,
    RunReport,
    inject_faults,
)
from repro.robust.fallback import (
    reachable_with_fallback,
    solve_with_fallback,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "ModelError",
    "StateSpaceError",
    "MatrixDiagramError",
    "LumpingError",
    "SolverError",
    "CompositionError",
    "Partition",
    "CTMC",
    "MarkovRewardProcess",
    "steady_state",
    "FormalSum",
    "MDNode",
    "MatrixDiagram",
    "flatten",
    "md_from_kronecker_terms",
    "md_stats",
    "KroneckerDescriptor",
    "descriptor_to_md",
    "Event",
    "EventModel",
    "LevelSpace",
    "MDDManager",
    "reachable_bfs",
    "reachable_mdd",
    "Activity",
    "Case",
    "Place",
    "SANModel",
    "Join",
    "compile_join",
    "MDModel",
    "comp_lumping",
    "comp_lumping_level",
    "compositional_lump",
    "lump_mrp",
    "LumpedSolution",
    "lump_and_solve",
    "Budget",
    "BudgetExceeded",
    "FaultInjector",
    "inject_faults",
    "RunReport",
    "solve_with_fallback",
    "reachable_with_fallback",
    "__version__",
]
