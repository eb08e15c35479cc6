"""The paper's tandem multi-processor system (Section 5).

Two subsystems — the MSMQ polling system and the hypercube — are joined by
state sharing: each one's output pool is the other's input pool, and a
constant number ``J`` of jobs circulates.  The level assignment follows the
paper's symbolic state-space generator:

* level 1: the common places (the two pools),
* level 2: the hypercube submodel's private places,
* level 3: the MSMQ submodel's private places.

The rates are not given in the paper; the defaults below are documented
stand-ins chosen so all activity classes are exercised (fast job flow, slow
failures, slower repairs).  The *symmetry structure* — three identical
MSMQ servers, the A/A' pair, and the remaining hypercube servers — is what
drives Table 1's reductions and is reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.lumping.md_model import MDModel
from repro.models.hypercube import build_hypercube, down_count
from repro.models.msmq import build_msmq
from repro.san.composition import Join
from repro.san.semantics import CompiledModel, compile_join
from repro.statespace.events import EventModel, project_event_model
from repro.statespace.reachability import ReachabilityResult


@dataclass
class TandemParams:
    """Parameters of the tandem system.

    ``jobs`` is the paper's ``J``; the structural defaults (3-dimensional
    hypercube, 3 servers, 4 queues) match the paper's configuration.
    """

    jobs: int = 1
    cube_dim: int = 3
    msmq_servers: int = 3
    msmq_queues: int = 4
    msmq_dispatch_rate: float = 5.0
    msmq_walk_rate: float = 2.0
    msmq_service_rate: float = 1.0
    hyper_dispatch_rate: float = 5.0
    hyper_service_rate: float = 1.0
    #: Optional per-server service rates (length 2**cube_dim); distinct
    #: values break the hypercube symmetry (symmetry-breaking experiments).
    hyper_service_rates: Optional[List[float]] = None
    failure_rate: float = 0.001
    repair_rate: float = 0.1
    balance_rate: float = 3.0
    transfer_rate: float = 2.0

    def num_hyper_servers(self) -> int:
        """Number of hypercube servers (``2**cube_dim``)."""
        return 2 ** self.cube_dim


def build_tandem(params: TandemParams) -> CompiledModel:
    """Build and compile the tandem system.

    Returns the compiled model; ``compiled.event_model`` has the paper's
    3-level structure (shared pools / hypercube / MSMQ).
    """
    jobs = params.jobs
    hyper = build_hypercube(
        jobs,
        cube_dim=params.cube_dim,
        pool_in="pool_hyper",
        pool_out="pool_msmq",
        pool_in_initial=0,
        pool_out_initial=jobs,
        dispatch_rate=params.hyper_dispatch_rate,
        service_rate=params.hyper_service_rate,
        service_rates=params.hyper_service_rates,
        failure_rate=params.failure_rate,
        repair_rate=params.repair_rate,
        balance_rate=params.balance_rate,
        transfer_rate=params.transfer_rate,
    )
    msmq = build_msmq(
        jobs,
        num_servers=params.msmq_servers,
        num_queues=params.msmq_queues,
        pool_in="pool_msmq",
        pool_out="pool_hyper",
        pool_in_initial=jobs,
        pool_out_initial=0,
        dispatch_rate=params.msmq_dispatch_rate,
        walk_rate=params.msmq_walk_rate,
        service_rate=params.msmq_service_rate,
    )
    join = Join(
        [hyper, msmq],
        shared_invariant=lambda m: m["pool_hyper"] + m["pool_msmq"] <= jobs,
    )
    return compile_join(join)


def projected_event_model(
    compiled: CompiledModel, reach: ReachabilityResult
) -> EventModel:
    """The event model with each level's space shrunk to the reachable
    projection — the exact setting of the paper's MD levels."""
    return project_event_model(compiled.event_model, reach.level_supports())


def tandem_md_model(
    event_model: EventModel,
    params: TandemParams,
    reachable: Optional[ReachabilityResult] = None,
    reward: str = "none",
) -> MDModel:
    """Wrap the tandem's MD in an :class:`MDModel` with a reward choice.

    ``reward`` selects the per-level decomposable reward:

    * ``"none"`` — zero rewards (pure state-space study, as in Table 1),
    * ``"unavailability"`` — product-form indicator "two or more hypercube
      servers are down" (the paper's availability criterion),
    * ``"hyper_jobs"`` — sum-form count of jobs queued in the hypercube.

    The initial distribution is the point mass on the model's initial
    state (a product of per-level indicators — the paper's own example of
    a decomposable ``pi_ini``).
    """
    md = event_model.to_md()
    sizes = md.level_sizes
    level_initial = []
    for level, substate in enumerate(event_model.initial_state):
        vector = np.zeros(sizes[level])
        vector[substate] = 1.0
        level_initial.append(vector)

    combiner = "sum"
    level_rewards: List[np.ndarray] = [np.zeros(size) for size in sizes]
    if reward == "unavailability":
        combiner = "product"
        level_rewards = [np.ones(size) for size in sizes]
        hyper_labels = event_model.levels[1].labels
        level_rewards[1] = np.array(
            [
                1.0 if down_count(label, params.cube_dim) >= 2 else 0.0
                for label in hyper_labels
            ]
        )
    elif reward == "hyper_jobs":
        from repro.models.hypercube import queued_jobs

        hyper_labels = event_model.levels[1].labels
        level_rewards[1] = np.array(
            [float(queued_jobs(label, params.cube_dim)) for label in hyper_labels]
        )
    elif reward != "none":
        raise ValueError(f"unknown reward spec {reward!r}")

    if reachable is not None and reachable.model is not event_model:
        raise ValueError(
            "reachability result was computed on a different event model"
        )
    return MDModel(
        md,
        level_rewards=level_rewards,
        level_initial=level_initial,
        reward_combiner=combiner,
        reachable=None if reachable is None else reachable.codes,
    )
