"""Replication of submodels (the Rep of Möbius' Rep/Join editor).

``replicate`` builds ``count`` copies of a template submodel inside a
single :class:`SANModel`: private places are renamed ``r{i}.{name}``,
shared places stay shared, and every activity is instantiated per replica
with its rate/probability/update functions operating on that replica's
renamed places.

Keeping all replicas in ONE submodel puts them in ONE MD level, which is
what lets the *compositional* lumping algorithm discover the replica
symmetry (permutations of identical replicas) from the MD alone — the
per-level encoding of the symmetry that model-level techniques like [10]
and [18] exploit structurally.  The test suite verifies that the lumped
level size equals the number of replica-state multisets.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import CompositionError
from repro.san.model import Activity, Case, Marking, Place, SANModel


def _rename(prefix: str, name: str) -> str:
    return f"{prefix}.{name}"


def _view(marking: Marking, prefix: str, private_names: List[str]) -> Marking:
    """The marking as one replica sees it: its own places unprefixed,
    shared places as-is."""
    view = dict(marking)
    for name in private_names:
        view[name] = marking[_rename(prefix, name)]
    return view


def _unview(
    base: Marking, updated: Marking, prefix: str, private_names: List[str]
) -> Marking:
    """Push a replica-local update back into the replicated namespace."""
    result = dict(base)
    private = set(private_names)
    for name, value in updated.items():
        if name in private:
            result[_rename(prefix, name)] = value
        else:
            result[name] = value
    return result


def replicate(
    template: SANModel,
    count: int,
    shared_names: Optional[List[str]] = None,
    name: Optional[str] = None,
    replica_prefix: str = "r",
) -> SANModel:
    """``count`` anonymous copies of ``template`` in one submodel.

    Parameters
    ----------
    template:
        The single-replica model.  Its activities must only read/write its
        own places (enforced by construction: each instantiated activity
        sees a per-replica view of the marking).
    count:
        Number of replicas (>= 1).
    shared_names:
        Places of the template that are common to all replicas (and
        typically shared further with other submodels via Join).  Default:
        none — all places replicated.
    name:
        Name of the resulting model (default ``{template.name}[xN]``).
    replica_prefix:
        Prefix for replica place names (``{prefix}{i}.{place}``); choose
        distinct prefixes when several replicated farms meet in one Join,
        or their private places would collide and become shared.
    """
    if count < 1:
        raise CompositionError("need at least one replica")
    shared = set(shared_names or ())
    unknown = shared - {p.name for p in template.places}
    if unknown:
        raise CompositionError(
            f"shared names {sorted(unknown)} are not places of the template"
        )
    private_names = [
        p.name for p in template.places if p.name not in shared
    ]

    places: List[Place] = [
        p for p in template.places if p.name in shared
    ]
    for replica in range(count):
        prefix = f"{replica_prefix}{replica}"
        for place in template.places:
            if place.name in shared:
                continue
            places.append(
                Place(_rename(prefix, place.name), place.capacity, place.initial)
            )

    activities: List[Activity] = []
    for replica in range(count):
        prefix = f"{replica_prefix}{replica}"
        for activity in template.activities:
            activities.append(
                _instantiate(activity, prefix, private_names)
            )

    invariant = None
    if template.local_invariant is not None:
        template_invariant = template.local_invariant

        def invariant(marking: Marking, _names=private_names) -> bool:
            return all(
                template_invariant(
                    {
                        name: marking[_rename(f"{replica_prefix}{r}", name)]
                        for name in _names
                    }
                )
                for r in range(count)
            )

    return SANModel(
        name or f"{template.name}[x{count}]",
        places,
        activities,
        local_invariant=invariant,
    )


def _instantiate(
    activity: Activity, prefix: str, private_names: List[str]
) -> Activity:
    def rate(marking: Marking) -> float:
        return activity.rate_in(_view(marking, prefix, private_names))

    name = f"{prefix}.{activity.name}"
    cases = []
    for case in activity.cases:
        cases.append(_instantiate_case(case, prefix, private_names, name))
    return Activity(name, rate, cases, shared=activity.shared)


def _instantiate_case(
    case: Case, prefix: str, private_names: List[str], activity: str
) -> Case:
    def probability(marking: Marking) -> float:
        return case.probability_in(
            _view(marking, prefix, private_names), activity
        )

    def update(marking: Marking) -> Optional[Marking]:
        updated = case.update(_view(marking, prefix, private_names))
        if updated is None:
            return None
        return _unview(marking, updated, prefix, private_names)

    return Case(probability, update, name=f"{prefix}.{case.name}")
