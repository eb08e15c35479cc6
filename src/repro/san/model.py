"""Atomic stochastic activity network models.

A :class:`SANModel` has named integer-valued *places* and timed
*activities*.  An activity has a marking-dependent exponential rate (rate 0
means disabled) and one or more probabilistic *cases*; each case transforms
the marking.  This mirrors the stochastic-activity-network formalism
(Sanders & Meyer) closely enough to express the paper's example models,
while keeping the semantics simple: markings are dicts, rate/probability
functions are plain callables over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ModelError

Marking = Dict[str, int]
#: A case probability: constant or marking-dependent.
Probability = Union[float, Callable[[Marking], float]]
#: A case update: returns the new marking (or ``None`` if the case cannot
#: fire in this marking, e.g. a full target queue).
Update = Callable[[Marking], Optional[Marking]]


@dataclass(frozen=True)
class Place:
    """A named integer state variable with a finite range ``0..capacity``."""

    name: str
    capacity: int
    initial: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ModelError(f"place {self.name!r} has negative capacity")
        if not 0 <= self.initial <= self.capacity:
            raise ModelError(
                f"place {self.name!r} initial marking {self.initial} "
                f"outside 0..{self.capacity}"
            )


@dataclass(frozen=True)
class Case:
    """One probabilistic outcome of an activity."""

    probability: Probability
    update: Update
    name: str = ""

    def probability_in(self, marking: Marking, activity: str = "?") -> float:
        """Evaluate the case probability in a marking.

        ``activity`` names the owning activity in the error raised for a
        negative or non-finite probability.
        """
        if callable(self.probability):
            value = float(self.probability(marking))
        else:
            value = float(self.probability)
        if not 0.0 <= value < math.inf:
            if value < 0:
                raise ModelError(
                    f"activity {activity!r} case has negative probability"
                )
            raise ModelError(
                f"activity {activity!r} case has non-finite probability "
                f"{value}"
            )
        return value


class Activity:
    """A timed activity: exponential rate + probabilistic cases.

    Rate, probability and update functions must be deterministic in the
    marking they are given.  The compiler calls them once per distinct
    valuation of the places whose values they use; any other place holds
    a placeholder whose every use is seen, but a test of a value's
    identity or type (``is``, ``type``, ``isinstance``) is not.

    Parameters
    ----------
    name:
        Activity name (diagnostics and event naming).
    rate:
        Marking-dependent rate; 0 disables the activity.  A plain float is
        accepted for constant rates.
    cases:
        The probabilistic outcomes.  Case probabilities should sum to 1
        over the cases *enabled* in a marking; the compiler checks this.
    shared:
        Whether the activity may read or write shared (level-1) places.
        ``False`` declares the activity local to its submodel, which lets
        the compiler emit a single event instead of one per shared
        substate.  Declaring ``shared=False`` for an activity that does
        touch shared places is a modeling error the compiler detects.
    """

    def __init__(
        self,
        name: str,
        rate: Union[float, Callable[[Marking], float]],
        cases: Sequence[Case],
        shared: bool = True,
    ) -> None:
        if not cases:
            raise ModelError(f"activity {name!r} needs at least one case")
        self.name = name
        self._rate = rate
        self.cases: List[Case] = list(cases)
        self.shared = shared

    def rate_in(self, marking: Marking) -> float:
        """Evaluate the rate in a marking; negative, NaN and infinite
        rates raise :class:`ModelError`."""
        if callable(self._rate):
            value = float(self._rate(marking))
        else:
            value = float(self._rate)
        if not 0.0 <= value < math.inf:
            if value < 0:
                raise ModelError(
                    f"activity {self.name!r} produced negative rate {value}"
                )
            raise ModelError(
                f"activity {self.name!r} produced non-finite rate {value}"
            )
        return value

    def __repr__(self) -> str:
        return f"Activity({self.name!r}, cases={len(self.cases)})"


class SANModel:
    """An atomic model: places + activities (+ optional local invariant).

    ``local_invariant`` is a predicate over the model's *own* marking used
    to bound local state-space enumeration; it encodes invariants that hold
    globally but are not visible locally (e.g. "total jobs in my queues
    never exceeds J" in a closed system).
    """

    def __init__(
        self,
        name: str,
        places: Sequence[Place],
        activities: Sequence[Activity],
        local_invariant: Optional[Callable[[Marking], bool]] = None,
    ) -> None:
        self.name = name
        self.places: List[Place] = list(places)
        seen = set()
        for place in self.places:
            if place.name in seen:
                raise ModelError(
                    f"model {name!r} declares place {place.name!r} twice"
                )
            seen.add(place.name)
        self.activities: List[Activity] = list(activities)
        self.local_invariant = local_invariant

    def place_names(self) -> List[str]:
        """Names of this model's places, in declaration order."""
        return [place.name for place in self.places]

    def initial_marking(self) -> Marking:
        """The initial marking of this model's places."""
        return {place.name: place.initial for place in self.places}

    def check_marking(self, marking: Mapping[str, int]) -> bool:
        """True if ``marking`` respects capacities and the local invariant
        (only this model's places are inspected)."""
        for place in self.places:
            value = marking.get(place.name, 0)
            if not 0 <= value <= place.capacity:
                return False
        if self.local_invariant is not None:
            own = {p.name: marking.get(p.name, 0) for p in self.places}
            if not self.local_invariant(own):
                return False
        return True

    def __repr__(self) -> str:
        return (
            f"SANModel({self.name!r}, places={len(self.places)}, "
            f"activities={len(self.activities)})"
        )
