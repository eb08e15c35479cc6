"""Reward specifications over markings, compiled to per-level vectors.

The paper's Section 3 requires rewards and initial vectors decomposable
over MD levels: ``r(s) = g(f_1(s_1), .., f_L(s_L))``.  This module lets a
modeler state measures in terms of *places* and compiles them into the
per-level ``f_i`` vectors of an :class:`repro.lumping.md_model.MDModel`,
checking decomposability structurally: each term may only read places that
live on a single level.

Example — mean number of jobs queued anywhere::

    spec = RewardSpec.sum(
        *[place_count(f"q{v}") for v in range(8)],
        *[place_count(f"w{k}") for k in range(4)],
    )

Example — availability indicator (product of per-level indicators)::

    spec = RewardSpec.product(
        marking_predicate(lambda m: m["f0"] + m["f1"] < 2, ["f0", "f1"]),
    )
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ModelError
from repro.lumping.md_model import MDModel
from repro.san.semantics import CompiledModel
from repro.statespace.reachability import ReachabilityResult


@dataclass(frozen=True)
class RewardTerm:
    """One decomposable factor: a function of some places' markings.

    ``places`` declares which places the function reads; they must all be
    assigned to the same MD level (checked at compile time).
    """

    function: Callable[[dict], float]
    places: Sequence[str]
    name: str = ""


def place_count(place: str) -> RewardTerm:
    """The marking of one place as a reward term."""
    return RewardTerm(lambda m: float(m[place]), [place], name=place)


def weighted_place(place: str, weight: float) -> RewardTerm:
    """``weight * marking(place)``."""
    return RewardTerm(
        lambda m: weight * float(m[place]), [place], name=f"{weight}*{place}"
    )


def marking_predicate(
    predicate: Callable[[dict], bool], places: Sequence[str], name: str = ""
) -> RewardTerm:
    """A 0/1 indicator of a predicate over some places."""
    return RewardTerm(
        lambda m: 1.0 if predicate(m) else 0.0, places, name=name
    )


class RewardSpec:
    """A decomposable reward: sum or product of :class:`RewardTerm`."""

    def __init__(self, terms: Sequence[RewardTerm], combiner: str) -> None:
        if combiner not in ("sum", "product"):
            raise ModelError("combiner must be 'sum' or 'product'")
        if not terms:
            raise ModelError("a reward spec needs at least one term")
        self.terms = list(terms)
        self.combiner = combiner

    @classmethod
    def sum(cls, *terms: RewardTerm) -> "RewardSpec":
        """``r(s) = sum of terms`` (rate rewards, e.g. queue lengths)."""
        return cls(terms, "sum")

    @classmethod
    def product(cls, *terms: RewardTerm) -> "RewardSpec":
        """``r(s) = product of terms`` (indicators / availability)."""
        return cls(terms, "product")


def _level_of_places(
    compiled: CompiledModel, places: Sequence[str]
) -> int:
    """The (single) 1-based level owning all the given places."""
    owners = set()
    for place in places:
        found = None
        for level, names in enumerate(compiled.level_place_names, start=1):
            if place in names:
                found = level
                break
        if found is None:
            raise ModelError(f"unknown place {place!r}")
        owners.add(found)
    if len(owners) != 1:
        raise ModelError(
            f"places {list(places)} span levels {sorted(owners)}; a "
            f"decomposable reward term must read a single level "
            f"(split it into per-level terms)"
        )
    return owners.pop()


def compile_reward(
    compiled: CompiledModel, spec: RewardSpec
) -> List[np.ndarray]:
    """Per-level ``f_i`` vectors realizing the spec.

    * ``sum``: untouched levels contribute 0; terms on the same level add.
    * ``product``: untouched levels contribute 1; terms on the same level
      multiply.
    """
    model = compiled.event_model
    neutral = 0.0 if spec.combiner == "sum" else 1.0
    vectors = [
        np.full(len(level), neutral) for level in model.levels
    ]
    for term in spec.terms:
        level = _level_of_places(compiled, term.places)
        names = compiled.level_place_names[level - 1]
        space = model.levels[level - 1]
        values = np.empty(len(space))
        for index in range(len(space)):
            label = space.label(index)
            marking = dict(zip(names, label))
            values[index] = float(term.function(marking))
        if spec.combiner == "sum":
            vectors[level - 1] = vectors[level - 1] + values
        else:
            vectors[level - 1] = vectors[level - 1] * values
    return vectors


def build_md_model(
    compiled: CompiledModel,
    reachable: Optional[ReachabilityResult] = None,
    rewards: Optional[RewardSpec] = None,
    initial: str = "point",
) -> MDModel:
    """One-call construction of an :class:`MDModel` from a compiled SAN.

    ``initial='point'`` puts all mass on the model's initial state (the
    paper's worked example of a decomposable ``pi_ini``);
    ``initial='uniform'`` weights every potential state equally.
    """
    model = compiled.event_model
    md = model.to_md()
    sizes = md.level_sizes

    if initial == "point":
        level_initial = []
        for level, substate in enumerate(model.initial_state):
            vector = np.zeros(sizes[level])
            vector[substate] = 1.0
            level_initial.append(vector)
    elif initial == "uniform":
        level_initial = [np.ones(size) for size in sizes]
    else:
        raise ModelError(f"unknown initial spec {initial!r}")

    if rewards is None:
        level_rewards = [np.zeros(size) for size in sizes]
        combiner = "sum"
    else:
        level_rewards = compile_reward(compiled, rewards)
        combiner = rewards.combiner

    if reachable is not None and reachable.model is not model:
        raise ModelError(
            "reachability result was computed on a different event model"
        )
    return MDModel(
        md,
        level_rewards=level_rewards,
        level_initial=level_initial,
        reward_combiner=combiner,
        reachable=None if reachable is None else reachable.codes,
    )
