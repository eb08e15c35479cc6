"""Differential tests for the set-at-a-time BFS over int64 state codes.

The oracle is the per-state BFS that ``reachable_bfs`` ran before it
went set-at-a-time: one ``EventModel.successors`` call per state, Python
tuples in a Python set.  On random event models and on every model
builder, the code engine, the oracle and both symbolic engines must
agree on the state list, the per-level supports and the potential
indices; ``to_ctmc`` must build the same CTMC bit for bit.  At Table 1
J=1 the code array is compared against the sha256 of the per-state
engine's, so the suite does not pay for the scalar oracle there.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import StateSpaceError
from repro.markov.ctmc import CTMC
from repro.models import (
    TandemParams,
    build_cluster,
    build_tandem,
    closed_tandem_join,
    redundant_units_join,
)
from repro.san import compile_join
from repro.statespace import (
    Event,
    EventModel,
    LevelSpace,
    reachable_bfs,
    reachable_mdd,
    reachable_saturation,
)

#: sha256 of the per-state engine's sorted little-endian int64 code array
#: for the unprojected Table 1 J=1 model (278528 states).
TABLE1_J1_CODES_SHA256 = (
    "664e0dd7723a794533f78716e25fb129bdee86b09bab85629d8fa263ed54e3da"
)

DIFFERENTIAL = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def oracle_states(model, initial=None):
    """Sorted reachable states by the per-state BFS."""
    seeds = (
        [model.initial_state]
        if initial is None
        else [tuple(state) for state in initial]
    )
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        next_frontier = []
        for state in frontier:
            for target, _rate in model.successors(state):
                if target not in seen:
                    seen.add(target)
                    next_frontier.append(target)
        frontier = next_frontier
    return sorted(seen)


def oracle_view(model, states):
    """(states, level supports, potential indices) of a state list."""
    supports = [
        sorted({state[level] for state in states})
        for level in range(model.num_levels)
    ]
    return states, supports, [model.encode(state) for state in states]


def result_view(result):
    return result.states, result.level_supports(), result.potential_indices()


def oracle_ctmc(model, states):
    """The CTMC ``to_ctmc`` built before states became codes."""
    index = {state: i for i, state in enumerate(states)}
    triples = [
        (i, index[target], rate)
        for i, state in enumerate(states)
        for target, rate in model.successors(state)
    ]
    labels = [model.state_labels(state) for state in states]
    return CTMC.from_transitions(len(states), triples, state_labels=labels)


@st.composite
def event_models(draw, weights, factors):
    """Random multi-level event models plus an optional seed set.

    1-4 levels of 1-6 substates; local (one level) and synchronised
    events; substates without options (the event is disabled there);
    up to three options per substate; weights and factors drawn from the
    given strategies (weight 0 included)."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    levels = [
        LevelSpace(f"l{i}", list(range(size))) for i, size in enumerate(sizes)
    ]
    events = []
    for index in range(draw(st.integers(0, 5))):
        touched = draw(
            st.lists(
                st.integers(1, len(sizes)),
                min_size=1,
                max_size=len(sizes),
                unique=True,
            )
        )
        effects = {}
        for level in touched:
            size = sizes[level - 1]
            option = st.tuples(st.integers(0, size - 1), factors)
            table = {}
            for source in range(size):
                options = draw(st.lists(option, max_size=3))
                if options:
                    table[source] = options
            effects[level] = table
        events.append(Event(f"e{index}", draw(weights), effects))
    state = st.tuples(*(st.integers(0, size - 1) for size in sizes))
    model = EventModel(levels, events, list(draw(state)))
    seeds = draw(st.none() | st.lists(state, min_size=1, max_size=3))
    return model, seeds


@given(
    event_models(
        weights=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        factors=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    )
)
@DIFFERENTIAL
def test_engines_agree_on_random_models(sample):
    model, seeds = sample
    expected = oracle_view(model, oracle_states(model, seeds))
    assert result_view(reachable_bfs(model, initial=seeds)) == expected
    # The symbolic engines start from the model's initial state: close
    # each seed separately and take the union.
    for engine in (reachable_mdd, reachable_saturation):
        found = set()
        for seed in seeds or [model.initial_state]:
            seeded = EventModel(model.levels, model.events, list(seed))
            found.update(engine(seeded).states)
        assert oracle_view(model, sorted(found)) == expected


@given(
    event_models(
        weights=st.sampled_from([0.0, 1e-200, 1.0, 1e200]),
        factors=st.sampled_from(
            [1e-200, 1e-160, 0.5, 1e160, 1e200, float("inf"), float("nan")]
        ),
    )
)
@DIFFERENTIAL
def test_rate_filter_matches_fire(sample):
    """Combinations whose rate underflows to 0 (or is NaN) are dropped
    exactly where ``EventModel._fire`` drops them."""
    model, seeds = sample
    expected = oracle_view(model, oracle_states(model, seeds))
    assert result_view(reachable_bfs(model, initial=seeds)) == expected


def _small_tandem(jobs):
    params = TandemParams(jobs=jobs, cube_dim=2, msmq_servers=2, msmq_queues=2)
    return build_tandem(params).event_model


def _joined(join):
    return compile_join(join).event_model


BUILDERS = {
    "tandem-j1": lambda: _small_tandem(1),
    "tandem-j2": lambda: _small_tandem(2),
    "cluster": lambda: _joined(build_cluster(front_ends=2, backends=2)),
    "closed-tandem": lambda: _joined(closed_tandem_join(jobs=2)),
    "redundant-units": lambda: _joined(
        redundant_units_join(num_units=3, spares=1)
    ),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_engines_agree_on_model_builders(name):
    model = BUILDERS[name]()
    states = oracle_states(model)
    expected = oracle_view(model, states)
    reach = reachable_bfs(model)
    assert result_view(reach) == expected
    assert result_view(reachable_mdd(model)) == expected
    assert result_view(reachable_saturation(model)) == expected
    got = reach.to_ctmc().rate_matrix.tocsr()
    want = oracle_ctmc(model, states).rate_matrix.tocsr()
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(got, part), getattr(want, part))


def test_table1_j1_codes_match_per_state_engine():
    model = build_tandem(TandemParams(jobs=1)).event_model
    reach = reachable_bfs(model)
    assert reach.num_states == 278528
    assert reach.level_sizes() == (3, 2304, 512)
    digest = hashlib.sha256(reach.codes.astype("<i8").tobytes()).hexdigest()
    assert digest == TABLE1_J1_CODES_SHA256


@pytest.mark.parametrize("engine", [reachable_mdd, reachable_saturation])
def test_table1_j1_symbolic_codes_match_per_state_engine(engine):
    """The symbolic engines read their codes straight from the MDD."""
    reach = engine(build_tandem(TandemParams(jobs=1)).event_model)
    digest = hashlib.sha256(reach.codes.astype("<i8").tobytes()).hexdigest()
    assert digest == TABLE1_J1_CODES_SHA256


def test_states_view_is_python_int_tuples():
    reach = reachable_bfs(_small_tandem(1))
    state = reach.states[0]
    assert type(state) is tuple and all(type(s) is int for s in state)
    assert reach.index_of(reach.states[-1]) == reach.num_states - 1


def _two_level_model():
    levels = [LevelSpace("a", [0, 1, 2]), LevelSpace("b", [0, 1])]
    step = Event("step", 1.0, {1: {0: [(1, 1.0)], 1: [(2, 1.0)]}})
    return EventModel(levels, [step], [0, 0])


class TestSeedValidation:
    def test_wrong_arity_raises(self):
        with pytest.raises(StateSpaceError, match="components"):
            reachable_bfs(_two_level_model(), initial=[(0,)])

    @pytest.mark.parametrize(
        "seed,level", [((0, 2), 2), ((3, 0), 1), ((-1, 0), 1)]
    )
    def test_substate_outside_level_raises(self, seed, level):
        with pytest.raises(StateSpaceError, match=f"outside level {level}"):
            reachable_bfs(_two_level_model(), initial=[(0, 0), seed])

    def test_valid_seeds_accepted(self):
        reach = reachable_bfs(_two_level_model(), initial=[(2, 1), (1, 0)])
        assert reach.states == [(1, 0), (2, 0), (2, 1)]

    def test_potential_space_beyond_int64_raises(self):
        levels = [LevelSpace(f"l{i}", [0, 1]) for i in range(64)]
        model = EventModel(levels, [], [0] * 64)
        with pytest.raises(StateSpaceError, match="int64"):
            reachable_bfs(model)

    @pytest.mark.parametrize("engine", [reachable_mdd, reachable_saturation])
    def test_symbolic_codes_beyond_int64_raise(self, engine):
        levels = [LevelSpace(f"l{i}", [0, 1]) for i in range(64)]
        model = EventModel(levels, [], [0] * 64)
        with pytest.raises(StateSpaceError, match="int64"):
            engine(model)

    def test_index_of_foreign_state_is_unreachable(self):
        reach = reachable_bfs(_two_level_model())
        # (0, 2) would encode to the code of (1, 0), which is reachable.
        with pytest.raises(StateSpaceError, match="not reachable"):
            reach.index_of((0, 2))
