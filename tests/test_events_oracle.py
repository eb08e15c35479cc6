"""Differential tests for the array event tables.

The oracle is the dict-table code the option columns replaced
(``tests/events_oracle.py``).  On random tables (dicts and columns, with
zero and negative factors and substates outside their level), on random
event models with random supports and allowed sets, and on every model
builder through its reachable projection, the library must give the
oracle's results: the same ``effects`` views (source order, option order
and every value by ``repr``), the same projected and restricted models
(levels, labels, initial state and events), the same factors for the MD
build bit for bit, and on malformed input the same first error, type and
message.  At Table 1 J=1 the reachable projection keeps every substate,
so the projected model's tables must be the compiled model's.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

import repro.statespace.events as library
from repro.errors import ModelError, StateSpaceError
from repro.matrixdiagram.build import matrix_entries
from repro.models import TandemParams, build_tandem
from repro.statespace import Event, EventModel, LevelSpace, reachable_bfs
from repro.statespace.events import project_event_model
from tests import events_oracle
from tests.test_reachability_codes import BUILDERS, event_models

DIFFERENTIAL = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

#: ``event_models``' normal and extreme weight and factor sets.
WEIGHT_FACTOR_SETS = {
    "normal": (
        st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    ),
    "extreme": (
        st.sampled_from([0.0, 1e-200, 1.0, 1e200]),
        st.sampled_from(
            [1e-200, 1e-160, 0.5, 1e160, 1e200, float("inf"), float("nan")]
        ),
    ),
}
MODELS = st.sampled_from(sorted(WEIGHT_FACTOR_SETS)).flatmap(
    lambda kind: event_models(*WEIGHT_FACTOR_SETS[kind])
)


def tables_view(effects):
    """Levels, sources and options in order, every value by ``repr``."""
    return [
        (
            repr(level),
            [
                (repr(source), [(repr(t), repr(f)) for t, f in options])
                for source, options in table.items()
            ],
        )
        for level, table in effects.items()
    ]


def model_view(model):
    """Levels with their labels, the initial state and every event."""
    return (
        [(level.name, level.labels) for level in model.levels],
        model.initial_state,
        [
            (event.name, repr(event.weight), tables_view(event.effects))
            for event in model.events
        ],
    )


def outcome(build, *args, view=model_view):
    """``view`` of what ``build`` returns, or its error's type and
    message."""
    try:
        return view(build(*args))
    except (ModelError, StateSpaceError) as exc:
        return ("error", type(exc).__name__, str(exc))


def oracle_model(model):
    """The oracle's copy of ``model``, built from its ``effects`` views."""
    events = [
        events_oracle.Event(event.name, event.weight, event.effects)
        for event in model.events
    ]
    initial = model.state_labels(model.initial_state)
    return events_oracle.EventModel(model.levels, events, initial)


def factors_view(factors):
    """Per level ``None`` or the (row, column, value) entries in order,
    every value by ``repr``: a COO matrix's entries and its
    ``matrix_entries`` dict, or the oracle's dict."""
    view = []
    for factor in factors:
        if factor is None:
            view.append(None)
        elif isinstance(factor, dict):
            view.append([(repr(k), repr(v)) for k, v in factor.items()])
        else:
            entries = zip(factor.row.tolist(), factor.col.tolist())
            values = factor.data.tolist()
            as_dict = factors_view([matrix_entries(factor)])[0]
            assert as_dict == [
                (repr(k), repr(v)) for k, v in zip(entries, values)
            ]
            view.append(as_dict)
    return view


def assert_matches_oracle(model, supports, allowed):
    oracle = oracle_model(model)
    assert model_view(model) == model_view(oracle)
    for event, oracle_event in zip(model.events, oracle.events):
        assert factors_view(model._factors(event)) == factors_view(
            oracle._factors(oracle_event)
        )
    assert outcome(project_event_model, model, supports) == outcome(
        events_oracle.project_event_model, oracle, supports
    )
    assert outcome(model.restricted_events, allowed) == outcome(
        oracle.restricted_events, allowed
    )


# ----------------------------------------------------------------------
# tables as given
# ----------------------------------------------------------------------


@st.composite
def raw_models(draw):
    """Levels, an initial state and raw event tables: dicts, or columns
    in an order that need not group the sources, with factors 0 and -0.0,
    and in some models negative factors, substates outside their level or
    levels outside the model."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    factors = [0.0, -0.0, 0.5, 1.0, 1e-300, float("inf"), float("nan")]
    malformed = draw(st.sampled_from(["none", "factor", "substate", "level"]))
    factor = st.sampled_from(factors + [-1.0] * (malformed == "factor"))
    margin = int(malformed == "substate")
    extra = int(malformed == "level")
    level = st.integers(1 - extra, len(sizes) + extra)
    events = []
    for index in range(draw(st.integers(0, 3))):
        effects = {}
        for touched in draw(st.lists(level, max_size=3, unique=True)):
            size = sizes[touched - 1] if 1 <= touched <= len(sizes) else 2
            substate = st.integers(-margin, size - 1 + margin)
            effects[touched] = draw(
                st.lists(st.tuples(substate, substate, factor), max_size=8)
            )
        weight = draw(st.sampled_from([0.0, 2.0]))
        events.append((f"e{index}", weight, effects))
    initial = [draw(st.integers(0, size - 1)) for size in sizes]
    return sizes, events, initial, draw(st.booleans())


def grouped(rows):
    """Rows as the dict the compiler used to build: sources in the order
    first met, each source's options in row order."""
    table = {}
    for source, target, factor in rows:
        table.setdefault(source, []).append((target, factor))
    return table


def build(module, sizes, events, initial, as_columns):
    levels = [LevelSpace(f"l{i}", list(range(n))) for i, n in enumerate(sizes)]
    built = []
    for name, weight, effects in events:
        if module is events_oracle or not as_columns:
            tables = {level: grouped(rows) for level, rows in effects.items()}
        else:
            tables = {
                level: tuple(zip(*rows)) or ((), (), ())
                for level, rows in effects.items()
            }
        built.append(module.Event(name, weight, tables))
    return module.EventModel(levels, built, initial)


def events_view(model):
    return [tables_view(event.effects) for event in model.events]


@given(raw_models())
@DIFFERENTIAL
def test_tables_match_oracle(sample):
    """Dict tables and option columns (``as_columns``) are stored as the
    oracle cleans the dict the compiler used to build from the columns,
    and a malformed table raises the oracle's first error."""
    sizes, events, initial, as_columns = sample
    expected = outcome(
        build, events_oracle, sizes, events, initial, as_columns,
        view=events_view,
    )
    actual = outcome(
        build, library, sizes, events, initial, as_columns, view=events_view
    )
    assert actual == expected


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1), st.floats(1e-3, 1e3)),
        max_size=40,
    )
)
@DIFFERENTIAL
def test_factor_sums_match_oracle(rows):
    """Many options on few (source, target) pairs: each pair's factors
    are added left to right in option order, as the oracle's loop adds
    them, so the sums agree bit for bit."""
    table = tuple(zip(*rows)) or ((), (), ())
    event = Event("e", 1.0, {1: table})
    model = EventModel([LevelSpace("l", [0, 1])], [event], [0])
    oracle = oracle_model(model)
    assert factors_view(model._factors(model.events[0])) == factors_view(
        oracle._factors(oracle.events[0])
    )


# ----------------------------------------------------------------------
# models: projection, restriction and factors
# ----------------------------------------------------------------------


def subsets(data, model, outside):
    """Per level, a random subset of its substates, with values outside
    the level when ``outside``."""
    margin = int(outside)
    return [
        data.draw(
            st.lists(st.integers(-margin, size - 1 + margin), unique=True)
        )
        for size in model.level_sizes()
    ]


@given(MODELS, st.data())
@DIFFERENTIAL
def test_models_match_oracle(sample, data):
    """Supports keep the initial state four times in five, so most
    projections succeed; the rest, and the allowed sets, may hold
    anything, substates outside their level included."""
    model, _seeds = sample
    keep_initial = data.draw(st.integers(0, 4)) > 0
    outside = data.draw(st.booleans()) and not keep_initial
    supports = subsets(data, model, outside)
    if keep_initial:
        supports = [
            sorted(set(kept) | {state})
            for kept, state in zip(supports, model.initial_state)
        ]
    allowed = subsets(data, model, data.draw(st.booleans()))
    assert_matches_oracle(model, supports, allowed)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_model_builders_match_oracle(name):
    model = BUILDERS[name]()
    supports = reachable_bfs(model).level_supports()
    assert_matches_oracle(model, supports, supports)
    projected = project_event_model(model, supports)
    supports = reachable_bfs(projected).level_supports()
    assert_matches_oracle(projected, supports, supports)


@given(
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-2, 2)),
        max_size=10,
    ),
    st.sampled_from([np.float64, np.int64, bool]),
    st.sampled_from(["coo", "csr"]),
)
@DIFFERENTIAL
def test_sparse_matrix_entries_match_oracle(entries, dtype, fmt):
    """Sparse factors with zeros, repeated entries and integer or boolean
    values give the per-entry loop's dict."""
    rows, cols, values = zip(*entries) if entries else ((), (), ())
    matrix = sparse.coo_matrix(
        (np.array(values, dtype=dtype), (rows, cols)), shape=(4, 4)
    ).asformat(fmt)
    expected = events_oracle.matrix_entries(matrix)
    actual = matrix_entries(matrix)
    assert [(repr(k), repr(v)) for k, v in actual.items()] == [
        (repr(k), repr(v)) for k, v in expected.items()
    ]


def test_table1_j1_projection_keeps_every_table():
    """The J=1 reachable projection keeps every substate (levels 3 x 2304
    x 512), so it must hand back the compiled model's tables."""
    compiled = build_tandem(TandemParams(jobs=1)).event_model
    supports = reachable_bfs(compiled).level_supports()
    projected = project_event_model(compiled, supports)
    assert projected.level_sizes() == compiled.level_sizes() == (3, 2304, 512)
    assert model_view(projected) == model_view(compiled)
