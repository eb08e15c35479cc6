"""Differential tests for the single-pass SAN compiler.

The oracle is the two-pass compiler ``compile_join`` replaced
(``tests/san_oracle.py``).  On random joins, on every ``repro.models``
builder at small parameters and on the joins the examples build, the
compiler must return the oracle's ``CompiledModel`` field for field:
level labels and order, events with their names, weights and effect
tables (source-key and option order included), the initial state, the
dropped-transition count and the oracle's stats.  At Table 1 J=1 the
result is compared against the sha256 of the oracle's canonical
serialization, so the suite does not pay for the oracle there.
"""

import hashlib
import importlib.util
import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, StateSpaceError
from repro.models import (
    TandemParams,
    build_cluster,
    build_tandem,
    closed_tandem_join,
    redundant_units_join,
)
from repro.san import (
    Activity,
    Case,
    Join,
    Place,
    SANModel,
    compile_join,
    replicate,
)
from repro.statespace import reachable_bfs
from tests import san_oracle

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: sha256 of the oracle's canonical serialization of the Table 1 J=1
#: tandem (levels 3 x 2304 x 512, 6 events, 7808 dropped transitions).
TABLE1_J1_SHA256 = (
    "d0e34969afe3917c15c5d44199aa0be5ddf374fa97e3a51f5fc4b0a70f818818"
)
#: Activity evaluations at Table 1 J=1; the two-pass oracle made 513024.
TABLE1_J1_FIRINGS = 218_880

DIFFERENTIAL = settings(
    max_examples=120,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def compiled_fields(compiled):
    """Every field of a ``CompiledModel`` the oracle defines, in order."""
    model = compiled.event_model
    return {
        "level_names": compiled.level_names,
        "level_place_names": compiled.level_place_names,
        "levels": [(level.name, level.labels) for level in model.levels],
        "initial_state": model.initial_state,
        "events": [
            (
                event.name,
                event.weight,
                [
                    (level, list(table.items()))
                    for level, table in event.effects.items()
                ],
            )
            for event in model.events
        ],
        "dropped_transitions": compiled.dropped_transitions,
        "stats": {
            key: compiled.stats[key]
            for key in ("local_events", "shared_events")
        },
    }


def canonical_sha256(compiled):
    text = json.dumps(compiled_fields(compiled), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def outcome(compile_fn, join):
    """The compiled fields, or the compile error's type and message."""
    try:
        return compiled_fields(compile_fn(join))
    except (ModelError, StateSpaceError) as exc:
        return {"error": (type(exc).__name__, str(exc))}


def assert_matches_oracle(join):
    expected = outcome(san_oracle.compile_join, join)
    actual = outcome(compile_join, join)
    for key in sorted(expected.keys() | actual.keys()):
        assert actual.get(key) == expected.get(key), key


# ----------------------------------------------------------------------
# random joins
# ----------------------------------------------------------------------


def _total_at_most(names, bound):
    def invariant(marking):
        return sum(marking[name] for name in names) <= bound

    return invariant


def _rate(base, reads, guard):
    """``base * (1 + sum of read places)`` where the guard ``(place, value,
    equal)`` holds (``marking[place] == value`` is ``equal``), else 0."""

    def rate(marking):
        if guard is not None:
            place, value, equal = guard
            if (marking[place] == value) != equal:
                return 0.0
        return base * (1 + sum(marking[name] for name in reads))

    return rate


def _probabilities(weights):
    """Case probabilities proportional to ``offset + marking[place]``."""

    def make(case):
        def probability(marking):
            values = [offset + marking[name] for offset, name in weights]
            total = sum(values)
            return values[case] / total if total else 1.0 / len(values)

        return probability

    return [make(case) for case in range(len(weights))]


def _update(changes):
    def update(marking):
        marking = dict(marking)
        for name, delta in changes:
            marking[name] += delta
        return marking

    return update


@st.composite
def rates_and_cases(draw, readable, moves):
    """A rate reading ``readable`` places (0 in some markings) and 1-3
    cases, each applying one of the drawn ``moves`` (lists of (place,
    delta)) with marking-dependent probabilities summing to 1.  A move
    may overflow a capacity or go negative, so some transitions drop."""
    reads = draw(st.lists(st.sampled_from(readable), max_size=2))
    guard = draw(
        st.none()
        | st.tuples(
            st.sampled_from(readable), st.integers(0, 2), st.booleans()
        )
    )
    base = draw(st.sampled_from([0.5, 1.0, 2.5]))
    changes = draw(st.lists(moves, min_size=1, max_size=3))
    if len(changes) == 1:
        probabilities = [1.0]
    else:
        probabilities = _probabilities(
            [
                (draw(st.integers(0, 1)), draw(st.sampled_from(readable)))
                for _ in changes
            ]
        )
    cases = [
        Case(probability, _update(change), name=f"c{i}")
        for i, (probability, change) in enumerate(zip(probabilities, changes))
    ]
    return _rate(base, reads, guard), cases


@st.composite
def joins(draw):
    """Random joins.

    2-3 submodels; 1-2 shared places of capacity 1-2 with an optional
    total bound; 1-3 private places of capacity 1-3 per submodel with an
    optional local bound (now and then one below the initial marking,
    which is admitted unchecked).  Local activities read and write
    private places only; shared ones move tokens between the pools and
    private places or between pools, with rates reading both.
    """
    shared = [
        Place(f"s{i}", capacity, draw(st.integers(0, capacity)))
        for i, capacity in enumerate(
            draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        )
    ]
    shared_names = [place.name for place in shared]
    shared_invariant = None
    if draw(st.booleans()):
        bound = draw(
            st.integers(
                sum(place.initial for place in shared),
                sum(place.capacity for place in shared),
            )
        )
        shared_invariant = _total_at_most(shared_names, bound)
    submodels = []
    for k in range(draw(st.integers(2, 3))):
        private = [
            Place(f"m{k}p{i}", capacity, draw(st.integers(0, capacity)))
            for i, capacity in enumerate(
                draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
            )
        ]
        names = [place.name for place in private]
        invariant = None
        if draw(st.booleans()):
            initial_total = sum(place.initial for place in private)
            bound = draw(
                st.integers(
                    max(0, initial_total - 1),
                    sum(place.capacity for place in private),
                )
            )
            invariant = _total_at_most(names, bound)
        local_moves = st.lists(
            st.tuples(st.sampled_from(names), st.sampled_from([-1, 1, 2])),
            min_size=1,
            max_size=2,
        )
        pool_moves = st.sampled_from(
            [[(s, -1), (p, 1)] for s in shared_names for p in names]
            + [[(p, -1), (s, 1)] for s in shared_names for p in names]
            + [
                [(a, -1), (b, 1)]
                for a in shared_names
                for b in shared_names
                if a != b
            ]
        )
        model_activities = []
        for a in range(draw(st.integers(1, 5))):
            local = draw(st.integers(0, 2)) == 0
            rate, cases = draw(
                rates_and_cases(
                    names if local else shared_names + names,
                    local_moves if local else pool_moves,
                )
            )
            model_activities.append(
                Activity(f"m{k}a{a}", rate, cases, shared=not local)
            )
        submodels.append(
            SANModel(
                f"m{k}",
                shared + private,
                model_activities,
                local_invariant=invariant,
            )
        )
    return Join(submodels, shared_invariant=shared_invariant)


@DIFFERENTIAL
@given(joins())
def test_random_joins_match_oracle(join):
    assert_matches_oracle(join)


# ----------------------------------------------------------------------
# model builders and examples
# ----------------------------------------------------------------------


def _small_tandem(jobs, **overrides):
    params = TandemParams(
        jobs=jobs, cube_dim=2, msmq_servers=2, msmq_queues=2, **overrides
    )
    return build_tandem(params).join


def _load_example(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES_DIR / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _server_farm_join():
    """The join ``examples/replicated_server_farm.py`` builds by default."""
    farm = _load_example("replicated_server_farm")
    spares = 2
    return Join(
        [
            replicate(
                farm.server_template(spares), 6, shared_names=["spares"]
            ),
            farm.depot(spares),
        ]
    )


BUILDERS = {
    "tandem-j1": lambda: _small_tandem(1),
    "tandem-j2": lambda: _small_tandem(2),
    "tandem-asymmetric": lambda: _small_tandem(
        1, hyper_service_rates=[1.0, 1.5, 2.0, 2.5]
    ),
    "closed-tandem-j1": lambda: closed_tandem_join(jobs=1),
    "closed-tandem-j3": lambda: closed_tandem_join(jobs=3),
    "redundant-units": redundant_units_join,
    # examples/cluster_availability.py compiles these four.
    **{
        f"cluster-{front_ends}": (
            lambda front_ends=front_ends: build_cluster(
                front_ends=front_ends, backends=2
            )
        )
        for front_ends in (3, 4, 5, 6)
    },
    "server-farm-example": _server_farm_join,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_builders_match_oracle(name):
    assert_matches_oracle(BUILDERS[name]())


@pytest.fixture(scope="module")
def table1_j1():
    return build_tandem(TandemParams(jobs=1))


def test_table1_j1_matches_oracle_digest(table1_j1):
    assert canonical_sha256(table1_j1) == TABLE1_J1_SHA256


def test_table1_j1_firings(table1_j1):
    assert table1_j1.stats["firings"] == TABLE1_J1_FIRINGS


# ----------------------------------------------------------------------
# shared=False declarations
# ----------------------------------------------------------------------


def _pool_feeder(capacity):
    """Submodel ``b``: moves its private tokens into the shared pool."""

    def feed_rate(marking):
        return 1.0 if marking["y"] > 0 and marking["s"] < capacity else 0.0

    return SANModel(
        "b",
        [Place("s", capacity, 0), Place("y", capacity, capacity)],
        [
            Activity(
                "feed", feed_rate, [Case(1.0, _update([("y", -1), ("s", 1)]))]
            )
        ],
    )


def reachable_markings(compiled):
    """The reachable states decoded to level labels, sorted."""
    model = compiled.event_model
    return sorted(
        tuple(level.label(i) for level, i in zip(model.levels, state))
        for state in reachable_bfs(model).states
    )


def test_local_activity_differing_in_last_shared_marking_is_rejected():
    a = SANModel(
        "a",
        [Place("s", 1, 0), Place("x", 1, 0)],
        [
            Activity(
                "peek",
                lambda m: 1.0 + m["s"] if m["x"] == 0 else 0.0,
                [Case(1.0, _update([("x", 1)]))],
                shared=False,
            )
        ],
    )
    join = Join([a, _pool_feeder(1)])
    with pytest.raises(
        ModelError,
        match="'peek' is declared local but its behaviour depends on shared",
    ):
        compile_join(join)
    assert_matches_oracle(join)


def test_local_activity_differing_in_middle_shared_marking_keeps_states():
    def grow(marking):
        marking = dict(marking)
        marking["x"] += 2 if marking["s"] == 1 else 1
        return marking

    a = SANModel(
        "a",
        [Place("s", 2, 0), Place("x", 3, 0)],
        [
            Activity(
                "grow",
                lambda m: 1.0 if m["x"] == 0 else 0.0,
                [Case(1.0, grow)],
                shared=False,
            )
        ],
    )
    join = Join([a, _pool_feeder(2)])
    compiled = compile_join(join)
    oracle = san_oracle.compile_join(join)
    # Only the oracle fires "grow" in the middle shared marking s=1, where
    # it reaches x=2: padding of level 2 that no compiled event enters.
    assert compiled.event_model.levels[1].labels == [(0,), (1,)]
    assert oracle.event_model.levels[1].labels == [(0,), (1,), (2,)]
    assert reachable_markings(compiled) == reachable_markings(oracle)


# ----------------------------------------------------------------------
# non-finite rates and probabilities
# ----------------------------------------------------------------------

NON_FINITE = pytest.mark.parametrize(
    "value", [math.nan, math.inf], ids=["nan", "inf"]
)


@NON_FINITE
def test_rate_in_rejects_non_finite(value):
    activity = Activity("a", lambda m: value, [Case(1.0, lambda m: m)])
    with pytest.raises(
        ModelError, match="activity 'a' produced non-finite rate"
    ):
        activity.rate_in({})


@NON_FINITE
def test_probability_in_rejects_non_finite(value):
    case = Case(lambda m: value, lambda m: m)
    with pytest.raises(
        ModelError, match="activity 'a' case has non-finite probability"
    ):
        case.probability_in({}, "a")


def test_negative_infinite_rate_is_negative():
    activity = Activity("a", -math.inf, [Case(1.0, lambda m: m)])
    with pytest.raises(
        ModelError, match="activity 'a' produced negative rate"
    ):
        activity.rate_in({})


@NON_FINITE
@pytest.mark.parametrize("where", ["rate", "probability"])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "local"])
def test_compile_rejects_non_finite(value, where, shared):
    activity = Activity(
        "odd",
        value if where == "rate" else 1.0,
        [
            Case(value, _update([("x", 1)]))
            if where == "probability"
            else Case(1.0, _update([("x", 1)]))
        ],
        shared=shared,
    )
    a = SANModel("a", [Place("s", 1, 0), Place("x", 1, 0)], [activity])
    with pytest.raises(
        ModelError, match=f"activity 'odd' .*non-finite {where}"
    ):
        compile_join(Join([a, _pool_feeder(1)]))


def test_replica_probability_error_names_the_replica():
    template = SANModel(
        "unit",
        [Place("s", 1, 0), Place("x", 1, 0)],
        [Activity("odd", 1.0, [Case(math.nan, _update([("x", 1)]))])],
    )
    farm = replicate(template, 2, shared_names=["s"])
    with pytest.raises(
        ModelError, match="activity 'r0.odd' case has non-finite"
    ):
        compile_join(Join([farm, _pool_feeder(1)]))


def test_enabled_activity_whose_case_probabilities_are_all_zero_fails():
    a = SANModel(
        "a",
        [Place("s", 1, 0), Place("x", 1, 0)],
        [Activity("stuck", 2.0, [Case(0.0, _update([("x", 1)]))])],
    )
    with pytest.raises(
        ModelError,
        match=(
            r"activity 'stuck': enabled case probabilities sum to 0\.0, "
            r"expected 1"
        ),
    ):
        compile_join(Join([a, _pool_feeder(1)]))


# ----------------------------------------------------------------------
# footprint discovery
# ----------------------------------------------------------------------

#: Activity evaluations at Table 1 J=1: one per distinct footprint
#: valuation plus the retries that grew a footprint.
TABLE1_J1_EVALUATIONS = 3_492


def test_table1_j1_evaluations(table1_j1):
    assert table1_j1.stats["evaluations"] == TABLE1_J1_EVALUATIONS


def _footprint_rate(kind, base, p, q, name):
    """A rate that uses the marking as ``kind`` says: not at all, ``q``
    only where ``p`` is positive, through ``get`` and ``in``, or every
    value at once."""
    if kind == "constant":
        return base
    if kind == "branch":
        return lambda m: base * (1 + m[q]) if m[p] > 0 else base
    if kind == "get":
        return lambda m: base * (1 + m.get(q, 0)) * (2 if name in m else 1)
    return lambda m: base * (1 + sum(m.values()))


def _footprint_update(kind, p, q, value):
    """An update that changes ``p`` as ``kind`` says: not at all, from a
    ``{**m}`` spread, by setting it without reading it, by dropping it
    (a missing place reads 0) or from ``q`` read through ``get`` on a
    copy."""

    def update(marking):
        if kind == "identity":
            return marking
        if kind == "spread":
            return {**marking, p: marking[p] + value}
        marking = dict(marking)
        if kind == "set":
            marking[p] = value
        elif kind == "drop":
            del marking[p]
        else:
            marking[p] = marking.get(q, 0) + value
        return marking

    return update


@st.composite
def footprint_activities(draw, name, shared, private, local):
    """An activity whose footprint depends on the marking it sees.  A
    local one reads and writes private places only; a shared one any."""
    readable = private if local else shared + private
    p, q = draw(st.sampled_from(readable)), draw(st.sampled_from(readable))
    rate = _footprint_rate(
        draw(
            st.sampled_from(
                ["constant", "branch", "get"] + ([] if local else ["values"])
            )
        ),
        draw(st.sampled_from([0.5, 1.0, 2.0])),
        p,
        q,
        draw(st.sampled_from(readable + ["elsewhere"])),
    )
    updates = [
        _footprint_update(
            draw(
                st.sampled_from(
                    ["identity", "spread", "set", "drop", "copy-get"]
                )
            ),
            draw(st.sampled_from(readable)),
            draw(st.sampled_from(readable)),
            draw(st.sampled_from([-1, 0, 1])),
        )
        for _ in range(draw(st.integers(1, 2)))
    ]
    if len(updates) == 1:
        cases = [Case(1.0, updates[0])]
    else:
        cases = [
            Case(lambda m: 0.25 if m[p] > 0 else 0.5, updates[0]),
            Case(lambda m: 0.75 if m[p] > 0 else 0.5, updates[1]),
        ]
    return Activity(name, rate, cases, shared=not local)


@st.composite
def footprint_joins(draw):
    """Random joins of 2 submodels whose activities read places only in
    some markings, set places they never read, read through ``get``,
    ``in`` or ``sum(m.values())``, return ``{**m, ...}`` or a marking
    without some place, or have constant rates and identity updates."""
    shared = [
        Place(f"s{i}", capacity, draw(st.integers(0, capacity)))
        for i, capacity in enumerate(
            draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
        )
    ]
    shared_names = [place.name for place in shared]
    submodels = []
    for k in range(2):
        private = [
            Place(f"m{k}p{i}", capacity, draw(st.integers(0, capacity)))
            for i, capacity in enumerate(
                draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
            )
        ]
        names = [place.name for place in private]
        activities = [
            draw(
                footprint_activities(
                    f"m{k}a{a}", shared_names, names, draw(st.booleans())
                )
            )
            for a in range(draw(st.integers(1, 4)))
        ]
        invariant = None
        if draw(st.booleans()):
            invariant = _total_at_most(
                names, sum(place.capacity for place in private) - 1
            )
        submodels.append(
            SANModel(
                f"m{k}", shared + private, activities, local_invariant=invariant
            )
        )
    return Join(submodels)


@DIFFERENTIAL
@given(footprint_joins())
def test_footprint_joins_match_oracle(join):
    assert_matches_oracle(join)


def test_submodel_whose_codes_pass_int64_matches_oracle():
    """40 private places of capacity 3 (4**40 > 2**63 markings) with a
    local invariant that keeps at most one token among them: codes are
    Python ints, and the compiled model is the oracle's."""
    places = [f"x{i}" for i in range(40)]

    def depart_rate(marking):
        return float(sum(marking[name] for name in places))

    def depart_probability(name):
        return lambda m: m[name] / sum(m[other] for other in places)

    unit = SANModel(
        "unit",
        [Place("s", 2, 0)] + [Place(name, 3, 0) for name in places],
        [
            Activity(
                "arrive",
                lambda m: 1.0 if m["s"] > 0 else 0.0,
                [
                    Case(1 / len(places), _update([("s", -1), (name, 1)]))
                    for name in places
                ],
            ),
            Activity(
                "depart",
                depart_rate,
                [
                    Case(
                        depart_probability(name),
                        _update([(name, -1), ("s", 1)]),
                    )
                    for name in places
                ],
            ),
        ],
        local_invariant=_total_at_most(places, 1),
    )
    join = Join([unit, _pool_feeder(2)])
    assert 4 ** len(places) > 2**63
    assert_matches_oracle(join)
    assert len(compile_join(join).event_model.levels[1].labels) == 41


def test_footprint_growth_clears_the_memo():
    """``probe`` reads ``q`` only once ``p`` reaches 2, after it was
    evaluated at p=0 and p=1 on the footprint {p}.  Over {p, q} the
    marking p=0, q=1 has the code p=1 had over {p}, and a rate of 1, not
    2: a memo kept across the growth would give it the wrong rate."""

    def move(name, value):
        return lambda m: {**m, name: value}

    a = SANModel(
        "a",
        [Place("s", 1, 0), Place("p", 2, 0), Place("q", 1, 0)],
        [
            Activity(
                "probe",
                lambda m: 1.0 + m["p"] if m["p"] < 2 else 2.0 + m["q"],
                [Case(1.0, lambda m: m)],
                shared=False,
            ),
            Activity(
                "climb",
                lambda m: 1.0 if m["p"] < 2 else 0.0,
                [Case(1.0, _update([("p", 1)]))],
                shared=False,
            ),
            Activity(
                "flip",
                lambda m: 1.0 if m["p"] == 2 and m["q"] == 0 else 0.0,
                [Case(1.0, move("q", 1))],
                shared=False,
            ),
            Activity(
                "reset",
                lambda m: 1.0 if m["p"] == 2 and m["q"] == 1 else 0.0,
                [Case(1.0, move("p", 0))],
                shared=False,
            ),
        ],
    )
    join = Join([a, _pool_feeder(1)])
    assert_matches_oracle(join)
    compiled = compile_join(join)
    level = compiled.event_model.levels[1]
    (local,) = [e for e in compiled.event_model.events if e.name == "a.local"]
    source = level.labels.index((0, 1))
    assert (source, 1.0) in local.effects[2][source]
