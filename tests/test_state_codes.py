"""One state code from generation to the lumped chain.

A reachable set is a sorted ``int64`` array of mixed-radix codes (top
level most significant), and ``repro.util.numeric`` holds the one codec
every encode or decode over the level sizes calls.  These tests hold the
callers to each other and to the codec, pin what the representation
must keep (read-only sharing, BFS snapshot layout, spec digests), and
check that an index outside the potential space raises instead of
wrapping.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import LumpingError, ModelError, StateSpaceError
from repro.lumping import MDModel, compositional_lump
from repro.lumping.compositional import project_indices
from repro.matrixdiagram import md_from_kronecker_terms
from repro.models import redundant_units_join, tandem_md_model
from repro.partitions import Partition
from repro.robust.checkpoint import Checkpointer
from repro.san import compile_join
from repro.san.rewards import build_md_model
from repro.service.spec import (
    canonical_digest,
    demo_spec,
    model_from_spec,
    spec_from_model,
)
from repro.statespace import EventModel, LevelSpace, reachable_bfs
from repro.statespace.reachability import ReachabilityResult, _reach_guard
from repro.sweep.engine import SweepEngine
from repro.sweep.spec import (
    apply_point,
    auto_sites,
    normalize_sweep_spec,
    point_spec,
    sweep_points,
)
from repro.util.numeric import (
    mixed_radix_codes,
    mixed_radix_digits,
    mixed_radix_index,
    mixed_radix_unindex,
)

CODECS = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def spaces(draw):
    """Level sizes (1-4 levels of 1-7 substates), states and codes."""
    sizes = tuple(draw(st.lists(st.integers(1, 7), min_size=1, max_size=4)))
    states = draw(
        st.lists(
            st.tuples(*(st.integers(0, size - 1) for size in sizes)),
            max_size=12,
        )
    )
    codes = draw(
        st.lists(st.integers(0, math.prod(sizes) - 1), max_size=12)
    )
    return sizes, states, codes


def _md(sizes):
    """An MD over ``sizes`` (one dense Kronecker term)."""
    return md_from_kronecker_terms(
        [(1.0, [np.ones((size, size)) for size in sizes])], sizes
    )


@CODECS
@given(spaces())
def test_every_codec_caller_agrees(space):
    sizes, states, codes = space
    levels = [LevelSpace(f"l{i}", range(size)) for i, size in enumerate(sizes)]
    model = EventModel(levels, [], [0] * len(sizes))
    md_model = MDModel(_md(sizes))
    discrete = [Partition.discrete(size) for size in sizes]

    encoded = [mixed_radix_index(state, sizes) for state in states]
    assert [model.encode(state) for state in states] == encoded
    assert model.encode_states(states).tolist() == encoded
    assert mixed_radix_codes(
        np.array(states, dtype=np.int64).reshape(-1, len(sizes)).T, sizes
    ).tolist() == encoded

    decoded = [mixed_radix_unindex(code, sizes) for code in codes]
    assert [model.decode(code) for code in codes] == decoded
    assert [md_model.state_tuple(code) for code in codes] == decoded
    assert model.decode_states(np.array(codes, dtype=np.int64)) == decoded
    columns = model.state_digits(np.array(codes, dtype=np.int64))
    assert [tuple(column.tolist()) for column in columns] == [
        tuple(state[level] for state in decoded)
        for level in range(len(sizes))
    ]
    assert all(column.dtype == np.int64 for column in columns)
    assert [mixed_radix_index(state, sizes) for state in decoded] == codes
    assert project_indices(codes, sizes, discrete).tolist() == codes


# ----------------------------------------------------------------------
# ranges
# ----------------------------------------------------------------------


@pytest.fixture()
def two_by_three():
    """An MD model over levels of sizes (2, 3)."""
    return MDModel(_md((2, 3)))


@pytest.mark.parametrize("index", [99, 6, -1])
def test_state_tuple_outside_potential_space_raises(two_by_three, index):
    with pytest.raises(ModelError, match=f"potential index {index} outside"):
        two_by_three.state_tuple(index)


@pytest.mark.parametrize("index", [99, 6, -1])
def test_project_potential_index_outside_raises(two_by_three, index):
    result = compositional_lump(two_by_three)
    assert 0 <= result.project_potential_index(5) < 6
    with pytest.raises(LumpingError, match=f"index {index} outside"):
        result.project_potential_index(index)


def test_codec_range_checks():
    with pytest.raises(ValueError, match="out of range for radix 3"):
        mixed_radix_codes([[0, 1], [2, 3]], (2, 3))
    with pytest.raises(ValueError, match="index 6 outside 0..5"):
        mixed_radix_digits([0, 6], (2, 3))
    with pytest.raises(ValueError):
        mixed_radix_unindex(-1, (2, 3))


# ----------------------------------------------------------------------
# non-integral values raise instead of truncating
# ----------------------------------------------------------------------


@pytest.mark.parametrize("bad", [0.7, 1.5, float("nan"), float("inf")])
def test_codec_rejects_non_integers(bad):
    sizes = (3, 2)
    with pytest.raises(ValueError, match="digit .* is not an integer"):
        mixed_radix_index((bad, 1), sizes)
    with pytest.raises(ValueError, match="index .* is not an integer"):
        mixed_radix_unindex(bad, sizes)
    with pytest.raises(ValueError, match="digit .* is not an integer"):
        mixed_radix_codes([[0, bad], [1, 1]], sizes)
    with pytest.raises(ValueError, match="index .* is not an integer"):
        mixed_radix_digits([1, bad], sizes)


def test_codec_takes_integral_floats():
    sizes = (3, 2)
    assert mixed_radix_index((1.0, 1), sizes) == 3
    assert mixed_radix_unindex(3.0, sizes) == (1, 1)
    codes = mixed_radix_codes([[1.0, 2.0], [1.0, 0.0]], sizes)
    assert codes.tolist() == [3, 4]
    assert [d.tolist() for d in mixed_radix_digits([3.0], sizes)] == [[1], [1]]


def _three_by_two():
    levels = [LevelSpace("a", range(3)), LevelSpace("b", range(2))]
    return EventModel(levels, [], [0, 0]), MDModel(_md((3, 2)))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda model, _md_model: model.encode_states([(0.7, 1.2)]),
            StateSpaceError,
            r"state \(0.7, 1.2\) has substate 0.7 that is not an integer, "
            "at level 1",
        ),
        (
            lambda model, _md_model: reachable_bfs(model, initial=[(1.9, 0)]),
            StateSpaceError,
            "substate 1.9 that is not an integer",
        ),
        (
            lambda model, _md_model: model.encode((0.7, 1)),
            StateSpaceError,
            "substate 0.7 is not an integer",
        ),
        (
            lambda model, _md_model: model.levels[1].label(1.2),
            StateSpaceError,
            "substate 1.2 is not an integer",
        ),
        (
            lambda model, _md_model: model.decode(1.5),
            StateSpaceError,
            "state index 1.5 is not an integer",
        ),
        (
            lambda _model, md_model: md_model.state_tuple(1.5),
            ModelError,
            "potential index 1.5 is not an integer",
        ),
        (
            lambda _model, md_model: compositional_lump(
                md_model
            ).project_potential_index(1.5),
            LumpingError,
            "potential index 1.5 is not an integer",
        ),
    ],
    ids=[
        "encode_states",
        "bfs_seed",
        "encode",
        "label",
        "decode",
        "state_tuple",
        "project_potential_index",
    ],
)
def test_non_integral_state_raises(call, error, message):
    with pytest.raises(error, match=message):
        call(*_three_by_two())


def test_integral_float_states_are_their_integers():
    model, md_model = _three_by_two()
    assert model.encode_states([(1.0, 1.0)]).tolist() == [3]
    assert model.encode((1.0, 1)) == 3
    assert model.decode(3.0) == (1, 1)
    assert md_model.state_tuple(3.0) == (1, 1)
    lumped = compositional_lump(md_model)
    assert lumped.project_potential_index(3.0) == (
        lumped.project_potential_index(3)
    )


# ----------------------------------------------------------------------
# the reachable set as one read-only array
# ----------------------------------------------------------------------


class TestReachableArray:
    def test_stored_read_only_sorted_int64(self, two_by_three):
        model = MDModel(two_by_three.md, reachable=[4, 0, 2])
        assert model.reachable.dtype == np.int64
        assert model.reachable.tolist() == [0, 2, 4]
        assert not model.reachable.flags.writeable

    def test_writable_input_is_copied(self, two_by_three):
        codes = np.array([0, 2, 4], dtype=np.int64)
        model = MDModel(two_by_three.md, reachable=codes)
        codes[0] = 5
        assert model.reachable.tolist() == [0, 2, 4]

    def test_read_only_view_of_writable_array_is_copied(self, two_by_three):
        codes = np.array([0, 2, 4], dtype=np.int64)
        view = codes.view()
        view.flags.writeable = False
        model = MDModel(two_by_three.md, reachable=view)
        codes[0] = 5
        assert model.reachable.tolist() == [0, 2, 4]

    def test_read_only_array_is_shared(self, two_by_three):
        model = MDModel(two_by_three.md, reachable=[0, 2, 4])
        again = MDModel(two_by_three.md, reachable=model.reachable)
        assert again.reachable is model.reachable

    def test_builders_hand_over_the_codes(self, small_tandem):
        reach, model = small_tandem["reach"], small_tandem["model"]
        assert np.array_equal(model.reachable, reach.codes)
        assert model.reachable is not reach.codes  # reach.codes is writable

    def test_no_library_path_reads_potential_indices(
        self, small_tandem, monkeypatch
    ):
        def forbidden(self):
            raise AssertionError("potential_indices called")

        monkeypatch.setattr(ReachabilityResult, "potential_indices", forbidden)
        tandem = tandem_md_model(
            small_tandem["event_model"],
            small_tandem["params"],
            reachable=small_tandem["reach"],
        )
        compiled = compile_join(redundant_units_join(2, 1))
        redundant = build_md_model(
            compiled, reachable=reachable_bfs(compiled.event_model)
        )
        spec = demo_spec("redundant:2,1")
        assert spec_from_model(redundant)["reachable"] == spec["reachable"]
        for model in (tandem, redundant):
            lumped = compositional_lump(model).lumped
            assert lumped.reachable.dtype == np.int64
            assert not lumped.reachable.flags.writeable

    def test_derived_models_share_the_base_array(self, small_tandem):
        model = small_tandem["model"]
        derived = apply_point(model, auto_sites(model.md), {"rate": 2.0})
        assert derived.reachable is model.reachable


# ----------------------------------------------------------------------
# BFS snapshots hold codes
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload, complete",
    [
        ({"states": "initial"}, True),
        ({"seen": "initial", "frontier": "initial"}, False),
    ],
    ids=["complete", "partial"],
)
def test_tuple_layout_bfs_snapshot_is_stale(
    small_tandem, tmp_path, payload, complete
):
    # A snapshot in the earlier layout (state tuples, under a guard
    # without the layout marker), holding only the initial state: a
    # resume must not take it, and starts afresh.
    event_model = small_tandem["event_model"]
    clean = reachable_bfs(event_model)
    initial = list(event_model.initial_state)
    with Checkpointer(str(tmp_path)) as ck:
        ck.save(
            ck.sequence_key("reachability.bfs"),
            {name: [initial] for name in payload},
            guard=_reach_guard(event_model, [event_model.initial_state]),
            complete=complete,
        )
    with Checkpointer(str(tmp_path), resume=True) as ck:
        resumed = reachable_bfs(event_model)
    assert any(e.kind == "stale" for e in ck.events)
    assert np.array_equal(resumed.codes, clean.codes)


def test_complete_bfs_snapshot_holds_the_codes(small_tandem, tmp_path):
    event_model = small_tandem["event_model"]
    with Checkpointer(str(tmp_path)):
        clean = reachable_bfs(event_model)
    with Checkpointer(str(tmp_path), resume=True) as ck:
        guard = _reach_guard(event_model, [event_model.initial_state])
        guard["layout"] = "codes"
        record = ck.load(ck.sequence_key("reachability.bfs"), guard=guard)
    assert record["complete"]
    assert record["payload"] == {"codes": clean.codes.tolist()}


# ----------------------------------------------------------------------
# service specs and the sweep
# ----------------------------------------------------------------------

#: Canonical digests of the tandem demo spec and its two sweep point
#: specs, as written when the reachable set was a sorted Python list.
TANDEM_DIGEST = (
    "14d061e973c28849009c43a8430ab6ca10c40f877ae46b6998af7dac3bf32072"
)
POINT_DIGESTS = [
    "4da11a5998ad8984635e7f6217d8804a2cb9df97d2e8bd210777c9f6f3ac739d",
    "82c6ea3339c07be842ad4dcdebf59ac9133d5eaeefdc95ba7d67145c41fb99d4",
]


@pytest.fixture(scope="module")
def tandem_spec():
    return demo_spec("tandem:1,2,2,2")


def test_spec_digests_do_not_move(tandem_spec):
    assert canonical_digest(tandem_spec) == TANDEM_DIGEST
    model = model_from_spec(tandem_spec)
    sites = auto_sites(model.md)
    assert sites == {"rate": [1]}
    spec = normalize_sweep_spec(
        {"base": tandem_spec, "sites": sites, "grid": {"rate": [0.5, 2.0]}}
    )
    digests = [
        canonical_digest(point_spec(spec["base"], model, spec["sites"], p))
        for p in sweep_points(spec)
    ]
    assert digests == POINT_DIGESTS


def test_point_specs_share_one_reachable_list(tandem_spec, tmp_path):
    engine = SweepEngine(
        {
            "base": tandem_spec,
            "sites": {"rate": [1]},
            "grid": {"rate": [0.5, 1.5, 2.0]},
        },
        str(tmp_path / "store"),
    )
    lists = [spec["reachable"] for _, spec, _ in engine.derived]
    assert len(lists) == 3
    assert all(reachable is lists[0] for reachable in lists)
    assert lists[0] == tandem_spec["reachable"]
    assert [digest for _, _, digest in engine.derived][::2] == POINT_DIGESTS
