"""MD build at paper scale: the Table 1 tandems at J=2 and J=3.

``EventModel.to_md`` hands the event tables to ``md_from_kronecker_terms``,
which builds each identity node once per (level, child) and each (child,
coefficient) formal sum once.  The unlumped J=2 and J=3 MDs (levels the
reachable projections, found by saturation) are pinned to the sha256 of
``tests/test_md_build.py``'s serialization as the build it replaced
(``tests/md_build_oracle.py``) produced them, and to their nodes per
level.  At J=2 and J=3 the reachable projection keeps every substate, so
``project_event_model`` must hand back the compiled model's tables.  The
timings are of ``to_md`` and of ``project_event_model`` alone at J=2.
"""

import pytest

from repro.models import TandemParams, build_tandem
from repro.statespace.events import project_event_model
from repro.statespace.reachability import symbolic_reachability
from tests.test_md_build import md_sha256

#: jobs -> (sha256 of the MD's serialization, level sizes, nodes per level).
PINS = {
    2: (
        "13765c89cedf58e61735404344e37b655e00704f3e84c44ec88fdccf2f69ae68",
        (6, 11520, 2112),
        [1, 6, 4],
    ),
    3: (
        "fee33629cc5a9c1e88792dd00b1ba941cf4fbbbf858f984cd91a512877269e50",
        (10, 42240, 6144),
        [1, 6, 4],
    ),
}


def reachable_supports(jobs):
    """The compiled Table 1 tandem's event model and its reachable
    projections."""
    model = build_tandem(TandemParams(jobs=jobs)).event_model
    return model, symbolic_reachability(model).level_supports()


def projected_model(jobs):
    """The Table 1 tandem's event model on its reachable projections."""
    return project_event_model(*reachable_supports(jobs))


def tables(model):
    """Levels with their labels, then every event with its tables in
    order (sources and options included)."""
    return [(level.name, level.labels) for level in model.levels] + [
        (event.name, event.weight, [
            (level, list(table.items()))
            for level, table in event.effects.items()
        ])
        for event in model.events
    ]


@pytest.mark.parametrize("jobs", sorted(PINS))
def test_paper_scale_md_matches_pins(jobs):
    md = projected_model(jobs).to_md()
    digest, sizes, nodes_per_level = PINS[jobs]
    assert md.level_sizes == sizes
    assert [len(md.nodes_at(level)) for level in (1, 2, 3)] == nodes_per_level
    assert md_sha256(md) == digest


@pytest.mark.parametrize("jobs", sorted(PINS))
def test_paper_scale_projection_keeps_every_table(jobs):
    model, supports = reachable_supports(jobs)
    projected = project_event_model(model, supports)
    assert projected.level_sizes() == model.level_sizes() == PINS[jobs][1]
    assert projected.initial_state == model.initial_state
    assert tables(projected) == tables(model)


def test_to_md_j2(benchmark):
    model = projected_model(2)
    md = benchmark(model.to_md)
    assert md.level_sizes == PINS[2][1]


def test_project_event_model_j2(benchmark):
    model, supports = reachable_supports(2)
    projected = benchmark(project_event_model, model, supports)
    assert projected.level_sizes() == PINS[2][1]
