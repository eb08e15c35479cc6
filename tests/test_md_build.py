"""Differential tests for the one MD build.

The oracle is the build ``md_from_kronecker_terms`` replaced
(``tests/md_build_oracle.py``): one chain per term with one formal sum
per entry, every identity written out, and ``EventModel.to_md`` going
through ``kronecker_descriptor()``.  The library's MDs must be identical
to the oracle's: the same level sizes and root, node indices, levels and
terminal flags, every node's entries in the same iteration order, every
value and coefficient equal bit for bit (by ``repr``), the same
``md_stats`` and the same labels.  Random event models, random Kronecker
terms, every model builder and the service's demo specs are checked
against the oracle; the Table 1 J=1 MD is checked against the sha256 of
the oracle's serialization, so the suite does not pay for the oracle
there.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.errors import MatrixDiagramError
from repro.matrixdiagram import md_from_kronecker_terms, md_stats
from repro.models import TandemParams, build_tandem
from repro.service.spec import demo_spec
from repro.statespace import EventModel, LevelSpace, reachable_bfs
from repro.statespace.events import project_event_model
from tests import md_build_oracle
from tests.test_reachability_codes import BUILDERS, event_models

#: sha256 of :func:`md_serialization` of the Table 1 J=1 MD (levels
#: 3 x 2304 x 512, the reachable projections) as the oracle builds it.
TABLE1_J1_MD_SHA256 = (
    "4a4565fa743d3a8c6990f252aa92f36eca0e60c47ab6c5b78c212953fafd72e7"
)

DIFFERENTIAL = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def md_serialization(md):
    """Level sizes, root, every node (index order) with its level,
    terminal flag and entries in iteration order, values and
    coefficients by ``repr``, then ``md_stats``."""
    parts = [repr(md.level_sizes), repr(md.root_index)]
    for index in md.node_indices():
        node = md.node(index)
        if node.terminal:
            entries = [(r, c, repr(v)) for r, c, v in node.entries()]
        else:
            entries = [
                (r, c, [(child, repr(coef)) for child, coef in s.items()])
                for r, c, s in node.entries()
            ]
        parts.append(repr((index, node.level, node.terminal, entries)))
    parts.append(repr(md_stats(md)))
    return "\n".join(parts).encode("utf-8")


def md_sha256(md):
    return hashlib.sha256(md_serialization(md)).hexdigest()


def outcome(build, *args):
    """The MD's serialization and labels, or the build error."""
    try:
        md = build(*args)
    except MatrixDiagramError as exc:
        return ("error", str(exc))
    return md_serialization(md), md.all_level_labels()


# ----------------------------------------------------------------------
# EventModel.to_md
# ----------------------------------------------------------------------


def assert_to_md_matches_oracle(model):
    expected = outcome(md_build_oracle.event_model_to_md, model)
    assert outcome(EventModel.to_md, model) == expected


@given(
    event_models(
        weights=st.sampled_from([0.0, 0.5, 1.0, 2.0]),
        factors=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
    )
)
@DIFFERENTIAL
def test_to_md_matches_oracle_on_random_models(sample):
    assert_to_md_matches_oracle(sample[0])


@given(
    event_models(
        weights=st.sampled_from([0.0, 1e-200, 1.0, 1e200]),
        factors=st.sampled_from(
            [1e-200, 1e-160, 0.5, 1e160, 1e200, float("inf"), float("nan")]
        ),
    )
)
@DIFFERENTIAL
def test_to_md_matches_oracle_on_extreme_models(sample):
    assert_to_md_matches_oracle(sample[0])


def test_model_without_events_raises_as_oracle():
    empty = EventModel([LevelSpace("a", [0, 1]), LevelSpace("b", [0])], [], [0, 0])
    expected = outcome(md_build_oracle.event_model_to_md, empty)
    assert expected[0] == "error"
    assert outcome(EventModel.to_md, empty) == expected


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_to_md_matches_oracle_on_model_builders(name):
    assert_to_md_matches_oracle(BUILDERS[name]())


@pytest.mark.parametrize(
    "demo", ["redundant:2,2", "redundant:3,1", "tandem:1,2,2,2", "tandem:2,1,1,1"]
)
def test_demo_specs_match_oracle(demo, monkeypatch):
    """The service's job specs (and so their digests) are unchanged."""
    actual = demo_spec(demo)
    monkeypatch.setattr(EventModel, "to_md", md_build_oracle.event_model_to_md)
    assert actual == demo_spec(demo)


def test_table1_j1_md_pinned():
    compiled = build_tandem(TandemParams(jobs=1))
    reach = reachable_bfs(compiled.event_model)
    model = project_event_model(compiled.event_model, reach.level_supports())
    md = model.to_md()
    assert md.level_sizes == (3, 2304, 512)
    assert md_sha256(md) == TABLE1_J1_MD_SHA256


# ----------------------------------------------------------------------
# md_from_kronecker_terms
# ----------------------------------------------------------------------

VALUES = st.sampled_from(
    [0.0, 0.0, 1.0, 0.5, 3.0, -1.0, -0.5, 1e-200, 1e200, float("inf"), float("nan")]
)


@st.composite
def kronecker_terms(draw):
    """Random terms over 1-4 levels of 1-4 substates, each factor dense,
    sparse, a dict or ``None`` (the identity), with the identity given
    to the oracle as the dict it used to be written out as."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    terms, oracle_terms = [], []
    for _ in range(draw(st.integers(0, 5))):
        factors, oracle_factors = [], []
        for size in sizes:
            kind = draw(st.sampled_from(["dense", "sparse", "dict", "none"]))
            if kind == "none":
                factors.append(None)
                oracle_factors.append({(s, s): 1.0 for s in range(size)})
                continue
            dense = np.array(
                draw(
                    st.lists(
                        VALUES, min_size=size * size, max_size=size * size
                    )
                ),
                dtype=float,
            ).reshape(size, size)
            if kind == "dense":
                factor = dense
            elif kind == "sparse":
                factor = sparse.csr_matrix(dense)
            else:
                positions = draw(st.permutations(list(np.ndindex(size, size))))
                factor = {(int(r), int(c)): dense[r, c] for r, c in positions}
            factors.append(factor)
            oracle_factors.append(factor)
        weight = draw(st.sampled_from([0.0, 1.0, 2.5, -1.0, 1e-200, 1e200]))
        terms.append((weight, factors))
        oracle_terms.append((weight, oracle_factors))
    return sizes, terms, oracle_terms


@given(kronecker_terms())
@DIFFERENTIAL
def test_kronecker_terms_match_oracle(sample):
    sizes, terms, oracle_terms = sample
    expected = outcome(md_build_oracle.md_from_kronecker_terms, oracle_terms, sizes)
    assert outcome(md_from_kronecker_terms, terms, sizes) == expected
