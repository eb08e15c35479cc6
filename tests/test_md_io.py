"""Tests for MD serialization and the MD-based transient solver."""

import numpy as np
import pytest

from repro.errors import MatrixDiagramError, SolverError
from repro.markov import transient_distribution
from repro.markov.ctmc import CTMC
from repro.matrixdiagram import (
    MDOperator,
    flatten,
    md_from_kronecker_terms,
)
from repro.matrixdiagram.io import (
    md_from_dict,
    md_from_json,
    md_to_dict,
    md_to_json,
    load_md,
    save_md,
)


@pytest.fixture()
def sample_md():
    rng = np.random.default_rng(31)
    return md_from_kronecker_terms(
        [
            (1.5, [rng.random((2, 2)), rng.random((3, 3))]),
            (0.5, [np.eye(2), rng.random((3, 3))]),
        ],
        (2, 3),
        level_state_labels=[["a", "b"], [(0,), (1,), (2,)]],
    )


class TestSerialization:
    def test_roundtrip_preserves_matrix(self, sample_md):
        restored = md_from_dict(md_to_dict(sample_md))
        assert np.array_equal(
            flatten(sample_md).toarray(), flatten(restored).toarray()
        )

    def test_roundtrip_preserves_structure(self, sample_md):
        restored = md_from_dict(md_to_dict(sample_md))
        assert restored.level_sizes == sample_md.level_sizes
        assert restored.root_index == sample_md.root_index
        assert restored.node_indices() == sample_md.node_indices()
        for index in sample_md.node_indices():
            assert (
                restored.node(index).structure_key()
                == sample_md.node(index).structure_key()
            )

    def test_roundtrip_preserves_labels(self, sample_md):
        restored = md_from_dict(md_to_dict(sample_md))
        assert restored.substate_label(1, 0) == "a"
        assert restored.substate_label(2, 2) == (2,)

    def test_json_roundtrip(self, sample_md):
        restored = md_from_json(md_to_json(sample_md))
        assert np.array_equal(
            flatten(sample_md).toarray(), flatten(restored).toarray()
        )

    def test_file_roundtrip(self, sample_md, tmp_path):
        path = tmp_path / "md.json"
        save_md(sample_md, str(path))
        restored = load_md(str(path))
        assert np.array_equal(
            flatten(sample_md).toarray(), flatten(restored).toarray()
        )

    def test_unknown_format_rejected(self, sample_md):
        data = md_to_dict(sample_md)
        data["format"] = 99
        with pytest.raises(MatrixDiagramError):
            md_from_dict(data)

    @pytest.mark.parametrize(
        "name",
        [
            "row",
            "column",
            "child",
            "level",
            "node index",
            "root index",
            "level size",
        ],
    )
    def test_non_integral_index_rejected(self, sample_md, name):
        data = md_to_dict(sample_md)
        root = next(n for n in data["nodes"] if n["index"] == data["root"])
        entry = root["entries"][0]
        if name == "row":
            entry[0] = 0.5
        elif name == "column":
            entry[1] = 1.5
        elif name == "child":
            entry[2] = [[child + 0.5, coeff] for child, coeff in entry[2]]
        elif name == "level":
            root["level"] = 1.5
        elif name == "node index":
            root["index"] += 0.5
        elif name == "root index":
            data["root"] += 0.5
        else:
            data["level_sizes"][0] += 0.5
        message = f"MD {name} .* is not an integer"
        with pytest.raises(MatrixDiagramError, match=message):
            md_from_dict(data)

    def test_integral_float_indices_load(self, sample_md):
        data = md_to_dict(sample_md)
        root = next(n for n in data["nodes"] if n["index"] == data["root"])
        root["index"], root["level"] = float(root["index"]), 1.0
        entry = root["entries"][0]
        entry[0] = float(entry[0])
        entry[2] = [[float(child), coeff] for child, coeff in entry[2]]
        data["root"] = float(data["root"])
        data["level_sizes"] = [float(n) for n in data["level_sizes"]]
        assert md_to_dict(md_from_dict(data)) == md_to_dict(sample_md)

    def test_lumped_md_roundtrips(self, small_tandem):
        from repro.lumping import compositional_lump

        result = compositional_lump(small_tandem["model"], "ordinary")
        lumped = result.lumped.md
        restored = md_from_json(md_to_json(lumped))
        diff = flatten(lumped) - flatten(restored)
        assert diff.nnz == 0

    def test_save_is_atomic_no_tmp_left_behind(self, sample_md, tmp_path):
        path = tmp_path / "md.json"
        save_md(sample_md, str(path))
        save_md(sample_md, str(path))  # overwrite goes through rename too
        assert [p.name for p in tmp_path.iterdir()] == ["md.json"]
        restored = load_md(str(path))
        assert np.array_equal(
            flatten(sample_md).toarray(), flatten(restored).toarray()
        )

    def test_load_rejects_truncated_file(self, sample_md, tmp_path):
        path = tmp_path / "md.json"
        save_md(sample_md, str(path))
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # simulate a torn write
        with pytest.raises(MatrixDiagramError, match="truncated or corrupt"):
            load_md(str(path))

    def test_load_rejects_wrong_shape_json(self, tmp_path):
        path = tmp_path / "md.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(MatrixDiagramError, match="not a JSON object"):
            load_md(str(path))

    def test_load_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "md.json"
        path.write_text('{"format": 1}')
        with pytest.raises(MatrixDiagramError, match="malformed MD data"):
            load_md(str(path))


class TestMDTransient:
    def _irreducible_md(self):
        flip_a = np.array([[0.0, 1.0], [2.0, 0.0]])
        flip_b = np.array([[0.0, 0.5], [1.5, 0.0]])
        return md_from_kronecker_terms(
            [(1.0, [flip_a, np.eye(2)]), (1.0, [np.eye(2), flip_b])], (2, 2)
        )

    def test_matches_flat_transient(self):
        md = self._irreducible_md()
        op = MDOperator(md)
        ctmc = CTMC(flatten(md))
        pi0 = np.array([1.0, 0.0, 0.0, 0.0])
        for t in (0.1, 1.0, 5.0):
            md_pi = op.transient(pi0, t)
            flat_pi = transient_distribution(ctmc, pi0, t)
            assert np.abs(md_pi - flat_pi).max() < 1e-9

    def test_time_zero(self):
        md = self._irreducible_md()
        op = MDOperator(md)
        pi0 = np.array([0.25] * 4)
        assert np.array_equal(op.transient(pi0, 0.0), pi0)

    def test_long_horizon_near_stationary(self):
        md = self._irreducible_md()
        op = MDOperator(md)
        pi0 = np.array([1.0, 0.0, 0.0, 0.0])
        pi_inf = op.steady_state_power(np.full(4, 0.25), tol=1e-13)
        assert np.abs(op.transient(pi0, 200.0) - pi_inf).max() < 1e-8

    def test_bad_inputs(self):
        md = self._irreducible_md()
        op = MDOperator(md)
        with pytest.raises(SolverError):
            op.transient(np.array([1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(SolverError):
            op.transient(np.array([0.5, 0.0, 0.0, 0.0]), 1.0)
        with pytest.raises(SolverError):
            op.transient(np.array([1.0, 0.0, 0.0, 0.0]), -1.0)
