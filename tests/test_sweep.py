"""Tests for the parameter-sweep engine (PR 10).

Covers the sweep spec layer (plan determinism, point transforms, digest
coalescing), the partition-reuse proof gate, the crash-safe frontier,
the engine end-to-end (correctness against direct per-point solves,
resume-replays-nothing, failure isolation with condemning
certificates), batch submission, and the CLI surface.  Real-SIGKILL
crash equivalence lives in ``test_crash_equivalence.py``.
"""

import json
import os

import numpy as np
import pytest

from repro.analysis import lump_and_solve
from repro.errors import SweepError
from repro.lumping.compositional import compositional_lump
from repro.lumping.md_model import MDModel
from repro.robust import faults
from repro.robust.faults import inject_faults
from repro.robust.report import RunReport
from repro.service.spec import canonical_digest, demo_spec, model_from_spec
from repro.service.store import JobStore
from repro.sweep import (
    POINT_DONE,
    POINT_FAILED,
    RatePoint,
    SweepFrontier,
    apply_point,
    auto_sites,
    lump_with_reuse,
    nearest_neighbor,
    normalize_sweep_spec,
    partition_reuse_proof,
    point_spec,
    run_sweep,
    sweep_digest,
    sweep_points,
)
from repro.sweep.spec import parse_grid_arg, parse_site_arg


def _base(method="direct", demo="redundant:2,2", certify=True):
    spec = demo_spec(demo)
    spec["solve"]["method"] = method
    if not certify:
        spec["solve"]["certify"] = False
    return spec


def _sweep(method="direct", factors=(0.5, 1.0, 2.0), **kwargs):
    base = _base(method=method, **kwargs)
    sites = auto_sites(model_from_spec(base).md)
    return {"base": base, "sites": sites, "grid": {"rate": list(factors)}}


# ----------------------------------------------------------------------
# spec layer
# ----------------------------------------------------------------------


class TestSweepSpec:
    def test_grid_expands_in_sorted_site_order_last_fastest(self):
        spec = {
            "base": _base(),
            "sites": {"b": [1], "a": [2]},
            "grid": {"a": [1.0, 2.0], "b": [3.0, 4.0]},
        }
        points = sweep_points(spec)
        assert [p.factor_map() for p in points] == [
            {"a": 1.0, "b": 3.0},
            {"a": 1.0, "b": 4.0},
            {"a": 2.0, "b": 3.0},
            {"a": 2.0, "b": 4.0},
        ]
        assert [p.point_id for p in points] == [
            "p00001", "p00002", "p00003", "p00004",
        ]

    def test_explicit_points_keep_order_and_fill_missing_sites(self):
        spec = {
            "base": _base(),
            "sites": {"mu": [1], "nu": [2]},
            "points": [{"mu": 2.0}, {"nu": 0.5, "mu": 3.0}],
        }
        points = sweep_points(spec)
        assert points[0].factor_map() == {"mu": 2.0, "nu": 1.0}
        assert points[1].factor_map() == {"mu": 3.0, "nu": 0.5}

    def test_digest_is_stable_under_key_order(self):
        a = {"base": _base(), "sites": {"r": [1]}, "grid": {"r": [1, 2]}}
        b = {"grid": {"r": [1.0, 2.0]}, "sites": {"r": [1]}, "base": _base()}
        assert sweep_digest(a) == sweep_digest(b)

    def test_validation_failures_are_sweep_errors(self):
        base = _base()
        for bad in (
            {"base": base, "sites": {}},
            {"base": base, "sites": {"r": [1]}},  # no grid/points
            {
                "base": base,
                "sites": {"r": [1]},
                "grid": {"r": [1.0]},
                "points": [{"r": 1.0}],
            },
            {"base": base, "sites": {"r": [1]}, "grid": {"x": [1.0]}},
            {"base": base, "sites": {"r": [1]}, "grid": {"r": [0.0]}},
            {"base": base, "sites": {"r": [1]}, "grid": {"r": [-1.0]}},
            {"base": base, "sites": {"r": [1]}, "points": [{"r": "nope"}]},
        ):
            with pytest.raises(SweepError):
                normalize_sweep_spec(bad)

    def test_apply_point_scales_only_site_nodes(self):
        base = _base()
        model = model_from_spec(base)
        sites = auto_sites(model.md)
        (site_nodes,) = sites.values()
        derived = apply_point(model, sites, {"rate": 2.0})
        for index in model.md.node_indices():
            node = model.md.node(index)
            new = derived.md.node(index)
            factor = 2.0 if index in site_nodes else 1.0
            new_entries = {
                (row, col): entry for row, col, entry in new.entries()
            }
            for row, col, entry in node.entries():
                if node.terminal:
                    assert new_entries[(row, col)] == pytest.approx(
                        float(entry) * factor
                    )
                else:
                    # formal sums: compare coefficient-by-child
                    scaled = entry.scaled(factor)
                    assert new_entries[(row, col)].signature == (
                        scaled.signature
                    )

    def test_apply_point_unknown_node_is_sweep_error(self):
        model = model_from_spec(_base())
        with pytest.raises(SweepError):
            apply_point(model, {"r": [99999]}, {"r": 2.0})

    def test_identity_point_spec_digest_coalesces_with_base(self):
        """Factor 1.0 is the identity transform, so the derived spec is
        byte-identical to spec_from_model of the base — one cache entry
        serves both."""
        base = _base()
        model = model_from_spec(base)
        sites = auto_sites(model.md)
        points = sweep_points(
            {"base": base, "sites": sites, "grid": {"rate": [1.0, 2.0]}}
        )
        identity = point_spec(base, model, sites, points[0])
        scaled = point_spec(base, model, sites, points[1])
        assert canonical_digest(identity) != canonical_digest(scaled)
        again = point_spec(base, model, sites, points[0])
        assert canonical_digest(identity) == canonical_digest(again)

    def test_nearest_neighbor_log_distance_and_tie_break(self):
        def pt(i, f):
            return RatePoint(index=i, factors=(("r", f),))

        target = pt(9, 1.0)
        # 0.5x and 2x are equidistant in log space: lower index wins.
        assert nearest_neighbor(target, [pt(2, 2.0), pt(1, 0.5)]).index == 1
        assert nearest_neighbor(target, [pt(3, 4.0), pt(2, 2.0)]).index == 2
        assert nearest_neighbor(target, []) is None

    def test_auto_sites_rejects_single_node_levels(self):
        spec = demo_spec("redundant:1,1")
        md = model_from_spec(spec).md
        if all(
            len(md.nodes_at(level)) < 2
            for level in range(1, md.num_levels + 1)
        ):
            with pytest.raises(SweepError):
                auto_sites(md)
        else:
            assert auto_sites(md)

    def test_cli_parsers(self):
        assert parse_site_arg("mu=7,3") == ("mu", [3, 7])
        assert parse_grid_arg("mu=0.5:2.0:4") == (
            "mu", [0.5, 1.0, 1.5, 2.0],
        )
        assert parse_grid_arg("mu=1,2") == ("mu", [1.0, 2.0])
        for bad in ("mu", "mu=", "=3", "mu=a,b", "mu=1:2", "mu=1:2:0"):
            with pytest.raises(SweepError):
                (parse_site_arg if "=" not in bad or ":" not in bad
                 else parse_grid_arg)(bad)


# ----------------------------------------------------------------------
# partition-reuse proof
# ----------------------------------------------------------------------


class TestReuseProof:
    def test_uniform_site_scaling_passes_the_proof(self):
        base_spec = _base()
        model = model_from_spec(base_spec)
        sites = auto_sites(model.md)
        base = compositional_lump(model)
        derived = apply_point(model, sites, {"rate": 2.0})
        assert partition_reuse_proof(derived, base.partitions) is None
        lumping, reused = lump_with_reuse(derived, base)
        assert reused
        # The reused lumping solves to the same answer as a fresh lump.
        fresh = lump_and_solve(derived, method="direct")
        via_reuse = lump_and_solve(
            derived, method="direct", lumping=lumping
        )
        assert np.allclose(
            via_reuse.stationary, fresh.stationary, atol=1e-12
        )

    def test_broken_initial_condition_fails_the_proof(self):
        model = model_from_spec(_base())
        base = compositional_lump(model)
        # Find a level with a nontrivial block and split its rewards.
        for level_idx, partition in enumerate(base.partitions):
            block = next(
                (
                    tuple(partition.block(b))
                    for b in partition.block_index_map()
                    if len(partition.block(b)) >= 2
                ),
                None,
            )
            if block is not None:
                break
        assert block is not None, "demo model must lump something"
        rewards = [v.copy() for v in model.level_rewards]
        rewards[level_idx][block[0]] += 1.0
        tampered = MDModel(
            model.md,
            level_rewards=rewards,
            level_initial=model.level_initial,
            reward_combiner=model.reward_combiner,
            reachable=model.reachable,
        )
        reason = partition_reuse_proof(tampered, base.partitions)
        assert reason is not None and "rewards differ" in reason
        report = RunReport()
        _lumping, reused = lump_with_reuse(tampered, base, report=report)
        assert not reused
        assert any(
            event.stage == "sweep.reuse" for event in report.fallbacks
        )

    def test_wrong_shape_partitions_fail_the_proof(self):
        model = model_from_spec(_base())
        base = compositional_lump(model)
        assert partition_reuse_proof(model, base.partitions[:-1])
        other = model_from_spec(demo_spec("redundant:3,2"))
        assert partition_reuse_proof(other, base.partitions)


# ----------------------------------------------------------------------
# frontier
# ----------------------------------------------------------------------


class TestFrontier:
    def test_roundtrip_and_pending(self, tmp_path):
        frontier = SweepFrontier(str(tmp_path / "f"), "d" * 64, 3)
        assert frontier.pending(["p00001", "p00002"]) == [
            "p00001", "p00002",
        ]
        frontier.record(
            "p00001", {"status": POINT_DONE, "index": 1}
        )
        assert frontier.lookup("p00001")["status"] == POINT_DONE
        assert frontier.pending(["p00001", "p00002"]) == ["p00002"]
        assert set(frontier.outcomes()) == {"p00001"}

    def test_refuses_non_terminal_outcomes(self, tmp_path):
        frontier = SweepFrontier(str(tmp_path / "f"), "d" * 64, 1)
        with pytest.raises(SweepError):
            frontier.record("p00001", {"status": "running"})

    def test_refuses_to_mix_sweeps(self, tmp_path):
        SweepFrontier(str(tmp_path / "f"), "a" * 64, 2)
        with pytest.raises(SweepError, match="refusing to mix"):
            SweepFrontier(str(tmp_path / "f"), "b" * 64, 2, resume=True)

    def test_existing_frontier_requires_resume(self, tmp_path):
        SweepFrontier(str(tmp_path / "f"), "a" * 64, 2)
        with pytest.raises(SweepError, match="--resume"):
            SweepFrontier(str(tmp_path / "f"), "a" * 64, 2)
        SweepFrontier(str(tmp_path / "f"), "a" * 64, 2, resume=True)

    def test_corrupt_record_means_recompute(self, tmp_path):
        frontier = SweepFrontier(str(tmp_path / "f"), "a" * 64, 1)
        frontier.record("p00001", {"status": POINT_DONE})
        path = tmp_path / "f" / "points" / "p00001.json"
        body = json.loads(path.read_text())
        body["status"] = POINT_FAILED  # digest no longer matches
        path.write_text(json.dumps(body))
        assert frontier.lookup("p00001") is None
        assert frontier.pending(["p00001"]) == ["p00001"]
        path.write_text("{not json")
        assert frontier.lookup("p00001") is None

    def test_corrupt_manifest_refuses_resume(self, tmp_path):
        SweepFrontier(str(tmp_path / "f"), "a" * 64, 2)
        manifest = tmp_path / "f" / "MANIFEST.json"
        body = json.loads(manifest.read_text())
        body["total_points"] = 99
        manifest.write_text(json.dumps(body))
        with pytest.raises(SweepError, match="corrupt frontier"):
            SweepFrontier(str(tmp_path / "f"), "a" * 64, 2, resume=True)


# ----------------------------------------------------------------------
# engine end-to-end
# ----------------------------------------------------------------------


class TestEngine:
    def test_sweep_matches_direct_per_point_solves(self, tmp_path):
        spec = _sweep(method="power", demo="tandem:1,2,2,2")
        result = run_sweep(spec, str(tmp_path / "store"))
        assert result.stats.done == 3 and result.stats.failed == 0
        model = model_from_spec(spec["base"])
        for point, outcome in zip(sweep_points(spec), result.outcomes):
            derived = apply_point(model, spec["sites"], point.factor_map())
            direct = lump_and_solve(
                derived, method="power", robust=True, certify=True
            )
            assert np.allclose(
                outcome.stationary, direct.stationary, atol=1e-9
            ), point.point_id
        # Incremental machinery actually engaged.
        assert result.stats.reuse_hits == 3
        assert result.stats.warm_started >= 1

    def test_resume_replays_everything_bitwise(self, tmp_path):
        spec = _sweep()
        store = str(tmp_path / "store")
        first = run_sweep(spec, store)
        second = run_sweep(spec, store, resume=True)
        assert second.stats.replayed == 3
        assert second.stats.retries == 0
        for a, b in zip(first.outcomes, second.outcomes):
            assert a.status == b.status
            assert a.stationary == b.stationary

    def test_divergent_point_is_quarantined_with_certificate(
        self, tmp_path
    ):
        spec = _sweep()
        # No fired log: the explicit-index rule re-fires on every
        # attempt of point 2 — a permanently divergent point.
        with inject_faults("sweep.point:2"):
            result = run_sweep(spec, str(tmp_path / "store"))
        statuses = [o.status for o in result.outcomes]
        assert statuses == [POINT_DONE, POINT_FAILED, POINT_DONE]
        bad = result.outcomes[1]
        assert bad.error and bad.certificate is not None
        assert bad.certificate["passed"] is False
        assert bad.stats["attempts"] == 3  # warm, retry, cold
        # The condemning certificate is also on the failed job record.
        store = JobStore(str(tmp_path / "store"))
        view = store.view(bad.job_id)
        assert view.state == "failed"
        assert view.last["detail"]["certificate"]["passed"] is False

    def test_failed_points_recompute_on_later_run_without_resume_flag(
        self, tmp_path
    ):
        """A terminally failed point is a recorded outcome: resuming
        replays the failure (with its certificate) without re-running
        the fault-free points."""
        spec = _sweep()
        store = str(tmp_path / "store")
        with inject_faults("sweep.point:2"):
            first = run_sweep(spec, store)
        second = run_sweep(spec, store, resume=True)
        assert second.stats.replayed == 3
        assert [o.status for o in second.outcomes] == [
            o.status for o in first.outcomes
        ]
        assert second.outcomes[1].certificate is not None

    def test_transient_fault_retries_and_succeeds(self, tmp_path):
        """A fault that fires once (``sweep.point:2`` under a fired log,
        so only on the first attempt of point 2) is absorbed by the
        retry rung: the point still lands done."""
        spec = _sweep()
        faults.set_fired_log(str(tmp_path / "fired.log"))
        try:
            with inject_faults("sweep.point:2"):
                result = run_sweep(spec, str(tmp_path / "store"))
        finally:
            faults.set_fired_log(None)
        assert [o.status for o in result.outcomes] == [POINT_DONE] * 3
        point = result.outcomes[1]
        assert point.index == 2
        assert point.stats["attempt"] == "retry"
        assert point.stats["attempts"] == 2
        assert result.stats.retries == 1

    def test_fresh_store_and_frontier_mismatch_is_refused(self, tmp_path):
        spec = _sweep()
        store = str(tmp_path / "store")
        run_sweep(spec, store)
        other = _sweep(factors=(0.25, 4.0))
        with pytest.raises(SweepError, match="refusing to mix"):
            run_sweep(
                other,
                store,
                frontier_dir=os.path.join(
                    store, "sweep",
                    canonical_digest(normalize_sweep_spec(spec))[:12],
                ),
                resume=True,
            )

    def test_queue_limit_shed_fails_at_plan_time(self, tmp_path):
        spec = _sweep()
        with pytest.raises(SweepError, match="shed"):
            run_sweep(spec, str(tmp_path / "store"), queue_limit=1)


# ----------------------------------------------------------------------
# batch submission
# ----------------------------------------------------------------------


class TestSubmitBatch:
    def test_duplicates_coalesce_within_the_batch(self, tmp_path):
        store = JobStore(str(tmp_path / "store"))
        spec = demo_spec("redundant:2,1")
        outcomes = store.submit_batch([spec, spec, demo_spec("redundant:3,1")])
        assert len(outcomes) == 3
        assert outcomes[0].job_id == outcomes[1].job_id
        assert outcomes[1].coalesced_with == outcomes[0].job_id
        assert outcomes[2].job_id != outcomes[0].job_id
        assert store.active_count() == 2
