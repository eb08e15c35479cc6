"""Sweep specs: an MD model plus a grid/list of rate points.

A *sweep spec* names a base job spec (the :mod:`repro.service.spec`
format — model, solve parameters), a set of **rate sites** (named lists
of MD node indices whose entries carry the swept rates), and either an
explicit point list or a per-site factor grid (expanded as a cartesian
product in sorted-site order).  Each point scales every entry of its
sites' nodes by the point's factor
(:meth:`~repro.matrixdiagram.node.MDNode.scaled`), producing a *derived
model* and, through
:func:`~repro.service.spec.spec_from_model`, a derived job spec whose
canonical digest is the service cache key.  Identical points therefore
coalesce across sweeps exactly like identical submissions coalesce in
the durable service.

The plan order (``sweep_points``) is deterministic: point ``k`` of a
spec is always the same transform, so a resumed sweep and an
uninterrupted one agree on point identity, processing order, and
warm-start provenance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import SweepError
from repro.lumping.md_model import MDModel
from repro.matrixdiagram.md import MatrixDiagram
from repro.service.spec import (
    canonical_digest,
    solve_params,
    spec_from_model,
)

#: Version stamp of the sweep-spec format.
SWEEP_FORMAT = 1


@dataclass(frozen=True)
class RatePoint:
    """One point of the sweep plan: a per-site scale-factor assignment.

    ``index`` is the 1-based position in the deterministic plan order —
    it addresses the point in the frontier, in fault-injection rules
    (``sweep.point:<index>``), and in the outcome table.
    """

    index: int
    factors: Tuple[Tuple[str, float], ...]  # sorted by site name

    @property
    def point_id(self) -> str:
        return f"p{self.index:05d}"

    def factor_map(self) -> Dict[str, float]:
        return dict(self.factors)

    def distance_to(self, other: "RatePoint") -> float:
        """Euclidean distance in log-factor space (factors compose
        multiplicatively, so log space makes 0.5x and 2x equidistant
        from 1x)."""
        mine = self.factor_map()
        theirs = other.factor_map()
        total = 0.0
        for site in set(mine) | set(theirs):
            delta = math.log(mine.get(site, 1.0)) - math.log(
                theirs.get(site, 1.0)
            )
            total += delta * delta
        return math.sqrt(total)


def _require_positive(site: str, factor: object) -> float:
    try:
        value = float(factor)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise SweepError(
            f"site {site!r}: factor {factor!r} is not a number"
        ) from exc
    if not math.isfinite(value) or value <= 0.0:
        raise SweepError(
            f"site {site!r}: factor must be finite and > 0, got {value!r}"
        )
    return value


def normalize_sweep_spec(spec: dict) -> dict:
    """Validate a sweep spec and return its canonical form.

    The canonical form always carries ``format``, ``base``, ``sites``
    (name -> sorted node-index list) and exactly one of ``grid`` /
    ``points``; factors are floats.  Raises :class:`SweepError` on
    anything malformed — a sweep must fail at plan time, not at point
    47 of 200.
    """
    if not isinstance(spec, dict):
        raise SweepError("sweep spec must be a JSON object")
    if spec.get("format", SWEEP_FORMAT) != SWEEP_FORMAT:
        raise SweepError(
            f"unsupported sweep format {spec.get('format')!r} "
            f"(this build reads format {SWEEP_FORMAT})"
        )
    base = spec.get("base")
    if not isinstance(base, dict):
        raise SweepError("sweep spec needs a 'base' job spec")
    solve_params(base)  # rejects unknown solve keys early
    raw_sites = spec.get("sites")
    if not isinstance(raw_sites, dict) or not raw_sites:
        raise SweepError("sweep spec needs a non-empty 'sites' mapping")
    sites: Dict[str, List[int]] = {}
    for name in sorted(raw_sites):
        nodes = raw_sites[name]
        if not isinstance(nodes, (list, tuple)) or not nodes:
            raise SweepError(
                f"site {name!r} must list at least one MD node index"
            )
        sites[str(name)] = sorted(int(n) for n in nodes)
    has_grid = "grid" in spec
    has_points = "points" in spec
    if has_grid == has_points:
        raise SweepError(
            "sweep spec needs exactly one of 'grid' or 'points'"
        )
    out: dict = {"format": SWEEP_FORMAT, "base": base, "sites": sites}
    if has_grid:
        raw_grid = spec["grid"]
        if not isinstance(raw_grid, dict) or not raw_grid:
            raise SweepError("'grid' must map site names to factor lists")
        grid: Dict[str, List[float]] = {}
        for name in sorted(raw_grid):
            if name not in sites:
                raise SweepError(f"grid names unknown site {name!r}")
            factors = raw_grid[name]
            if not isinstance(factors, (list, tuple)) or not factors:
                raise SweepError(
                    f"grid for site {name!r} must be a non-empty list"
                )
            grid[str(name)] = [
                _require_positive(name, f) for f in factors
            ]
        out["grid"] = grid
    else:
        raw_points = spec["points"]
        if not isinstance(raw_points, (list, tuple)) or not raw_points:
            raise SweepError("'points' must be a non-empty list")
        points: List[Dict[str, float]] = []
        for position, raw in enumerate(raw_points, start=1):
            if not isinstance(raw, dict):
                raise SweepError(f"point {position} must be an object")
            cleaned: Dict[str, float] = {}
            for name in sorted(raw):
                if name not in sites:
                    raise SweepError(
                        f"point {position} names unknown site {name!r}"
                    )
                cleaned[str(name)] = _require_positive(name, raw[name])
            points.append(cleaned)
        out["points"] = points
    return out


def sweep_digest(spec: dict) -> str:
    """The canonical digest of a (normalized) sweep spec — the identity
    the frontier directory is bound to."""
    return canonical_digest(normalize_sweep_spec(spec))


def sweep_points(spec: dict) -> List[RatePoint]:
    """The deterministic plan order of a sweep spec.

    A grid expands as the cartesian product over sites in sorted-name
    order (last site fastest, like :func:`itertools.product`); explicit
    points keep their listed order.  Sites a point does not mention get
    factor 1.0 so every point carries the full site tuple.
    """
    spec = normalize_sweep_spec(spec)
    site_names = sorted(spec["sites"])
    points: List[RatePoint] = []
    if "grid" in spec:
        grid = spec["grid"]
        axes = [grid.get(name, [1.0]) for name in site_names]
        for position, combo in enumerate(itertools.product(*axes), start=1):
            factors = tuple(zip(site_names, (float(f) for f in combo)))
            points.append(RatePoint(index=position, factors=factors))
    else:
        for position, raw in enumerate(spec["points"], start=1):
            factors = tuple(
                (name, float(raw.get(name, 1.0))) for name in site_names
            )
            points.append(RatePoint(index=position, factors=factors))
    return points


def apply_point(
    model: MDModel,
    sites: Mapping[str, Sequence[int]],
    factors: Mapping[str, float],
) -> MDModel:
    """The derived model a rate point describes: every entry of every
    node a site addresses is scaled by the site's factor (factors
    compose multiplicatively when sites share a node).

    Rewards, initial factors, the reward combiner, and the reachable
    restriction are inherited unchanged: with strictly positive factors
    the transition *structure* — which entries are non-zero — is
    exactly the base model's, so the base reachable set stays valid.
    """
    md = model.md
    per_node: Dict[int, float] = {}
    known = set(md.node_indices())
    for name in sorted(sites):
        factor = _require_positive(name, factors.get(name, 1.0))
        for index in sites[name]:
            if index not in known:
                raise SweepError(
                    f"site {name!r} addresses node {index}, which the "
                    "model does not have"
                )
            per_node[index] = per_node.get(index, 1.0) * factor
    replacements = {
        index: md.node(index).scaled(factor)
        for index, factor in sorted(per_node.items())
        if factor != 1.0
    }
    new_md = md.with_nodes(replacements) if replacements else md
    return MDModel(
        new_md,
        level_rewards=model.level_rewards,
        level_initial=model.level_initial,
        reward_combiner=model.reward_combiner,
        reachable=model.reachable,
    )


def point_spec(
    base_spec: dict, base_model: MDModel, sites: Mapping[str, Sequence[int]],
    point: RatePoint,
    derived: Optional[MDModel] = None,
) -> dict:
    """The derived per-point job spec (service format), whose canonical
    digest is the point's cache key.

    ``derived`` lets a caller that already built the point's model
    (:func:`apply_point`) skip rebuilding it here.
    """
    if derived is None:
        derived = apply_point(base_model, sites, point.factor_map())
    solve = base_spec.get("solve", {})
    return spec_from_model(
        derived,
        kind=solve.get("kind", "ordinary"),
        method=solve.get("method", "direct"),
        iterate=bool(solve.get("iterate", False)),
        key=solve.get("key", "formal"),
        certify=solve.get("certify"),
    )


def auto_sites(md: MatrixDiagram) -> Dict[str, List[int]]:
    """A deterministic single-site pick for demo models: the
    lowest-indexed node of the deepest level that has at least two
    nodes.

    Scaling *every* node of a level — or any single node every path
    passes through — multiplies the whole generator by the factor and
    leaves the stationary distribution unchanged; a level with >= 2
    nodes guarantees a non-degenerate sweep.  Raises
    :class:`SweepError` when every level has a single node (use an
    explicit ``sites`` mapping instead).
    """
    for level in range(md.num_levels, 0, -1):
        nodes = md.nodes_at(level)
        if len(nodes) >= 2:
            return {"rate": [min(nodes)]}
    raise SweepError(
        "every level of this MD has a single node; scaling it would "
        "scale the whole generator uniformly (stationary distribution "
        "unchanged) — pick explicit sites"
    )


def nearest_neighbor(
    point: RatePoint, candidates: Sequence[RatePoint]
) -> Optional[RatePoint]:
    """The candidate closest to ``point`` in log-factor space, ties
    broken by lowest plan index (deterministic across resume)."""
    best: Optional[RatePoint] = None
    best_key: Optional[Tuple[float, int]] = None
    for candidate in candidates:
        key = (point.distance_to(candidate), candidate.index)
        if best_key is None or key < best_key:
            best, best_key = candidate, key
    return best


def parse_site_arg(raw: str) -> Tuple[str, List[int]]:
    """``"mu=3,7"`` -> ``("mu", [3, 7])`` (CLI sugar)."""
    name, _, nodes = raw.partition("=")
    if not name or not nodes:
        raise SweepError(
            f"malformed --site {raw!r} (expected name=node[,node...])"
        )
    try:
        indices = sorted(int(n) for n in nodes.split(","))
    except ValueError as exc:
        raise SweepError(
            f"malformed --site {raw!r}: node indices must be integers"
        ) from exc
    return name, indices


def parse_grid_arg(raw: str) -> Tuple[str, List[float]]:
    """``"mu=0.5:2.0:4"`` -> ``("mu", [0.5, 1.0, 1.5, 2.0])`` — an
    inclusive linear range — or ``"mu=0.5,1,2"`` as an explicit list."""
    name, _, body = raw.partition("=")
    if not name or not body:
        raise SweepError(
            f"malformed --grid {raw!r} "
            "(expected name=start:stop:count or name=f1,f2,...)"
        )
    if ":" in body:
        parts = body.split(":")
        if len(parts) != 3:
            raise SweepError(
                f"malformed --grid {raw!r} (expected name=start:stop:count)"
            )
        try:
            start, stop = float(parts[0]), float(parts[1])
            count = int(parts[2])
        except ValueError as exc:
            raise SweepError(f"malformed --grid {raw!r}: {exc}") from exc
        if count < 1:
            raise SweepError(f"--grid {raw!r}: count must be >= 1")
        if count == 1:
            factors = [start]
        else:
            step = (stop - start) / (count - 1)
            factors = [start + step * i for i in range(count)]
    else:
        try:
            factors = [float(f) for f in body.split(",")]
        except ValueError as exc:
            raise SweepError(f"malformed --grid {raw!r}: {exc}") from exc
    return name, [_require_positive(name, f) for f in factors]
