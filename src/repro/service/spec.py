"""Job specifications and their canonical content digests.

A job is "solve this MD model with these parameters".  The spec is a
JSON-compatible dict capturing everything that determines the answer —
the serialized matrix diagram, the per-level reward/initial vectors, the
reachable restriction, and the solve parameters of
:func:`repro.analysis.lump_and_solve` — and nothing that does not
(submission time, submitter, queue position).

Two submissions are *the same job* exactly when their canonical digests
match: sha256 over the canonical JSON encoding (sorted keys, no
whitespace), the same fingerprinting the checkpoint manifests use.  The
digest is the key of the content-addressed result cache and the unit of
duplicate coalescing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ReproError
from repro.lumping.md_model import MDModel
from repro.matrixdiagram.io import md_from_dict, md_to_dict

SPEC_FORMAT = 1

# ---------------------------------------------------------------------------
# The job-lifecycle protocol.
#
# This table IS the service's protocol specification: the store enforces
# it at runtime on every record append, and reprolint's RL011 rule
# extracts it statically to verify every mutation site in store.py /
# worker.py / dispatcher.py performs an allowed transition.  It lives
# here — next to the spec format, away from the store's mechanics — so
# that changing the protocol is an explicit spec change, not a store
# implementation detail.
# ---------------------------------------------------------------------------

QUEUED = "queued"
LEASED = "leased"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
DEAD = "dead"
STATES: Tuple[str, ...] = (QUEUED, LEASED, RUNNING, DONE, FAILED, DEAD)
TERMINAL_STATES: FrozenSet[str] = frozenset({DONE, FAILED, DEAD})

#: Allowed transitions (from-state -> to-states).  ``None`` is the
#: pre-submission pseudo-state.
TRANSITIONS: Dict[Optional[str], FrozenSet[str]] = {
    None: frozenset({QUEUED}),
    # ``queued -> done`` is the submit-time cache hit; ``queued ->
    # dead`` is recover() burying a job that exhausted its attempts.
    QUEUED: frozenset({LEASED, DEAD, DONE, FAILED}),
    # An expired lease at max attempts dead-letters directly from
    # LEASED/RUNNING: the worker holding it is gone and will never
    # write the requeue itself.  ``leased -> done`` is a worker's
    # cache hit before start_running.
    LEASED: frozenset({RUNNING, QUEUED, DEAD, DONE, FAILED}),
    RUNNING: frozenset({RUNNING, QUEUED, DEAD, DONE, FAILED}),
}

#: The values each solve parameter may take, its default first.
SOLVE_CHOICES: Dict[str, Tuple[Any, ...]] = {
    "kind": ("ordinary", "exact"),
    "method": ("direct", "gauss-seidel", "jacobi", "power"),
    "iterate": (False, True),
    "key": ("formal", "matrix"),
    # Results are certified by default (see repro.robust.certify); specs
    # written before certification existed carry no "certify" key and
    # inherit True here, so old digests stay valid *and* get checked.
    "certify": (True, False),
}
_SOLVE_DEFAULTS = {name: values[0] for name, values in SOLVE_CHOICES.items()}


class SpecError(ReproError):
    """A job spec that cannot be interpreted."""


def spec_from_model(
    model: MDModel,
    kind: str = "ordinary",
    method: str = "direct",
    iterate: bool = False,
    key: str = "formal",
    certify: Optional[bool] = None,
) -> dict:
    """Serialize ``model`` + solve parameters into a JSON-compatible
    job spec.

    ``certify`` is only written into the spec when given explicitly:
    the default (certification on) lives in :func:`solve_params`, so
    specs — and therefore digests and cache keys — from before the
    certificate layer existed remain unchanged.
    """
    solve: Dict[str, Any] = {
        "kind": kind,
        "method": method,
        "iterate": bool(iterate),
        "key": key,
    }
    if certify is not None:
        solve["certify"] = bool(certify)
    return {
        "format": SPEC_FORMAT,
        "md": md_to_dict(model.md),
        "level_rewards": [
            [float(x) for x in vector] for vector in model.level_rewards
        ],
        "level_initial": [
            [float(x) for x in vector] for vector in model.level_initial
        ],
        "reward_combiner": model.reward_combiner,
        "reachable": (
            None if model.reachable is None else model.reachable.tolist()
        ),
        "solve": solve,
    }


def model_from_spec(spec: dict) -> MDModel:
    """Rebuild the :class:`MDModel` a spec describes; raises
    :class:`SpecError` for a spec the MD or model constructors reject."""
    try:
        if spec.get("format") != SPEC_FORMAT:
            raise SpecError(
                f"unsupported spec format {spec.get('format')!r} "
                f"(this build reads format {SPEC_FORMAT})"
            )
        return MDModel(
            md_from_dict(spec["md"]),
            level_rewards=spec.get("level_rewards"),
            level_initial=spec.get("level_initial"),
            reward_combiner=spec.get("reward_combiner", "sum"),
            reachable=spec.get("reachable"),
        )
    except SpecError:
        raise
    except (KeyError, TypeError, ValueError, ReproError) as exc:
        raise SpecError(f"malformed job spec: {exc}") from exc


def solve_params(spec: dict) -> dict:
    """The ``lump_and_solve`` keyword arguments a spec requests; raises
    :class:`SpecError` for an unknown parameter or a value outside
    :data:`SOLVE_CHOICES`."""
    params = dict(_SOLVE_DEFAULTS)
    params.update(spec.get("solve", {}))
    unknown = set(params) - set(_SOLVE_DEFAULTS)
    if unknown:
        raise SpecError(
            f"unknown solve parameter(s) {sorted(unknown)!r}"
        )
    for name, value in params.items():
        choices = SOLVE_CHOICES[name]
        # Types too: 1 == True, but "iterate": 1 is not a bool.
        if not any(type(value) is type(c) and value == c for c in choices):
            raise SpecError(
                f"solve parameter {name!r} is {value!r}; "
                f"expected one of {list(choices)!r}"
            )
    return params


def canonical_bytes(obj: Any) -> bytes:
    """The canonical JSON encoding digests are computed over: sorted
    keys, minimal separators, pure ASCII."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def canonical_digest(spec: dict) -> str:
    """sha256 hex digest of the canonical encoding of ``spec``.

    This is the job's content address: equal digests mean equal models
    and equal solve parameters, so equal answers.
    """
    return hashlib.sha256(canonical_bytes(spec)).hexdigest()


def self_digested(body: dict) -> dict:
    """``body`` plus a ``digest`` field over its canonical encoding.

    Every durable record the service writes carries its own digest so a
    reader can tell a valid record from a torn, truncated, or corrupted
    one without trusting the filesystem.
    """
    if "digest" in body:
        raise SpecError("body already carries a digest field")
    stamped = dict(body)
    stamped["digest"] = hashlib.sha256(canonical_bytes(body)).hexdigest()
    return stamped


def verify_digest(stamped: dict) -> dict:
    """Check a :func:`self_digested` dict; returns the body without the
    digest field, or raises :class:`SpecError`."""
    if not isinstance(stamped, dict) or "digest" not in stamped:
        raise SpecError("record carries no digest")
    body = {k: v for k, v in stamped.items() if k != "digest"}
    expected = hashlib.sha256(canonical_bytes(body)).hexdigest()
    if stamped["digest"] != expected:
        raise SpecError(
            f"record digest mismatch: stored {stamped['digest'][:12]}..., "
            f"recomputed {expected[:12]}..."
        )
    return body


def demo_spec(name: str) -> dict:
    """Build one of the built-in demo job specs (used by the CLI and the
    CI smoke jobs, where shipping a model file around is noise).

    ``redundant:U,S`` — the redundant-units availability model with
    ``U`` units and ``S`` spares; ``tandem:J,C,S,Q`` — the paper's
    tandem system at jobs/cube_dim/msmq_servers/msmq_queues.
    """
    kind, _, argstr = name.partition(":")
    args: List[int] = []
    if argstr:
        try:
            args = [int(x) for x in argstr.split(",")]
        except ValueError as exc:
            raise SpecError(f"bad demo arguments {argstr!r}: {exc}") from exc
    if kind == "redundant":
        from repro.models import redundant_units_join
        from repro.san import compile_join
        from repro.statespace import reachable_bfs

        units, spares = (args + [3, 1])[:2]
        compiled = compile_join(
            redundant_units_join(num_units=units, spares=spares)
        )
        reach = reachable_bfs(compiled.event_model)
        model = MDModel(compiled.event_model.to_md(), reachable=reach.codes)
        return spec_from_model(model)
    if kind == "tandem":
        from repro.models import TandemParams, build_tandem, tandem_md_model
        from repro.statespace import reachable_bfs

        jobs, cube, servers, queues = (args + [1, 2, 2, 2])[:4]
        params = TandemParams(
            jobs=jobs,
            cube_dim=cube,
            msmq_servers=servers,
            msmq_queues=queues,
        )
        compiled = build_tandem(params)
        reach = reachable_bfs(compiled.event_model)
        model = tandem_md_model(compiled.event_model, params, reachable=reach)
        return spec_from_model(model)
    raise SpecError(
        f"unknown demo model {kind!r} (expected redundant:U,S or "
        "tandem:J,C,S,Q)"
    )


def spec_from_args(args: argparse.Namespace) -> dict:
    """The job spec a command line names with ``--demo`` or ``--spec``,
    with its solve overrides (``--kind``, ``--method``, ``--key``,
    ``--iterate``, ``--no-certify``) applied; a command without some of
    those flags leaves them as the spec has them."""
    if args.demo:
        spec = demo_spec(args.demo)
    else:
        with open(args.spec, "r", encoding="utf-8") as handle:
            spec = json.load(handle)
        if "md" not in spec:
            raise SpecError(
                f"{args.spec}: not a job spec (no 'md' field); build one "
                "with repro.service.spec_from_model"
            )
    solve = spec.setdefault("solve", {})
    for name in ("kind", "method", "key"):
        if getattr(args, name, None):
            solve[name] = getattr(args, name)
    if getattr(args, "iterate", False):
        solve["iterate"] = True
    if getattr(args, "no_certify", False):
        solve["certify"] = False
    return spec


def spec_summary(spec: dict) -> str:
    """A one-line human description of a spec (for status listings)."""
    md = spec.get("md", {})
    sizes = md.get("level_sizes") or [
        len(level) for level in md.get("levels", [])
    ]
    solve = spec.get("solve", {})
    reachable: Optional[list] = spec.get("reachable")
    n = len(reachable) if reachable is not None else "potential"
    return (
        f"levels={sizes} states={n} "
        f"kind={solve.get('kind')} method={solve.get('method')}"
    )
