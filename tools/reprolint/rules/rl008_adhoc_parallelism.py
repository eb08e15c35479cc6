"""RL008: ad-hoc parallelism outside the process layer.

The pipeline is serial; the supervised-execution layer
(:mod:`repro.robust.supervisor`) is the one place allowed to import
process machinery: it pairs every child with a heartbeat, a crash-loop
breaker, and restart-from-checkpoint.  A stray
``multiprocessing``/``concurrent.futures`` usage elsewhere recreates the
failure modes that layer exists to prevent: orphan workers no watchdog
sees, lost tasks on crash, and results folded in completion order.

Two constructs are flagged:

* **parallelism imports** — ``import multiprocessing`` /
  ``import concurrent.futures`` (or ``from`` either) anywhere outside
  the process-layer allowlist (:data:`_PROCESS_LAYER_PATHS`);
* **completion-order iteration** — ``.imap_unordered(...)`` and
  ``as_completed(...)`` calls, *everywhere* (including the allowlisted
  modules): iterating results in completion order is nondeterminism by
  construction, and every parallel merge in this repo must consume
  results in task order instead.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple, Type, Union

from reprolint.core import FileContext, Finding, Rule, dotted_name

#: Modules allowed to import process/parallelism machinery: the
#: supervised-execution layer.
_PROCESS_LAYER_PATHS = frozenset(
    {
        "src/repro/robust/supervisor.py",
    }
)

#: Top-level modules whose import means "I am about to parallelize".
_PARALLEL_MODULES = frozenset({"multiprocessing", "concurrent"})

_ImportNode = Union[ast.Import, ast.ImportFrom]


def _imported_roots(node: _ImportNode) -> Iterator[str]:
    if isinstance(node, ast.ImportFrom):
        if node.module is not None and node.level == 0:
            yield node.module.split(".")[0]
        return
    for alias in node.names:
        yield alias.name.split(".")[0]


class AdHocParallelism(Rule):
    code = "RL008"
    name = "adhoc-parallelism"
    rationale = (
        "parallel execution outside repro.robust.supervisor has no "
        "heartbeat, no crash recovery, and no deterministic task-order "
        "merge; imap_unordered()/as_completed() iterate in completion "
        "order, which makes results scheduling-dependent."
    )
    node_types: Tuple[Type[ast.AST], ...] = (
        ast.Import,
        ast.ImportFrom,
        ast.Call,
    )

    def applies_to(self, path: str) -> bool:
        return super().applies_to(path) and path.startswith(
            ("src/", "tools/")
        )

    def check(self, node: ast.AST, ctx: FileContext) -> Iterator[Finding]:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if ctx.path in _PROCESS_LAYER_PATHS:
                return
            for root in _imported_roots(node):
                if root in _PARALLEL_MODULES:
                    yield self.finding(
                        ctx,
                        node,
                        f"import of {root!r} outside the process layer "
                        "(repro.robust.supervisor) — ad-hoc workers have "
                        "no heartbeat, retry, or deterministic merge; "
                        "keep the work serial or run it under "
                        "run_supervised() instead",
                    )
                    return
            return
        name = dotted_name(node.func)
        attr = (
            node.func.attr
            if isinstance(node.func, ast.Attribute)
            else None
        )
        if attr == "imap_unordered" or (
            name is not None
            and (
                name == "as_completed"
                or name.endswith(".as_completed")
            )
        ):
            label = attr or "as_completed"
            yield self.finding(
                ctx,
                node,
                f"{label}() yields results in completion order — "
                "scheduling-dependent and unreproducible; consume "
                "results in sorted task-id order instead",
            )
