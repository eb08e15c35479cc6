"""RL001: iterating an unordered collection in determinism-critical code.

The crash-equivalence guarantee (kill a run at any fault site, resume,
get the bitwise-identical table) holds only if every loop that feeds the
refinement worklist, block-id assignment, or reachability frontier
enumerates its elements in a deterministic order.  Iterating a ``set``
(or ``.keys()`` of a dict built in data-dependent order) makes the order
depend on hash seeding and insertion history — exactly the
nondeterminism the checkpoint digests cannot detect until a resumed run
diverges.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple, Type, Union

from reprolint.core import FileContext, Finding, Rule, is_set_expression

#: Only these subtrees carry the determinism invariant; elsewhere set
#: iteration is ordinary Python.  The SAN compiler fixes the level order
#: and event-table order that every later stage inherits, including a run
#: resumed in a fresh process.
SCOPED_PREFIXES = (
    "src/repro/partitions",
    "src/repro/lumping",
    "src/repro/san",
    "src/repro/statespace",
    "src/repro/robust",
)


def _is_unordered_iterable(
    node: ast.AST, ctx: FileContext, scope: ast.AST
) -> bool:
    """Whether iterating ``node`` directly has hash-dependent order."""
    if is_set_expression(node):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return True
        # list(s)/tuple(s) snapshot the elements but keep the unordered
        # traversal order, so look through them.
        if (
            isinstance(func, ast.Name)
            and func.id in ("list", "tuple")
            and len(node.args) == 1
        ):
            return _is_unordered_iterable(node.args[0], ctx, scope)
        return False
    if isinstance(node, ast.Name):
        return node.id in ctx.set_valued_names(scope)
    return False


class NondeterministicIteration(Rule):
    code = "RL001"
    name = "nondeterministic-iteration"
    rationale = (
        "set/dict-key iteration order is hash- and history-dependent; in "
        "the refinement/reachability modules it breaks bitwise "
        "kill/resume equivalence. Wrap the iterable in sorted()."
    )
    node_types: Tuple[Type[ast.AST], ...] = (
        ast.For,
        ast.comprehension,
    )

    def applies_to(self, path: str) -> bool:
        return any(path.startswith(prefix) for prefix in SCOPED_PREFIXES)

    def check(
        self, node: Union[ast.For, ast.comprehension], ctx: FileContext
    ) -> Iterator[Finding]:
        iterable = node.iter
        # ``ast.comprehension`` carries no location of its own; anchor the
        # finding at the iterated expression instead.
        anchor = node if isinstance(node, ast.For) else iterable
        scope = ctx.enclosing_scope(anchor)
        # sorted(...) imposes a deterministic order on any iterable.
        if (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id == "sorted"
        ):
            return
        if _is_unordered_iterable(iterable, ctx, scope):
            what = (
                "dict .keys() view"
                if isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Attribute)
                else "set"
            )
            yield self.finding(
                ctx,
                anchor,
                f"iteration over a {what} has nondeterministic order in a "
                "determinism-critical module; wrap it in sorted() (or "
                "iterate a deterministically-built list)",
            )
