"""RL010: lock/lease discipline in the multi-process layer.

The checkpoint directory lock and the job store's claim leases are the
only things standing between concurrent processes and corrupted
manifests / double-solved jobs.  This rule is a lightweight
race/deadlock detector over them, scoped to ``checkpoint.py`` and
``service/``:

* **release-on-all-paths** — every advisory-lock acquisition
  (``fcntl.flock`` with ``LOCK_EX``/``LOCK_SH``, ``.acquire()`` on a
  lock-named object, a ``*lock*``-named acquire helper) must be
  discharged by a context manager, a ``try/finally`` release, a
  straight-line release with nothing that can raise in between, or an
  ownership transfer (returning / storing the locked handle, which
  hands the obligation to the caller — the caller is then checked at
  its own site).
* **no unprotected blocking acquire** — a *blocking* ``flock(fd,
  LOCK_EX)`` (no ``LOCK_NB``) may raise (EINTR, ENOLCK) while the
  descriptor is already open; unless a handler or finalizer closes the
  fd, it leaks — and a leaked lockfile descriptor is exactly the
  wedged-lock failure mode the stale-lock reclaim exists to clean up.
* **no blocking call while locked** — inside a ``with <something
  lock-named>():`` region, no call may reach (through the project call
  graph, exact edges only) a blocking primitive: ``select.select``,
  ``time.sleep``, ``os.read``, pipe drains, ``wait``/``waitpid``, or a
  solve.  A solve under a store lock serializes every worker.
* **consistent acquisition order** — if lock A is ever taken while B is
  held *and* B while A is held, the codebase has a deadlock waiting for
  the right interleaving; both sites are flagged.
* **no discarded lease** — a ``claim(...)`` whose returned view is
  dropped on the floor leaks the lease until expiry (nobody can renew
  or complete it).

Findings are first-iteration-true facts about the AST; the known
approximations (dynamic dispatch, ``getattr``) are documented in
docs/static-analysis.md.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from reprolint import flow
from reprolint.core import FileContext, Finding, ProjectRule

#: Dotted / attribute call names that block the calling process.
BLOCKING_DOTTED = frozenset(
    {"select.select", "time.sleep", "os.read", "os.waitpid"}
)
BLOCKING_NAMES = frozenset(
    {
        "sleep",
        "lump_and_solve",
        "solve_spec",
        "solve",
        "drain",
        "run_once",
        "communicate",
        "wait",
        "_read_exact",
    }
)

#: Call-graph depth for the blocking-while-locked search (exact edges
#: only — the name-based wildcard would drown this check in noise).
BLOCKING_DEPTH = 3


def _lockish(text: Optional[str]) -> bool:
    return text is not None and "lock" in text.lower()


def _flock_mode(call: ast.Call) -> Optional[str]:
    """``"blocking"``/``"nonblocking"`` for an EX/SH flock call, else
    ``None``."""
    name = flow.call_name(call)
    if name is None or flow.last_name_segment(name) != "flock":
        return None
    if len(call.args) < 2:
        return None
    # Collect LOCK_* flag names from the mode argument.
    flags: Set[str] = set()
    for node in ast.walk(call.args[1]):
        if isinstance(node, ast.Attribute):
            flags.add(node.attr)
        elif isinstance(node, ast.Name):
            flags.add(node.id)
    if "LOCK_UN" in flags:
        return None
    if not ({"LOCK_EX", "LOCK_SH"} & flags):
        return None
    return "nonblocking" if "LOCK_NB" in flags else "blocking"


def _expr_text(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except (ValueError, RecursionError):  # pathological synthetic trees
        return "<expr>"


def _handle_of_flock(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Name):
        return call.args[0].id
    if call.args:
        return _expr_text(call.args[0])
    return None


def _releases_handle(node: ast.AST, handle: str) -> bool:
    """flock(handle, ...LOCK_UN...), os.close(handle), handle.close(),
    or ``<obj>.release()`` on the handle."""
    if not isinstance(node, ast.Call):
        return False
    name = flow.call_name(node)
    seg = flow.last_name_segment(name)
    if seg == "flock" and len(node.args) >= 2:
        if _handle_of_flock(node) == handle:
            for sub in ast.walk(node.args[1]):
                if isinstance(sub, (ast.Attribute, ast.Name)):
                    flag = getattr(sub, "attr", None) or getattr(
                        sub, "id", None
                    )
                    if flag == "LOCK_UN":
                        return True
        return False
    if seg == "close":
        if node.args and _expr_text(node.args[0]) == handle:
            return True
        if isinstance(node.func, ast.Attribute):
            return _expr_text(node.func.value) == handle
        return False
    if seg == "release" and isinstance(node.func, ast.Attribute):
        return _expr_text(node.func.value) == handle
    return False


def _stored_on_object(func_node: ast.AST, handle: str) -> bool:
    """``self.x = handle`` anywhere in the function: ownership moved to
    the object (released by whoever owns the object's lifecycle)."""
    for node in ast.walk(func_node):
        if isinstance(node, ast.Assign):
            value_names = {
                n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)
            }
            if handle in value_names and isinstance(node.value, ast.Name):
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        return True
    return False


class LockDiscipline(ProjectRule):
    code = "RL010"
    name = "lock-lease-discipline"
    rationale = (
        "advisory locks and leases in checkpoint.py/service/ "
        "must be released on all paths, never wrap a blocking call, be "
        "acquired in one consistent order, and never have their claim "
        "view discarded — each violation is a deadlock, a wedged lock, "
        "or a leaked lease under the right crash interleaving."
    )

    def applies_to(self, path: str) -> bool:
        if not super().applies_to(path):
            return False
        name = Path(path).name
        return (
            name == "checkpoint.py"
            or "/service/" in path
            or path.startswith("service/")
        )

    # ------------------------------------------------------------------

    def check_project(self, project) -> Iterator[Finding]:
        order_edges: Dict[Tuple[str, str], Tuple[str, int, str]] = {}
        for info in sorted(
            project.modules.values(), key=lambda m: m.path
        ):
            if not self.applies_to(info.path):
                continue
            ctx = info.ctx
            yield from self._check_acquisitions(ctx, info, project)
            yield from self._check_locked_regions(ctx, info, project)
            yield from self._check_discarded_claims(ctx)
            self._collect_order_edges(ctx, order_edges)
        yield from self._order_findings(order_edges)

    # -- release-on-all-paths ------------------------------------------

    def _check_acquisitions(
        self, ctx: FileContext, info, project
    ) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            mode = _flock_mode(node)
            if mode is not None:
                yield from self._check_flock(ctx, node, mode)
                continue
            name = flow.call_name(node)
            seg = flow.last_name_segment(name)
            if (
                seg == "acquire"
                and isinstance(node.func, ast.Attribute)
                and _lockish(_expr_text(node.func.value))
            ):
                yield from self._check_acquire_method(ctx, node)

    def _check_flock(
        self, ctx: FileContext, call: ast.Call, mode: str
    ) -> Iterator[Finding]:
        handle = _handle_of_flock(call)
        if handle is None:
            return
        release = lambda n: _releases_handle(n, handle)  # noqa: E731
        if mode == "blocking":
            # The acquire itself can raise (EINTR, ENOLCK) with the
            # descriptor already open: require a handler or finalizer
            # that closes it, or the fd leaks and wedges future lockers.
            if not self._exception_path_closes(ctx, call, handle):
                yield self.finding(
                    ctx,
                    call,
                    f"blocking flock on {handle!r} can raise with the "
                    "descriptor open; close it in an except/finally "
                    "before propagating or the lockfile fd leaks "
                    "(wedged-lock failure mode)",
                )
        if flow.is_with_item(ctx, call):
            return
        if flow.protected_by_finally(ctx, call, release):
            return
        func_node = flow.enclosing_function_node(ctx, call)
        if func_node is not None and (
            handle in flow.returned_names(func_node)
            or _stored_on_object(func_node, handle)
        ):
            return  # ownership transfer: the caller owns the release
        stmt = flow.statement_of(ctx, call)
        if stmt is not None:
            block, index = flow.containing_block(ctx, stmt)
            if block is not None and flow.linearly_released(
                block, index, release
            ):
                return
        yield self.finding(
            ctx,
            call,
            f"flock acquisition of {handle!r} is not released on all "
            "paths; use a context manager or try/finally (or return the "
            "handle to transfer ownership)",
        )

    def _exception_path_closes(
        self, ctx: FileContext, call: ast.Call, handle: str
    ) -> bool:
        """A handler or finalizer of an enclosing try closes ``handle``
        (flock LOCK_UN also counts — the fd close usually follows)."""
        release = lambda n: _releases_handle(n, handle)  # noqa: E731
        current: ast.AST = call
        for parent in flow.ancestors(ctx, call):
            if isinstance(parent, ast.Try):
                in_body = any(
                    any(n is current or n is call for n in ast.walk(s))
                    for s in parent.body
                )
                if in_body:
                    for stmt in parent.finalbody:
                        if any(release(n) for n in ast.walk(stmt)):
                            return True
                    for handler in parent.handlers:
                        for stmt in handler.body:
                            if any(release(n) for n in ast.walk(stmt)):
                                return True
            current = parent
        return False

    def _check_acquire_method(
        self, ctx: FileContext, call: ast.Call
    ) -> Iterator[Finding]:
        assert isinstance(call.func, ast.Attribute)
        handle = _expr_text(call.func.value)
        release = lambda n: _releases_handle(n, handle)  # noqa: E731
        if flow.is_with_item(ctx, call):
            return
        if flow.protected_by_finally(ctx, call, release):
            return
        stmt = flow.statement_of(ctx, call)
        if stmt is not None:
            block, index = flow.containing_block(ctx, stmt)
            if block is not None and flow.linearly_released(
                block, index, release
            ):
                return
        yield self.finding(
            ctx,
            call,
            f"{handle}.acquire() is not matched by a release on all "
            "paths; use `with` or try/finally",
        )

    # -- blocking-while-locked -----------------------------------------

    def _check_locked_regions(
        self, ctx: FileContext, info, project
    ) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.With):
                continue
            held = None
            for item in node.items:
                expr = item.context_expr
                if isinstance(expr, ast.Call):
                    name = flow.call_name(expr)
                    if _lockish(name):
                        held = name
                        break
            if held is None:
                continue
            yield from self._blocking_in_region(
                ctx, info, project, node.body, held
            )

    def _blocking_in_region(
        self, ctx: FileContext, info, project, body, held: str
    ) -> Iterator[Finding]:
        direct: List[ast.Call] = []
        roots: Set[str] = set()
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    direct.append(node)
        for call in direct:
            blocked = self._blocking_name(call)
            if blocked is not None:
                yield self.finding(
                    ctx,
                    call,
                    f"blocking call {blocked}() inside the {held}() "
                    "region; a solve/wait/pipe-read under an advisory "
                    "lock serializes every process sharing it",
                )
                continue
            for target in self._exact_targets(call, info, project):
                roots.add(target.qname)
        reached = project.reachable_functions(roots, max_depth=BLOCKING_DEPTH)
        for qname in sorted(reached):
            fn = project.functions.get(qname)
            if fn is None:
                continue
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Call):
                    blocked = self._blocking_name(node)
                    if blocked is not None:
                        yield self.finding(
                            ctx,
                            fn.node,
                            f"{held}() region reaches blocking call "
                            f"{blocked}() via {qname} "
                            f"({fn.path}:{node.lineno}); move the "
                            "blocking work outside the lock",
                        )
                        break
            else:
                continue
            break  # one finding per region is enough signal

    def _blocking_name(self, call: ast.Call) -> Optional[str]:
        name = flow.call_name(call)
        if name is None:
            return None
        if name in BLOCKING_DOTTED:
            return name
        seg = flow.last_name_segment(name)
        if seg in BLOCKING_NAMES:
            return name
        return None

    def _exact_targets(self, call: ast.Call, info, project) -> List:
        """Resolution without the name-based wildcard: bare names,
        self-methods of the enclosing class, imported module functions."""
        func = call.func
        if isinstance(func, ast.Name):
            return project._resolve_bare(func.id, info)
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                class_name = project._enclosing_class_name(info, call)
                if class_name is not None:
                    method = info.classes.get(class_name, {}).get(func.attr)
                    return [method] if method is not None else []
                return []
            targets = project._resolve_attribute(func, call, info)
            # keep only exact (import-resolved) hits, not wildcards
            return [] if len(targets) > 1 else targets
        return []

    # -- acquisition order ---------------------------------------------

    def _collect_order_edges(
        self,
        ctx: FileContext,
        edges: Dict[Tuple[str, str], Tuple[str, int, str]],
    ) -> None:
        """Record (outer lock, inner lock) pairs from nested
        lock-with-statements; identity is the textual callable name, so
        the same helper acquired in two modules unifies."""
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.With):
                continue
            outer = self._lock_of_with(node)
            if outer is None:
                continue
            for inner_node in ast.walk(node):
                if inner_node is node or not isinstance(
                    inner_node, ast.With
                ):
                    continue
                inner = self._lock_of_with(inner_node)
                if inner is None or inner == outer:
                    continue
                key = (outer, inner)
                if key not in edges:
                    edges[key] = (ctx.path, inner_node.lineno, inner)

    @staticmethod
    def _lock_of_with(node: ast.With) -> Optional[str]:
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Call):
                name = flow.call_name(expr)
                if _lockish(name):
                    return flow.last_name_segment(name)
        return None

    def _order_findings(
        self, edges: Dict[Tuple[str, str], Tuple[str, int, str]]
    ) -> Iterator[Finding]:
        for (outer, inner), (path, line, _name) in sorted(edges.items()):
            if (inner, outer) in edges and outer < inner:
                other_path, other_line, _ = edges[(inner, outer)]
                for p, ln, first, second in (
                    (path, line, outer, inner),
                    (other_path, other_line, inner, outer),
                ):
                    yield Finding(
                        rule=self.code,
                        path=p,
                        line=ln,
                        col=1,
                        message=(
                            f"inconsistent lock order: {first} -> "
                            f"{second} here but {second} -> {first} "
                            "elsewhere in the codebase; pick one order "
                            "or the two processes deadlock"
                        ),
                    )

    # -- discarded leases ----------------------------------------------

    def _check_discarded_claims(self, ctx: FileContext) -> Iterator[Finding]:
        if "/service/" not in ctx.path and not ctx.path.startswith(
            "service/"
        ):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Expr):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            if flow.last_name_segment(flow.call_name(value)) == "claim":
                yield self.finding(
                    ctx,
                    value,
                    "claim() result discarded: the lease is held but "
                    "nothing can renew, complete, or release it until "
                    "it expires; bind the returned view",
                )
