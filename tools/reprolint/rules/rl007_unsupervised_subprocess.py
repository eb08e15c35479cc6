"""RL007: process spawning outside the process layer; unbounded waits.

The supervised-execution layer (:mod:`repro.robust.supervisor`) is the
only place allowed to create child processes: its watched child pairs
every child with a heartbeat-driven watchdog and a reap, and both of
its callers add bounded, backed-off restarts (restart-from-checkpoint
and ``RLIMIT_AS`` in ``run_supervised``, lease recovery in the service
dispatcher, which runs its workers through the same watched child).  A
``subprocess.Popen``/``os.fork`` call anywhere else creates an orphan
the watchdog cannot see — it can hang forever, leak memory past the
budget, or survive the parent, and none of it lands in the RunReport.

Two constructs are flagged:

* **spawn calls** — ``os.fork``/``os.forkpty``/``os.spawn*``/
  ``os.system``/``os.popen``, any ``subprocess.*`` call, and
  ``multiprocessing.Process`` — anywhere outside the process-layer
  module;
* **unbounded waits** — ``.wait()`` / ``.communicate()`` attribute calls
  without a ``timeout=`` keyword, *everywhere* (including the
  supervisor): a blocking wait with no timeout is exactly the hang the
  watchdog exists to prevent, and it can deadlock the watchdog itself.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple, Type

from reprolint.core import FileContext, Finding, Rule, dotted_name

#: The module allowed to create child processes: the watchdog
#: supervisor, whose watched child the service dispatcher also uses.
_PROCESS_LAYER_PATHS = frozenset({"src/repro/robust/supervisor.py"})

#: Fully-dotted call names that spawn a process.
_SPAWN_CALLS = frozenset(
    {
        "os.fork",
        "os.forkpty",
        "os.system",
        "os.popen",
        "os.posix_spawn",
        "os.posix_spawnp",
        "os.spawnl",
        "os.spawnle",
        "os.spawnlp",
        "os.spawnlpe",
        "os.spawnv",
        "os.spawnve",
        "os.spawnvp",
        "os.spawnvpe",
        "multiprocessing.Process",
        "multiprocessing.Pool",
    }
)

#: Attribute calls that block until a child exits.
_BLOCKING_WAITS = frozenset({"wait", "communicate"})


def _has_timeout_keyword(node: ast.Call) -> bool:
    return any(kw.arg == "timeout" for kw in node.keywords)


class UnsupervisedSubprocess(Rule):
    code = "RL007"
    name = "unsupervised-subprocess"
    rationale = (
        "a child process created outside repro.robust.supervisor runs "
        "without resource limits, heartbeat, or restart-from-checkpoint; "
        "a wait()/communicate() without timeout= is an unbounded hang "
        "the watchdog cannot break."
    )
    node_types: Tuple[Type[ast.AST], ...] = (ast.Call,)

    def applies_to(self, path: str) -> bool:
        return super().applies_to(path) and path.startswith(
            ("src/", "tools/")
        )

    def check(self, node: ast.Call, ctx: FileContext) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name is not None and ctx.path not in _PROCESS_LAYER_PATHS:
            if name in _SPAWN_CALLS or name.startswith("subprocess."):
                yield self.finding(
                    ctx,
                    node,
                    f"{name}() spawns a process outside the process "
                    "layer (repro.robust.supervisor) — no rlimits, "
                    "heartbeat, or restart-from-checkpoint apply; route "
                    "it through run_supervised() or WatchedChild "
                    "instead",
                )
                return
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _BLOCKING_WAITS
            and not _has_timeout_keyword(node)
        ):
            yield self.finding(
                ctx,
                node,
                f".{func.attr}() without a timeout= keyword blocks "
                "unboundedly — a hung child would stall this process "
                "past any watchdog; pass an explicit timeout",
            )
