"""Spans for the traced run, recorded from the benchmark's own files.

A workload wraps each call it makes into a layer in ``tracer.span(name)``.
Calls a layer makes into another layer are reached with
:meth:`Tracer.patch`, which replaces the function where its caller looks
it up (a class attribute, or a module global the caller reads at call
time) by a wrapper that records one span per call.  Spans are kept in
memory and summarised after the run; only calls made while an operation
is being timed are recorded, so oracle checks never add spans.

Span times are read from ``now``: in a run, the speed clock
(:meth:`perfbench.clock.SpeedClock.now`), so spans and ``wall_s`` are
on the same clock.  An untraced run uses a disabled tracer: ``span``
returns a shared no-op context and nothing is patched.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_NO_SPAN = nullcontext()


@dataclass
class Span:
    """One timed call: name, start, end, and the enclosing span's index
    in :attr:`Tracer.spans` (``None`` at the top of an operation)."""

    name: str
    start: float
    end: float
    parent: Optional[int]


class Tracer:
    """Collects spans while an operation is timed."""

    def __init__(
        self, enabled: bool, now: Callable[[], float] = time.perf_counter
    ) -> None:
        self.enabled = enabled
        self.now = now
        self.active = False
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []

    @contextmanager
    def _record(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.now(), 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = self.now()
            self._stack.pop()

    def span(self, name: str) -> Any:
        """A context manager timing the enclosed call as span ``name``."""
        if self.enabled and self.active:
            return self._record(name)
        return _NO_SPAN

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Record every call of ``owner.attr`` as span ``name`` until
        :meth:`restore`.  ``owner`` is a class or a module."""
        if not self.enabled:
            return
        original = vars(owner)[attr]

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return original(*args, **kwargs)
            with self._record(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self, since: int = 0) -> Dict[str, Tuple[float, int]]:
        """``{span name: (summed seconds, calls)}`` over ``spans[since:]``."""
        totals: Dict[str, Tuple[float, int]] = {}
        for span in self.spans[since:]:
            seconds, calls = totals.get(span.name, (0.0, 0))
            totals[span.name] = (seconds + span.end - span.start, calls + 1)
        return totals

    def durations(self, name: str, since: int = 0) -> List[float]:
        """Every duration of span ``name`` over ``spans[since:]``."""
        return [s.end - s.start for s in self.spans[since:] if s.name == name]
