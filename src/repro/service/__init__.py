"""Durable, fault-tolerant analysis service around ``lump_and_solve``.

The service turns the robustness substrate (budgets, checkpoints,
heartbeats, retry policy) into callable infrastructure: a crash-safe
job store (:mod:`repro.service.store`), leased workers supervised by
the dispatcher (:mod:`repro.service.worker`,
:mod:`repro.service.dispatcher`), and a content-addressed result
cache (:mod:`repro.service.cache`), fronted by ``python -m
repro.service`` with ``submit / status / result / run-workers / gc``
verbs.  See ``docs/service.md``.
"""

from repro.service.cache import ResultCache
from repro.service.dispatcher import (
    Dispatcher,
    DispatcherConfig,
    DispatcherStats,
)
from repro.service.spec import (
    SpecError,
    canonical_digest,
    demo_spec,
    model_from_spec,
    spec_from_model,
)
from repro.service.store import (
    JobStore,
    JobView,
    RecoverStats,
    StoreError,
    SubmitOutcome,
    TERMINAL_STATES,
)
from repro.service.worker import (
    ServiceWorker,
    solve_spec,
    solve_spec_certified,
)

__all__ = [
    "Dispatcher",
    "DispatcherConfig",
    "DispatcherStats",
    "JobStore",
    "JobView",
    "RecoverStats",
    "ResultCache",
    "ServiceWorker",
    "SpecError",
    "StoreError",
    "SubmitOutcome",
    "TERMINAL_STATES",
    "canonical_digest",
    "demo_spec",
    "model_from_spec",
    "solve_spec",
    "solve_spec_certified",
    "spec_from_model",
]
