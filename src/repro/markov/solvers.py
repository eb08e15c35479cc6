"""Steady-state solvers for CTMCs.

The paper's motivation is that lumping shrinks the iteration vectors and the
per-iteration cost of exactly these solvers.  We provide:

* a direct solver (sparse LU on the normalized balance equations) for small
  chains and as the reference in tests,
* power iteration on the uniformized DTMC,
* Jacobi and Gauss-Seidel iterations on ``pi Q = 0``,

all returning a :class:`SteadyStateResult` with the distribution, residual
and iteration count.  Solvers require an irreducible chain; callers solving
a chain with transient states should first restrict to the recurrent class.

The three iterative methods run one loop, :func:`_iterate`.  It owns the
checkpoint resume (and the short-circuit on a completed record), the
budget charge before each sweep, the ``delta < tol`` test, the converged
save with its residual and ``converged-but-residual-high`` note, the
periodic, budget-stop and final snapshots, and the non-convergence
error.  Each method supplies only its setup (fault site, irreducibility
check, matrices, start vector) and a sweep ``(pi, iteration) -> (next
pi, delta)``: ``pi @ P`` for power, the damped renormalized step for
Jacobi, the in-place forward sweep for Gauss-Seidel.  Power and
Gauss-Seidel clip and renormalize their last iterate; Jacobi's is
already normalized and is returned as it stands.

Robustness integration: every solver checks the fault-injection site
``solver.<name>`` at entry and charges active resource budgets once per
iteration (see :mod:`repro.robust`).  Non-convergence errors carry the
last iterate, final residual, and iteration count so the fallback chain
(:func:`repro.robust.fallback.solve_with_fallback`) can warm-start the
next method instead of recomputing from scratch; the iterative solvers
accept that warm start via ``x0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from repro.errors import SolverError
from repro.markov.ctmc import CTMC
from repro.robust import budgets, checkpoint, faults
from repro.robust.budgets import BudgetExceeded
from repro.util.numeric import JACOBI_RELAXATION


@dataclass
class SteadyStateResult:
    """Outcome of a steady-state solve.

    Attributes
    ----------
    distribution:
        The stationary probability vector ``pi`` (sums to 1).
    iterations:
        Iterations used (0 for the direct method).
    residual:
        Final infinity-norm of ``pi Q``.
    method:
        Name of the solver that produced the result.
    note:
        Diagnostic annotation, or ``None`` for a clean solve.  The one
        note the solvers emit today is ``converged-but-residual-high``:
        the iterate delta dropped below ``tol`` (the stopping rule) but
        the final residual did not — a stalled iteration, not a solved
        chain, and exactly the case a delta-only convergence test
        silently mislabels.
    """

    distribution: np.ndarray
    iterations: int
    residual: float
    method: str
    note: Optional[str] = None


def _residual(pi: np.ndarray, q: sparse.csr_matrix) -> float:
    return float(np.abs(pi @ q).max()) if pi.size else 0.0


def _convergence_note(delta: float, residual: float, tol: float) -> Optional[str]:
    """The ``converged-but-residual-high`` annotation, when deserved.

    Delta-based stopping accepts any fixed point of the *iteration*,
    including stalls far from the balance equations; checking the final
    residual against the same ``tol`` closes that gap.  The comparison
    is deliberately absolute — both quantities live on the scale of
    ``pi Q`` — and only annotates (the certificate layer decides
    whether the result is usable)."""
    if residual > tol:
        return (
            f"converged-but-residual-high: iterate delta {delta:.3e} "
            f"fell below tol {tol:.3e} but the residual ||pi Q||_inf "
            f"= {residual:.3e} did not"
        )
    return None


def _check_irreducible(ctmc: CTMC, method: str) -> None:
    if ctmc.num_states == 0:
        raise SolverError("cannot solve an empty chain", method=method)
    if not ctmc.is_irreducible():
        raise SolverError(
            f"steady-state solver {method!r} requires an irreducible chain, "
            f"but this {ctmc.num_states}-state chain has more than one "
            "communicating class; restrict to the recurrent class first "
            "(or use repro.robust.fallback.solve_with_fallback, which "
            "reports per-attempt diagnostics for degraded runs)",
            method=method,
        )


def _generator_digest(q) -> str:
    """Content digest of a generator matrix (checkpoint guard): a solver
    snapshot is only resumed against the exact same ``Q``."""
    qc = sparse.csr_matrix(q)
    return checkpoint.digest(
        np.asarray(qc.indptr).tobytes(),
        np.asarray(qc.indices).tobytes(),
        np.asarray(qc.data).tobytes(),
    )


def _solver_resume(ck, method: str, n: int, q, tol: Optional[float]):
    """Common checkpoint entry for a solver: the sequence key, guard, and
    any matching snapshot record (or ``None``s when inactive)."""
    if ck is None:
        return None, None, None
    key = ck.sequence_key(f"solve.{method}")
    guard = {"n": n, "q": _generator_digest(q)}
    if tol is not None:
        guard["tol"] = tol
    return key, guard, ck.load(key, guard=guard)


def _completed(payload: dict, method: str) -> SteadyStateResult:
    """The result a complete checkpoint record holds."""
    return SteadyStateResult(
        np.asarray(payload["pi"], dtype=float),
        int(payload["iterations"]),
        float(payload["residual"]),
        method,
        note=payload.get("note"),
    )


def _initial_vector(n: int, x0: Optional[np.ndarray]) -> np.ndarray:
    """Uniform start, or a normalized copy of a warm-start vector."""
    if x0 is None:
        return np.full(n, 1.0 / n)
    pi = np.asarray(x0, dtype=float).ravel().copy()
    if pi.shape != (n,):
        raise SolverError(
            f"warm start x0 has shape {pi.shape}, expected ({n},)"
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if not np.isfinite(total) or total <= 0:
        return np.full(n, 1.0 / n)
    return pi / total


def steady_state_direct(ctmc: CTMC) -> SteadyStateResult:
    """Solve ``pi Q = 0, sum(pi) = 1`` directly via sparse LU.

    Replaces the last balance equation with the normalization constraint,
    which is the standard full-rank reformulation.
    """
    faults.check("solver.direct")
    _check_irreducible(ctmc, "direct")
    budgets.check_time("solve")
    n = ctmc.num_states
    q = ctmc.generator_matrix()
    ck = checkpoint.active()
    key, guard, record = _solver_resume(ck, "direct", n, q, None)
    if record is not None and record["complete"]:
        return _completed(record["payload"], "direct")
    a = sparse.lil_matrix(q.T)
    a[n - 1, :] = 1.0
    b = np.zeros(n)
    b[n - 1] = 1.0
    try:
        pi = sparse_linalg.spsolve(sparse.csc_matrix(a), b)
    except RuntimeError as exc:  # singular factorization
        raise SolverError(
            f"direct solve failed on the {n}-state chain: {exc}",
            method="direct",
            iterations=0,
        ) from exc
    pi = np.asarray(pi, dtype=float).ravel()
    if np.any(~np.isfinite(pi)):
        raise SolverError(
            f"direct solve produced non-finite entries on the {n}-state "
            "chain (singular or ill-conditioned balance equations)",
            method="direct",
            iterations=0,
        )
    pi = np.clip(pi, 0.0, None)
    total = pi.sum()
    if total <= 0:
        raise SolverError(
            f"direct solve produced a zero vector on the {n}-state chain",
            method="direct",
            iterations=0,
        )
    pi /= total
    residual = _residual(pi, q)
    if ck is not None:
        ck.save(
            key,
            {"pi": pi.tolist(), "iterations": 0, "residual": residual},
            guard=guard,
            complete=True,
        )
    return SteadyStateResult(pi, 0, residual, "direct")


def _clip_renormalize(pi: np.ndarray) -> np.ndarray:
    """Clip roundoff negatives and renormalize: how power and
    Gauss-Seidel turn their last iterate into a result."""
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    return pi


def _iterate(
    method: str,
    q: sparse.csr_matrix,
    pi: np.ndarray,
    sweep: Callable[[np.ndarray, int], Tuple[np.ndarray, float]],
    finish: Callable[[np.ndarray], np.ndarray],
    tol: float,
    max_iterations: int,
) -> SteadyStateResult:
    """The loop every iterative solver runs around its ``sweep`` (see the
    module docstring).  The budget is charged before each sweep, so a
    ``BudgetExceeded`` always sees a whole-iteration vector, which the
    in-place Gauss-Seidel sweep needs.  ``finish`` turns the last iterate
    into the result, on convergence and in the non-convergence error."""
    ck = checkpoint.active()
    key, guard, record = _solver_resume(ck, method, q.shape[0], q, tol)
    start = 1
    if record is not None:
        if record["complete"]:
            return _completed(record["payload"], method)
        # JSON round-trips float64 bitwise (repr-based), so the resumed
        # iterate is the killed run's exact vector.
        pi = np.asarray(record["payload"]["pi"], dtype=float)
        start = int(record["payload"]["iteration"]) + 1
    completed = start - 1

    def snapshot() -> None:
        if ck is not None:
            ck.save(
                key, {"pi": pi.tolist(), "iteration": completed}, guard=guard
            )

    try:
        for iteration in range(start, max_iterations + 1):
            budgets.charge_iterations(1, stage="solve")
            pi, delta = sweep(pi, iteration)
            completed = iteration
            if delta < tol:
                pi = finish(pi)
                residual = _residual(pi, q)
                note = _convergence_note(delta, residual, tol)
                if ck is not None:
                    payload = {"pi": pi.tolist(), "iterations": iteration,
                               "residual": residual, "note": note}
                    ck.save(key, payload, guard=guard, complete=True)
                return SteadyStateResult(
                    pi, iteration, residual, method, note=note
                )
            if ck is not None and ck.tick(key):
                snapshot()
    except BudgetExceeded:
        snapshot()
        raise
    snapshot()
    pi = finish(pi)
    raise SolverError(
        f"{method} iteration did not converge in {max_iterations} iterations",
        method=method,
        iterations=max_iterations,
        residual=_residual(pi, q),
        last_iterate=pi,
    )


def steady_state_power(
    ctmc: CTMC,
    tol: float = 1e-12,
    max_iterations: int = 200_000,
    x0: Optional[np.ndarray] = None,
) -> SteadyStateResult:
    """Power iteration ``pi <- pi P`` on the uniformized DTMC."""
    faults.check("solver.power")
    _check_irreducible(ctmc, "power")
    # ``pt @ pi`` is ``pi @ p`` without scipy transposing ``p`` per call.
    pt = ctmc.embedded_dtmc().T

    def sweep(pi: np.ndarray, iteration: int) -> Tuple[np.ndarray, float]:
        new_pi = pt @ pi
        return new_pi, float(np.abs(new_pi - pi).max())

    pi = _initial_vector(ctmc.num_states, x0)
    return _iterate(
        "power", ctmc.generator_matrix(), pi, sweep, _clip_renormalize,
        tol, max_iterations,
    )


def steady_state_jacobi(
    ctmc: CTMC,
    tol: float = 1e-12,
    max_iterations: int = 200_000,
    x0: Optional[np.ndarray] = None,
) -> SteadyStateResult:
    """Damped Jacobi iteration on ``pi Q = 0``.

    Writing ``Q = D + O`` with ``D`` the diagonal, the fixed point is
    ``pi = -(pi O) D^{-1}``; each sweep renormalizes.  The undamped sweep
    can oscillate (e.g. any 2-state chain is period-2), so the update is
    relaxed: ``pi <- (1 - w) pi + w * step(pi)`` with
    ``w =`` :data:`~repro.util.numeric.JACOBI_RELAXATION`.  The iterate
    is normalized by every sweep, so the result is the last iterate as
    it stands.
    """
    faults.check("solver.jacobi")
    _check_irreducible(ctmc, "jacobi")
    n = ctmc.num_states
    q = ctmc.generator_matrix()
    diag = q.diagonal()
    if np.any(diag == 0):
        # An absorbing state in an irreducible chain means n == 1.
        pi = np.ones(n) / n
        return SteadyStateResult(pi, 0, _residual(pi, q), "jacobi")
    off_t = sparse.csr_matrix(q - sparse.diags(diag)).T
    inv_diag = -1.0 / diag
    w = JACOBI_RELAXATION

    def sweep(pi: np.ndarray, iteration: int) -> Tuple[np.ndarray, float]:
        step = (off_t @ pi) * inv_diag
        total = step.sum()
        if total <= 0:
            raise SolverError(
                "jacobi iteration collapsed to zero",
                method="jacobi",
                iterations=iteration,
                residual=_residual(pi, q),
                last_iterate=pi,
            )
        new_pi = (1.0 - w) * pi + w * (step / total)
        new_pi /= new_pi.sum()
        return new_pi, float(np.abs(new_pi - pi).max())

    return _iterate(
        "jacobi", q, _initial_vector(n, x0), sweep, lambda pi: pi,
        tol, max_iterations,
    )


def steady_state_gauss_seidel(
    ctmc: CTMC,
    tol: float = 1e-12,
    max_iterations: int = 100_000,
    x0: Optional[np.ndarray] = None,
) -> SteadyStateResult:
    """Gauss-Seidel iteration on ``Q^T pi^T = 0`` with in-place updates.

    Uses the column (CSC-of-Q, i.e. CSR-of-Q^T) structure so each state's
    new value sees already-updated predecessors, the standard forward sweep.
    """
    faults.check("solver.gauss-seidel")
    _check_irreducible(ctmc, "gauss-seidel")
    n = ctmc.num_states
    q = ctmc.generator_matrix()
    qt = sparse.csr_matrix(q.T)
    diag = q.diagonal()
    if np.any(diag == 0):
        pi = np.ones(n) / n
        return SteadyStateResult(pi, 0, _residual(pi, q), "gauss-seidel")
    indptr, indices, data = qt.indptr, qt.indices, qt.data

    def sweep(pi: np.ndarray, iteration: int) -> Tuple[np.ndarray, float]:
        delta = 0.0
        for j in range(n):
            acc = 0.0
            for k in range(indptr[j], indptr[j + 1]):
                i = indices[k]
                if i != j:
                    acc += data[k] * pi[i]
            new_value = -acc / diag[j]
            delta = max(delta, abs(new_value - pi[j]))
            pi[j] = new_value
        total = pi.sum()
        if total <= 0:
            raise SolverError(
                "gauss-seidel iteration collapsed to zero",
                method="gauss-seidel",
                iterations=iteration,
                residual=_residual(pi, q),
                last_iterate=pi,
            )
        pi /= total
        return pi, delta

    return _iterate(
        "gauss-seidel", q, _initial_vector(n, x0), sweep, _clip_renormalize,
        tol, max_iterations,
    )


_METHODS = {
    "direct": steady_state_direct,
    "power": steady_state_power,
    "jacobi": steady_state_jacobi,
    "gauss-seidel": steady_state_gauss_seidel,
}


def steady_state(ctmc: CTMC, method: str = "direct", **kwargs) -> SteadyStateResult:
    """Dispatch to a steady-state solver by name.

    ``method`` is one of ``direct``, ``power``, ``jacobi``, ``gauss-seidel``.
    """
    try:
        solver = _METHODS[method]
    except KeyError:
        raise SolverError(
            f"unknown method {method!r}; choose from {sorted(_METHODS)}"
        ) from None
    return solver(ctmc, **kwargs)
