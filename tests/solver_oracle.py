"""The flat iterative solvers that ``repro.markov.solvers`` folded into
one shared loop.

Power, Jacobi and Gauss-Seidel each wrote out the checkpoint resume,
the budget charge, the convergence test, the snapshots and the
non-convergence error around their own sweep.  The library now runs one
private loop and each method supplies only its setup and its sweep.
``tests/test_solver_loop.py`` holds the two to byte-identical
distributions, iteration counts, residuals, notes, ``SolverError``
attributes and checkpoint snapshots on random chains.
"""

from typing import Optional

import numpy as np
from scipy import sparse

from repro.errors import SolverError
from repro.markov.ctmc import CTMC
from repro.markov.solvers import (
    SteadyStateResult,
    _check_irreducible,
    _convergence_note,
    _initial_vector,
    _residual,
    _solver_resume,
)
from repro.robust import budgets, checkpoint, faults
from repro.robust.budgets import BudgetExceeded


def steady_state_power(
    ctmc: CTMC,
    tol: float = 1e-12,
    max_iterations: int = 200_000,
    x0: Optional[np.ndarray] = None,
) -> SteadyStateResult:
    """Power iteration ``pi <- pi P`` on the uniformized DTMC."""
    faults.check("solver.power")
    _check_irreducible(ctmc, "power")
    n = ctmc.num_states
    p = ctmc.embedded_dtmc()
    q = ctmc.generator_matrix()
    pi = _initial_vector(n, x0)
    ck = checkpoint.active()
    key, guard, record = _solver_resume(ck, "power", n, q, tol)
    start = 1
    if record is not None:
        payload = record["payload"]
        if record["complete"]:
            return SteadyStateResult(
                np.asarray(payload["pi"], dtype=float),
                int(payload["iterations"]),
                float(payload["residual"]),
                "power",
                note=payload.get("note"),
            )
        # JSON round-trips float64 bitwise (repr-based), so the resumed
        # iterate is the killed run's exact vector.
        pi = np.asarray(payload["pi"], dtype=float)
        start = int(payload["iteration"]) + 1
    completed = start - 1
    try:
        for iteration in range(start, max_iterations + 1):
            budgets.charge_iterations(1, stage="solve")
            new_pi = pi @ p
            delta = float(np.abs(new_pi - pi).max())
            pi = new_pi
            completed = iteration
            if delta < tol:
                pi = np.clip(pi, 0.0, None)
                pi /= pi.sum()
                residual = _residual(pi, q)
                note = _convergence_note(delta, residual, tol)
                if ck is not None:
                    ck.save(
                        key,
                        {
                            "pi": pi.tolist(),
                            "iterations": iteration,
                            "residual": residual,
                            "note": note,
                        },
                        guard=guard,
                        complete=True,
                    )
                return SteadyStateResult(
                    pi, iteration, residual, "power", note=note
                )
            if ck is not None and ck.tick(key):
                ck.save(
                    key,
                    {"pi": pi.tolist(), "iteration": completed},
                    guard=guard,
                )
    except BudgetExceeded:
        if ck is not None:
            ck.save(
                key, {"pi": pi.tolist(), "iteration": completed}, guard=guard
            )
        raise
    if ck is not None:
        ck.save(
            key, {"pi": pi.tolist(), "iteration": completed}, guard=guard
        )
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    raise SolverError(
        f"power iteration did not converge in {max_iterations} iterations",
        method="power",
        iterations=max_iterations,
        residual=_residual(pi, q),
        last_iterate=pi,
    )


def steady_state_jacobi(
    ctmc: CTMC,
    tol: float = 1e-12,
    max_iterations: int = 200_000,
    relaxation: float = 0.9,
    x0: Optional[np.ndarray] = None,
) -> SteadyStateResult:
    """Damped Jacobi iteration on ``pi Q = 0``.

    Writing ``Q = D + O`` with ``D`` the diagonal, the fixed point is
    ``pi = -(pi O) D^{-1}``; each sweep renormalizes.  The undamped sweep
    can oscillate (e.g. any 2-state chain is period-2), so the update is
    relaxed: ``pi <- (1 - w) pi + w * step(pi)`` with ``0 < w < 1``.
    """
    if not 0 < relaxation <= 1:
        raise SolverError("relaxation must be in (0, 1]", method="jacobi")
    faults.check("solver.jacobi")
    _check_irreducible(ctmc, "jacobi")
    n = ctmc.num_states
    q = ctmc.generator_matrix()
    diag = q.diagonal()
    if np.any(diag == 0):
        # An absorbing state in an irreducible chain means n == 1.
        pi = np.ones(n) / n
        return SteadyStateResult(pi, 0, _residual(pi, q), "jacobi")
    off = q - sparse.diags(diag)
    off = sparse.csr_matrix(off)
    inv_diag = -1.0 / diag
    pi = _initial_vector(n, x0)
    ck = checkpoint.active()
    key, guard, record = _solver_resume(ck, "jacobi", n, q, tol)
    start = 1
    if record is not None:
        payload = record["payload"]
        if record["complete"]:
            return SteadyStateResult(
                np.asarray(payload["pi"], dtype=float),
                int(payload["iterations"]),
                float(payload["residual"]),
                "jacobi",
                note=payload.get("note"),
            )
        pi = np.asarray(payload["pi"], dtype=float)
        start = int(payload["iteration"]) + 1
    completed = start - 1
    try:
        for iteration in range(start, max_iterations + 1):
            budgets.charge_iterations(1, stage="solve")
            step = (pi @ off) * inv_diag
            total = step.sum()
            if total <= 0:
                raise SolverError(
                    "jacobi iteration collapsed to zero",
                    method="jacobi",
                    iterations=iteration,
                    residual=_residual(pi, q),
                    last_iterate=pi,
                )
            new_pi = (1.0 - relaxation) * pi + relaxation * (step / total)
            new_pi /= new_pi.sum()
            delta = float(np.abs(new_pi - pi).max())
            pi = new_pi
            completed = iteration
            if delta < tol:
                residual = _residual(pi, q)
                note = _convergence_note(delta, residual, tol)
                if ck is not None:
                    ck.save(
                        key,
                        {
                            "pi": pi.tolist(),
                            "iterations": iteration,
                            "residual": residual,
                            "note": note,
                        },
                        guard=guard,
                        complete=True,
                    )
                return SteadyStateResult(
                    pi, iteration, residual, "jacobi", note=note
                )
            if ck is not None and ck.tick(key):
                ck.save(
                    key,
                    {"pi": pi.tolist(), "iteration": completed},
                    guard=guard,
                )
    except BudgetExceeded:
        if ck is not None:
            ck.save(
                key, {"pi": pi.tolist(), "iteration": completed}, guard=guard
            )
        raise
    if ck is not None:
        ck.save(
            key, {"pi": pi.tolist(), "iteration": completed}, guard=guard
        )
    raise SolverError(
        f"jacobi iteration did not converge in {max_iterations} iterations",
        method="jacobi",
        iterations=max_iterations,
        residual=_residual(pi, q),
        last_iterate=pi,
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
    pi = _initial_vector(n, x0)
    ck = checkpoint.active()
    key, guard, record = _solver_resume(ck, "gauss-seidel", n, q, tol)
    start = 1
    if record is not None:
        payload = record["payload"]
        if record["complete"]:
            return SteadyStateResult(
                np.asarray(payload["pi"], dtype=float),
                int(payload["iterations"]),
                float(payload["residual"]),
                "gauss-seidel",
                note=payload.get("note"),
            )
        pi = np.asarray(payload["pi"], dtype=float)
        start = int(payload["iteration"]) + 1
    completed = start - 1
    try:
        for iteration in range(start, max_iterations + 1):
            # The budget hook fires before the in-place sweep touches pi,
            # so a BudgetExceeded always sees a whole-iteration vector.
            budgets.charge_iterations(1, stage="solve")
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
            completed = iteration
            if delta < tol:
                pi = np.clip(pi, 0.0, None)
                pi /= pi.sum()
                residual = _residual(pi, q)
                note = _convergence_note(delta, residual, tol)
                if ck is not None:
                    ck.save(
                        key,
                        {
                            "pi": pi.tolist(),
                            "iterations": iteration,
                            "residual": residual,
                            "note": note,
                        },
                        guard=guard,
                        complete=True,
                    )
                return SteadyStateResult(
                    pi, iteration, residual, "gauss-seidel", note=note
                )
            if ck is not None and ck.tick(key):
                ck.save(
                    key,
                    {"pi": pi.tolist(), "iteration": completed},
                    guard=guard,
                )
    except BudgetExceeded:
        if ck is not None:
            ck.save(
                key, {"pi": pi.tolist(), "iteration": completed}, guard=guard
            )
        raise
    if ck is not None:
        ck.save(
            key, {"pi": pi.tolist(), "iteration": completed}, guard=guard
        )
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    raise SolverError(
        f"gauss-seidel did not converge in {max_iterations} iterations",
        method="gauss-seidel",
        iterations=max_iterations,
        residual=_residual(pi, q),
        last_iterate=pi,
    )
