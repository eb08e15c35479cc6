"""Transient solution of CTMCs via uniformization (Jensen's method).

``pi(t) = sum_k PoissonPMF(k; lambda t) * pi(0) P^k`` where ``P`` is the
uniformized DTMC.  The Poisson series is truncated adaptively so the
neglected tail mass is below the requested tolerance.  One helper sums it
for the flat chain and for :meth:`repro.matrixdiagram.MDOperator.transient`,
which differ only in the step ``term -> term P``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy import sparse

from repro.errors import SolverError
from repro.markov.ctmc import CTMC


def uniformize(ctmc: CTMC) -> Tuple[sparse.csr_matrix, float]:
    """Return ``(P, lambda)``: the uniformized DTMC and its rate."""
    lam = ctmc.uniformization_rate()
    return ctmc.embedded_dtmc(lam), lam


def _poisson_weights(mean: float, tol: float) -> np.ndarray:
    """Poisson PMF values ``0..K`` where ``K`` is the smallest truncation
    point leaving tail mass below ``tol``.  Computed iteratively to avoid
    overflow for large means."""
    weights = [np.exp(-mean)] if mean < 700 else [0.0]
    if weights[0] == 0.0:
        # For very large means start from the (stable) normal regime:
        # compute log-pmf iteratively and exponentiate shifted values.
        k_max = int(mean + 12 * np.sqrt(mean) + 20)
        if k_max > 50_000_000:
            raise SolverError(
                f"uniformization mean {mean:.3g} needs {k_max} Poisson "
                f"terms; split the horizon into shorter steps"
            )
        log_pmf = np.empty(k_max + 1)
        log_pmf[0] = -mean
        for k in range(1, k_max + 1):
            log_pmf[k] = log_pmf[k - 1] + np.log(mean / k)
        pmf = np.exp(log_pmf - log_pmf.max())
        pmf /= pmf.sum()
        cumulative = np.cumsum(pmf)
        cutoff = int(np.searchsorted(cumulative, 1.0 - tol)) + 1
        return pmf[: cutoff + 1]
    total = weights[0]
    k = 0
    while total < 1.0 - tol:
        k += 1
        weights.append(weights[-1] * mean / k)
        total += weights[-1]
        if k > 10_000_000:
            raise SolverError("poisson truncation failed to converge")
    return np.asarray(weights)


def _start_vector(initial: Sequence[float], size: int) -> np.ndarray:
    """A private float copy of a start vector, checked to have ``size``
    entries and unit mass (within 1e-9)."""
    pi = np.asarray(initial, dtype=float).copy()
    if pi.shape != (size,):
        raise SolverError(
            f"initial distribution has shape {pi.shape}, expected ({size},)"
        )
    if abs(pi.sum() - 1.0) > 1e-9:
        raise SolverError("initial distribution must sum to 1")
    return pi


def _uniformization_series(
    pi0: np.ndarray,
    time: float,
    rate: float,
    step: Callable[[np.ndarray], np.ndarray],
    tol: float,
) -> np.ndarray:
    """``sum_k PoissonPMF(k; rate * time) * pi0 P^k``, renormalized over
    the truncated tail, where ``step(term)`` computes ``term P`` for the
    chain uniformized at ``rate``.  Rejects a negative or non-finite
    horizon; ``pi0`` itself is returned at ``time == 0``."""
    if not 0 <= time < math.inf:
        raise SolverError(
            f"time must be finite and non-negative, not {time!r}"
        )
    if time == 0:
        return pi0
    result = np.zeros_like(pi0)
    term = pi0
    for k, weight in enumerate(_poisson_weights(rate * time, tol)):
        if k:
            term = step(term)
        if weight > 0:
            result += weight * term
    total = result.sum()
    if total <= 0:
        raise SolverError("transient solution lost all probability mass")
    return result / total


def transient_distribution(
    ctmc: CTMC,
    initial_distribution: Sequence[float],
    time: float,
    tol: float = 1e-12,
) -> np.ndarray:
    """The distribution ``pi(t)`` starting from ``initial_distribution``.

    >>> from repro.markov.ctmc import CTMC
    >>> chain = CTMC.from_transitions(2, [(0, 1, 1.0), (1, 0, 1.0)])
    >>> pi = transient_distribution(chain, [1.0, 0.0], 50.0)
    >>> bool(abs(pi[0] - 0.5) < 1e-9)
    True
    """
    pi0 = _start_vector(initial_distribution, ctmc.num_states)
    p, lam = uniformize(ctmc)
    return _uniformization_series(pi0, time, lam, lambda term: term @ p, tol)
