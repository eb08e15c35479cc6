"""Numeric helpers: tolerant comparison, rate quantization, mixed-radix maps,
hardened normalization, and extended-precision accumulation kernels.

Partition refinement compares floating-point transition rates for equality.
Raw ``==`` on floats computed through different summation orders is fragile,
so refinement keys are built from :func:`quantize`-d values: rates that agree
to within a relative tolerance map to the same key.

:func:`normalize` is the defensive probability-vector normalization used by
the certification layer (:mod:`repro.robust.certify`): instead of silently
propagating NaN or dividing by a (near-)zero mass, it raises a diagnostic
:class:`~repro.errors.SolverError` naming the defect.  The ``extended_*``
kernels accumulate in ``numpy.longdouble`` over COO triplets — a deliberately
different compute path from scipy's compiled CSR matvec, so a certificate's
residual recheck does not share failure modes with the solver it checks, and
the escalation ladder's final rung can refine a vector beyond float64.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SolverError, StateSpaceError

#: Default relative tolerance used when quantizing rates into hashable keys.
DEFAULT_RTOL = 1e-9

#: Total mass at or below which :func:`normalize` treats a vector as
#: effectively zero (far below any honest probability mass, far above
#: denormal noise).
NEAR_ZERO_MASS = 1e-30

#: Damping weight ``w`` of every Jacobi sweep in the library (flat, MD and
#: :func:`extended_jacobi_refine`): ``pi <- (1 - w) pi + w * step(pi)``.
#: The undamped sweep can oscillate; any 2-state chain is period-2.
JACOBI_RELAXATION = 0.9


def close(a: float, b: float, rtol: float = DEFAULT_RTOL, atol: float = 1e-12) -> bool:
    """True if ``a`` and ``b`` are equal within the given tolerances."""
    return abs(a - b) <= max(atol, rtol * max(abs(a), abs(b)))


def quantize(value: float, digits: int = 9) -> float:
    """Round ``value`` to ``digits`` significant decimal digits.

    Quantized values are used as hashable stand-ins for rates inside
    refinement keys, so that rates differing only by floating-point noise
    compare equal.  ``digits=9`` keeps nine significant digits, far more
    precision than any model rate in practice while absorbing accumulation
    error from different summation orders.
    """
    if value == 0.0:
        return 0.0
    return float(f"{value:.{digits}e}")


def normalize(
    vector: "np.ndarray",
    *,
    name: str = "distribution",
) -> "np.ndarray":
    """Normalize ``vector`` to unit total mass, defensively.

    Raises a diagnostic :class:`~repro.errors.SolverError` naming the
    defect — NaN entries, infinite entries, negative total mass, or a
    total at/below :data:`NEAR_ZERO_MASS` — instead of returning a
    NaN-bearing or meaningless vector for downstream code to trip over
    much later.  Small negative entries (solver noise) are clipped to
    zero before summing; the caller is expected to have bounds-checked
    anything larger via the certificate's nonnegativity margin.
    """
    arr = np.asarray(vector, dtype=float).ravel()
    nan_count = int(np.isnan(arr).sum())
    inf_count = int(np.isinf(arr).sum())
    if nan_count or inf_count:
        raise SolverError(
            f"cannot normalize {name}: {nan_count} NaN and {inf_count} "
            f"infinite entr(ies) among {arr.size}"
        )
    clipped = np.clip(arr, 0.0, None)
    total = float(clipped.sum())
    if total <= NEAR_ZERO_MASS:
        raise SolverError(
            f"cannot normalize {name}: total mass {total:.6e} is zero or "
            f"near zero (threshold {NEAR_ZERO_MASS:.1e}; "
            f"min entry {float(arr.min()) if arr.size else 0.0:.6e})"
        )
    return clipped / total


def extended_matvec(
    pi: "np.ndarray",
    rows: "np.ndarray",
    cols: "np.ndarray",
    data: "np.ndarray",
    size: int,
) -> "np.ndarray":
    """``pi @ M`` accumulated in extended precision (``numpy.longdouble``).

    ``(rows, cols, data)`` are COO triplets of ``M``; the result has
    length ``size`` (the number of columns).  Accumulation runs through
    ``np.add.at`` over longdouble arrays — an independent compute path
    from scipy's compiled float64 CSR matvec, which is what makes it a
    *recheck* rather than a repetition.
    """
    pi_ld = np.asarray(pi, dtype=np.longdouble)
    data_ld = np.asarray(data, dtype=np.longdouble)
    out = np.zeros(size, dtype=np.longdouble)
    if data_ld.size:
        np.add.at(out, np.asarray(cols), pi_ld[np.asarray(rows)] * data_ld)
    return out


def extended_residual_inf(
    pi: "np.ndarray",
    rows: "np.ndarray",
    cols: "np.ndarray",
    data: "np.ndarray",
    size: int,
) -> float:
    """Infinity norm of ``pi @ M`` with extended-precision accumulation."""
    if np.asarray(pi).size == 0:
        return 0.0
    return float(np.abs(extended_matvec(pi, rows, cols, data, size)).max())


def extended_jacobi_refine(
    x0: "np.ndarray",
    rows: "np.ndarray",
    cols: "np.ndarray",
    data: "np.ndarray",
    diag: "np.ndarray",
    *,
    sweeps: int,
    tol: float,
) -> "np.ndarray":
    """Damped Jacobi sweeps of ``pi Q = 0`` in extended precision.

    ``(rows, cols, data)`` hold the *off-diagonal* entries of ``Q`` and
    ``diag`` its diagonal; ``x0`` seeds the iteration.  Each of at most
    ``sweeps`` sweeps computes ``pi <- (1-w) pi + w * (-(pi O) / d)``
    (``w =`` :data:`JACOBI_RELAXATION`) in ``numpy.longdouble`` and
    renormalizes; stops early when the sweep delta drops below ``tol``.
    Returns the refined vector as float64 via :func:`normalize` (so a
    collapsed refinement raises a diagnostic error instead of returning
    garbage).
    """
    w = JACOBI_RELAXATION
    diag_ld = np.asarray(diag, dtype=np.longdouble)
    if diag_ld.size and np.any(diag_ld == 0):
        # An absorbing state: the chain is a single state (or not
        # irreducible, which the solvers reject before reaching here).
        return normalize(np.asarray(x0, dtype=float), name="refined vector")
    pi = np.asarray(x0, dtype=np.longdouble).copy()
    total = pi.sum()
    if total > 0:
        pi /= total
    size = int(diag_ld.size)
    for _ in range(max(0, int(sweeps))):
        step = -extended_matvec(pi, rows, cols, data, size) / diag_ld
        step_total = step.sum()
        if not step_total > 0:
            break
        new_pi = (1.0 - w) * pi + w * (step / step_total)
        new_pi /= new_pi.sum()
        delta = float(np.abs(new_pi - pi).max())
        pi = new_pi
        if delta < tol:
            break
    return normalize(np.asarray(pi, dtype=float), name="refined vector")


class DigitError(ValueError):
    """A ``digit`` at ``level`` (0-based) of ``row`` that lies outside its
    radix or, unless ``integral``, is not an integer."""

    def __init__(self, digit, radix, level, row, integral) -> None:
        problem = f"out of range for radix {radix}" if integral else "is not an integer"
        super().__init__(f"digit {digit} {problem}")
        self.digit, self.level, self.row, self.integral = digit, level, row, integral


def as_integer(value, name: str = "index") -> int:
    """``value`` as an ``int``: an integral float passes, anything else
    raises :class:`ValueError` rather than being truncated."""
    try:
        if int(value) == value:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} {value} is not an integer")


def _int64(values: np.ndarray, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``values`` as ``int64``, and the flat positions of those that are
    not integers in ``0..size - 1``.  An integral float is an integer; an
    integer array is one by its dtype, at no cost per element."""
    with np.errstate(invalid="ignore"):
        whole = values.astype(np.int64, copy=False)
    bad = (whole < 0) | (whole >= size)
    if values.dtype.kind not in "iub":
        bad |= whole != values
    return whole, np.flatnonzero(bad)


def mixed_radix_index(digits: Sequence[int], radices: Sequence[int]) -> int:
    """Map a tuple of per-level substate positions to a flat index.

    ``digits[i]`` is the position of the level-(i+1) substate within its
    level's local state space and ``radices[i]`` is that space's size.  The
    top level is the most significant digit, matching the nested block
    structure of a flattened matrix diagram (Section 3 of the paper).
    Raises :class:`ValueError` for a digit not an integer in its radix.

    >>> mixed_radix_index((1, 0, 2), (2, 3, 4))
    14
    """
    if len(digits) != len(radices):
        raise ValueError("digits and radices must have equal length")
    index = 0
    for digit, radix in zip(digits, radices):
        digit = as_integer(digit, "digit")
        if not 0 <= digit < radix:
            raise ValueError(f"digit {digit} out of range for radix {radix}")
        index = index * radix + digit
    return index


def mixed_radix_unindex(index: int, radices: Sequence[int]) -> Tuple[int, ...]:
    """Inverse of :func:`mixed_radix_index`.  Raises :class:`ValueError`
    for an index not an integer in the potential space.

    >>> mixed_radix_unindex(14, (2, 3, 4))
    (1, 0, 2)
    """
    index = as_integer(index)
    potential = math.prod(radices)
    if not 0 <= index < potential:
        raise ValueError(f"index {index} outside 0..{potential - 1}")
    digits = []
    for radix in reversed(radices):
        digits.append(index % radix)
        index //= radix
    return tuple(reversed(digits))


def strides(radices: Sequence[int]) -> Tuple[int, ...]:
    """Number of flat indices spanned by one step of each level's substate.

    >>> strides((2, 3, 4))
    (12, 4, 1)
    """
    out = [1] * len(radices)
    for i in range(len(radices) - 2, -1, -1):
        out[i] = out[i + 1] * radices[i + 1]
    return tuple(out)


def check_int64_codes(radices: Sequence[int]) -> None:
    """Raise :class:`StateSpaceError` unless the codes fit ``int64``."""
    potential = math.prod(radices)
    if potential > np.iinfo(np.int64).max:
        raise StateSpaceError(
            f"potential state space of {potential} states "
            "does not fit int64 state codes; use symbolic_reachability"
        )


def mixed_radix_codes(digits, radices: Sequence[int]) -> np.ndarray:
    """:func:`mixed_radix_index` of many states, as ``int64`` codes:
    ``digits[i]`` holds every state's level-(i+1) digit.  Raises
    :class:`DigitError` for the first one not an integer in its radix."""
    check_int64_codes(radices)
    digits = np.asarray(digits)
    codes = np.zeros(digits.shape[1:], dtype=np.int64)
    for level, (column, radix) in enumerate(zip(digits, radices)):
        whole, bad = _int64(column, radix)
        if bad.size:
            row, digit = int(bad[0]), column.flat[bad[0]]
            raise DigitError(digit, radix, level, row, whole.flat[row] == digit)
        codes = codes * radix + whole
    return codes


def mixed_radix_digits(codes, radices: Sequence[int]) -> List[np.ndarray]:
    """Inverse of :func:`mixed_radix_codes`: per level, top first.  Raises
    :class:`ValueError` for a code that is not an integer or lies outside
    the potential space, and as :func:`check_int64_codes` does."""
    check_int64_codes(radices)
    codes = np.asarray(codes)
    potential = math.prod(radices)
    rest, bad = _int64(codes, potential)
    if bad.size:
        code = codes.flat[bad[0]]
        problem = "is not an integer"
        if rest.flat[bad[0]] == code:
            problem = f"outside 0..{potential - 1}"
        raise ValueError(f"index {code} {problem}")
    digits = []
    for radix in reversed(radices):
        rest, digit = np.divmod(rest, radix)
        digits.append(digit)
    return digits[::-1]
