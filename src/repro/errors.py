"""Exception hierarchy for the ``repro`` library.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ModelError(ReproError):
    """A model definition is inconsistent (bad rates, unknown places, ...)."""


class StateSpaceError(ReproError):
    """State-space exploration failed or produced an inconsistent result."""


class MatrixDiagramError(ReproError):
    """A matrix diagram is structurally invalid for the requested operation."""


class LumpingError(ReproError):
    """A lumping operation was given inconsistent inputs.

    Examples: a partition that does not cover the state space, or a reward
    specification that is not constant on the blocks of a claimed lumpable
    partition.
    """


class SolverError(ReproError):
    """A numerical solver failed to converge or was misconfigured.

    Non-convergence failures carry structured context so callers (notably
    :func:`repro.robust.fallback.solve_with_fallback`) can report what
    happened and reuse partial progress instead of restarting from the
    uniform vector:

    Attributes
    ----------
    method:
        Name of the solver that failed (``None`` if not applicable).
    iterations:
        Iterations performed before giving up (``None`` if not applicable).
    residual:
        Infinity-norm of ``pi Q`` at the last iterate (``None`` if unknown).
    last_iterate:
        The final (normalized) iterate, reusable as a warm start for
        another iterative method (``None`` for hard failures).
    """

    def __init__(
        self,
        message: str,
        *,
        method=None,
        iterations=None,
        residual=None,
        last_iterate=None,
    ) -> None:
        super().__init__(message)
        self.method = method
        self.iterations = iterations
        self.residual = residual
        self.last_iterate = last_iterate


class CertificationError(SolverError):
    """A solved result failed its numerical certificate.

    Raised when :func:`repro.robust.certify.certify` rejects a result
    and — in the robust pipeline — every rung of the escalation ladder
    (next fallback method, tightened tolerance, extended-precision
    re-solve) failed to produce a certifiable vector.

    Attributes
    ----------
    certificate:
        The failing :class:`~repro.robust.certify.Certificate` (the last
        one computed when an escalation ladder ran), or ``None`` when
        certification could not even be attempted.
    """

    def __init__(
        self,
        message: str,
        *,
        certificate=None,
        method=None,
        iterations=None,
        residual=None,
        last_iterate=None,
    ) -> None:
        super().__init__(
            message,
            method=method,
            iterations=iterations,
            residual=residual,
            last_iterate=last_iterate,
        )
        self.certificate = certificate


class CompositionError(ReproError):
    """Composition of submodels failed (e.g. shared places with unequal
    capacities, or level assignments that do not partition the variables)."""


class SweepError(ReproError):
    """A parameter sweep that cannot be planned or resumed (malformed
    sweep spec, a frontier directory bound to a different sweep, or a
    point transform addressing nodes the model does not have)."""
