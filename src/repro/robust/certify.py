"""Numerical result certificates and the escalation-on-failure ladder.

The robustness substrate keeps the pipeline *alive* through crashes and
degradations; this module makes its answers *checked*.  Following the
imprecise-CTMC line (Erreygers & De Bock, arXiv:1804.01020) every result
carries machine-checkable numerical evidence, and the dual-eigenvector
strong-lumpability test (Nilsson Jacobi & Görnerup, arXiv:0710.1986)
serves as an independent detector of a lumping that silently distorts
aggregated measures.

A :class:`Certificate` bundles named :class:`CertificateCheck` entries:

``finite``
    NaN/Inf guard over the stationary vector.
``mass-defect``
    ``|sum(pi) - 1|`` against the certificate tolerance.
``nonnegativity``
    The most negative entry against ``-tol``.
``residual-recheck``
    ``||pi Q||_inf`` recomputed through an *independent engine* —
    extended-precision (``numpy.longdouble``) accumulation over COO
    triplets (:func:`repro.util.numeric.extended_residual_inf`) instead
    of scipy's compiled float64 CSR matvec — so the recheck does not
    share failure modes with the solver it checks.
``measure-consistency``
    For lumped solutions of small models: solve the *unlumped* chain
    directly, project its stationary distribution onto the lumped space
    (:meth:`~repro.lumping.compositional.CompositionalLumpingResult.project_distribution`)
    and compare.  Skipped (recorded in the check detail) above
    :data:`DEFAULT_SPOT_CHECK_LIMIT` original states.
``spectral-lumpability``
    The invariant-subspace test: ordinary lumpability of ``M`` w.r.t.
    the block-indicator matrix ``V`` holds iff ``M V = V Mhat`` with
    ``Mhat = (V^T V)^{-1} V^T M V`` (``M = Q`` for ordinary lumping,
    ``M = Q^T`` for exact).  The max-norm defect is checked against the
    rate-scaled tolerance; gated by the same spot-check limit.

On failure, :func:`certify_with_escalation` climbs a ladder — the next
method of the existing fallback chain, then a tightened-tolerance
iterative re-solve, then an extended-precision ("float128") Jacobi
refinement via :func:`repro.util.numeric.extended_jacobi_refine` — and
records every step in the :class:`~repro.robust.report.RunReport` as
``certificate`` attempts and ``certificate-escalation`` fallbacks.  An
exhausted ladder raises :class:`~repro.errors.CertificationError` with
the last certificate attached as the diagnosis.

The deterministic fault site ``certify.corrupt`` (see
:mod:`repro.robust.faults`) flips one stationary entry before
certification, so CI can prove end to end that a corrupt result never
leaves the pipeline as ``done``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CertificationError, ReproError, SolverError
from repro.markov.ctmc import CTMC
from repro.markov.solvers import steady_state
from repro.robust import faults
from repro.robust.faults import InjectedFault
from repro.util.numeric import extended_jacobi_refine, extended_residual_inf

if TYPE_CHECKING:  # import cycle guards: these modules import robust.*
    from repro.analysis import LumpedSolution
    from repro.lumping.compositional import CompositionalLumpingResult
    from repro.lumping.md_model import MDModel
    from repro.robust.report import RunReport

#: Version stamp of the certificate dict layout (stored in the service
#: cache beside results; bump on incompatible changes).
CERTIFICATE_FORMAT = 1

#: Default base tolerance for certificate checks.  Vector-scale checks
#: (mass defect, nonnegativity, measure consistency) use it directly;
#: rate-scale checks (residual, spectral defect) multiply by the chain's
#: maximum exit rate so the bound is invariant under time rescaling.
DEFAULT_CERTIFICATE_TOL = 1e-6

#: Original-chain size above which the measure-consistency and spectral
#: spot-checks are skipped (they solve / densify the *unlumped* chain,
#: which would defeat the point of lumping on large models).
DEFAULT_SPOT_CHECK_LIMIT = 128

#: Name of the independent residual-recheck engine (provenance).
RESIDUAL_ENGINE = "longdouble-coo"


@dataclass
class CertificateCheck:
    """One named check inside a :class:`Certificate`.

    ``value``/``bound`` are the measured quantity and its acceptance
    bound when numeric; structural checks (and skipped spot-checks,
    whose ``detail`` starts with ``"skipped:"``) leave them ``None``.
    """

    name: str
    passed: bool
    value: Optional[float] = None
    bound: Optional[float] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "passed": self.passed,
            "value": self.value,
            "bound": self.bound,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CertificateCheck":
        value = data.get("value")
        bound = data.get("bound")
        return cls(
            name=str(data["name"]),
            passed=bool(data.get("passed", False)),
            value=None if value is None else float(value),  # type: ignore[arg-type]
            bound=None if bound is None else float(bound),  # type: ignore[arg-type]
            detail=str(data.get("detail", "")),
        )


@dataclass
class Certificate:
    """Machine-checkable evidence that a stationary solution is right.

    Carries the individual :class:`CertificateCheck` outcomes plus
    provenance: the solver ``method`` that produced the vector, the
    lumping ``kind``, the recheck ``engine``, and the ``tolerance`` /
    ``rate_scale`` pair the bounds were derived from.  Serialization is
    deterministic (no wall-clock fields), so certificates can live in
    the content-addressed result cache without perturbing digests.
    """

    passed: bool
    checks: List[CertificateCheck] = field(default_factory=list)
    method: str = "unknown"
    kind: str = "ordinary"
    tolerance: float = DEFAULT_CERTIFICATE_TOL
    rate_scale: float = 1.0
    num_states: int = 0
    engine: str = RESIDUAL_ENGINE
    format: int = CERTIFICATE_FORMAT

    @property
    def failures(self) -> List[CertificateCheck]:
        """The checks that did not pass."""
        return [check for check in self.checks if not check.passed]

    @property
    def reasons(self) -> List[str]:
        """Structured failure reasons, one per failing check."""
        out = []
        for check in self.failures:
            reason = check.name
            if check.value is not None and check.bound is not None:
                reason += f" ({check.value:.3e} vs bound {check.bound:.3e})"
            if check.detail:
                reason += f": {check.detail}"
            out.append(reason)
        return out

    def check(self, name: str) -> Optional[CertificateCheck]:
        """The first check with this name, or ``None``."""
        for entry in self.checks:
            if entry.name == name:
                return entry
        return None

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": self.format,
            "passed": self.passed,
            "method": self.method,
            "kind": self.kind,
            "tolerance": self.tolerance,
            "rate_scale": self.rate_scale,
            "num_states": self.num_states,
            "engine": self.engine,
            "checks": [check.to_dict() for check in self.checks],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Certificate":
        return cls(
            passed=bool(data.get("passed", False)),
            checks=[
                CertificateCheck.from_dict(c)  # type: ignore[arg-type]
                for c in data.get("checks", ())  # type: ignore[union-attr]
            ],
            method=str(data.get("method", "unknown")),
            kind=str(data.get("kind", "ordinary")),
            tolerance=float(data.get("tolerance", DEFAULT_CERTIFICATE_TOL)),  # type: ignore[arg-type]
            rate_scale=float(data.get("rate_scale", 1.0)),  # type: ignore[arg-type]
            num_states=int(data.get("num_states", 0)),  # type: ignore[arg-type]
            engine=str(data.get("engine", RESIDUAL_ENGINE)),
            format=int(data.get("format", CERTIFICATE_FORMAT)),  # type: ignore[arg-type]
        )

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            "certificate: "
            + ("PASSED" if self.passed else "FAILED")
            + f"  (method={self.method}, kind={self.kind}, "
            f"n={self.num_states}, tol={self.tolerance:g}, "
            f"engine={self.engine})"
        ]
        for check in self.checks:
            line = f"  {'ok  ' if check.passed else 'FAIL'} {check.name}"
            if check.value is not None:
                line += f"  value={check.value:.3e}"
            if check.bound is not None:
                line += f"  bound={check.bound:.3e}"
            if check.detail:
                line += f"  ({check.detail})"
            lines.append(line)
        return "\n".join(lines)


def certificate_tolerance(
    ctmc: CTMC, tol: Optional[float] = None
) -> Tuple[float, float]:
    """The ``(base_tol, rate_scale)`` pair for certifying against ``ctmc``.

    Vector-scale bounds use ``base_tol`` as-is (a probability vector is
    unit-scale regardless of the model's rates); residual and spectral
    bounds multiply by ``rate_scale = max(1, max exit rate)``, since
    ``pi Q`` carries the rates' units.
    """
    base = DEFAULT_CERTIFICATE_TOL if tol is None else float(tol)
    if base <= 0:
        raise SolverError(f"certificate tolerance must be positive, got {base:g}")
    exit_rates = ctmc.exit_rates()
    top = float(exit_rates.max()) if exit_rates.size else 0.0
    return base, max(1.0, top)


def apply_corruption(pi: np.ndarray) -> np.ndarray:
    """Fault hook for the ``certify.corrupt`` site: flip one entry.

    When a matching fault rule fires (see :mod:`repro.robust.faults`),
    the largest entry is replaced by ``2 * entry + 0.5`` *without*
    renormalizing — a mass defect of at least 0.5, far outside any
    certificate tolerance, so an armed corruption is always caught.
    Without an active rule the vector passes through untouched (one
    global read, as for every fault site).
    """
    arr = np.asarray(pi, dtype=float)
    try:
        faults.check("certify.corrupt")
    except InjectedFault:
        corrupted = arr.copy()
        if corrupted.size:
            worst = int(np.argmax(corrupted))
            corrupted[worst] = corrupted[worst] * 2.0 + 0.5
        return corrupted
    return arr


# ----------------------------------------------------------------------
# individual checks
# ----------------------------------------------------------------------


def _vector_checks(pi: np.ndarray, tol: float) -> List[CertificateCheck]:
    """The NaN/Inf, mass-defect, and nonnegativity checks."""
    nan_count = int(np.isnan(pi).sum())
    inf_count = int(np.isinf(pi).sum())
    checks = [
        CertificateCheck(
            name="finite",
            passed=nan_count == 0 and inf_count == 0,
            value=float(nan_count + inf_count),
            bound=0.0,
            detail=(
                f"{nan_count} NaN, {inf_count} infinite of {pi.size} entries"
                if nan_count or inf_count
                else ""
            ),
        )
    ]
    total = float(pi.sum()) if pi.size else 0.0
    defect = abs(total - 1.0)
    checks.append(
        CertificateCheck(
            name="mass-defect",
            passed=bool(defect <= tol),
            value=defect,
            bound=tol,
            detail=f"sum(pi) = {total:.12g}",
        )
    )
    minimum = float(pi.min()) if pi.size else 0.0
    checks.append(
        CertificateCheck(
            name="nonnegativity",
            passed=bool(minimum >= -tol),
            value=minimum,
            bound=-tol,
            detail="most negative entry vs -tol",
        )
    )
    return checks


def _generator_coo(
    ctmc: CTMC,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, off_diagonal_data, diagonal)`` of the generator."""
    q = ctmc.generator_matrix().tocoo()
    rows = np.asarray(q.row)
    cols = np.asarray(q.col)
    data = np.asarray(q.data, dtype=float)
    off = rows != cols
    diag = np.zeros(ctmc.num_states, dtype=float)
    on = ~off
    diag[rows[on]] = data[on]
    return rows[off], cols[off], data[off], diag


def _residual_check(pi: np.ndarray, ctmc: CTMC, bound: float) -> CertificateCheck:
    """Independent ``||pi Q||_inf`` recheck in extended precision."""
    q = ctmc.generator_matrix().tocoo()
    residual = extended_residual_inf(
        pi, np.asarray(q.row), np.asarray(q.col), np.asarray(q.data),
        ctmc.num_states,
    )
    return CertificateCheck(
        name="residual-recheck",
        passed=bool(residual <= bound),
        value=residual,
        bound=bound,
        detail=f"||pi Q||_inf via {RESIDUAL_ENGINE}",
    )


def _measure_check(
    pi: np.ndarray,
    flat: CTMC,
    lumping: "CompositionalLumpingResult",
    bound: float,
) -> CertificateCheck:
    """Lumped-vs-unlumped measure consistency on projected vectors."""
    name = "measure-consistency"
    try:
        full = steady_state(flat, method="direct").distribution
        projected = lumping.project_distribution(full)
    except ReproError as exc:
        return CertificateCheck(
            name=name, passed=True,
            detail=f"skipped: {type(exc).__name__}: {exc}",
        )
    if projected.shape != pi.shape:
        return CertificateCheck(
            name=name, passed=False,
            detail=(
                f"projected shape {projected.shape} does not match "
                f"lumped vector shape {pi.shape}"
            ),
        )
    gap = float(np.abs(projected - pi).max()) if pi.size else 0.0
    return CertificateCheck(
        name=name,
        passed=bool(gap <= bound),
        value=gap,
        bound=bound,
        detail="max |project(pi_unlumped) - pi_lumped|",
    )


def _spectral_check(
    flat: CTMC,
    lumping: "CompositionalLumpingResult",
    kind: str,
    bound: float,
) -> CertificateCheck:
    """Invariant-subspace lumpability spot-check (0710.1986).

    With ``V`` the block-indicator matrix of the flat partition, the
    partition is an ordinary lumping of ``M`` iff the column space of
    ``V`` is ``M``-invariant: ``M V = V Mhat`` for
    ``Mhat = (V^T V)^{-1} V^T M V``.  Ordinary lumping tests ``M = Q``;
    exact lumping is the same condition on ``M = Q^T``.
    """
    name = "spectral-lumpability"
    try:
        q = flat.generator_matrix().toarray()  # reprolint: disable=RL003 -- spot-check only runs when n <= spot_check_limit (128)
        projection = lumping.projection_vector()
    except ReproError as exc:
        return CertificateCheck(
            name=name, passed=True,
            detail=f"skipped: {type(exc).__name__}: {exc}",
        )
    n = int(projection.size)
    if n != q.shape[0]:
        return CertificateCheck(
            name=name, passed=False,
            detail=(
                f"projection maps {n} states but the flat chain has "
                f"{q.shape[0]}"
            ),
        )
    m = int(lumping.lumped.num_states())
    indicator = np.zeros((n, m), dtype=float)
    indicator[np.arange(n), projection] = 1.0
    matrix = q if kind == "ordinary" else q.T
    counts = indicator.sum(axis=0)
    counts[counts == 0] = 1.0  # empty class: contributes a zero row
    lumped_matrix = (indicator.T @ matrix @ indicator) / counts[:, None]
    defect = float(
        np.abs(matrix @ indicator - indicator @ lumped_matrix).max()
    )
    return CertificateCheck(
        name=name,
        passed=bool(defect <= bound),
        value=defect,
        bound=bound,
        detail=f"||M V - V Mhat||_max, M = {'Q' if kind == 'ordinary' else 'Q^T'}",
    )


# ----------------------------------------------------------------------
# certification entry points
# ----------------------------------------------------------------------


def certify_stationary(
    pi: np.ndarray,
    ctmc: CTMC,
    *,
    method: str = "unknown",
    kind: str = "ordinary",
    tol: Optional[float] = None,
) -> Certificate:
    """Certify a stationary vector against the chain it claims to solve.

    Runs the flat-chain checks (finite, mass defect, nonnegativity,
    independent residual recheck); the lumping-aware spot-checks need
    the lumping structure and live in :func:`certify`.
    """
    base, scale = certificate_tolerance(ctmc, tol)
    arr = np.asarray(pi, dtype=float).ravel()
    if arr.size != ctmc.num_states:
        return Certificate(
            passed=False,
            checks=[
                CertificateCheck(
                    name="shape",
                    passed=False,
                    detail=(
                        f"vector has {arr.size} entries for a "
                        f"{ctmc.num_states}-state chain"
                    ),
                )
            ],
            method=method,
            kind=kind,
            tolerance=base,
            rate_scale=scale,
            num_states=ctmc.num_states,
        )
    checks = _vector_checks(arr, base)
    checks.append(_residual_check(arr, ctmc, base * scale))
    return Certificate(
        passed=all(check.passed for check in checks),
        checks=checks,
        method=method,
        kind=kind,
        tolerance=base,
        rate_scale=scale,
        num_states=ctmc.num_states,
    )


def _certify_lumped(
    pi: np.ndarray,
    lumped_ctmc: CTMC,
    lumping: Optional["CompositionalLumpingResult"],
    original: Optional["MDModel"],
    *,
    method: str,
    kind: str,
    tol: Optional[float],
    spot_check_limit: int,
) -> Certificate:
    """Flat-chain checks plus the lumping-aware spot-checks."""
    cert = certify_stationary(
        pi, lumped_ctmc, method=method, kind=kind, tol=tol
    )
    if lumping is None or cert.check("shape") is not None:
        return cert
    model = original if original is not None else lumping.original
    arr = np.asarray(pi, dtype=float).ravel()
    scaled = cert.tolerance * cert.rate_scale
    n = int(model.num_states())
    if n > spot_check_limit:
        detail = (
            f"skipped: {n} original states exceed spot-check limit "
            f"{spot_check_limit}"
        )
        cert.checks.append(
            CertificateCheck("measure-consistency", True, detail=detail)
        )
        cert.checks.append(
            CertificateCheck("spectral-lumpability", True, detail=detail)
        )
    else:
        try:
            flat = model.flat_ctmc()
        except ReproError as exc:
            detail = f"skipped: {type(exc).__name__}: {exc}"
            cert.checks.append(
                CertificateCheck("measure-consistency", True, detail=detail)
            )
            cert.checks.append(
                CertificateCheck("spectral-lumpability", True, detail=detail)
            )
        else:
            cert.checks.append(
                _measure_check(arr, flat, lumping, cert.tolerance)
            )
            cert.checks.append(_spectral_check(flat, lumping, kind, scaled))
    cert.passed = all(check.passed for check in cert.checks)
    return cert


def certify(
    solution: "LumpedSolution",
    model: Optional["MDModel"] = None,
    *,
    tol: Optional[float] = None,
    spot_check_limit: int = DEFAULT_SPOT_CHECK_LIMIT,
    lumped_ctmc: Optional[CTMC] = None,
) -> Certificate:
    """Certify a :class:`~repro.analysis.LumpedSolution` end to end.

    ``model`` is the original (unlumped) model for the spot-checks; when
    omitted, the lumping's recorded original is used.  Returns the
    :class:`Certificate` — pass/fail with structured reasons — without
    raising; callers that must not proceed on failure check ``passed``
    (or use ``lump_and_solve(certify=True)``, which escalates and raises
    :class:`~repro.errors.CertificationError` when the ladder runs dry).
    ``lumped_ctmc`` lets callers that already hold the flattened lumped
    chain (the solve pipeline does) skip re-flattening the MD, which
    otherwise dominates the certificate's cost.
    """
    if lumped_ctmc is None:
        lumped_ctmc = solution.lumping.lumped.flat_ctmc()
    return _certify_lumped(
        np.asarray(solution.stationary, dtype=float),
        lumped_ctmc,
        solution.lumping,
        model,
        method=solution.solve_method,
        kind=solution.lumping.kind,
        tol=tol,
        spot_check_limit=spot_check_limit,
    )


# ----------------------------------------------------------------------
# escalation ladder
# ----------------------------------------------------------------------


@dataclass
class CertifiedSolve:
    """A certified stationary vector plus the path that produced it."""

    stationary: np.ndarray
    method: str
    certificate: Certificate
    escalations: List[str] = field(default_factory=list)

    @property
    def escalated(self) -> bool:
        """Whether any ladder rung beyond the original solve was needed."""
        return bool(self.escalations)


def _resolve_candidate(
    ctmc: CTMC, method: str, tol: float
) -> Tuple[Optional[np.ndarray], Optional[str]]:
    """One re-solve attempt for the ladder: ``(vector, error)``."""
    from repro.robust.fallback import ITERATIVE_METHODS

    kwargs: Dict[str, Any] = {}
    if method in ITERATIVE_METHODS:
        kwargs["tol"] = tol
    try:
        result = steady_state(ctmc, method=method, **kwargs)
    except SolverError as exc:
        return None, str(exc)
    return np.asarray(result.distribution, dtype=float), None


def certify_with_escalation(
    pi: np.ndarray,
    lumped_ctmc: CTMC,
    *,
    method: str,
    kind: str = "ordinary",
    lumping: Optional["CompositionalLumpingResult"] = None,
    original: Optional["MDModel"] = None,
    chain: Sequence[str] = (),
    report: Optional["RunReport"] = None,
    solver_tol: float = 1e-12,
    spot_check_limit: int = DEFAULT_SPOT_CHECK_LIMIT,
) -> CertifiedSolve:
    """Certify ``pi``; on failure climb the escalation ladder.

    The ladder, in order (each rung re-certified before acceptance):

    1. every untried method of ``chain`` (the existing fallback chain),
    2. a tightened-tolerance re-solve (``solver_tol / 1e3``) with the
       first iterative method of the chain,
    3. an extended-precision ("float128") Jacobi refinement of the best
       iterate via :func:`repro.util.numeric.extended_jacobi_refine`.

    Every certification attempt lands in ``report`` as a
    ``certificate``-stage attempt and every rung taken as a
    ``certificate-escalation`` fallback.  Raises
    :class:`~repro.errors.CertificationError` (last certificate
    attached) when the ladder is exhausted.
    """
    from repro.robust.fallback import ITERATIVE_METHODS

    escalations: List[str] = []

    def _evaluate(vector: np.ndarray, label: str) -> Certificate:
        candidate = apply_corruption(vector)
        start = time.perf_counter()
        cert = _certify_lumped(
            candidate,
            lumped_ctmc,
            lumping,
            original,
            method=label,
            kind=kind,
            tol=None,
            spot_check_limit=spot_check_limit,
        )
        if report is not None:
            report.record_attempt(
                stage="certificate",
                name=f"certify:{label}",
                succeeded=cert.passed,
                seconds=time.perf_counter() - start,
                error=None if cert.passed else "; ".join(cert.reasons),
                residual=(
                    cert.check("residual-recheck").value  # type: ignore[union-attr]
                    if cert.check("residual-recheck") is not None
                    else None
                ),
            )
        return cert

    first = np.asarray(pi, dtype=float)
    cert = _evaluate(first, method)
    if cert.passed:
        return CertifiedSolve(
            stationary=first, method=method, certificate=cert, escalations=[]
        )
    last_cert = cert
    last_reason = "; ".join(cert.reasons) or "certificate failed"

    def _escalate(label: str) -> None:
        escalations.append(label)
        if report is not None:
            report.record_fallback(
                stage="certificate-escalation",
                requested=method,
                used=label,
                reason=last_reason,
            )

    # Rung 1: the untried methods of the existing fallback chain.
    tried = {method}
    for alternative in chain:
        if alternative in tried:
            continue
        tried.add(alternative)
        _escalate(alternative)
        vector, error = _resolve_candidate(
            lumped_ctmc, alternative, solver_tol
        )
        if vector is None:
            last_reason = f"{alternative} re-solve failed: {error}"
            continue
        cert = _evaluate(vector, alternative)
        if cert.passed:
            return CertifiedSolve(
                stationary=vector,
                method=alternative,
                certificate=cert,
                escalations=escalations,
            )
        last_cert = cert
        last_reason = "; ".join(cert.reasons) or "certificate failed"

    # Rung 2: tightened tolerance on the first iterative method.
    iterative = next(
        (m for m in chain if m in ITERATIVE_METHODS), "gauss-seidel"
    )
    tight_tol = max(solver_tol / 1e3, 1e-15)
    tight_label = f"{iterative}@tol={tight_tol:g}"
    _escalate(tight_label)
    vector, error = _resolve_candidate(lumped_ctmc, iterative, tight_tol)
    if vector is not None:
        cert = _evaluate(vector, tight_label)
        if cert.passed:
            return CertifiedSolve(
                stationary=vector,
                method=iterative,
                certificate=cert,
                escalations=escalations,
            )
        last_cert = cert
        last_reason = "; ".join(cert.reasons) or "certificate failed"
    else:
        last_reason = f"tightened re-solve failed: {error}"

    # Rung 3: extended-precision refinement of the best iterate.
    _escalate("float128-refine")
    rows, cols, data, diag = _generator_coo(lumped_ctmc)
    try:
        refined = extended_jacobi_refine(
            first, rows, cols, data, diag, sweeps=2000, tol=solver_tol
        )
    except SolverError as exc:
        last_reason = f"float128 refinement failed: {exc}"
    else:
        cert = _evaluate(refined, "float128-refine")
        if cert.passed:
            return CertifiedSolve(
                stationary=refined,
                method="float128-refine",
                certificate=cert,
                escalations=escalations,
            )
        last_cert = cert
        last_reason = "; ".join(cert.reasons) or "certificate failed"

    raise CertificationError(
        f"certification of the {method!r} solution failed and the "
        f"escalation ladder ({', '.join(escalations)}) is exhausted; "
        f"last failures: {last_reason}",
        certificate=last_cert,
        method=method,
    )


# ----------------------------------------------------------------------
# cache revalidation
# ----------------------------------------------------------------------


def revalidate_cached(
    result: Dict[str, Any], certificate: Optional[Dict[str, Any]]
) -> Optional[str]:
    """Re-validate a cached result against its stored certificate.

    Returns ``None`` when the entry may be served, or a reason string
    when it must be evicted and re-solved.  Entries without a
    certificate (written before certification existed, or with
    ``certify=False``) are served as-is — absence of evidence is legacy,
    not corruption.  The cheap vector checks are *recomputed* from the
    stored stationary vector, so bytes that went stale between ``put``
    and ``get`` (despite an intact digest) are still caught.
    """
    if certificate is None:
        return None
    if not isinstance(certificate, dict):
        return "stored certificate is not a mapping"
    if not certificate.get("passed", False):
        return "stored certificate did not pass"
    stationary = result.get("stationary")
    if stationary is None:
        return "cached result carries no stationary vector"
    arr = np.asarray(stationary, dtype=float).ravel()
    tol = float(certificate.get("tolerance", DEFAULT_CERTIFICATE_TOL))
    expected = certificate.get("num_states")
    if expected is not None and int(expected) != arr.size:
        return (
            f"stationary vector has {arr.size} entries but the "
            f"certificate covers {int(expected)}"
        )
    for check in _vector_checks(arr, tol):
        if not check.passed:
            value = "" if check.value is None else f" ({check.value:.3e})"
            return f"recomputed check {check.name!r} failed{value}"
    return None
