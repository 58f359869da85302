"""Numeric assembly of the quasi-linear system A(U) U_x + B(U) U_y = 0 on the
state U = (Lambda, u_0, ..., u_{N-1}, v_1, ..., v_{N-1}), spectra of the
matrix pencil, the explicit geodesic coefficient matrix, and the Egorov
certificate built from the conservation-law pair.

The 2N stacked equations are: the real harmonic-0 relation, the real and
imaginary parts of harmonics k = 1 .. N-1 with the magnetic field eliminated
through its closed-form expression in the leading coefficients, and the
leading-coefficient divergence constraint, each evaluated by the jet
kernels of `ansatz`.  Each equation is linear in the derivative slots
(U_x, U_y) with coefficients depending only on U, so one evaluation on the
slot pair ([I | 0], [0 | I]) yields [A | B] exactly (vector-mode forward
differentiation of a map linear in the slots).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .fields import DomainError, Jet, SamplingGrid
from .ansatz import (RescaledAnsatz, ResidualReport, coefficient_jet,
                     conservation_residuals, constraint_residual,
                     constraint_sides, harmonic_relation, omega_closed_form)


@dataclass(frozen=True)
class StateVector:
    """Pointwise state (Lambda, u_0..u_{N-1}, v_1..v_{N-1}) of even length 2N."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2 or vals.size % 2 != 0:
            raise ValueError("state vector must have even length 2N >= 2")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"state vector entries must be finite, got {vals.tolist()}")
        if not vals[0] > 0.0:
            raise DomainError(f"state has nonpositive conformal factor {vals[0]:g}")

    @property
    def n(self) -> int:
        return self.values.size // 2

    @property
    def lam(self) -> float:
        return float(self.values[0])

    @classmethod
    def coerce(cls, obj) -> "StateVector":
        return obj if isinstance(obj, cls) else cls(np.asarray(obj, dtype=float))


def state_from_ansatz(ansatz, x: float, y: float) -> StateVector:
    """Evaluate an ansatz's state vector at a point."""
    vals = [ansatz.lam.eval(x, y)]
    vals += [ansatz.u[k].eval(x, y) for k in range(ansatz.n)]
    vals += [ansatz.v[k].eval(x, y) for k in range(1, ansatz.n)]
    return StateVector(np.asarray(vals, dtype=float))


def stacked_residual(state, ux, uy) -> np.ndarray:
    """The 2N equation residuals for free derivative slots (ux, uy).

    The slots follow the state layout; top-coefficient derivatives follow
    from the normalization u_N = Lambda^{N/2} by the chain rule, and the
    magnetic field is replaced by its closed form in the leading
    coefficients, which keeps every equation first order and linear in the
    slots.  Slots of shape (2N, m) give rows of shape (2N, m), one column
    per slot pair.
    """
    state = StateVector.coerce(state)
    n = state.n
    ux = np.asarray(ux, dtype=float)
    uy = np.asarray(uy, dtype=float)
    if ux.shape != uy.shape or ux.shape[:1] != (2 * n,) or ux.ndim > 2:
        raise ValueError(f"derivative slots must have shape ({2 * n},) or ({2 * n}, m)")

    lam, *free = map(Jet, state.values, ux, uy)
    slope = (n / 2.0) * lam.v ** (n / 2.0 - 1.0)
    u = free[:n] + [Jet(lam.v ** (n / 2.0), slope * lam.x, slope * lam.y)]
    v = [Jet(0.0, 0.0, 0.0)] + free[n:] + [Jet(0.0, 0.0, 0.0)]
    a = {j: coefficient_jet(n, j, lambda m: (u[m], v[m])) for j in range(-1, n + 1)}
    omega = omega_closed_form(n, lam, u[n - 1], v[n - 1])

    rows = []
    for k in range(n):
        e_k = harmonic_relation(k, lam, a[k - 1], a[k + 1], a[k].v, omega)[0]
        rows += [e_k.real] if k == 0 else [e_k.real, e_k.imag]
    lhs, rhs = constraint_sides(n, lam, u[n - 1], v[n - 1])
    rows.append(lhs - rhs)
    return np.array(rows)


@dataclass(frozen=True)
class SystemMatrices:
    """A, B with A U_x + B U_y = 0 the assembled system at a state."""

    a: np.ndarray
    b: np.ndarray

    def apply(self, ux, uy) -> np.ndarray:
        return self.a @ np.asarray(ux, dtype=float) + self.b @ np.asarray(uy, dtype=float)


def assemble(state) -> SystemMatrices:
    """A and B from one residual evaluation: the residual is linear in the
    slots, so the slot pair ([I | 0], [0 | I]) returns [A | B]."""
    state = StateVector.coerce(state)
    dim = 2 * state.n
    rows = stacked_residual(state, np.eye(dim, 2 * dim), np.eye(dim, 2 * dim, dim))
    return SystemMatrices(rows[:, :dim], rows[:, dim:])


# ---------------------------------------------------------------------------
# Geodesic coefficient matrix (no magnetic field, semi-geodesic coordinates)
# ---------------------------------------------------------------------------


def geodesic_matrix(n: int, a) -> np.ndarray:
    """The n x n coefficient matrix with subdiagonal a_{n-1} and last column
    (a_1, 2 a_2 - n a_0, 3 a_3 - (n-1) a_1, ..., n a_n - 2 a_{n-2});
    `a` supplies a_0 .. a_n with a_{n-1} the metric coefficient and a_n = 1.
    """
    if n < 2:
        raise ValueError("geodesic matrix needs degree n >= 2")
    a = np.asarray(a, dtype=float)
    if a.shape != (n + 1,):
        raise ValueError(f"need {n + 1} values a_0..a_{n}")
    mat = np.zeros((n, n))
    for i in range(2, n + 1):
        mat[i - 1, i - 2] = a[n - 1]
    mat[0, n - 1] = a[1]
    for i in range(2, n + 1):
        mat[i - 1, n - 1] = i * a[i] - (n - i + 2) * a[i - 2]
    return mat


# ---------------------------------------------------------------------------
# Pencil spectra and hyperbolicity classification
# ---------------------------------------------------------------------------

HYPERBOLIC = "hyperbolic"
DEGENERATE = "degenerate"
ELLIPTIC_MIXED = "elliptic/mixed"


@dataclass
class SpectrumReport:
    """Finite eigenvalues of det(B - lambda A) = 0 and their classification:
    hyperbolic iff all finite eigenvalues are real and pairwise distinct."""

    eigenvalues: np.ndarray
    classification: str
    diagnostics: dict = _dc_field(default_factory=dict)


def _safe_cond(mat) -> float:
    try:
        return float(np.linalg.cond(mat))
    except np.linalg.LinAlgError:
        return float("inf")


def spectrum(matrices, distinct_tol: float = 1e-9,
             cond_threshold: float = 1e12) -> SpectrumReport:
    """Eigenvalues of the pencil det(B - lambda A) = 0 via a generalized (QZ)
    eigenvalue computation; the A^{-1} B route is used only as a fallback when
    QZ fails and A is well conditioned.  Never raises on singular input:
    a singular pencil is reported as a degenerate classification."""
    import scipy.linalg   # imported on first use: it dominates `import magtorus`

    if isinstance(matrices, SystemMatrices):
        a_mat, b_mat = matrices.a, matrices.b
    elif isinstance(matrices, (tuple, list)) and len(matrices) == 2:
        a_mat = np.asarray(matrices[0], dtype=float)
        b_mat = np.asarray(matrices[1], dtype=float)
    else:
        b_mat = np.asarray(matrices, dtype=float)
        a_mat = np.eye(b_mat.shape[0])

    diagnostics = {"cond_a": _safe_cond(a_mat), "cond_b": _safe_cond(b_mat)}
    try:
        alpha, beta = scipy.linalg.eig(b_mat, a_mat, right=False,
                                       homogeneous_eigvals=True)
    except Exception as exc:  # LAPACK failure; try the explicit inverse route
        diagnostics["qz_error"] = str(exc)
        if diagnostics["cond_a"] < cond_threshold:
            w = np.linalg.eigvals(np.linalg.solve(a_mat, b_mat))
            alpha, beta = w, np.ones_like(w)
            diagnostics["method"] = "a_inverse_b"
        else:
            return SpectrumReport(np.array([], dtype=complex), DEGENERATE, diagnostics)

    pair_scale = np.abs(alpha) + np.abs(beta)
    tiny = np.finfo(float).eps * max(1.0, float(np.max(pair_scale, initial=0.0))) * 100.0
    indeterminate = pair_scale <= tiny
    infinite = (~indeterminate) & (np.abs(beta) <= tiny)
    finite_mask = (~indeterminate) & (~infinite)
    finite = np.asarray(alpha[finite_mask] / beta[finite_mask], dtype=complex)
    order = np.argsort(finite.real + 1e-300 * finite.imag)
    finite = finite[order]

    diagnostics["n_infinite"] = int(np.sum(infinite))
    diagnostics["n_indeterminate"] = int(np.sum(indeterminate))

    if np.any(indeterminate) or finite.size == 0:
        classification = DEGENERATE
    else:
        radius = max(float(np.max(np.abs(finite))), 1e-300)
        tol = distinct_tol * max(radius, 1.0)
        if np.any(np.abs(finite.imag) > tol):
            classification = ELLIPTIC_MIXED
        else:
            gaps = np.diff(np.sort(finite.real))
            min_gap = float(np.min(gaps)) if gaps.size else math.inf
            diagnostics["min_gap"] = min_gap
            classification = HYPERBOLIC if min_gap > tol else DEGENERATE
    return SpectrumReport(finite, classification, diagnostics)


# ---------------------------------------------------------------------------
# Egorov certificate
# ---------------------------------------------------------------------------


@dataclass
class EgorovCertificate:
    """Outcome of checking the two special-form conservation laws (plus the
    divergence constraint that makes them equivalent to the leading harmonic
    relations): certified when all three residual sup-norms fall below the
    tolerance."""

    certified: bool
    tolerance: float
    residual_sups: dict
    flags: list


def certificate_from_reports(constraint: ResidualReport, conservation: ResidualReport,
                             tol: float) -> EgorovCertificate:
    """The certificate decision on a `constraint_residual` report and a
    `conservation_residuals` report of the same configuration and grid."""
    sups = {
        "divergence_rescaled": constraint.entry("divergence_rescaled").sup,
        "conservation_1": conservation.entry("conservation_1").sup,
        "conservation_2": conservation.entry("conservation_2").sup,
    }
    flags = list(conservation.flags)
    if not (constraint.periodic and conservation.periodic):
        flags.append("non-periodic fields: certificate is local to the sampled domain")
    return EgorovCertificate(all(s < tol for s in sups.values()), tol, sups, flags)


def egorov_certificate(rescaled: RescaledAnsatz, grid: SamplingGrid | None = None,
                       tol: float = 1e-10) -> EgorovCertificate:
    """Certificate of a rescaled configuration on the grid (default 64 x 64)."""
    grid = grid if grid is not None else SamplingGrid(64, 64, rescaled.geometry)
    return certificate_from_reports(constraint_residual(rescaled, grid),
                                    conservation_residuals(rescaled, grid), tol)
