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

import functools
import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .fields import DomainError, Jet, SamplingGrid, power_jet
from .ansatz import (RescaledAnsatz, ResidualReport, coefficient_jet,
                     conservation_residuals, constraint_residual,
                     constraint_sides, harmonic_relation, omega_closed_form)


@dataclass(frozen=True)
class StateVector:
    """Pointwise state (Lambda, u_0..u_{N-1}, v_1..v_{N-1}) of even length 2N,
    or a stack of M such states of shape (M, 2N)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim not in (1, 2) or vals.shape[-1] < 2 or vals.shape[-1] % 2 != 0:
            raise ValueError("state vector must have even length 2N >= 2")
        rows = vals.reshape(-1, vals.shape[-1])
        finite = np.isfinite(rows).all(axis=1)
        valid = finite & (rows[:, 0] > 0.0)
        if not valid.all():   # the first invalid state is named
            first = int(np.argmin(valid))
            if not finite[first]:
                raise ValueError(f"state vector entries must be finite, got {rows[first].tolist()}")
            raise DomainError(f"state has nonpositive conformal factor {rows[first, 0]:g}")

    @property
    def n(self) -> int:
        return self.values.shape[-1] // 2

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


class _PerStatePowers(np.ndarray):
    """Lambda values of a stack of states.  `**` is taken per state on a
    float64 scalar, as for a single state: numpy's array power may round
    differently in the last bit.  Every other operation returns a plain
    array."""

    def __pow__(self, exponent):
        return np.reshape([x ** exponent for x in self.view(np.ndarray).flat], self.shape)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        inputs = [np.asarray(x) if isinstance(x, _PerStatePowers) else x for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


def stacked_residual(state, ux, uy) -> np.ndarray:
    """The 2N equation residuals for free derivative slots (ux, uy).

    The slots follow the state layout; top-coefficient derivatives follow
    from the normalization u_N = Lambda^{N/2} by the chain rule, and the
    magnetic field is replaced by its closed form in the leading
    coefficients, which keeps every equation first order and linear in the
    slots.  Slots of shape (2N, m) give rows of shape (2N, m), one column
    per slot pair; a stack of M states gives shape (M, 2N, m).
    """
    state = StateVector.coerce(state)
    n = state.n
    ux = np.asarray(ux, dtype=float)
    uy = np.asarray(uy, dtype=float)
    if ux.shape != uy.shape or ux.shape[:1] != (2 * n,) or ux.ndim > 2:
        raise ValueError(f"derivative slots must have shape ({2 * n},) or ({2 * n}, m)")

    # one value per slot with a leading state axis, broadcast over slot columns
    stack = np.atleast_2d(state.values)
    values = stack.T.reshape(stack.shape[::-1] + (1,) * (ux.ndim - 1))
    lam, *free = map(Jet, values, ux, uy)
    lam = lam._replace(v=lam.v.view(_PerStatePowers))
    u = free[:n] + [power_jet(lam, n / 2.0)]
    v = [Jet(0.0, 0.0, 0.0)] + free[n:] + [Jet(0.0, 0.0, 0.0)]
    a = {j: coefficient_jet(n, j, lambda m: (u[m], v[m])) for j in range(-1, n + 1)}
    omega = omega_closed_form(n, lam, u[n - 1], v[n - 1])

    rows = []
    for k in range(n):
        e_k = harmonic_relation(k, lam, a[k - 1], a[k + 1], a[k].v, omega)[0]
        rows += [e_k.real] if k == 0 else [e_k.real, e_k.imag]
    lhs, rhs = constraint_sides(n, lam, u[n - 1], v[n - 1])
    rows.append(lhs - rhs)
    rows = np.moveaxis(np.array(rows), 0, 1)
    return rows if state.values.ndim == 2 else rows[0]


@dataclass(frozen=True)
class SystemMatrices:
    """A, B with A U_x + B U_y = 0 the assembled system at a state, or the
    (M, 2N, 2N) stacks of A and B at a stack of M states."""

    a: np.ndarray
    b: np.ndarray

    def apply(self, ux, uy) -> np.ndarray:
        return self.a @ np.asarray(ux, dtype=float) + self.b @ np.asarray(uy, dtype=float)


def assemble(state) -> SystemMatrices:
    """A and B from one residual evaluation: the residual is linear in the
    slots, so the slot pair ([I | 0], [0 | I]) returns [A | B].  A stack of
    states is assembled in the same single evaluation."""
    state = StateVector.coerce(state)
    dim = 2 * state.n
    rows = stacked_residual(state, np.eye(dim, 2 * dim), np.eye(dim, 2 * dim, dim))
    return SystemMatrices(rows[..., :dim], rows[..., dim:])


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

#: Imaginary parts below, and real gaps above, DISTINCT_TOL * max(1, radius)
#: make a spectrum real and distinct.
DISTINCT_TOL = 1e-9
#: The A^{-1} B fallback is taken only where cond(A) < COND_THRESHOLD.
COND_THRESHOLD = 1e12


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


def _conds(mats) -> list:
    """2-norm condition numbers of a stack of matrices: one call for the
    stack, matrix by matrix (inf where the SVD fails) if that call fails."""
    try:
        return np.linalg.cond(mats).tolist()
    except np.linalg.LinAlgError:
        return [_safe_cond(mat) for mat in mats]


@functools.cache
def _flapack():
    """scipy's compiled LAPACK wrapper, `scipy.linalg._flapack`, loaded once
    from its file without running `scipy/linalg/__init__.py`, whose imports
    (about 0.2 s and 25 MB) would dominate an `assemble` run.  The extension
    keeps its own name, so a later `import scipy.linalg` reuses it."""
    name = "scipy.linalg._flapack"
    scipy_spec = importlib.util.find_spec("scipy")   # imports nothing
    locations = scipy_spec.submodule_search_locations if scipy_spec else []
    paths = [os.path.join(location, "linalg", "_flapack" + suffix)
             for location in locations for suffix in importlib.machinery.EXTENSION_SUFFIXES]
    path = next((p for p in paths if os.path.isfile(p)), None)
    if path is None:
        looked = " or ".join(paths) if paths else "an installed scipy package"
        raise ImportError(f"no LAPACK extension {name}: looked for {looked}", name=name)
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    module = importlib.util.module_from_spec(
        importlib.util.spec_from_file_location(name, path, loader=loader))
    loader.exec_module(module)
    return module


@functools.cache
def _qz_solver(dim: int):
    """LAPACK xGGEV for real dim x dim pencils and its workspace size, queried
    as `scipy.linalg.eig` queries it: `dggev` is the routine that
    `scipy.linalg.lapack.get_lapack_funcs(("ggev",), (probe, probe))` returns."""
    ggev = _flapack().dggev
    probe = np.eye(dim)
    lwork = ggev(probe, probe, lwork=-1)[-2][0].real.astype(np.int_)
    return ggev, lwork


def _qz_error(info: int) -> str:
    """`scipy.linalg.eig`'s message for a nonzero xGGEV info."""
    if info < 0:
        return f"illegal value in argument {-info} of internal generalized eig algorithm (ggev)"
    return f"generalized eig algorithm (ggev) did not converge (LAPACK info={info})"


def _pencil(matrices):
    """(A, B) of a SystemMatrices, an (A, B) pair, or a single matrix B
    with A = I."""
    if isinstance(matrices, SystemMatrices):
        return matrices.a, matrices.b
    if isinstance(matrices, (tuple, list)) and len(matrices) == 2:
        return np.asarray(matrices[0], dtype=float), np.asarray(matrices[1], dtype=float)
    b_mat = np.asarray(matrices, dtype=float)
    return np.broadcast_to(np.eye(b_mat.shape[-1]), b_mat.shape), b_mat


def spectrum(matrices) -> SpectrumReport:
    """Spectrum report of one pencil: `spectra` of a stack of one."""
    a_mat, b_mat = _pencil(matrices)
    return spectra((a_mat[None], b_mat[None]))[0]


def _homogeneous_eigenvalues(a_stack, b_stack, diagnostics):
    """Eigenvalue pairs (alpha, beta) of each pencil by LAPACK xGGEV, with
    alpha / beta, and the mask of the pencils solved.  A pencil that QZ
    refuses (non-finite) or fails on (info != 0) gets a `qz_error`
    diagnostic; if A is finite and well conditioned the A^{-1} B
    eigenvalues w stand in, as (w, 1)."""
    m, dim = a_stack.shape[:2]
    finite_input = np.isfinite(a_stack).all(axis=(1, 2)) & np.isfinite(b_stack).all(axis=(1, 2))
    ggev, lwork = _qz_solver(dim)
    alpha = np.zeros((m, dim), dtype=complex)
    beta = np.zeros((m, dim), dtype=complex)
    fallback = {}
    for i in range(m):
        if finite_input[i]:
            alphar, alphai, beta_i, *_, info = ggev(b_stack[i], a_stack[i], 0, 0, lwork)
            if info == 0:
                alpha[i] = alphar + 1j * alphai
                beta[i] = beta_i
                continue
            diagnostics[i]["qz_error"] = _qz_error(info)
        else:
            diagnostics[i]["qz_error"] = "array must not contain infs or NaNs"
        if finite_input[i] and diagnostics[i]["cond_a"] < COND_THRESHOLD:
            w = np.linalg.eigvals(np.linalg.solve(a_stack[i], b_stack[i]))
            fallback[i] = np.asarray(w / np.ones_like(w), dtype=complex)   # w's own dtype
            alpha[i], beta[i] = w, 1.0
            diagnostics[i]["method"] = "a_inverse_b"
    with np.errstate(divide="ignore", invalid="ignore"):
        values = alpha / beta
    for i, w in fallback.items():
        values[i] = w
    solved = np.array(["qz_error" not in d or "method" in d for d in diagnostics], dtype=bool)
    return alpha, beta, values, solved


def spectra(matrices) -> list:
    """Eigenvalues of the pencils det(B - lambda A) = 0 of a stack of M
    pencils (A and B of shape (M, d, d)) via a generalized (QZ) eigenvalue
    computation, one SpectrumReport per pencil; the A^{-1} B route is used
    only as a fallback when QZ fails and A is well conditioned.  Never raises
    on singular or non-finite input: such a pencil is reported as a
    degenerate classification."""
    a_stack, b_stack = _pencil(matrices)
    diagnostics = [{"cond_a": ca, "cond_b": cb}
                   for ca, cb in zip(_conds(a_stack), _conds(b_stack))]
    alpha, beta, values, solved = _homogeneous_eigenvalues(a_stack, b_stack, diagnostics)

    pair_scale = np.abs(alpha) + np.abs(beta)
    tiny = np.finfo(float).eps * np.maximum(1.0, np.max(pair_scale, axis=1, initial=0.0)) * 100.0
    indeterminate = pair_scale <= tiny[:, None]
    infinite = ~indeterminate & (np.abs(beta) <= tiny[:, None])
    finite_mask = ~indeterminate & ~infinite
    counts = finite_mask.sum(axis=1)
    n_infinite = infinite.sum(axis=1).tolist()
    n_indeterminate = indeterminate.sum(axis=1).tolist()

    reports = [SpectrumReport(np.array([], dtype=complex), DEGENERATE, diag)
               for diag in diagnostics]
    # The finite eigenvalues of the pencils with c of them, as a (pencils, c)
    # array: sorting each row at its own length orders ties as sorting the
    # pencil alone does.
    for c in np.unique(counts[solved]).tolist():
        rows = np.flatnonzero(solved & (counts == c))
        finite = values[rows][finite_mask[rows]].reshape(len(rows), c)
        order = np.argsort(finite.real + 1e-300 * finite.imag, axis=1)
        finite = np.take_along_axis(finite, order, axis=1)
        classes = _classify(finite, indeterminate[rows].any(axis=1))
        for i, eigs, (cls, gap) in zip(rows.tolist(), finite, classes):
            diagnostics[i].update(n_infinite=n_infinite[i], n_indeterminate=n_indeterminate[i])
            if gap is not None:
                diagnostics[i]["min_gap"] = gap
            reports[i] = SpectrumReport(eigs, cls, diagnostics[i])
    return reports


def _classify(finite, indeterminate) -> list:
    """(classification, smallest real gap) of each row of a (pencils, c)
    array of sorted finite eigenvalues; the gap is None where it is not
    computed (a degenerate pencil or a complex eigenvalue)."""
    n_rows, c = finite.shape
    if c == 0:
        return [(DEGENERATE, None)] * n_rows
    radius = np.maximum(np.max(np.abs(finite), axis=1), 1e-300)
    tol = DISTINCT_TOL * np.maximum(radius, 1.0)
    complex_pair = np.any(np.abs(finite.imag) > tol[:, None], axis=1)
    if c > 1:
        gaps = np.min(np.diff(np.sort(finite.real, axis=1), axis=1), axis=1)
    else:
        gaps = np.full(n_rows, math.inf)
    out = []
    for ind, cpx, gap, t in zip(indeterminate.tolist(), complex_pair.tolist(),
                                gaps.tolist(), tol.tolist()):
        if ind:
            out.append((DEGENERATE, None))
        elif cpx:
            out.append((ELLIPTIC_MIXED, None))
        else:
            out.append((HYPERBOLIC if gap > t else DEGENERATE, gap))
    return out


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
    return certificate_from_reports(constraint_residual(rescaled, grid),
                                    conservation_residuals(rescaled, grid), tol)
