"""Trigonometric first-integral ansatz and its residual identities.

On H = 1/2 a candidate first integral is sought as

    F(x, y, phi) = sum_{k=-N..N} a_k(x, y) exp(i k phi),
    a_k = u_k + i v_k,   a_{-k} = conj(a_k),

so F is real and equals u_0 + 2 sum_{k=1..N} (u_k cos(k phi) - v_k sin(k phi)).
Conservation of F along the flow is the stationarity equation

    F_x cos(phi) + F_y sin(phi)
      + F_phi (Lambda_y cos(phi)/(2 Lambda) - Lambda_x sin(phi)/(2 Lambda)
               - Omega / sqrt(Lambda)) = 0,

and equating each exp(i k phi) coefficient to zero yields one complex relation
per harmonic k = 0 .. N+1 (with a_k = 0 for k > N).  The top harmonic forces
the normalization u_N = Lambda^(N/2), v_N = 0; the k = N harmonic splits into
a closed expression for the magnetic field Omega and a divergence constraint
on the leading coefficients.  In the rescaled variables f_k = u_k
Lambda^(-k/2), g_k = v_k Lambda^(-k/2) the k = N-1 harmonic becomes a pair of
flux-divergence conservation laws, which is what the Egorov certificate
checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .fields import (DomainError, Field, Jet, LAMBDA_FLOOR, SamplingGrid,
                     TorusGeometry, TrigField, check_conformal_factor,
                     value_field, zero_field)
from .flow import MagneticSystem


# ---------------------------------------------------------------------------
# Residual reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquationResidual:
    """Norms of one residual equation over the sampling set.

    Relative values divide pointwise by (1 + max magnitude of the equation's
    individual terms), so identically satisfied equations report 0 and
    large-field cases stay comparable.
    """

    label: str
    sup: float
    rms: float
    rel_sup: float
    rel_rms: float


@dataclass
class ResidualReport:
    """Residual norms per equation.  `values`, where the kernel provides it,
    is the pointwise residual magnitude on the grid (for plotting)."""

    entries: list
    periodic: bool = True
    flags: list = _dc_field(default_factory=list)
    values: np.ndarray | None = None

    def entry(self, label: str) -> EquationResidual:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    @property
    def max_sup(self) -> float:
        return max(e.sup for e in self.entries)

    @property
    def max_rel_sup(self) -> float:
        return max(e.rel_sup for e in self.entries)

    def summary(self) -> str:
        return "; ".join(f"{e.label}: sup={e.sup:.3e} rel={e.rel_sup:.3e}"
                         for e in self.entries)


def _largest(*terms):
    """Pointwise largest magnitude among an equation's terms."""
    return functools.reduce(np.maximum, map(np.abs, terms))


def _residual_entry(label, chunks) -> EquationResidual:
    """Norms of an equation whose samples come as (residual, largest term
    magnitude) array pairs, accumulated one pair at a time."""
    sup = rel_sup = square_sum = rel_square_sum = 0.0
    count = 0
    for residual, mags in chunks:
        rel = np.abs(residual) / (1.0 + mags)
        sup = max(sup, float(np.max(np.abs(residual))))
        rel_sup = max(rel_sup, float(np.max(rel)))
        square_sum += float(np.sum(residual * residual))
        rel_square_sum += float(np.sum(rel * rel))
        count += residual.size
    return EquationResidual(label, sup, math.sqrt(square_sum / count),
                            rel_sup, math.sqrt(rel_square_sum / count))


def _all_periodic(fields) -> bool:
    return all(f.periodic for f in fields)


# ---------------------------------------------------------------------------
# Ansatz containers
# ---------------------------------------------------------------------------


class Ansatz:
    """Degree-N ansatz: conformal factor plus coefficient fields u_k, v_k.

    The constructor takes the free lower coefficients u_0 .. u_{N-1} and
    v_1 .. v_{N-1}; v_0 is identically zero (a_0 is real) and the top pair is
    pinned to u_N = Lambda^(N/2), v_N = 0.  Pass ``normalize=False`` only to
    inject explicit top coefficients for testing.
    """

    def __init__(self, n: int, lam: Field, u_lower, v_lower=(),
                 geometry: TorusGeometry | None = None, *,
                 normalize: bool = True, u_top: Field | None = None,
                 v_top: Field | None = None, check_grid: SamplingGrid | None = None):
        if n < 1:
            raise ValueError("ansatz degree must be >= 1")
        self.n = int(n)
        self.geometry = geometry if geometry is not None else lam.geometry
        self.lam = lam
        u_lower = list(u_lower)
        v_lower = list(v_lower)
        if len(u_lower) != n:
            raise ValueError(f"expected {n} fields u_0..u_{n - 1}, got {len(u_lower)}")
        if len(v_lower) != max(n - 1, 0):
            raise ValueError(f"expected {n - 1} fields v_1..v_{n - 1}, got {len(v_lower)}")
        check_conformal_factor(lam, check_grid if check_grid is not None
                               else SamplingGrid(64, 64, self.geometry))
        zero = zero_field(self.geometry)
        if normalize:
            u_top = lam ** (n / 2.0)
            v_top = zero
        else:
            u_top = u_top if u_top is not None else lam ** (n / 2.0)
            v_top = v_top if v_top is not None else zero
        self.u = tuple(u_lower) + (u_top,)
        self.v = (zero,) + tuple(v_lower) + (v_top,)

    def fields(self):
        return (self.lam,) + self.u + self.v


@dataclass
class RescaledAnsatz:
    """Rescaled coefficient fields f_k = u_k Lambda^(-k/2), g_k = v_k Lambda^(-k/2)."""

    n: int
    f: tuple
    g: tuple
    lam: Field
    geometry: TorusGeometry

    def __post_init__(self):
        if len(self.f) != self.n or len(self.g) != self.n:
            raise ValueError(f"need {self.n} rescaled fields f_0..f_{self.n - 1} "
                             f"and g_0..g_{self.n - 1}")


def rescale(ansatz: Ansatz) -> RescaledAnsatz:
    """Exact pointwise transformation; derivatives propagate by the chain rule."""
    f = []
    g = []
    for k in range(ansatz.n):
        if k == 0:
            f.append(ansatz.u[0])
            g.append(ansatz.v[0])
        else:
            scale = ansatz.lam ** (-k / 2.0)
            f.append(ansatz.u[k] * scale)
            g.append(ansatz.v[k] * scale)
    return RescaledAnsatz(ansatz.n, tuple(f), tuple(g), ansatz.lam, ansatz.geometry)


def unrescale(rescaled: RescaledAnsatz) -> tuple:
    """Recover (u_0.., v_0..) coefficient fields from the rescaled variables."""
    u = []
    v = []
    for k in range(rescaled.n):
        if k == 0:
            u.append(rescaled.f[0])
            v.append(rescaled.g[0])
        else:
            scale = rescaled.lam ** (k / 2.0)
            u.append(rescaled.f[k] * scale)
            v.append(rescaled.g[k] * scale)
    return tuple(u), tuple(v)


# ---------------------------------------------------------------------------
# The harmonic relations on jets
# ---------------------------------------------------------------------------
#
# Each relation is written once, on jets (v, v_x, v_y): the grid kernels pass
# field jets on a SamplingGrid, `quasilinear.stacked_residual` passes point
# values with derivative slots.


def coefficient_jet(n: int, j: int, real_jets) -> Jet:
    """Complex jet of a_j = u_j + i v_j, with a_{-j} = conj(a_j) and a_j = 0
    for |j| > N; `real_jets(m)` returns the jets (u_m, v_m)."""
    if abs(j) > n:
        return Jet(0.0, 0.0, 0.0)
    i = 1j if j >= 0 else -1j
    u, v = real_jets(abs(j))
    return Jet(u.v + i * v.v, u.x + i * v.x, u.y + i * v.y)


def harmonic_relation(k: int, lam: Jet, akm: Jet, akp: Jet, ak, omega):
    """Residual of the harmonic-k relation and its five terms, from the jets
    of Lambda, a_{k-1} and a_{k+1} and the values of a_k and Omega."""
    t1 = (lam.y / (2.0 * lam.v)) * (1j * (k - 1) * akm.v + 1j * (k + 1) * akp.v) / 2.0
    t2 = -(lam.x / (2.0 * lam.v)) * (1j * (k - 1) * akm.v - 1j * (k + 1) * akp.v) / (2.0j)
    t3 = (akm.x + akp.x) / 2.0
    t4 = (akm.y - akp.y) / (2.0j)
    t5 = -1j * k * omega * ak / np.sqrt(lam.v)
    return t1 + t2 + t3 + t4 + t5, (t1, t2, t3, t4, t5)


def omega_closed_form(n: int, lam: Jet, u: Jet, v: Jet):
    """Magnetic field from the jets of Lambda and u = u_{N-1}, v = v_{N-1}:

        Omega = [(N-1)(Lambda_y u - Lambda_x v) + 2 Lambda (v_x - u_y)]
                / (4 N Lambda^((N+1)/2))
    """
    num = (n - 1) * (lam.y * u.v - lam.x * v.v) + 2.0 * lam.v * (v.x - u.y)
    return num / (4.0 * n * lam.v ** ((n + 1) / 2.0))


def constraint_sides(n: int, lam: Jet, u: Jet, v: Jet):
    """The two sides of the unscaled divergence constraint
    2 Lambda (u_x + v_y) = (N-1)(v Lambda_y + u Lambda_x), u = u_{N-1},
    v = v_{N-1}."""
    return 2.0 * lam.v * (u.x + v.y), (n - 1) * (v.v * lam.y + u.v * lam.x)


# ---------------------------------------------------------------------------
# Evaluation of F
# ---------------------------------------------------------------------------


def eval_F(ansatz: Ansatz, x, y, phi):
    """Real value of the ansatz: u_0 + 2 sum_k (u_k cos(k phi) - v_k sin(k phi))."""
    phi = np.asarray(phi, dtype=float) if not isinstance(phi, (int, float)) else phi
    total = ansatz.u[0].eval(x, y)
    for k in range(1, ansatz.n + 1):
        ck = np.cos(k * phi)
        sk = np.sin(k * phi)
        total = total + 2.0 * (ansatz.u[k].eval(x, y) * ck - ansatz.v[k].eval(x, y) * sk)
    return total


def first_integral_observable(ansatz: Ansatz):
    """Observable callable obs(x, y, phi) for trajectory monitoring."""
    return lambda x, y, phi: eval_F(ansatz, x, y, phi)


# ---------------------------------------------------------------------------
# Stationarity residual
# ---------------------------------------------------------------------------


def default_phi_count(n: int) -> int:
    # Resolves harmonics up to N+1 (needs 2N+3 samples) with aliasing margin.
    return 4 * n + 4


def _stationarity_samples(ansatz: Ansatz, omega: Field, grid: SamplingGrid, phis):
    """Residual of the stationarity equation on the grid and its largest
    term magnitude, yielded one angle at a time."""
    lam = ansatz.lam.jet(grid)
    u = [f.jet(grid) for f in ansatz.u]
    v = [f.jet(grid) for f in ansatz.v]
    coef = lam.y / (2.0 * lam.v)
    coef_x = lam.x / (2.0 * lam.v)
    om_term = omega.on_grid(grid) / np.sqrt(lam.v)
    for phi in phis:
        c, s = math.cos(phi), math.sin(phi)
        f_x, f_y, f_phi = u[0].x, u[0].y, 0.0
        for k in range(1, ansatz.n + 1):
            ck, sk = 2.0 * math.cos(k * phi), 2.0 * math.sin(k * phi)
            f_x = f_x + (u[k].x * ck - v[k].x * sk)
            f_y = f_y + (u[k].y * ck - v[k].y * sk)
            f_phi = f_phi - k * (u[k].v * sk + v[k].v * ck)
        t1 = f_x * c
        t2 = f_y * s
        t3 = f_phi * (coef * c - coef_x * s - om_term)
        yield t1 + t2 + t3, _largest(t1, t2, t3)


def stationarity_residual_values(ansatz: Ansatz, omega: Field,
                                 grid: SamplingGrid, phis: np.ndarray):
    """Residual of the stationarity equation on grid x phi samples.

    Returns (residual, term_magnitude) arrays of shape (n_phi, nx, ny).
    """
    res, mags = zip(*_stationarity_samples(ansatz, omega, grid, phis))
    return np.stack(res), np.stack(mags)


def residual_stationarity(ansatz: Ansatz, omega: Field,
                          grid: SamplingGrid | None = None,
                          n_phi: int | None = None) -> ResidualReport:
    """Norms of the stationarity residual over grid x equispaced angles,
    streamed one angle at a time; `values` is the largest |residual| over
    the angles at each grid node."""
    grid = grid if grid is not None else SamplingGrid(64, 64, ansatz.geometry)
    n_phi = n_phi if n_phi is not None else default_phi_count(ansatz.n)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    peak = np.zeros((grid.nx, grid.ny))

    def samples():
        for res, mags in _stationarity_samples(ansatz, omega, grid, phis):
            np.maximum(peak, np.abs(res), out=peak)
            yield res, mags

    entry = _residual_entry("stationarity", samples())
    return ResidualReport([entry], values=peak,
                          periodic=_all_periodic(ansatz.fields() + (omega,)))


# ---------------------------------------------------------------------------
# Harmonic residuals
# ---------------------------------------------------------------------------


def harmonic_residual_values(ansatz: Ansatz, omega: Field, k: int,
                             grid: SamplingGrid):
    """Complex residual of harmonic k on the grid, plus per-term magnitudes."""
    n = ansatz.n
    if k < 0 or k > n + 1:
        raise ValueError(f"harmonic index k must lie in 0..{n + 1}, got {k}")
    real_jets = lambda m: (ansatz.u[m].jet(grid), ansatz.v[m].jet(grid))
    akm, akp = coefficient_jet(n, k - 1, real_jets), coefficient_jet(n, k + 1, real_jets)
    if 0 < k <= n:
        ak, om = coefficient_jet(n, k, real_jets).v, omega.on_grid(grid)
    else:   # the magnetic term k a_k Omega vanishes
        ak, om = 0.0, 0.0
    residual, terms = harmonic_relation(k, ansatz.lam.jet(grid), akm, akp, ak, om)
    return residual, _largest(*terms)


def residual_harmonic(ansatz: Ansatz, omega: Field, k: int,
                      grid: SamplingGrid | None = None) -> ResidualReport:
    """Real and imaginary norms of the harmonic-k relation; `values` is the
    magnitude of the complex residual."""
    grid = grid if grid is not None else SamplingGrid(64, 64, ansatz.geometry)
    res, mags = harmonic_residual_values(ansatz, omega, k, grid)
    entries = [_residual_entry(f"harmonic_{k}_real", [(res.real, mags)]),
               _residual_entry(f"harmonic_{k}_imag", [(res.imag, mags)])]
    return ResidualReport(entries, values=np.abs(res),
                          periodic=_all_periodic(ansatz.fields() + (omega,)))


# ---------------------------------------------------------------------------
# Magnetic field from the ansatz
# ---------------------------------------------------------------------------


def omega_raw(ansatz: Ansatz) -> Field:
    """Magnetic field from the unrescaled leading coefficients
    (`omega_closed_form`).  The result is an evaluation-only field (its own
    derivatives would need second derivatives of the inputs, which the field
    contract excludes).
    """
    n = ansatz.n

    def value(lam, u_top, v_top):
        if not np.all(np.asarray(lam.v) > LAMBDA_FLOOR):
            raise DomainError("conformal factor at or below the positivity floor")
        return omega_closed_form(n, lam, u_top, v_top)

    return value_field(value, (ansatz.lam, ansatz.u[n - 1], ansatz.v[n - 1]),
                       label="omega_raw")


def omega_rescaled(rescaled: RescaledAnsatz) -> Field:
    """Magnetic field from the rescaled leading coefficients:
    Omega = ((g_{N-1})_x - (f_{N-1})_y) / (2 N)."""
    n = rescaled.n
    return value_field(lambda f_top, g_top: (g_top.x - f_top.y) / (2.0 * n),
                       (rescaled.f[n - 1], rescaled.g[n - 1]), label="omega_rescaled")


# ---------------------------------------------------------------------------
# Constraint and conservation-law residuals
# ---------------------------------------------------------------------------


def constraint_residual(obj, grid: SamplingGrid | None = None) -> ResidualReport:
    """Residuals of the leading-coefficient divergence constraint, in both the
    unrescaled form 2 Lambda ((u_{N-1})_x + (v_{N-1})_y) = (N-1)(v_{N-1}
    Lambda_y + u_{N-1} Lambda_x) and the rescaled form (f_{N-1})_x +
    (g_{N-1})_y = 0, for an Ansatz or a RescaledAnsatz.  The two agree
    pointwise up to the factor 2 Lambda^((N+1)/2)."""
    if isinstance(obj, Ansatz):
        rescaled, (u, v) = rescale(obj), (obj.u, obj.v)
    elif isinstance(obj, RescaledAnsatz):
        rescaled, (u, v) = obj, unrescale(obj)
    else:
        raise TypeError("expected an Ansatz or RescaledAnsatz")
    n, lam = rescaled.n, rescaled.lam
    u_top, v_top = u[n - 1], v[n - 1]
    grid = grid if grid is not None else SamplingGrid(64, 64, rescaled.geometry)
    t_lhs, t_rhs = constraint_sides(n, lam.jet(grid), u_top.jet(grid), v_top.jet(grid))

    f_top = rescaled.f[n - 1]
    g_top = rescaled.g[n - 1]
    tf = f_top.jet(grid).x
    tg = g_top.jet(grid).y

    entries = [
        _residual_entry("divergence_unscaled", [(t_lhs - t_rhs, _largest(t_lhs, t_rhs))]),
        _residual_entry("divergence_rescaled", [(tf + tg, _largest(tf, tg))]),
    ]
    return ResidualReport(entries,
                          periodic=_all_periodic((lam, u_top, v_top, f_top, g_top)))


N1_DEGENERATE_FLAG = "N=1 degenerate"


def _second_block(rescaled: RescaledAnsatz):
    """f_{N-2}, g_{N-2}; for N = 1 these are the conjugation-forced values
    f_{-1} = u_1 Lambda^(1/2) = Lambda and g_{-1} = -v_1 Lambda^(1/2) = 0
    under the top normalization."""
    n = rescaled.n
    if n >= 2:
        return rescaled.f[n - 2], rescaled.g[n - 2], False
    return rescaled.lam, zero_field(rescaled.geometry), True


def conservation_flux_fields(rescaled: RescaledAnsatz):
    """The density R and the two flux fields of the conservation-law pair

        R_x + [ (N-1)/2 (g^2 - f^2) - N^2 Lambda + N f_{N-2} ]_y = 0
        R_y + [ (N-1)/2 (f^2 - g^2) - N^2 Lambda - N f_{N-2} ]_x = 0

    with R = (N-1) f g - N g_{N-2}, f = f_{N-1}, g = g_{N-1}.
    Returns (R, flux_1, flux_2, degenerate_flag)."""
    n, lam = rescaled.n, rescaled.lam
    f = rescaled.f[n - 1]
    g = rescaled.g[n - 1]
    fm2, gm2, degenerate = _second_block(rescaled)
    r_field = (n - 1) * (f * g) - n * gm2
    half = (n - 1) / 2.0
    flux1 = half * (g * g - f * f) - float(n * n) * lam + n * fm2
    flux2 = half * (f * f - g * g) - float(n * n) * lam - n * fm2
    return r_field, flux1, flux2, degenerate


def conservation_residuals(rescaled: RescaledAnsatz,
                           grid: SamplingGrid | None = None) -> ResidualReport:
    """Residual norms of the two conservation laws on the grid.  All outer
    derivatives are expanded by the product/chain rule onto first derivatives
    of the inputs."""
    grid = grid if grid is not None else SamplingGrid(64, 64, rescaled.geometry)
    r_field, flux1, flux2, degenerate = conservation_flux_fields(rescaled)
    r, f1, f2 = r_field.jet(grid), flux1.jet(grid), flux2.jet(grid)
    entries = [
        _residual_entry("conservation_1", [(r.x + f1.y, _largest(r.x, f1.y))]),
        _residual_entry("conservation_2", [(r.y + f2.x, _largest(r.y, f2.x))]),
    ]
    flags = [N1_DEGENERATE_FLAG] if degenerate else []
    involved = list(rescaled.f) + list(rescaled.g) + [rescaled.lam]
    return ResidualReport(entries, periodic=_all_periodic(involved), flags=flags)


# ---------------------------------------------------------------------------
# Exact degree-1 family
# ---------------------------------------------------------------------------


def _assert_y_only(field: Field, name: str, geometry: TorusGeometry):
    grid = SamplingGrid(16, 16, geometry)
    vals = np.abs(np.asarray(field.d_dx(grid.mesh_x, grid.mesh_y)))
    scale = 1.0 + np.max(np.abs(np.asarray(field.on_grid(grid))))
    if np.max(vals) > 1e-12 * scale:
        raise ValueError(f"{name} must depend on y only")


def build_linear_family(lambda_profile: Field, a_profile: Field,
                        geometry: TorusGeometry | None = None):
    """Exact degree-1 configuration from profiles Lambda(y) > 0 and A(y):

        u_0 = 2 A(y),  u_1 = Lambda^(1/2),  v_1 = 0,  Omega = -A'(y).

    Every harmonic relation then holds identically and
    F = 2 sqrt(Lambda) cos(phi) + 2 A(y) is conserved by the flow.
    Returns (Ansatz with N = 1, MagneticSystem).
    """
    geometry = geometry if geometry is not None else lambda_profile.geometry
    _assert_y_only(lambda_profile, "lambda profile", geometry)
    _assert_y_only(a_profile, "A profile", geometry)
    ansatz = Ansatz(1, lambda_profile, [2.0 * a_profile], [], geometry)
    if isinstance(a_profile, TrigField):
        omega = -1.0 * a_profile.dy_field()
    else:
        omega = value_field(lambda a: -a.y, (a_profile,), label="minus_A_prime")
    system = MagneticSystem(lambda_profile, omega, geometry)
    return ansatz, system
