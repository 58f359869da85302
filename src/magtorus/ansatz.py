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
import time
from collections import namedtuple

import numpy as np

from .fields import (DomainError, Field, Jet, LAMBDA_FLOOR, SamplingGrid, TrigField,
                     bandwidth, check_conformal_factor, checked_make, point_kernel,
                     run_kernel, same_torus, trig_leaves, value_field, zero_field)
from .flow import MagneticSystem


# ---------------------------------------------------------------------------
# Residual reporting
# ---------------------------------------------------------------------------


#: Norms of one residual equation over the sampling set.  Relative values
#: divide pointwise by (1 + max magnitude of the equation's individual
#: terms), so identically satisfied equations report 0 and large-field cases
#: stay comparable.
EquationResidual = namedtuple("EquationResidual", "label sup rms rel_sup rel_rms")


class ResidualReport(namedtuple("ResidualReport", "entries periodic flags values modes",
                                defaults=(True, None, None, (0, 0)))):
    """Residual norms per equation.  `values`, where the kernel provides it,
    is the pointwise residual magnitude on the grid (for plotting); `flags`,
    where the kernel raises them, qualify the result; `modes` is the
    `bandwidth` of the fields it evaluates."""

    __slots__ = ()

    def entry(self, label: str) -> EquationResidual:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    @property
    def max_sup(self) -> float:
        return float(np.max([e.sup for e in self.entries]))   # NaN if any is NaN

    def summary(self) -> str:
        return "; ".join(f"{e.label}: sup={e.sup:.3e} rel={e.rel_sup:.3e}"
                         for e in self.entries)


def _largest(*terms):
    """Pointwise largest magnitude among an equation's terms."""
    return functools.reduce(np.maximum, map(np.abs, terms))


class _Norms:
    """Norms of one equation, accumulated one sample at a time: a (residual,
    largest term magnitude) array pair.  `sup` and `rel_sup` are exact
    maxima, NaN if a sample holds a NaN; the sums of squares of the samples
    are kept for `entry` to add up."""

    def __init__(self, label: str):
        self.label = label
        self.sup = self.rel_sup = 0.0
        self.squares, self.rel_squares, self.count = [], [], 0

    def add(self, residual, mags):
        size = np.abs(residual)
        rel = size / (1.0 + mags)
        self.sup = np.maximum(self.sup, np.max(size))   # NaN wins, unlike max()
        self.rel_sup = np.maximum(self.rel_sup, np.max(rel))
        self.squares.append(np.sum(residual * residual))
        self.rel_squares.append(np.sum(rel * rel))
        self.count += residual.size

    def entry(self, fold) -> EquationResidual:
        """The norms; `fold` adds up the list of the samples' sums of
        squares."""
        return EquationResidual(self.label, float(self.sup),
                                math.sqrt(fold(self.squares) / self.count),
                                float(self.rel_sup),
                                math.sqrt(fold(self.rel_squares) / self.count))


#: One report for `streamed_reports`: the equations `labels` of `fields`, of
#: which `samples(block, part)` gives, for each equation, its (residual,
#: magnitude) pairs on a grid block, one per sample (an angle of the
#: stationarity check), as many on every block.  `part` is the block's part of
#: the report's zeroed `values` array to fill if `values`, else None.
ReportPlan = namedtuple("ReportPlan", "fields labels samples values flags",
                        defaults=(False, None))


def streamed_reports(grid, plans):
    """The report of each of `plans` over `grid` (the default `SamplingGrid`
    of the first field's torus if None), in one pass over its blocks: on a
    block every plan samples in turn, all reading the block's one memo,
    which goes with the block.  Between plans the memo keeps only the
    plans' `fields`, so a plan's own intermediate nodes go when it is done
    (a later plan that reads one evaluates it again).  A sample's sums of
    squares add up over the blocks to the bits of one `np.sum` over the grid
    (`SamplingGrid.fold`), and the samples' sums one after another; a report
    is periodic if every field of its plan is.

    Returns (the reports, each plan's seconds of sampling, the jets
    evaluated: one per field and block)."""
    grid = grid if grid is not None else SamplingGrid(geometry=plans[0].fields[0].geometry)
    arrays = [np.zeros((grid.nx, grid.ny)) if plan.values else None for plan in plans]
    norms = [[_Norms(label) for label in plan.labels] for plan in plans]
    seconds, jets = [0.0] * len(plans), 0
    declared = {field for plan in plans for field in plan.fields}
    for block in grid.blocks():
        for i, (plan, array) in enumerate(zip(plans, arrays)):
            start, known = time.perf_counter(), len(block.memo)
            part = block.part(array) if array is not None else None
            for acc, pairs in zip(norms[i], plan.samples(block, part)):
                for residual, mags in pairs:
                    acc.add(residual, mags)
            seconds[i] += time.perf_counter() - start
            jets += len(block.memo) - known
            for field in [f for f in block.memo if f not in declared]:
                del block.memo[field]   # a plan's own intermediate nodes

    def report(plan, array, accs):
        per_block = len(accs[0].squares) // len(grid.spans)

        def fold(parts):
            return sum(grid.fold(parts[s::per_block]) for s in range(per_block))

        return ResidualReport([acc.entry(fold) for acc in accs], values=array,
                              periodic=all(f.periodic for f in plan.fields),
                              flags=plan.flags, modes=bandwidth(*plan.fields))

    return list(map(report, plans, arrays, norms)), seconds, jets


def _report(plan, grid) -> ResidualReport:
    """The report of `plan` alone over `grid`."""
    return streamed_reports(grid, [plan])[0][0]


# ---------------------------------------------------------------------------
# Ansatz containers
# ---------------------------------------------------------------------------


class Ansatz:
    """Degree-N ansatz: conformal factor plus coefficient fields u_k, v_k.

    The constructor takes the free lower coefficients u_0 .. u_{N-1} and
    v_1 .. v_{N-1}; v_0 is identically zero (a_0 is real) and the top pair is
    pinned to u_N = Lambda^(N/2), v_N = 0.  Every coefficient lies on
    Lambda's torus, which is the ansatz's `geometry`.
    """

    def __init__(self, n: int, lam: Field, u_lower, v_lower=()):
        if n < 1:
            raise ValueError("ansatz degree must be >= 1")
        self.n = int(n)
        self.lam = lam
        u_lower = list(u_lower)
        v_lower = list(v_lower)
        if len(u_lower) != n:
            raise ValueError(f"expected {n} fields u_0..u_{n - 1}, got {len(u_lower)}")
        if len(v_lower) != max(n - 1, 0):
            raise ValueError(f"expected {n - 1} fields v_1..v_{n - 1}, got {len(v_lower)}")
        self.geometry = same_torus(lam, *u_lower, *v_lower)
        check_conformal_factor(lam)
        zero = zero_field(self.geometry)
        self.u = tuple(u_lower) + (lam ** (n / 2.0),)
        self.v = (zero,) + tuple(v_lower) + (zero,)

    def fields(self):
        return (self.lam,) + self.u + self.v

    @functools.cached_property
    def _f_kernel(self):
        """One point kernel of the coefficients of F: (u_0, u_0x, u_0y,
        u_1, .., u_N, v_1, .., v_N) at (x, y), compiled on first use."""
        return point_kernel(self.u[0], *self.u[1:], *self.v[1:])


class RescaledAnsatz(namedtuple("RescaledAnsatz", "n f g lam")):
    """Rescaled coefficient fields f_k = u_k Lambda^(-k/2), g_k = v_k Lambda^(-k/2),
    all on Lambda's torus.  No __slots__: `_second_block` is cached in the
    instance's __dict__."""

    _make = checked_make

    def __new__(cls, n: int, f: tuple, g: tuple, lam: Field):
        if len(f) != n or len(g) != n:
            raise ValueError(f"need {n} rescaled fields f_0..f_{n - 1} and g_0..g_{n - 1}")
        same_torus(lam, *f, *g)
        return super().__new__(cls, n, f, g, lam)

    @functools.cached_property
    def _second_block(self):
        """f_{N-2}, g_{N-2}; for N = 1 these are the conjugation-forced values
        f_{-1} = u_1 Lambda^(1/2) = Lambda and g_{-1} = -v_1 Lambda^(1/2) = 0
        under the top normalization, that zero built once."""
        if self.n >= 2:
            return self.f[self.n - 2], self.g[self.n - 2], False
        return self.lam, zero_field(self.lam.geometry), True


def _scaled_pairs(n: int, lam: Field, first, second, sign: int) -> tuple:
    """(first_k Lambda^(sign k/2), second_k Lambda^(sign k/2)) for
    k = 0 .. n-1: the one loop of `rescale` (sign -1) and `unrescale`
    (sign +1)."""
    f, g = [first[0]], [second[0]]
    for k in range(1, n):
        scale = lam ** (sign * k / 2.0)
        f.append(first[k] * scale)
        g.append(second[k] * scale)
    return tuple(f), tuple(g)


def rescale(ansatz: Ansatz) -> RescaledAnsatz:
    """Exact pointwise transformation; derivatives propagate by the chain rule."""
    f, g = _scaled_pairs(ansatz.n, ansatz.lam, ansatz.u, ansatz.v, -1)
    return RescaledAnsatz(ansatz.n, f, g, ansatz.lam)


def unrescale(rescaled: RescaledAnsatz) -> tuple:
    """Recover (u_0.., v_0..) coefficient fields from the rescaled variables."""
    return _scaled_pairs(rescaled.n, rescaled.lam, rescaled.f, rescaled.g, 1)


def unresolved_inputs(obj, grid: SamplingGrid) -> list:
    """A flag for each input of an Ansatz or RescaledAnsatz -- Lambda, u_0 ..
    u_{N-1} and v_1 .. v_{N-1}, or the f_k and g_k that stand for u_k and
    v_k -- with a trigonometric mode that `grid` does not resolve
    (`SamplingGrid.resolves`), naming the input, its first such mode and
    the grid.  A leaf under several inputs counts for the first of them, so
    Lambda's leaves under f_k count for Lambda."""
    first, second = (obj.u, obj.v) if isinstance(obj, Ansatz) else (obj.f, obj.g)
    named = [("Lambda", obj.lam), *((f"u_{k}", first[k]) for k in range(obj.n)),
             *((f"v_{k}", second[k]) for k in range(1, obj.n))]
    flags, seen = [], set()
    for name, field in named:
        leaves = [leaf for leaf in trig_leaves(field) if leaf not in seen]
        seen.update(leaves)
        modes = [mn for leaf in leaves for mn in leaf._half if not grid.resolves(*mn)]
        if modes:
            flags.append(unresolved_flag(f"{name} has mode {modes[0]}", grid))
    return flags


def unresolved_flag(what: str, grid: SamplingGrid) -> str:
    """The flag of `what`, a mode or modes beyond `grid`'s resolution."""
    return (f"{what}, which the {grid.nx}x{grid.ny} grid does not resolve (|m| < "
            f"{grid.nx / 2:g} and |n| < {grid.ny / 2:g}): an error can hide between its nodes")


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
    """Real value of the ansatz: u_0 + 2 sum_k (u_k cos(k phi) - v_k sin(k phi)).

    The coefficients come from one compiled kernel per ansatz, run by
    `run_kernel` as `Field.eval` runs a field's.  Each value has the bits
    the field's own kernel gives."""
    phi = np.asarray(phi, dtype=float) if not isinstance(phi, (int, float)) else phi
    total, _, _, *coefs = run_kernel(ansatz._f_kernel, x, y)
    u, v = coefs[:ansatz.n], coefs[ansatz.n:]   # u_1..u_N, v_1..v_N
    for k in range(1, ansatz.n + 1):
        ck = np.cos(k * phi)
        sk = np.sin(k * phi)
        total = total + 2.0 * (u[k - 1] * ck - v[k - 1] * sk)
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


def _stationarity_samples(ansatz: Ansatz, omega: Field, points, phis):
    """Residual of the stationarity equation on `points` (a grid or a grid
    block) and its largest term magnitude, yielded one angle at a time."""
    lam = ansatz.lam.jet(points)
    u = [f.jet(points) for f in ansatz.u]
    v = [f.jet(points) for f in ansatz.v]
    coef = lam.y / (2.0 * lam.v)
    coef_x = lam.x / (2.0 * lam.v)
    om_term = omega.on_grid(points) / np.sqrt(lam.v)
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


def stationarity_plan(ansatz: Ansatz, omega: Field, values: bool = True) -> ReportPlan:
    """The stationarity residual over grid x `default_phi_count` equispaced
    angles, sampled one block and angle at a time.  With `values`, the
    report's `values` is the largest |residual| over the angles at each grid
    node."""
    n_phi = default_phi_count(ansatz.n)
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi

    def samples(block, top):
        for res, mags in _stationarity_samples(ansatz, omega, block, phis):
            if top is not None:
                np.maximum(top, np.abs(res), out=top)
            yield res, mags

    return ReportPlan(ansatz.fields() + (omega,), ("stationarity",),
                      lambda block, top: [samples(block, top)], values)


def residual_stationarity(ansatz: Ansatz, omega: Field, grid: SamplingGrid | None = None,
                          values: bool = True) -> ResidualReport:
    """Norms of the stationarity residual (`stationarity_plan`) over `grid`."""
    return _report(stationarity_plan(ansatz, omega, values), grid)


# ---------------------------------------------------------------------------
# Harmonic residuals
# ---------------------------------------------------------------------------


def harmonic_residual_values(ansatz: Ansatz, omega: Field, k: int, points):
    """Complex residual of harmonic k on `points` (a grid or a grid block),
    plus per-term magnitudes."""
    n = ansatz.n
    if k < 0 or k > n + 1:
        raise ValueError(f"harmonic index k must lie in 0..{n + 1}, got {k}")
    real_jets = lambda m: (ansatz.u[m].jet(points), ansatz.v[m].jet(points))
    akm, akp = coefficient_jet(n, k - 1, real_jets), coefficient_jet(n, k + 1, real_jets)
    if 0 < k <= n:
        ak, om = coefficient_jet(n, k, real_jets).v, omega.on_grid(points)
    else:   # the magnetic term k a_k Omega vanishes
        ak, om = 0.0, 0.0
    residual, terms = harmonic_relation(k, ansatz.lam.jet(points), akm, akp, ak, om)
    return residual, _largest(*terms)


def harmonic_plan(ansatz: Ansatz, omega: Field, k: int, values: bool = True) -> ReportPlan:
    """The real and imaginary parts of the harmonic-k relation, sampled one
    block at a time.  With `values`, the report's `values` is the magnitude
    of the complex residual."""

    def samples(block, magnitude):
        res, mags = harmonic_residual_values(ansatz, omega, k, block)
        if magnitude is not None:
            np.abs(res, out=magnitude)
        return [(res.real, mags)], [(res.imag, mags)]

    return ReportPlan(ansatz.fields() + (omega,), (f"harmonic_{k}_real", f"harmonic_{k}_imag"),
                      samples, values)


def residual_harmonic(ansatz: Ansatz, omega: Field, k: int,
                      grid: SamplingGrid | None = None, values: bool = True) -> ResidualReport:
    """Real and imaginary norms of the harmonic-k relation (`harmonic_plan`)
    over `grid`."""
    return _report(harmonic_plan(ansatz, omega, k, values), grid)


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


def constraint_plan(obj) -> ReportPlan:
    """The leading-coefficient divergence constraint, in both the
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
    f_top, g_top = rescaled.f[n - 1], rescaled.g[n - 1]

    def samples(block, _):
        t_lhs, t_rhs = constraint_sides(n, lam.jet(block), u_top.jet(block), v_top.jet(block))
        tf, tg = f_top.jet(block).x, g_top.jet(block).y
        return [(t_lhs - t_rhs, _largest(t_lhs, t_rhs))], [(tf + tg, _largest(tf, tg))]

    return ReportPlan((lam, u_top, v_top, f_top, g_top),
                      ("divergence_unscaled", "divergence_rescaled"), samples)


def constraint_residual(obj, grid: SamplingGrid | None = None) -> ResidualReport:
    """Residuals of the divergence constraint (`constraint_plan`) over `grid`."""
    return _report(constraint_plan(obj), grid)


N1_DEGENERATE_FLAG = "N=1 degenerate"


def conservation_flux_fields(rescaled: RescaledAnsatz):
    """The density R and the two flux fields of the conservation-law pair

        R_x + [ (N-1)/2 (g^2 - f^2) - N^2 Lambda + N f_{N-2} ]_y = 0
        R_y + [ (N-1)/2 (f^2 - g^2) - N^2 Lambda - N f_{N-2} ]_x = 0

    with R = (N-1) f g - N g_{N-2}, f = f_{N-1}, g = g_{N-1}.
    Returns (R, flux_1, flux_2, degenerate_flag)."""
    n, lam = rescaled.n, rescaled.lam
    f = rescaled.f[n - 1]
    g = rescaled.g[n - 1]
    fm2, gm2, degenerate = rescaled._second_block
    r_field = (n - 1) * (f * g) - n * gm2
    half, ff, gg = (n - 1) / 2.0, f * f, g * g   # each square one node of both fluxes
    flux1 = half * (gg - ff) - float(n * n) * lam + n * fm2
    flux2 = half * (ff - gg) - float(n * n) * lam - n * fm2
    return r_field, flux1, flux2, degenerate


def conservation_plan(rescaled: RescaledAnsatz) -> ReportPlan:
    """The two conservation laws, sampled one block at a time.  All outer
    derivatives are expanded by the product/chain rule onto first derivatives
    of the inputs.  The report's fields are those the laws read: Lambda,
    f_{N-2} and g_{N-2} (`_second_block`), and f_{N-1} and g_{N-1} for
    N > 1 (at N = 1 they enter with coefficient N - 1 = 0)."""
    r_field, flux1, flux2, degenerate = conservation_flux_fields(rescaled)
    top = (rescaled.f[-1], rescaled.g[-1]) if rescaled.n > 1 else ()

    def samples(block, _):
        r, f1, f2 = r_field.jet(block), flux1.jet(block), flux2.jet(block)
        return [(r.x + f1.y, _largest(r.x, f1.y))], [(r.y + f2.x, _largest(r.y, f2.x))]

    return ReportPlan((rescaled.lam, *rescaled._second_block[:2], *top),
                      ("conservation_1", "conservation_2"), samples,
                      flags=[N1_DEGENERATE_FLAG] if degenerate else [])


def conservation_residuals(rescaled: RescaledAnsatz,
                           grid: SamplingGrid | None = None) -> ResidualReport:
    """Residual norms of the two conservation laws (`conservation_plan`) over
    `grid`."""
    return _report(conservation_plan(rescaled), grid)


# ---------------------------------------------------------------------------
# Exact degree-1 family
# ---------------------------------------------------------------------------


def _assert_y_only(field: Field, name: str):
    jet = field.jet(SamplingGrid(16, 16, field.geometry))
    scale = 1.0 + np.max(np.abs(np.asarray(jet.v)))
    if np.max(np.abs(np.asarray(jet.x))) > 1e-12 * scale:
        raise ValueError(f"{name} must depend on y only")


def build_linear_family(lambda_profile: Field, a_profile: Field):
    """Exact degree-1 configuration from profiles Lambda(y) > 0 and A(y):

        u_0 = 2 A(y),  u_1 = Lambda^(1/2),  v_1 = 0,  Omega = -A'(y).

    Every harmonic relation then holds identically and
    F = 2 sqrt(Lambda) cos(phi) + 2 A(y) is conserved by the flow.  Both
    profiles lie on one torus.  Returns (Ansatz with N = 1, MagneticSystem).
    """
    _assert_y_only(lambda_profile, "lambda profile")
    _assert_y_only(a_profile, "A profile")
    ansatz = Ansatz(1, lambda_profile, [2.0 * a_profile], [])
    if isinstance(a_profile, TrigField):
        omega = -1.0 * a_profile.dy_field()
    else:
        omega = value_field(lambda a: -a.y, (a_profile,), label="minus_A_prime")
    system = MagneticSystem(lambda_profile, omega)
    return ansatz, system
