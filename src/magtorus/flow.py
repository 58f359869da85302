"""Magnetic geodesic flow on the energy level H = 1/2.

In conformal coordinates ds^2 = Lambda(x, y) (dx^2 + dy^2) the Hamiltonian is
H = (p1^2 + p2^2) / (2 Lambda) and the magnetic Poisson bracket adds the
gyroscopic terms Omega * (dF/dp1 * dH/dp2 - dF/dp2 * dH/dp1).  On H = 1/2 the
momenta are parameterized as p1 = sqrt(Lambda) cos(phi), p2 = sqrt(Lambda)
sin(phi) (positive square-root branch), giving

    dx/dt   = cos(phi) / sqrt(Lambda)
    dy/dt   = sin(phi) / sqrt(Lambda)
    dphi/dt = Lambda_y cos(phi) / (2 Lambda sqrt(Lambda))
              - Lambda_x sin(phi) / (2 Lambda sqrt(Lambda)) - Omega / Lambda

Both this parameterized form and the cotangent (x, y, p1, p2) form are
integrated with the classical fixed-step order-4 one-step method (optional
tolerance-driven step doubling); angles are unwrapped internally and wrapped
on output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as _dc_field

import numpy as np

from .fields import (DerivativeUnavailable, DomainError, Field, LAMBDA_FLOOR,
                     SamplingGrid, TorusGeometry, check_conformal_factor)

TWO_PI = 2.0 * math.pi


def wrap_angle(phi):
    return np.mod(phi, TWO_PI)


@dataclass(frozen=True)
class PhaseState:
    """Point of the parameterized energy level: torus coordinates and momentum angle."""

    x: float
    y: float
    phi: float

    def __post_init__(self):
        object.__setattr__(self, "phi", float(wrap_angle(self.phi)))


@dataclass(frozen=True)
class CotangentState:
    x: float
    y: float
    p1: float
    p2: float


@dataclass(frozen=True)
class MagneticSystem:
    """Conformal factor and magnetic field defining the flow."""

    lam: Field
    omega: Field
    geometry: TorusGeometry = _dc_field(default_factory=TorusGeometry)

    def __post_init__(self):
        if not all(self.lam.exact):
            raise DerivativeUnavailable(f"no first-derivative rules for {self.lam!r}")
        check_conformal_factor(self.lam, SamplingGrid(64, 64, self.geometry))


def _lam_omega(system: MagneticSystem, x: float, y: float):
    """Jet (Lambda, Lambda_x, Lambda_y) above the positivity floor and the value
    of Omega at a point, from one leaf memo: a trigonometric leaf shared by
    both (the Lambda of a derived Omega) is evaluated once."""
    memo = {}
    lam = system.lam._jet(x, y, memo)
    if not lam.v > LAMBDA_FLOOR:
        raise DomainError(f"conformal factor {lam.v:g} fell below the positivity floor at "
                          f"({x:g}, {y:g})")
    return lam, system.omega._jet(x, y, memo).v


def flow_rhs(system: MagneticSystem, state) -> tuple:
    """Right-hand side of the parameterized flow at a phase point.

    `state` may be a PhaseState or an (x, y, phi) triple.
    """
    if isinstance(state, PhaseState):
        x, y, phi = state.x, state.y, state.phi
    else:
        x, y, phi = state
    (lam, lam_x, lam_y), om = _lam_omega(system, x, y)
    sqrt_lam = math.sqrt(lam)
    c, s = math.cos(phi), math.sin(phi)
    dphi = (lam_y * c - lam_x * s) / (2.0 * lam * sqrt_lam) - om / lam
    return (c / sqrt_lam, s / sqrt_lam, dphi)


def cotangent_rhs(system: MagneticSystem, state) -> tuple:
    """Right-hand side of the bracket form on (x, y, p1, p2)."""
    if isinstance(state, CotangentState):
        x, y, p1, p2 = state.x, state.y, state.p1, state.p2
    else:
        x, y, p1, p2 = state
    (lam, lam_x, lam_y), om = _lam_omega(system, x, y)
    p_sq = p1 * p1 + p2 * p2
    # dH/dx = -p^2 Lambda_x / (2 Lambda^2), dH/dp_i = p_i / Lambda
    h_x = -p_sq * lam_x / (2.0 * lam * lam)
    h_y = -p_sq * lam_y / (2.0 * lam * lam)
    dp1 = -h_x + om * p2 / lam
    dp2 = -h_y - om * p1 / lam
    return (p1 / lam, p2 / lam, dp1, dp2)


# ---------------------------------------------------------------------------
# Integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepControl:
    """Fixed step size, or per-step absolute tolerance for step doubling."""

    mode: str = "fixed"          # "fixed" | "adaptive"
    dt: float = 1e-3
    atol: float = 1e-10
    sample_dt: float | None = 1e-2

    def __post_init__(self):
        # A step, tolerance or sample spacing that is not finite and positive
        # would never reach t_end (or never meet its tolerance).
        for name in ("dt", "atol", "sample_dt"):
            value = getattr(self, name)
            if name == "sample_dt" and value is None:
                continue
            if not 0.0 < value < math.inf:
                raise ValueError(f"step control {name} must be finite and positive, "
                                 f"got {value!r}")

    @classmethod
    def fixed(cls, dt: float = 1e-3, sample_dt: float | None = 1e-2):
        return cls(mode="fixed", dt=float(dt), sample_dt=sample_dt)

    @classmethod
    def adaptive(cls, atol: float = 1e-10, dt: float = 1e-3,
                 sample_dt: float | None = 1e-2):
        return cls(mode="adaptive", dt=float(dt), atol=float(atol), sample_dt=sample_dt)


@dataclass
class StepStats:
    """Work of one integration, counted per step: RK4 steps accepted and
    rejected, right-hand-side calls, and the range of accepted step sizes.
    A step cut short by a DomainError is not counted."""

    accepted: int = 0
    rejected: int = 0
    rhs_calls: int = 0
    h_min: float = math.inf
    h_max: float = 0.0

    def accept(self, h: float, rhs_calls: int):
        self.accepted += 1
        self.rhs_calls += rhs_calls
        if h < self.h_min:
            self.h_min = h
        if h > self.h_max:
            self.h_max = h


@dataclass
class Trajectory:
    """Sampled trajectory on the universal cover, with monitored quantities.

    x, y and phi_unwrapped live on the cover; `phi` wraps the angle to
    [0, 2*pi) and `wrapped_xy` reduces positions to the fundamental domain.
    """

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    phi_unwrapped: np.ndarray
    monitored: dict
    geometry: TorusGeometry
    aborted: bool = False
    diagnostic: str | None = None
    stats: StepStats = _dc_field(default_factory=StepStats)

    @property
    def phi(self) -> np.ndarray:
        return wrap_angle(self.phi_unwrapped)

    def wrapped_xy(self) -> tuple:
        return (np.mod(self.x, self.geometry.period_x),
                np.mod(self.y, self.geometry.period_y))

    def final_state(self) -> PhaseState:
        return PhaseState(float(self.x[-1]), float(self.y[-1]), float(self.phi[-1]))

    def __len__(self):
        return len(self.t)


def _rk4_step(rhs, state, dt, k1):
    """One classical RK4 step from `state`, given its first stage k1 = rhs(state)."""
    half = 0.5 * dt
    k2 = rhs(tuple(s + half * k for s, k in zip(state, k1)))
    k3 = rhs(tuple(s + half * k for s, k in zip(state, k2)))
    k4 = rhs(tuple(s + dt * k for s, k in zip(state, k3)))
    sixth = dt / 6.0
    return tuple(s + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for s, a, b, c, d in zip(state, k1, k2, k3, k4))


def _sample_times(t_end: float, sample_dt):
    if sample_dt is None or sample_dt >= t_end:
        return [0.0, t_end]
    n = int(math.floor(t_end / sample_dt + 1e-12))
    times = [i * sample_dt for i in range(n + 1)]
    if times[-1] < t_end - 1e-12 * t_end:
        times.append(t_end)
    else:
        times[-1] = t_end
    return times


def _advance_fixed(rhs, state, t0, t1, dt, stats):
    t = t0
    while t < t1 - 1e-14 * max(1.0, t1):
        h = min(dt, t1 - t)
        state = _rk4_step(rhs, state, h, rhs(state))
        t += h
        stats.accept(h, 4)
    return state


#: Smallest step the step-doubling control takes.
STEP_FLOOR = 1e-12


class StepFloorError(ArithmeticError):
    """Step doubling could not meet its tolerance even at the step floor."""


def _advance_adaptive(rhs, state, t0, t1, h, atol, stats):
    """Step doubling: one full step against two half steps, all three
    starting from the same first stage rhs(state), which each retry reuses.
    An accepted first attempt costs 11 RHS calls, each retry 10 more."""
    t = t0
    while t < t1 - 1e-14 * max(1.0, t1):
        h = min(h, t1 - t)
        k1 = rhs(state)
        stats.rhs_calls += 1
        while True:
            full = _rk4_step(rhs, state, h, k1)
            mid = _rk4_step(rhs, state, 0.5 * h, k1)
            half = _rk4_step(rhs, mid, 0.5 * h, rhs(mid))
            err = max(abs(a - b) for a, b in zip(full, half)) / 15.0
            if err <= atol:
                break
            stats.rejected += 1
            stats.rhs_calls += 10
            if h <= STEP_FLOOR:
                raise StepFloorError(
                    f"adaptive step reached the floor h = {STEP_FLOOR:g} at t = {t:.17g} "
                    f"with local error {err:.3g} > atol {atol:g}")
            h = max(0.5 * h, STEP_FLOOR)
        state = half
        t += h
        stats.accept(h, 10)
        if err > 0.0:
            h = max(h * min(5.0, max(0.2, 0.9 * (atol / err) ** 0.2)), STEP_FLOOR)
        else:
            h *= 5.0
    return state, h


def _integrate_path(rhs, state0, t_end, control):
    """Shared sampling loop; returns times, states, abort diagnostics, stats."""
    times = _sample_times(t_end, control.sample_dt)
    states = [tuple(float(s) for s in state0)]
    state = states[0]
    aborted = False
    diagnostic = None
    h = control.dt
    stats = StepStats()
    kept_times = [times[0]]
    for t0, t1 in zip(times[:-1], times[1:]):
        try:
            if control.mode == "adaptive":
                state, h = _advance_adaptive(rhs, state, t0, t1, h, control.atol, stats)
            else:
                state = _advance_fixed(rhs, state, t0, t1, control.dt, stats)
        except (DomainError, StepFloorError) as exc:
            aborted = True
            diagnostic = str(exc)
            break
        states.append(state)
        kept_times.append(t1)
    return np.array(kept_times), states, aborted, diagnostic, stats


def integrate(system: MagneticSystem, state0: PhaseState, t_end: float,
              control: StepControl | None = None,
              observables: dict | None = None) -> Trajectory:
    """Integrate the parameterized flow, sampling at the requested output times.

    `observables` maps names to callables obs(x, y, phi) evaluated per sample;
    the energy H = 1/2 holds identically on the parameterization and is always
    recorded.  If the conformal factor falls below the positivity floor the
    partial trajectory is returned with `aborted` set and a diagnostic.
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    control = control if control is not None else StepControl.fixed()
    rhs = lambda s: flow_rhs(system, s)
    start = (state0.x, state0.y, state0.phi)
    kept_times, states, aborted, diagnostic, stats = _integrate_path(rhs, start, t_end,
                                                                     control)
    arr = np.array(states)
    x, y, phi_un = arr[:, 0], arr[:, 1], arr[:, 2]
    monitored = {"H": np.full(len(kept_times), 0.5)}
    if observables:
        phi_w = wrap_angle(phi_un)
        for name, fn in observables.items():
            monitored[name] = np.asarray(fn(x, y, phi_w), dtype=float)
    return Trajectory(kept_times, x, y, phi_un, monitored, system.geometry,
                      aborted=aborted, diagnostic=diagnostic, stats=stats)


def integrate_cotangent(system: MagneticSystem, state0: CotangentState, t_end: float,
                        control: StepControl | None = None):
    """Integrate the bracket form; returns (times, states array, aborted, diagnostic)."""
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    lam0 = _lam_omega(system, state0.x, state0.y)[0].v
    energy0 = (state0.p1 ** 2 + state0.p2 ** 2) / (2.0 * lam0)
    if not (math.isfinite(energy0) and energy0 > 0.0):
        raise ValueError(f"initial energy must be finite and positive, got {energy0!r}")
    control = control if control is not None else StepControl.fixed()
    rhs = lambda s: cotangent_rhs(system, s)
    start = (state0.x, state0.y, state0.p1, state0.p2)
    kept_times, states, aborted, diagnostic, _ = _integrate_path(rhs, start, t_end, control)
    return kept_times, np.array(states), aborted, diagnostic


# ---------------------------------------------------------------------------
# Monitoring and cross-checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DriftStats:
    name: str
    initial: float
    max_abs_drift: float
    relative_drift: float


def monitor(trajectory: Trajectory, observables: dict | None = None) -> dict:
    """Drift statistics per observable: max |obs(t) - obs(0)| and the drift
    relative to the observable's magnitude along the trajectory."""
    series = dict(trajectory.monitored)
    if observables:
        phi_w = trajectory.phi
        for name, fn in observables.items():
            series[name] = np.asarray(fn(trajectory.x, trajectory.y, phi_w), dtype=float)
    stats = {}
    for name, vals in series.items():
        drift = float(np.max(np.abs(vals - vals[0])))
        scale = float(np.max(np.abs(vals)))
        stats[name] = DriftStats(name, float(vals[0]), drift,
                                 drift / scale if scale > 0.0 else drift)
    return stats


@dataclass(frozen=True)
class CrosscheckReport:
    max_discrepancy: float
    max_dx: float
    max_dy: float
    max_dphi: float
    energy_drift: float
    off_level: bool


def crosscheck_formulations(system: MagneticSystem, state0: PhaseState, t_end: float,
                            control: StepControl | None = None,
                            energy_tol: float = 1e-6) -> CrosscheckReport:
    """Integrate both formulations from matched initial data and report the
    maximum state discrepancy after mapping (p1, p2) -> phi."""
    control = control if control is not None else StepControl.fixed()
    traj = integrate(system, state0, t_end, control)
    lam0 = system.lam.eval(state0.x, state0.y)
    p1 = math.sqrt(lam0) * math.cos(state0.phi)
    p2 = math.sqrt(lam0) * math.sin(state0.phi)
    times_c, states_c, aborted, _ = integrate_cotangent(
        system, CotangentState(state0.x, state0.y, p1, p2), t_end, control)
    if aborted or len(times_c) != len(traj.t):
        raise DomainError("cotangent integration aborted; formulations cannot be compared")
    xc, yc = states_c[:, 0], states_c[:, 1]
    p1c, p2c = states_c[:, 2], states_c[:, 3]
    lam_c = np.asarray(system.lam.eval(xc, yc), dtype=float)
    energy = (p1c * p1c + p2c * p2c) / (2.0 * lam_c)
    energy_drift = float(np.max(np.abs(energy - 0.5)))
    phi_c = np.arctan2(p2c, p1c)
    dphi = np.abs(np.angle(np.exp(1j * (phi_c - traj.phi_unwrapped))))
    dx = np.abs(xc - traj.x)
    dy = np.abs(yc - traj.y)
    return CrosscheckReport(
        max_discrepancy=float(max(dx.max(), dy.max(), dphi.max())),
        max_dx=float(dx.max()), max_dy=float(dy.max()), max_dphi=float(dphi.max()),
        energy_drift=energy_drift,
        off_level=energy_drift > energy_tol)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def export_csv(trajectory: Trajectory, path, observable_order: list | None = None):
    """Write `t,x,y,phi,H,F,...` rows with 17 significant digits.

    x and y are reported on the universal cover; phi is wrapped to [0, 2*pi).
    Extra monitored observables append columns by name after H (and F, when
    present).
    """
    names = ["H"]
    if "F" in trajectory.monitored:
        names.append("F")
    for name in (observable_order or sorted(trajectory.monitored)):
        if name not in names and name in trajectory.monitored:
            names.append(name)
    phi_w = trajectory.phi
    with open(path, "w") as fh:
        fh.write("t,x,y,phi" + "".join("," + n for n in names) + "\n")
        for i in range(len(trajectory)):
            row = [trajectory.t[i], trajectory.x[i], trajectory.y[i], phi_w[i]]
            row += [trajectory.monitored[n][i] for n in names]
            fh.write(",".join(f"{val:.17g}" for val in row) + "\n")
