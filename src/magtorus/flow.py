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
on output.  H = 1/2 holds identically on the parameterized form, so its
recorded drift is 0 by construction, not a measurement.

Each right-hand-side call evaluates Lambda's jet and Omega's value through
the system's point kernel (`fields.point_kernel`), compiled on the first call:
one straight-line function of (x, y) that checks the positivity floor right
after Lambda's subgraph and evaluates a leaf shared by Lambda and Omega once.
Its `counts` (trigonometric terms inlined, node rules traced, rules called)
are reported beside each trajectory's step counts.  The RK4 step is unrolled
by hand for the flow's three components.  A trajectory may take at most
STEP_BUDGET steps: a fixed step that needs more is refused before the run,
and step doubling that reaches it aborts the run.  Its samples are bounded
too: a t_end beyond SAMPLE_BUDGET sample intervals is refused before the
run, fixed or adaptive, since every interval takes at least one step.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections import namedtuple
from pathlib import Path

import numpy as np

from .fields import (TWO_PI, DerivativeUnavailable, DomainError, Field, TorusGeometry,
                     check_conformal_factor, checked_make, point_kernel, same_torus)


def wrap_angle(phi):
    return np.mod(phi, TWO_PI)


class PhaseState(namedtuple("PhaseState", "x y phi")):
    """Point of the parameterized energy level: torus coordinates and momentum angle."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, x: float, y: float, phi: float):
        return super().__new__(cls, x, y, float(wrap_angle(phi)))


CotangentState = namedtuple("CotangentState", "x y p1 p2")


class MagneticSystem(namedtuple("MagneticSystem", "lam omega")):
    """Conformal factor and magnetic field defining the flow, on the torus
    of Lambda, which Omega must share.  No __slots__: `kernel` is cached in
    the instance's __dict__."""

    _make = checked_make

    def __new__(cls, lam: Field, omega: Field):
        same_torus(lam, omega)
        if not lam.exact:
            raise DerivativeUnavailable(f"no first-derivative rules for {lam!r}")
        check_conformal_factor(lam)
        return super().__new__(cls, lam, omega)

    @functools.cached_property
    def kernel(self):
        """(x, y) -> (Lambda, Lambda_x, Lambda_y, Omega) at a point, raising
        DomainError where Lambda is not above the positivity floor; compiled
        on first use, so systems that are never integrated never pay for it."""
        return point_kernel(self.lam, self.omega, floor=True)


def flow_rhs(system: MagneticSystem, state) -> tuple:
    """Right-hand side of the parameterized flow at a phase point, an
    (x, y, phi) triple."""
    x, y, phi = state
    lam, lam_x, lam_y, om = system.kernel(x, y)
    sqrt_lam = math.sqrt(lam)
    c, s = math.cos(phi), math.sin(phi)
    dphi = (lam_y * c - lam_x * s) / (2.0 * lam * sqrt_lam) - om / lam
    return (c / sqrt_lam, s / sqrt_lam, dphi)


def cotangent_rhs(system: MagneticSystem, state) -> tuple:
    """Right-hand side of the bracket form at an (x, y, p1, p2) tuple."""
    x, y, p1, p2 = state
    lam, lam_x, lam_y, om = system.kernel(x, y)
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


class StepControl(namedtuple("StepControl", "mode dt atol sample_dt")):
    """Fixed step size, or per-step absolute tolerance for step doubling:
    `mode` is "fixed" or "adaptive"."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, mode: str = "fixed", dt: float = 1e-3, atol: float = 1e-10,
                sample_dt: float | None = 1e-2):
        # A step, tolerance or sample spacing that is not finite and positive
        # would never reach t_end (or never meet its tolerance).
        for name, value in (("dt", dt), ("atol", atol), ("sample_dt", sample_dt)):
            if (value is not None or name != "sample_dt") and not 0.0 < value < math.inf:
                raise ValueError(f"step control {name} must be finite and positive, "
                                 f"got {value!r}")
        return super().__new__(cls, mode, dt, atol, sample_dt)

    @classmethod
    def fixed(cls, dt: float = 1e-3, sample_dt: float | None = 1e-2):
        return cls(mode="fixed", dt=float(dt), sample_dt=sample_dt)

    @classmethod
    def adaptive(cls, atol: float = 1e-10, dt: float = 1e-3,
                 sample_dt: float | None = 1e-2):
        return cls(mode="adaptive", dt=float(dt), atol=float(atol), sample_dt=sample_dt)


class StepStats:
    """Work of one integration, counted per step: RK4 steps accepted and
    rejected, right-hand-side calls, and the range of accepted step sizes.
    A step cut short by a DomainError is not counted."""

    def __init__(self):
        self.accepted = self.rejected = self.rhs_calls = 0
        self.h_min, self.h_max = math.inf, 0.0

    def accept(self, h: float, rhs_calls: int):
        self.accepted += 1
        self.rhs_calls += rhs_calls
        if h < self.h_min:
            self.h_min = h
        if h > self.h_max:
            self.h_max = h


class Trajectory:
    """Sampled trajectory on the universal cover, with monitored quantities.

    x, y and phi_unwrapped live on the cover; `phi` wraps the angle to
    [0, 2*pi) and `wrapped_xy` reduces positions to the fundamental domain.
    A trajectory cut short is `aborted`, with a `diagnostic`.
    """

    def __init__(self, t: np.ndarray, x: np.ndarray, y: np.ndarray,
                 phi_unwrapped: np.ndarray, monitored: dict, geometry: TorusGeometry,
                 aborted: bool, diagnostic: str | None, stats: StepStats):
        self.t, self.x, self.y, self.phi_unwrapped = t, x, y, phi_unwrapped
        self.monitored, self.geometry = monitored, geometry
        self.aborted, self.diagnostic, self.stats = aborted, diagnostic, stats

    @property
    def phi(self) -> np.ndarray:
        return wrap_angle(self.phi_unwrapped)

    def wrapped_xy(self) -> tuple:
        return (np.mod(self.x, self.geometry.period_x),
                np.mod(self.y, self.geometry.period_y))

    def __len__(self):
        return len(self.t)


def _rk4_step(rhs, state, dt, k1):
    """One classical RK4 step from `state`, given its first stage
    k1 = rhs(state): each component is s + h * k per stage and
    s + dt / 6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4) at the end.  The flow's
    (x, y, phi) step is unrolled by hand; any other length, such as the
    bracket form's (x, y, p1, p2), takes the same stages in a loop."""
    half = 0.5 * dt
    if len(state) == 3:
        s0, s1, s2 = state
        a0, a1, a2 = k1
        b0, b1, b2 = rhs((s0 + half * a0, s1 + half * a1, s2 + half * a2))
        c0, c1, c2 = rhs((s0 + half * b0, s1 + half * b1, s2 + half * b2))
        d0, d1, d2 = rhs((s0 + dt * c0, s1 + dt * c1, s2 + dt * c2))
        sixth = dt / 6.0
        return (s0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
                s1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                s2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2))
    stages = [k1]
    for h in (half, half, dt):
        stages.append(rhs(tuple(s + h * k for s, k in zip(state, stages[-1]))))
    sixth = dt / 6.0
    return tuple(s + sixth * (a + 2.0 * b + 2.0 * c + d)
                 for s, a, b, c, d in zip(state, *stages))


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


#: Most RK4 steps, accepted and rejected together, that one trajectory may
#: take: 100 times the 10^4 steps of the longest bundled request.  A fixed
#: step that needs more to reach t_end is refused before integration, and
#: step doubling that reaches the budget aborts the run.
STEP_BUDGET = 10 ** 6


def check_step_budget(t_end: float, dt: float, what: str = "dt"):
    """Refuse a fixed step `dt` (named `what`) that needs more than
    STEP_BUDGET steps to reach t_end."""
    if t_end / dt > STEP_BUDGET:
        raise ValueError(f"{what} = {dt!r} needs {t_end / dt:.3g} steps to reach "
                         f"t_end = {t_end!r}, above the step budget of {STEP_BUDGET} "
                         "steps per trajectory")


#: Most sample intervals that one trajectory may hold.  Every interval takes
#: at least one step and keeps one sample, so a fixed step longer than the
#: spacing takes one step per interval, and an adaptive run has no other
#: bound on t_end: at the default spacing of 0.01, t_end = 1e6 would run
#: 1e8 steps, and the sample times alone of t_end = 1e12 would not fit in
#: memory.
SAMPLE_BUDGET = 10 ** 6


def check_sample_budget(t_end: float, sample_dt: float, what: str = "t_end"):
    """Refuse a `t_end` (named `what`) that holds more than SAMPLE_BUDGET
    sample intervals of `sample_dt`."""
    if t_end / sample_dt > SAMPLE_BUDGET:
        raise ValueError(f"{what} = {t_end!r} holds {t_end / sample_dt:.3g} sample intervals "
                         f"of {sample_dt!r}, above the sample budget of {SAMPLE_BUDGET} "
                         "intervals per trajectory")


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


class StepBudgetError(ArithmeticError):
    """Step doubling used up STEP_BUDGET steps before reaching t_end."""


def _advance_adaptive(rhs, state, t0, t1, h, atol, stats):
    """Step doubling: one full step against two half steps, all three
    starting from the same first stage rhs(state), which each retry reuses.
    An accepted first attempt costs 11 RHS calls, each retry 10 more.
    Attempts beyond STEP_BUDGET per trajectory raise StepBudgetError."""
    t = t0
    while t < t1 - 1e-14 * max(1.0, t1):
        h = min(h, t1 - t)
        k1 = rhs(state)
        stats.rhs_calls += 1
        while True:
            if stats.accepted + stats.rejected >= STEP_BUDGET:
                raise StepBudgetError(
                    f"adaptive integration used up the step budget of {STEP_BUDGET} "
                    f"steps (accepted plus rejected) at t = {t:.17g}")
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
    """Shared sampling loop of both forms, at the default fixed step when
    `control` is None; returns times, states, abort diagnostics, stats."""
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    control = control if control is not None else StepControl.fixed()
    if control.mode != "adaptive":
        check_step_budget(t_end, control.dt)
    if control.sample_dt is not None:
        check_sample_budget(t_end, control.sample_dt)
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
        except (DomainError, StepFloorError, StepBudgetError) as exc:
            aborted = True
            diagnostic = str(exc)
            break
        except ValueError as exc:   # math's cos or sin of an infinite coordinate or angle
            aborted = True
            diagnostic = (f"non-finite state in the sample interval [{t0:.17g}, {t1:.17g}] "
                          f"after the sample {list(state)} ({exc})")
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
    recorded.  If the conformal factor falls below the positivity floor, or
    the state or an angle of the right-hand side is no longer finite, the
    partial trajectory is returned with `aborted` set and a diagnostic.
    """
    rhs = lambda s: flow_rhs(system, s)
    start = (state0.x, state0.y, state0.phi)
    kept_times, states, aborted, diagnostic, stats = _integrate_path(rhs, start, t_end, control)
    arr = np.array(states)
    x, y, phi_un = arr[:, 0], arr[:, 1], arr[:, 2]
    monitored = {"H": np.full(len(kept_times), 0.5)}
    if observables:
        phi_w = wrap_angle(phi_un)
        for name, fn in observables.items():
            monitored[name] = np.asarray(fn(x, y, phi_w), dtype=float)
    return Trajectory(kept_times, x, y, phi_un, monitored, system.lam.geometry,
                      aborted=aborted, diagnostic=diagnostic, stats=stats)


def integrate_cotangent(system: MagneticSystem, state0: CotangentState, t_end: float,
                        control: StepControl | None = None):
    """Integrate the bracket form; returns (times, states array, aborted, diagnostic)."""
    lam0 = system.kernel(state0.x, state0.y)[0]
    energy0 = (state0.p1 ** 2 + state0.p2 ** 2) / (2.0 * lam0)
    if not (math.isfinite(energy0) and energy0 > 0.0):
        raise ValueError(f"initial energy must be finite and positive, got {energy0!r}")
    rhs = lambda s: cotangent_rhs(system, s)
    start = (state0.x, state0.y, state0.p1, state0.p2)
    kept_times, states, aborted, diagnostic, _ = _integrate_path(rhs, start, t_end, control)
    return kept_times, np.array(states), aborted, diagnostic


# ---------------------------------------------------------------------------
# Monitoring and cross-checks
# ---------------------------------------------------------------------------


DriftStats = namedtuple("DriftStats", "name initial max_abs_drift relative_drift")


def monitor(trajectory: Trajectory) -> dict:
    """Drift statistics per monitored observable: max |obs(t) - obs(0)| and
    the drift relative to the observable's magnitude along the trajectory."""
    stats = {}
    for name, vals in trajectory.monitored.items():
        drift = float(np.max(np.abs(vals - vals[0])))
        scale = float(np.max(np.abs(vals)))
        stats[name] = DriftStats(name, float(vals[0]), drift,
                                 drift / scale if scale > 0.0 else drift)
    return stats


CrosscheckReport = namedtuple("CrosscheckReport",
                              "max_discrepancy max_dx max_dy max_dphi energy_drift off_level")


def crosscheck_formulations(system: MagneticSystem, state0: PhaseState,
                            t_end: float) -> CrosscheckReport:
    """Integrate both formulations at the default fixed step from matched
    initial data and report the maximum state discrepancy after mapping
    (p1, p2) -> phi; `off_level` flags a cotangent energy drift above 1e-6."""
    traj = integrate(system, state0, t_end)
    lam0 = system.lam.eval(state0.x, state0.y)
    p1 = math.sqrt(lam0) * math.cos(state0.phi)
    p2 = math.sqrt(lam0) * math.sin(state0.phi)
    times_c, states_c, aborted, _ = integrate_cotangent(
        system, CotangentState(state0.x, state0.y, p1, p2), t_end)
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
        off_level=energy_drift > 1e-6)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------


def atomic_write(path, text: str):
    """Write `text` to `path` as `atomic_write_chunks` does.  Its one string
    is what the `cli.write` span of perfbench/tracer.py measures."""
    atomic_write_chunks(path, (text,))


def atomic_write_chunks(path, chunks):
    """Write the strings of `chunks`, in order, to `path` through a temporary
    file beside it, replaced onto `path` in one step, so no reader sees a
    partial file and no more than one chunk need be held at a time.  When a
    chunk raises or a write fails, the temporary file is removed and the
    error propagates; `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w") as out:
            out.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:   # an interrupt mid-write leaves no temporary file either
        tmp.unlink(missing_ok=True)
        raise


def write_table(path, rows, header: str | None = None, sep: str = " "):
    """Write `rows` of floats at 17 significant digits, one line per row (an
    empty row is a blank line), after an optional header line, through
    `atomic_write_chunks` one line at a time.  A table of no lines is one
    blank line."""
    lines = itertools.chain([] if header is None else [header],
                            (sep.join(f"{val:.17g}" for val in row) for row in rows))
    first = next(lines, "")
    atomic_write_chunks(path, itertools.chain([first + "\n"], (line + "\n" for line in lines)))


def export_csv(trajectory: Trajectory, path):
    """Write `t,x,y,phi,H,F,...` rows with 17 significant digits.

    x and y are reported on the universal cover; phi is wrapped to [0, 2*pi).
    Extra monitored observables append columns, sorted by name, after H (and
    F, when present).
    """
    names = ["H"] + (["F"] if "F" in trajectory.monitored else [])
    names += [name for name in sorted(trajectory.monitored) if name not in names]
    columns = [trajectory.t, trajectory.x, trajectory.y, trajectory.phi]
    columns += [trajectory.monitored[name] for name in names]
    write_table(path, zip(*(column.tolist() for column in columns)),
                header="t,x,y,phi" + "".join("," + name for name in names), sep=",")
