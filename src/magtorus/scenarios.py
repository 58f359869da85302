"""Scenario input: every input format and input limit of magtorus.

A scenario fixes the ansatz degree, the conformal factor, the coefficient
fields and the magnetic field (either an explicit field spec or ``"derive"``,
which eliminates it through its closed form in the rescaled leading
coefficients), together with grid sizes, tolerances, the requested checks and
any trajectory requests; the coefficients it leaves out are one zero field.
Bundled scenarios are referenced by name and double as the acceptance
fixtures.  The typed readers of JSON values and flags raise a ScenarioError
that names the key, so no input of the wrong type reaches a bare ``int()``
or ``float()``, and `field_from_spec` reads a field spec.  A degree above
MAX_N, a grid above MAX_GRID_POINTS and a ``random_trig`` spec above
MAX_RANDOM_MODES or MAX_RANDOM_MAX_MODE are refused at load, before anything
of that size is built; ``verify`` refuses degree times grid above
MAX_VERIFY_WORK before it evaluates.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np

from .fields import (AffineField, Field, FieldError, SamplingGrid, TorusGeometry,
                     TrigField, constant_field, random_trig_field, zero_field)
from .flow import (MagneticSystem, PhaseState, StepControl, check_sample_budget,
                   check_step_budget)
from .ansatz import Ansatz, default_phi_count, omega_rescaled


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _number(value, what: str) -> float:
    """`value` as a float: a number, not a boolean or a numeric string."""
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ScenarioError(f"{what} must be a number, got {value!r}")


def _integer(value, what: str, lo: int | None = None) -> int:
    """`value` as an int: a JSON integer, or a number with an integral value,
    refused below `lo` when given."""
    if not (type(value) is int or (type(value) is float and value.is_integer())):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    _require(lo is None or value >= lo, f"{what} must be >= {lo}, got {value}")
    return value


def _list(value, what: str) -> list:
    _require(isinstance(value, (list, tuple)), f"{what} must be a list, got {value!r}")
    return value


def _positive(value, what: str) -> float:
    """`value` as a float, refused unless finite and strictly positive."""
    value = _number(value, what)
    _require(0.0 < value < math.inf, f"{what} must be finite and positive, got {value!r}")
    return value


def _name(value, what: str) -> str:
    """`value` as a name that becomes part of an output file name: a
    nonempty string, not `.` or `..`, holding no `/`, `\\` or NUL."""
    _require(isinstance(value, str) and value not in ("", ".", "..")
             and not any(c in value for c in "/\\\0"),
             f"{what} must be a nonempty string without '/', '\\', NUL, "
             f"'.' or '..' (it names output files), got {value!r}")
    return value


# ---------------------------------------------------------------------------
# JSON field specifications
# ---------------------------------------------------------------------------

#: Most modes, and largest mode index, of a ``random_trig`` field spec.  The
#: point kernel inlines every mode, so the time of an orbit grows with the
#: modes: 1000 modes on each of Lambda and u_0 took 2.7 s for 1000 fixed
#: steps (2-CPU x86-64 host).  The modes are drawn from a pool of about
#: 2 max_mode^2, which must fit in int64; drawing 1000 of them takes about
#: 20 ms at any max_mode up to the limit.
MAX_RANDOM_MODES = 1000
MAX_RANDOM_MAX_MODE = 10 ** 6


def analytic_preset(name: str, params: dict | None = None,
                    geometry: TorusGeometry | None = None) -> AffineField:
    """The `AffineField` `name` (affine_x or affine_y) of `params`' offset and slope."""
    if name not in ("affine_x", "affine_y"):
        raise FieldError(f"unknown analytic preset {name!r}")
    offset, slope = (_number((params or {}).get(key, 0.0), f"{name} {key}")
                     for key in ("offset", "slope"))
    if not (math.isfinite(offset) and math.isfinite(slope)):
        raise FieldError(f"{name} needs finite offset and slope, got {offset!r}, {slope!r}")
    return AffineField(offset, slope, name[-1],
                       geometry if geometry is not None else TorusGeometry())


def trig_records(field: TrigField) -> list:
    """Serialize the full coefficient table as [{m, n, re, im}, ...]."""
    return [{"m": m, "n": n, "re": c.real, "im": c.imag}
            for (m, n), c in sorted(field.coefficients().items())]


def field_from_spec(spec, geometry: TorusGeometry | None = None, *,
                    seed_override: int | None = None) -> Field:
    """Build a field from a JSON-style specification.

    Supported forms::

        {"type": "constant", "value": 2.0}
        {"type": "trig", "coeffs": [{"m": 0, "n": 1, "re": 0.15, "im": 0.0}, ...]}
        {"type": "analytic", "name": "affine_y", "params": {"slope": -2.0}}
        {"type": "random_trig", "seed": 1, "modes": 5, "max_mode": 3,
         "amplitude": 0.3, "offset": 0.0}

    A bare number (not a boolean) is shorthand for a constant field.
    """
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return constant_field(float(spec), geometry)
    if not isinstance(spec, dict):
        raise FieldError(f"field spec must be a number or an object, got {type(spec).__name__}")
    kind = spec.get("type")
    if kind == "constant":
        return constant_field(_number(spec.get("value"), "constant field value"), geometry)
    if kind == "trig":
        table = {}
        for rec in _list(spec.get("coeffs", []), "trig coeffs"):
            _require(isinstance(rec, dict), f"trig coefficient must be an object, got {rec!r}")
            key = (_integer(rec.get("m"), "trig coefficient m"),
                   _integer(rec.get("n"), "trig coefficient n"))
            if key in table:
                raise FieldError(f"duplicate mode {key} in trig spec")
            table[key] = complex(_number(rec.get("re", 0.0), "trig coefficient re"),
                                 _number(rec.get("im", 0.0), "trig coefficient im"))
        return TrigField(table, geometry)
    if kind == "analytic":
        params = spec.get("params")
        _require(params is None or isinstance(params, dict),
                 f"analytic params must be an object, got {params!r}")
        return analytic_preset(spec.get("name"), params, geometry)
    if kind == "random_trig":
        seed = seed_override if seed_override is not None else spec.get("seed")
        if seed is None:
            raise FieldError("random_trig spec needs a seed")
        seed, modes, max_mode = (
            _integer(value, f"random_trig {key}", lo=0)
            for key, value in (("seed", seed), ("modes", spec.get("modes", 5)),
                               ("max_mode", spec.get("max_mode", 3))))
        for key, value, limit in (("modes", modes, MAX_RANDOM_MODES),
                                  ("max_mode", max_mode, MAX_RANDOM_MAX_MODE)):
            if value > limit:
                raise FieldError(f"random_trig {key} = {value} exceeds the limit of {limit}")
        return random_trig_field(
            np.random.default_rng(seed), geometry, n_modes=modes, max_mode=max_mode,
            amplitude=_number(spec.get("amplitude", 1.0), "random_trig amplitude"),
            offset=_number(spec.get("offset", 0.0), "random_trig offset"))
    raise FieldError(f"unknown field spec type {kind!r}")


SCHEMA_VERSION = 1

KNOWN_CHECKS = ("stationarity", "harmonics", "constraint", "conservation",
                "certificate")

#: Largest sampling grid, nx * ny, a scenario or ``--grid`` may ask for.  The
#: verify kernels evaluate a grid in blocks of at most fields.BLOCK_POINTS
#: nodes, so their memory does not grow with the grid: ``verify`` of an N = 4
#: random scenario peaks at 38.4 MB at 256^2, 38.8 MB at 1024^2 and 40.1 MB
#: at 2048^2 (its own ru_maxrss, launched from a small parent; 2-CPU x86-64
#: host), while its time grows with nx * ny (about 10 s at 2048^2).  What grows is
#: ``--plot-data``: 8 bytes per node for each stationarity and harmonic
#: residual grid it keeps; its .dat files are written one x column at a time.
MAX_GRID_POINTS = 2048 * 2048

#: Largest ansatz degree N a scenario may ask for, and largest degree n of
#: ``assemble --geodesic``.  A 64x64 verify of a constant-Lambda scenario
#: with no coefficients takes about 6.4 s at N = 200 and passes 10 s near
#: N = 250 (2-CPU x86-64 host); the work grows with about the square of N.
#: A geodesic spectrum took 0.5 s at n = 300 and 1.75 s at n = 600; its QZ
#: work grows as n^3.
MAX_N = 200

#: Largest stationarity and harmonic work, (4N + 4) * N * nx * ny, that
#: ``verify`` takes on.  Each factor is capped above, but not their product:
#: a constant-Lambda verify ran 21 s at N = 200 on 128^2 (2-CPU x86-64 host)
#: and would run about 1.5 h on 2048^2.  The budget admits N = 4 on 2048^2
#: (3.4e8), N = 200 on 64^2 and N = 50 on 256^2 (both near 6.6e8), and
#: refuses N = 200 on 128^2 and N = 50 on 512^2 (both near 2.6e9).
MAX_VERIFY_WORK = 10 ** 9


def check_verify_work(scenario: Scenario):
    """Refuse a scenario whose stationarity or harmonics check would take
    more than MAX_VERIFY_WORK, before any residual is evaluated."""
    if not {"stationarity", "harmonics"} & set(scenario.checks):
        return
    n, nx, ny = scenario.ansatz.n, scenario.grid.nx, scenario.grid.ny
    work = default_phi_count(n) * n * nx * ny
    _require(work <= MAX_VERIFY_WORK,
             f"verify of N = {n} on the {nx}x{ny} grid needs (4N + 4) * N * nx * ny = "
             f"{work:.3g} work, above the verify work budget of {MAX_VERIFY_WORK:.3g}")


class TrajectoryRequest(namedtuple("TrajectoryRequest",
                                   "name initial t_end control observables drift_tol")):
    __slots__ = ()

    def initial_state(self) -> PhaseState:
        return PhaseState(*self.initial)


#: A validated scenario.  The degree and the torus are the ansatz's
#: (`ansatz.n`, `ansatz.geometry`), the magnetic field the system's
#: (`system.omega`); `omega_source` is "derived" or "provided".
Scenario = namedtuple("Scenario", "name ansatz omega_source system grid tolerance "
                                  "checks trajectories")


def build_scenario(data: dict, *, seed: int | None = None,
                   grid_override: tuple | None = None,
                   tol_override: float | None = None,
                   dt_override: float | None = None,
                   adaptive_override: float | None = None) -> Scenario:
    """Validate a scenario dictionary and construct all referenced objects.

    Raises ScenarioError / FieldError / DomainError on invalid input; the CLI
    maps all of these to exit code 2.
    """
    _require(isinstance(data, dict), "scenario must be a JSON object")
    version = data.get("schema_version", SCHEMA_VERSION)
    _require(version == SCHEMA_VERSION,
             f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    name = _name(data.get("name", "scenario"), "name")

    geo_spec = data.get("geometry", {})
    _require(isinstance(geo_spec, dict), "geometry must be an object")
    geometry = TorusGeometry(*(_number(geo_spec.get(key, 2.0 * math.pi), f"geometry {key}")
                               for key in ("period_x", "period_y")))

    _require("N" in data, "scenario needs the ansatz degree N")
    n = _integer(data["N"], "N")
    _require(n >= 1, "N must be >= 1")
    _require(n <= MAX_N, f"N = {n} exceeds the limit of {MAX_N}")

    def field(spec, what):
        try:
            return field_from_spec(spec, geometry, seed_override=seed)
        except (FieldError, ScenarioError) as exc:
            raise ScenarioError(f"{what}: {exc}") from None

    _require("lambda" in data, "scenario needs a 'lambda' field spec")
    lam = field(data["lambda"], "lambda")

    zero = zero_field(geometry)   # every coefficient left out
    u_lower, v_lower = [zero] * n, [zero] * (n - 1)
    seen = set()
    for rec in _list(data.get("coefficients", []), "coefficients"):
        _require(isinstance(rec, dict) and "k" in rec,
                 "each coefficient entry needs an index k")
        k = _integer(rec["k"], "coefficient index k")
        _require(0 <= k <= n - 1, f"coefficient index k={k} outside 0..{n - 1}")
        _require(k not in seen, f"duplicate coefficient entry k={k}")
        seen.add(k)
        if "u" in rec:
            u_lower[k] = field(rec["u"], f"coefficient k={k} u")
        if "v" in rec:
            _require(k >= 1, "v_0 is identically zero; drop the v entry for k=0")
            v_lower[k - 1] = field(rec["v"], f"coefficient k={k} v")

    ansatz = Ansatz(n, lam, u_lower, v_lower)

    omega_spec = data.get("omega", "derive")
    if omega_spec == "derive":
        omega = omega_rescaled(ansatz.rescaled)
        omega_source = "derived"
    else:
        omega = field(omega_spec, "omega")
        omega_source = "provided"

    system = MagneticSystem(lam, omega)

    if grid_override is not None:
        nx, ny = grid_override
        grid_source = "--grid"
    else:
        grid_spec = data.get("grid", [64, 64])
        _require(isinstance(grid_spec, (list, tuple)) and len(grid_spec) == 2,
                 "grid must be [nx, ny]")
        nx, ny = (_integer(v, "grid entry") for v in grid_spec)
        grid_source = "grid"
    _require(nx * ny <= MAX_GRID_POINTS,
             f"{grid_source} {nx}x{ny} exceeds the limit of {MAX_GRID_POINTS} "
             f"(2048x2048) grid points")
    _require(nx >= 4 and ny >= 4, f"{grid_source} {nx}x{ny} needs nx, ny >= 4")
    grid = SamplingGrid(nx, ny, geometry)

    if tol_override is not None:
        tolerance = _positive(tol_override, "--tol")
    else:
        tolerance = _positive(data.get("tolerance", 1e-10), "tolerance")
    if adaptive_override is not None:
        _positive(adaptive_override, "--adaptive")
    if dt_override is not None:
        _positive(dt_override, "--dt")

    checks = tuple(_list(data.get("checks", list(KNOWN_CHECKS)), "checks"))
    for i, c in enumerate(checks):
        _require(c in KNOWN_CHECKS, f"unknown check {c!r} (known: {KNOWN_CHECKS})")
        _require(c not in checks[:i], f"duplicate check {c!r}")

    trajectories = []
    for i, rec in enumerate(_list(data.get("trajectories", []), "trajectories")):
        _require(isinstance(rec, dict), "trajectory request must be an object")
        traj_name = _name(rec.get("name", f"traj{i}"), f"trajectory {i} name")
        _require(all(traj_name != t.name for t in trajectories),   # one CSV file per name
                 f"duplicate trajectory name {traj_name!r}")
        label = f"trajectory {traj_name!r}"
        initial = rec.get("initial")
        _require(isinstance(initial, (list, tuple)) and len(initial) == 3,
                 f"{label} initial state must be [x, y, phi]")
        initial = tuple(_number(c, f"{label} initial state") for c in initial)
        _require(all(map(math.isfinite, initial)),
                 f"{label} initial state must be finite, got {list(initial)}")
        t_end = _positive(rec.get("t_end", 0.0), f"{label} t_end")
        if adaptive_override is not None:
            control = StepControl.adaptive(adaptive_override)
        elif dt_override is not None:
            control = StepControl.fixed(dt_override)
        elif "adaptive" in rec:
            control = StepControl.adaptive(_positive(rec["adaptive"], f"{label} adaptive"))
        else:
            control = StepControl.fixed(_positive(rec.get("dt", 1e-3), f"{label} dt"))
        if control.mode == "fixed":
            check_step_budget(t_end, control.dt,
                              "--dt" if dt_override is not None else f"{label} dt")
        check_sample_budget(t_end, control.sample_dt, f"{label} t_end")
        observables = tuple(_list(rec.get("observables", ["H", "F"]),
                                  f"{label} observables"))
        for obs in observables:
            _require(obs in ("H", "F"), f"unknown observable {obs!r}")
        drift_spec = rec.get("drift_tol", {})
        _require(isinstance(drift_spec, dict),
                 f"{label} drift_tol must be an object, got {drift_spec!r}")
        monitored = ("H", "F") if "F" in observables else ("H",)
        drift_tol = {}
        for key, value in drift_spec.items():   # a bound that nothing reads passes silently
            what = f"{label} drift_tol {key!r}"
            _require(key in monitored, f"{what} names no monitored observable "
                                       f"(monitored: {', '.join(monitored)})")
            drift_tol[key] = tol = _number(value, what)
            _require(tol >= 0.0, f"{what} must be a nonnegative number, got {tol!r}")
        trajectories.append(TrajectoryRequest(traj_name, initial, t_end, control,
                                              observables, drift_tol))

    return Scenario(name, ansatz, omega_source, system, grid, tolerance, checks,
                    tuple(trajectories))


def load_scenario(path_or_name: str, **kwargs) -> Scenario:
    """Load a bundled scenario by name, or parse a JSON scenario file."""
    if path_or_name in BUNDLED:
        return build_scenario(BUNDLED[path_or_name], **kwargs)
    path = Path(path_or_name)
    if not path.is_file():
        raise ScenarioError(f"no bundled scenario or readable file named {path_or_name!r}")
    try:
        data = json.loads(path.read_text())
    except (json.JSONDecodeError, RecursionError) as exc:   # nested too deep for the parser
        raise ScenarioError(f"malformed scenario JSON in {path}: {exc}") from exc
    if isinstance(data, dict):
        data.setdefault("name", path.stem)
    return build_scenario(data, **kwargs)


def bundled_scenario_names() -> list:
    return sorted(BUNDLED)


# ---------------------------------------------------------------------------
# Bundled scenario library (names are part of the public interface)
# ---------------------------------------------------------------------------

BUNDLED = {
    # Exact degree-1 family Lambda = 2 + 0.3 cos y, A = 0.1 sin y: every
    # residual vanishes and F = 2 sqrt(Lambda) cos(phi) + 0.2 sin y is
    # conserved along the flow.
    "linear-family-periodic": {
        "schema_version": 1,
        "name": "linear-family-periodic",
        "N": 1,
        "lambda": {"type": "trig", "coeffs": [
            {"m": 0, "n": 0, "re": 2.0, "im": 0.0},
            {"m": 0, "n": 1, "re": 0.15, "im": 0.0},
        ]},
        "coefficients": [
            {"k": 0, "u": {"type": "trig", "coeffs": [
                {"m": 0, "n": 1, "re": 0.0, "im": -0.1},
            ]}},
        ],
        "omega": "derive",
        "grid": [64, 64],
        "tolerance": 1e-10,
        "checks": ["stationarity", "harmonics", "constraint", "conservation",
                   "certificate"],
        "trajectories": [
            {"name": "orbit", "initial": [0.5, 0.3, 0.7], "t_end": 10.0,
             "observables": ["H", "F"], "drift_tol": {"F": 1e-8}},
        ],
    },
    # Generic random fields: no first integral, certificate must be refused.
    "random-nonsolution": {
        "schema_version": 1,
        "name": "random-nonsolution",
        "N": 2,
        "lambda": {"type": "random_trig", "seed": 101, "modes": 4,
                   "max_mode": 2, "amplitude": 0.12, "offset": 2.0},
        "coefficients": [
            {"k": 0, "u": {"type": "random_trig", "seed": 102, "modes": 4,
                           "max_mode": 2, "amplitude": 0.3}},
            {"k": 1,
             "u": {"type": "random_trig", "seed": 103, "modes": 4,
                   "max_mode": 2, "amplitude": 0.3},
             "v": {"type": "random_trig", "seed": 104, "modes": 4,
                   "max_mode": 2, "amplitude": 0.3}},
        ],
        "omega": "derive",
        "grid": [32, 32],
        "tolerance": 1e-8,
        "checks": ["harmonics", "constraint", "conservation", "certificate"],
    },
    # Flat torus, no magnetic field: straight lines, F = 2 cos(phi).
    "flat-zero-field": {
        "schema_version": 1,
        "name": "flat-zero-field",
        "N": 1,
        "lambda": {"type": "constant", "value": 1.0},
        "coefficients": [{"k": 0, "u": {"type": "constant", "value": 0.0}}],
        "omega": "derive",
        "grid": [16, 16],
        "tolerance": 1e-10,
        "checks": ["stationarity", "harmonics", "constraint", "conservation",
                   "certificate"],
        "trajectories": [
            {"name": "line", "initial": [0.0, 0.0, 0.0], "t_end": 1.0,
             "observables": ["H", "F"], "drift_tol": {"F": 1e-12}},
        ],
    },
    # Flat torus, constant magnetic field B = 1 through u_0 = -2y: circular
    # motion with closed form x = sin(t), y = cos(t) - 1, phi = -t from the
    # origin, and F = 2 cos(phi) - 2 y conserved.
    "flat-constant-field": {
        "schema_version": 1,
        "name": "flat-constant-field",
        "N": 1,
        "lambda": {"type": "constant", "value": 1.0},
        "coefficients": [
            {"k": 0, "u": {"type": "analytic", "name": "affine_y",
                           "params": {"slope": -2.0, "offset": 0.0}}},
        ],
        "omega": "derive",
        "grid": [16, 16],
        "tolerance": 1e-9,
        "checks": ["stationarity", "harmonics", "constraint", "conservation",
                   "certificate"],
        "trajectories": [
            {"name": "circle", "initial": [0.0, 0.0, 0.0],
             "t_end": 3.141592653589793, "observables": ["H", "F"],
             "drift_tol": {"F": 1e-8}},
        ],
    },
}
