"""Scenario specifications: JSON schema, validation, and the bundled library.

A scenario fixes the ansatz degree, the conformal factor, the coefficient
fields and the magnetic field (either an explicit field spec or ``"derive"``,
which eliminates it through its closed form in the rescaled leading
coefficients), together with grid sizes, tolerances, the requested checks and
any trajectory requests.  Bundled scenarios are referenced by name and double
as the acceptance fixtures.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as _dc_field
from pathlib import Path

from .fields import Field, SamplingGrid, TorusGeometry, field_from_spec
from .flow import MagneticSystem, PhaseState, StepControl
from .ansatz import Ansatz, omega_rescaled, rescale

SCHEMA_VERSION = 1

KNOWN_CHECKS = ("stationarity", "harmonics", "constraint", "conservation",
                "certificate")


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


@dataclass
class TrajectoryRequest:
    name: str
    initial: tuple
    t_end: float
    control: StepControl
    observables: tuple = ("H", "F")
    drift_tol: dict = _dc_field(default_factory=dict)

    def initial_state(self) -> PhaseState:
        return PhaseState(*self.initial)


@dataclass
class Scenario:
    name: str
    geometry: TorusGeometry
    n: int
    ansatz: Ansatz
    omega: Field
    omega_source: str                     # "derived" | "provided"
    system: MagneticSystem
    grid: SamplingGrid
    tolerance: float
    checks: tuple
    trajectories: tuple
    raw: dict


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{what} must be a number, got {value!r}") from None


def _positive(value, what: str) -> float:
    """`value` as a float, refused unless finite and strictly positive."""
    value = _number(value, what)
    _require(0.0 < value < math.inf, f"{what} must be finite and positive, got {value!r}")
    return value


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
    name = str(data.get("name", "scenario"))

    geo_spec = data.get("geometry", {})
    _require(isinstance(geo_spec, dict), "geometry must be an object")
    geometry = TorusGeometry(float(geo_spec.get("period_x", 2.0 * 3.141592653589793)),
                             float(geo_spec.get("period_y", 2.0 * 3.141592653589793)))

    _require("N" in data, "scenario needs the ansatz degree N")
    n = int(data["N"])
    _require(n >= 1, "N must be >= 1")

    _require("lambda" in data, "scenario needs a 'lambda' field spec")
    lam = field_from_spec(data["lambda"], geometry, seed_override=seed)

    from .fields import zero_field
    u_lower = [zero_field(geometry) for _ in range(n)]
    v_lower = [zero_field(geometry) for _ in range(max(n - 1, 0))]
    seen = set()
    for rec in data.get("coefficients", []):
        _require(isinstance(rec, dict) and "k" in rec,
                 "each coefficient entry needs an index k")
        k = int(rec["k"])
        _require(0 <= k <= n - 1, f"coefficient index k={k} outside 0..{n - 1}")
        _require(k not in seen, f"duplicate coefficient entry k={k}")
        seen.add(k)
        if "u" in rec:
            u_lower[k] = field_from_spec(rec["u"], geometry, seed_override=seed)
        if "v" in rec:
            _require(k >= 1, "v_0 is identically zero; drop the v entry for k=0")
            v_lower[k - 1] = field_from_spec(rec["v"], geometry, seed_override=seed)

    ansatz = Ansatz(n, lam, u_lower, v_lower, geometry)

    omega_spec = data.get("omega", "derive")
    if omega_spec == "derive":
        omega = omega_rescaled(rescale(ansatz))
        omega_source = "derived"
    else:
        omega = field_from_spec(omega_spec, geometry, seed_override=seed)
        omega_source = "provided"

    system = MagneticSystem(lam, omega, geometry)

    if grid_override is not None:
        nx, ny = grid_override
    else:
        grid_spec = data.get("grid", [64, 64])
        _require(isinstance(grid_spec, (list, tuple)) and len(grid_spec) == 2,
                 "grid must be [nx, ny]")
        nx, ny = grid_spec
    grid = SamplingGrid(int(nx), int(ny), geometry)

    if tol_override is not None:
        tolerance = _positive(tol_override, "--tol")
    else:
        tolerance = _positive(data.get("tolerance", 1e-10), "tolerance")
    if adaptive_override is not None:
        _positive(adaptive_override, "--adaptive")
    if dt_override is not None:
        _positive(dt_override, "--dt")

    checks = tuple(data.get("checks", list(KNOWN_CHECKS)))
    for c in checks:
        _require(c in KNOWN_CHECKS, f"unknown check {c!r} (known: {KNOWN_CHECKS})")

    trajectories = []
    for i, rec in enumerate(data.get("trajectories", [])):
        _require(isinstance(rec, dict), "trajectory request must be an object")
        traj_name = str(rec.get("name", f"traj{i}"))
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
        observables = tuple(rec.get("observables", ["H", "F"]))
        for obs in observables:
            _require(obs in ("H", "F"), f"unknown observable {obs!r}")
        drift_tol = {str(k): float(v) for k, v in rec.get("drift_tol", {}).items()}
        trajectories.append(TrajectoryRequest(traj_name, initial, t_end, control,
                                              observables, drift_tol))

    return Scenario(name, geometry, n, ansatz, omega, omega_source, system,
                    grid, tolerance, checks, tuple(trajectories), data)


def load_scenario(path_or_name: str, **kwargs) -> Scenario:
    """Load a bundled scenario by name, or parse a JSON scenario file."""
    if path_or_name in BUNDLED:
        return build_scenario(BUNDLED[path_or_name], **kwargs)
    path = Path(path_or_name)
    if not path.is_file():
        raise ScenarioError(f"no bundled scenario or readable file named {path_or_name!r}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"malformed scenario JSON in {path}: {exc}") from exc
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
