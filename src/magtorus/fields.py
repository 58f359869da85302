"""Smooth scalar fields on a flat 2-torus with exact point values and exact
first partial derivatives.

Two backends:

* trigonometric polynomials -- a finite table of complex Fourier coefficients
  with conjugate symmetry c[-m,-n] = conj(c[m,n]), so evaluation is real and
  differentiation is exact (multiply mode (m, n) by i*2*pi*m/period_x, and
  analogously in y);
* analytic closed forms -- a value rule plus closed-form first-derivative
  rules, admitting non-periodic profiles such as a linear ramp in y.

Evaluation is forward mode: ``field.jet(x, y)`` returns ``(v, v_x, v_y)``;
sums, products and powers of fields are nodes combining their children's
jets once.  On a `SamplingGrid`, trigonometric leaves evaluate separably and
at most once per grid (the grid memoizes leaf jets only).  Fields are
immutable; evaluation is pure and accepts scalars or same-shaped arrays.
"""

from __future__ import annotations

import cmath
import math
import weakref
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

#: Positivity floor for conformal factors; evaluation below it is a domain error.
LAMBDA_FLOOR = 1e-8


class FieldError(ValueError):
    """Invalid field construction or field specification."""


class DomainError(ValueError):
    """Evaluation left the admissible domain (e.g. conformal factor <= 0)."""


class DerivativeUnavailable(FieldError):
    """The backend holds no exact rule for the requested derivative."""


@dataclass(frozen=True)
class TorusGeometry:
    """Fundamental domain [0, period_x) x [0, period_y)."""

    period_x: float = TWO_PI
    period_y: float = TWO_PI

    def __post_init__(self):
        for name in ("period_x", "period_y"):
            period = getattr(self, name)
            if not (period > 0.0 and math.isfinite(period)):
                raise FieldError(f"torus {name} must be finite and strictly positive, "
                                 f"got {period!r}")

    def wavenumbers(self, m: int, n: int) -> tuple[float, float]:
        return TWO_PI * m / self.period_x, TWO_PI * n / self.period_y


class SamplingGrid:
    """Uniform nodes over one fundamental domain (endpoints excluded), with a
    memo of trigonometric leaf jets on them, weakly keyed by field."""

    def __init__(self, nx: int = 64, ny: int = 64, geometry: TorusGeometry | None = None):
        if nx < 4 or ny < 4:
            raise FieldError("sampling grid needs nx, ny >= 4")
        self.nx = int(nx)
        self.ny = int(ny)
        self.geometry = geometry if geometry is not None else TorusGeometry()
        self.xs = self.geometry.period_x * np.arange(self.nx) / self.nx
        self.ys = self.geometry.period_y * np.arange(self.ny) / self.ny
        self.mesh_x, self.mesh_y = np.meshgrid(self.xs, self.ys, indexing="ij")
        self.leaf_jets = weakref.WeakKeyDictionary()

    def __repr__(self):
        return f"SamplingGrid({self.nx}x{self.ny})"


#: Value and first partials of a field over a point set: ``v, v_x, v_y``.
Jet = namedtuple("Jet", "v x y")


# ---------------------------------------------------------------------------
# Field base class and algebra
# ---------------------------------------------------------------------------


class Field:
    """Value and exact first derivatives; subclasses implement ``_jet``."""

    geometry: TorusGeometry
    periodic: bool = True
    exact = (True, True)   # exact d/dx and d/dy rules exist

    def jet(self, x, y=None) -> Jet:
        """Value and exact first partials at points (x, y), or on a grid `x`."""
        if not all(self.exact):
            raise DerivativeUnavailable(f"no first-derivative rules for {self!r}")
        return self._evaluate(x, y)

    def _evaluate(self, x, y) -> Jet:
        if isinstance(x, SamplingGrid):
            return self._jet(x, None, x.leaf_jets)
        return self._jet(x, y, {})

    def eval(self, x, y):
        return self._evaluate(x, y).v

    def d_dx(self, x, y):
        if not self.exact[0]:
            raise DerivativeUnavailable(f"no d/dx rule for {self!r}")
        return self._evaluate(x, y).x

    def d_dy(self, x, y):
        if not self.exact[1]:
            raise DerivativeUnavailable(f"no d/dy rule for {self!r}")
        return self._evaluate(x, y).y

    def on_grid(self, grid: SamplingGrid):
        return self._evaluate(grid, None).v

    def min_on_grid(self, grid: SamplingGrid) -> float:
        return float(np.min(self.on_grid(grid)))

    # -- algebra: results carry exact first derivatives --------------------

    def _check_geometry(self, other: "Field"):
        if (other.geometry.period_x != self.geometry.period_x
                or other.geometry.period_y != self.geometry.period_y):
            raise FieldError("cannot combine fields on different tori")

    def __add__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return _Node(lambda a: Jet(a.v + c, a.x, a.y), (self,))
        if not isinstance(other, Field):
            return NotImplemented
        return _Node(lambda a, b: Jet(a.v + b.v, a.x + b.x, a.y + b.y), (self, other))

    __radd__ = __add__

    def __neg__(self):
        return self * (-1.0)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Field) else -float(other))

    def __rsub__(self, other):
        return (-self) + float(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            c = float(other)
            return _Node(lambda a: Jet(c * a.v, c * a.x, c * a.y), (self,))
        if not isinstance(other, Field):
            return NotImplemented
        return _Node(lambda a, b: Jet(a.v * b.v, a.x * b.v + a.v * b.x,
                                      a.y * b.v + a.v * b.y), (self, other))

    __rmul__ = __mul__

    def __pow__(self, p):
        p = float(p)
        if p == 1.0:
            return self

        def power(a):
            slope = p * a.v ** (p - 1.0)
            return Jet(a.v ** p, slope * a.x, slope * a.y)

        return _Node(power, (self,))


class TrigField(Field):
    """Real trigonometric polynomial stored as a conjugate-symmetric table.

    Internally keeps the constant term plus one coefficient per canonical
    mode pair (m, n) with m > 0 or (m == 0 and n > 0); the mirrored modes
    are implied by conjugation, which makes real-valued evaluation
    structural rather than a runtime check.
    """

    def __init__(self, table: dict, geometry: TorusGeometry | None = None):
        self.geometry = geometry if geometry is not None else TorusGeometry()
        self._c0, half = _canonicalize_table(table)
        self._half = dict(sorted(half.items()))
        # f = c0 + sum of a cos(kx x + ky y) - b sin(kx x + ky y), a + i b = 2 c
        self._terms = [(*self.geometry.wavenumbers(m, n), 2.0 * c.real, 2.0 * c.imag)
                       for (m, n), c in self._half.items()]
        # On grids: Re(E_x @ rows @ E_y), rows = (1, i kx, i ky) (a + i b) over
        # distinct (kx, ky), E_x = exp(i kx x) and E_y = exp(i ky y).
        kx, ky, a, b = np.array([(0.0, 0.0, self._c0, 0.0)] + self._terms).T
        self._grid_kx, mi = np.unique(kx, return_inverse=True)
        self._grid_ky, ni = np.unique(ky, return_inverse=True)
        self._grid_rows = np.zeros((3, self._grid_kx.size, self._grid_ky.size), dtype=complex)
        self._grid_rows[:, mi, ni] = (a + 1j * b) * np.stack((np.ones_like(kx), 1j * kx, 1j * ky))

    def _jet(self, x, y, memo):
        jet = memo.get(self)
        if jet is not None:
            return jet
        if isinstance(x, SamplingGrid):
            left = np.exp(1j * np.multiply.outer(x.xs, self._grid_kx)) @ self._grid_rows
            right = np.exp(1j * np.multiply.outer(self._grid_ky, x.ys))
            out = left.real @ right.real - left.imag @ right.imag
            out.flags.writeable = False   # shared through the grid's memo
            jet = Jet(*out)
        else:
            # At a single point math beats numpy's per-call overhead, and the
            # jet stays in plain floats (the same IEEE arithmetic as float64).
            point = isinstance(x, (int, float)) and isinstance(y, (int, float))
            cos, sin = (math.cos, math.sin) if point else (np.cos, np.sin)
            v_x = v_y = 0.0 * (x + y)
            v = self._c0 + v_x
            for kx, ky, a, b in self._terms:
                theta = kx * x + ky * y
                c, s = cos(theta), sin(theta)
                slope = -(a * s + b * c)
                v, v_x, v_y = v + (a * c - b * s), v_x + kx * slope, v_y + ky * slope
            jet = Jet(v, v_x, v_y) if point else Jet(*map(np.float64, (v, v_x, v_y)))
        memo[self] = jet
        return jet

    # Bound on each concrete class so that per-class wrappers can find them.
    eval, d_dx, d_dy = Field.eval, Field.d_dx, Field.d_dy

    # -- exact spectral differentiation --------------------------------------

    def dx_field(self) -> "TrigField":
        return TrigField({mn: c * 1j * self.geometry.wavenumbers(*mn)[0]
                          for mn, c in self._half.items()}, self.geometry)

    def dy_field(self) -> "TrigField":
        return TrigField({mn: c * 1j * self.geometry.wavenumbers(*mn)[1]
                          for mn, c in self._half.items()}, self.geometry)

    # -- table access --------------------------------------------------------

    def coefficients(self) -> dict:
        """Full two-sided coefficient table {(m, n): complex}."""
        table = {}
        if self._c0 != 0.0 or not self._half:
            table[(0, 0)] = complex(self._c0, 0.0)
        for (m, n), c in self._half.items():
            table[(m, n)] = c
            table[(-m, -n)] = c.conjugate()
        return table

    # -- trig-exact algebra ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = constant_field(other, self.geometry)
        if isinstance(other, TrigField):
            self._check_geometry(other)
            table = self.coefficients()
            for mn, c in other.coefficients().items():
                table[mn] = table.get(mn, 0.0) + c
            return TrigField(table, self.geometry)
        return super().__add__(other)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            other = constant_field(other, self.geometry)
        if isinstance(other, TrigField):
            self._check_geometry(other)
            table = {}
            for mn1, c1 in self.coefficients().items():
                for mn2, c2 in other.coefficients().items():
                    mn = (mn1[0] + mn2[0], mn1[1] + mn2[1])
                    table[mn] = table.get(mn, 0.0) + c1 * c2
            return TrigField(table, self.geometry)
        return super().__mul__(other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"TrigField({1 + 2 * len(self._half)} modes)"


def _canonical(m: int, n: int) -> bool:
    return m > 0 or (m == 0 and n > 0)


def _canonicalize_table(table: dict):
    """Validate conjugate symmetry and fold onto the canonical half-spectrum."""
    clean = {}
    for key, val in table.items():
        m, n = int(key[0]), int(key[1])
        clean[(m, n)] = complex(val)
        if not cmath.isfinite(clean[(m, n)]):
            raise FieldError(f"mode {(m, n)} has non-finite coefficient {val!r}")

    c00 = clean.pop((0, 0), 0.0)
    if abs(c00.imag) > 1e-13 * (1.0 + abs(c00.real)):
        raise FieldError("mode (0, 0) must be real (it is its own conjugate)")

    half = {}
    seen = set()
    for (m, n), c in clean.items():
        if (m, n) in seen:
            continue
        mirror = (-m, -n)
        if mirror in clean:
            cm = clean[mirror]
            if abs(cm - c.conjugate()) > 1e-13 * (1.0 + abs(c)):
                raise FieldError(f"modes {(m, n)} and {mirror} are not conjugate")
            seen.add(mirror)
        seen.add((m, n))
        if _canonical(m, n):
            half[(m, n)] = c
        else:
            half[mirror] = c.conjugate()
    # Drop exact zeros to keep tables minimal.
    half = {mn: c for mn, c in half.items() if c != 0.0}
    return c00.real, half


class AnalyticField(Field):
    """Closed-form field: a value rule plus optional first-derivative rules
    (without one, that derivative raises DerivativeUnavailable)."""

    def __init__(self, value_fn, dx_fn=None, dy_fn=None, *,
                 geometry: TorusGeometry | None = None, periodic: bool = True,
                 label: str = ""):
        self.geometry = geometry if geometry is not None else TorusGeometry()
        self.periodic = periodic
        self.label = label
        self.exact = (dx_fn is not None, dy_fn is not None)
        self._rules = (value_fn, dx_fn, dy_fn)

    def _jet(self, x, y, memo):
        if isinstance(x, SamplingGrid):
            x, y = x.mesh_x, x.mesh_y
        return Jet(*(rule(x, y) if rule else math.nan for rule in self._rules))

    eval, d_dx, d_dy = Field.eval, Field.d_dx, Field.d_dy

    def __repr__(self):
        return f"AnalyticField({self.label or 'derived'})"


class _Node(AnalyticField):
    """Expression node whose jet is `rule` applied to its children's jets."""

    def __init__(self, rule, children, *, label: str = "", exact=None):
        for other in children[1:]:
            children[0]._check_geometry(other)
        self.geometry = children[0].geometry
        self.periodic = all(c.periodic for c in children)
        self.label = label
        self.exact = exact or tuple(all(c.exact[i] for c in children) for i in (0, 1))
        self._rule, self._children = rule, children

    def _jet(self, x, y, memo):
        return self._rule(*[c._jet(x, y, memo) for c in self._children])


def value_field(rule, fields, *, label: str) -> AnalyticField:
    """Evaluation-only field with value ``rule(*jets of fields)``: its own
    derivatives would need second derivatives, which fields do not carry."""
    for f in fields:
        if not all(f.exact):
            raise DerivativeUnavailable(f"no first-derivative rules for {f!r}")
    return _Node(lambda *jets: Jet(rule(*jets), math.nan, math.nan), tuple(fields),
                 label=label, exact=(False, False))


def check_conformal_factor(lam: Field, grid: SamplingGrid):
    """Raise DomainError unless Lambda stays above LAMBDA_FLOOR.

    For a TrigField the claim holds everywhere: it is accepted when
    c0 - 2 sum|c| clears the floor, or when the minimum on `grid` minus the
    Lipschitz bound 2 sum |c| |k| times half the cell diagonal does (every
    point lies within half a diagonal of a node).  Other fields are checked
    at the nodes of `grid` only.
    """
    lam_min = lam.min_on_grid(grid)
    if isinstance(lam, TrigField):
        spread = sum(math.hypot(a, b) for _, _, a, b in lam._terms)
        lipschitz = sum(math.hypot(a, b) * math.hypot(kx, ky) for kx, ky, a, b in lam._terms)
        half_diagonal = 0.5 * math.hypot(grid.geometry.period_x / grid.nx,
                                         grid.geometry.period_y / grid.ny)
        bound = max(lam._c0 - spread, lam_min - lipschitz * half_diagonal)
        claim = f"everywhere (lower bound = {bound:g})"
    else:
        bound = lam_min
        claim = f"on the sampling grid (min = {lam_min:g})"
    if not LAMBDA_FLOOR < bound < math.inf:
        raise DomainError(f"conformal factor must stay finite and above "
                          f"{LAMBDA_FLOOR:g} {claim}")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_trig_field(coeff_table: dict, geometry: TorusGeometry | None = None) -> TrigField:
    """Build a real trig-polynomial field from {(m, n): complex coefficient}.

    Missing conjugate partners are completed automatically; an inconsistent
    pair (both present but not conjugate) raises FieldError.
    """
    return TrigField(coeff_table, geometry)


def constant_field(value: float, geometry: TorusGeometry | None = None) -> TrigField:
    return TrigField({(0, 0): float(value)}, geometry)


def zero_field(geometry: TorusGeometry | None = None) -> TrigField:
    return TrigField({}, geometry)


def random_trig_field(rng, geometry: TorusGeometry | None = None, *,
                      n_modes: int = 5, max_mode: int = 3,
                      amplitude: float = 1.0, offset: float = 0.0) -> TrigField:
    """Random real trig polynomial with n_modes canonical modes, |m|,|n| <= max_mode."""
    geometry = geometry if geometry is not None else TorusGeometry()
    pool = [(m, n) for m in range(-max_mode, max_mode + 1)
            for n in range(-max_mode, max_mode + 1) if _canonical(m, n)]
    idx = rng.choice(len(pool), size=min(n_modes, len(pool)), replace=False)
    table = {(0, 0): offset}
    for i in np.sort(idx):
        m, n = pool[int(i)]
        table[(m, n)] = amplitude * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return TrigField(table, geometry)


# ---------------------------------------------------------------------------
# Analytic presets (referenced by name in scenario files)
# ---------------------------------------------------------------------------

_PRESETS = {}


def register_analytic_preset(name: str, factory):
    """factory(params: dict, geometry) -> Field"""
    _PRESETS[name] = factory


def analytic_preset(name: str, params: dict | None = None,
                    geometry: TorusGeometry | None = None) -> Field:
    if name not in _PRESETS:
        raise FieldError(f"unknown analytic preset {name!r}")
    return _PRESETS[name](params or {}, geometry if geometry is not None else TorusGeometry())


def _affine_axis(axis: str):
    def factory(params, geometry):
        offset = float(params.get("offset", 0.0))
        slope = float(params.get("slope", 0.0))
        if not (math.isfinite(offset) and math.isfinite(slope)):
            raise FieldError(f"affine_{axis} needs finite offset and slope, "
                             f"got {offset!r}, {slope!r}")
        if axis == "y":
            value = lambda x, y: offset + slope * y + 0.0 * x
            dx = lambda x, y: 0.0 * (x + y)
            dy = lambda x, y: slope + 0.0 * (x + y)
        else:
            value = lambda x, y: offset + slope * x + 0.0 * y
            dx = lambda x, y: slope + 0.0 * (x + y)
            dy = lambda x, y: 0.0 * (x + y)
        return AnalyticField(value, dx, dy, geometry=geometry,
                             periodic=(slope == 0.0), label=f"affine_{axis}")
    return factory


register_analytic_preset("affine_x", _affine_axis("x"))
register_analytic_preset("affine_y", _affine_axis("y"))


# ---------------------------------------------------------------------------
# JSON field specifications
# ---------------------------------------------------------------------------


def trig_records(field: TrigField) -> list:
    """Serialize the full coefficient table as [{m, n, re, im}, ...]."""
    recs = []
    for (m, n), c in sorted(field.coefficients().items()):
        recs.append({"m": m, "n": n, "re": c.real, "im": c.imag})
    return recs


def field_from_spec(spec, geometry: TorusGeometry | None = None, *,
                    seed_override: int | None = None) -> Field:
    """Build a field from a JSON-style specification.

    Supported forms::

        {"type": "constant", "value": 2.0}
        {"type": "trig", "coeffs": [{"m": 0, "n": 1, "re": 0.15, "im": 0.0}, ...]}
        {"type": "analytic", "name": "affine_y", "params": {"slope": -2.0}}
        {"type": "random_trig", "seed": 1, "modes": 5, "max_mode": 3,
         "amplitude": 0.3, "offset": 0.0}

    A bare number is shorthand for a constant field.
    """
    geometry = geometry if geometry is not None else TorusGeometry()
    if isinstance(spec, (int, float)):
        return constant_field(float(spec), geometry)
    if not isinstance(spec, dict):
        raise FieldError(f"field spec must be a number or an object, got {type(spec).__name__}")
    kind = spec.get("type")
    if kind == "constant":
        return constant_field(float(spec["value"]), geometry)
    if kind == "trig":
        table = {}
        for rec in spec.get("coeffs", []):
            key = (int(rec["m"]), int(rec["n"]))
            if key in table:
                raise FieldError(f"duplicate mode {key} in trig spec")
            table[key] = complex(float(rec.get("re", 0.0)), float(rec.get("im", 0.0)))
        return TrigField(table, geometry)
    if kind == "analytic":
        return analytic_preset(spec["name"], spec.get("params"), geometry)
    if kind == "random_trig":
        seed = seed_override if seed_override is not None else spec.get("seed")
        if seed is None:
            raise FieldError("random_trig spec needs a seed")
        rng = np.random.default_rng(int(seed))
        return random_trig_field(
            rng, geometry,
            n_modes=int(spec.get("modes", 5)),
            max_mode=int(spec.get("max_mode", 3)),
            amplitude=float(spec.get("amplitude", 1.0)),
            offset=float(spec.get("offset", 0.0)))
    raise FieldError(f"unknown field spec type {kind!r}")
