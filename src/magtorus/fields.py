"""Smooth scalar fields on a flat 2-torus with exact point values and exact
first partial derivatives: the field math only.  Fields are built in Python
here; their JSON specs are read by `scenarios` (`field_from_spec`).

Two kinds of leaf, both plain data:

* trigonometric polynomials -- a finite table of complex Fourier coefficients
  with conjugate symmetry c[-m,-n] = conj(c[m,n]), so evaluation is real and
  differentiation is exact (multiply mode (m, n) by i*2*pi*m/period_x, and
  analogously in y);
* affine leaves (`AffineField`) -- offset + slope * x or offset + slope * y,
  admitting non-periodic profiles such as a linear ramp in y.

Evaluation is forward mode: ``field.jet(x, y)`` returns ``(v, v_x, v_y)``.
The spectral derivatives (`dx_field`, `dy_field`) are the only operations
from a table to a table, and every sum, difference, negation, scalar
multiple, product and power of fields is a node combining its children's
jets once.  A `SamplingGrid` is evaluated in blocks (`GridBlock`) of at most
BLOCK_POINTS points: a leaf evaluates on the rows a block touches, then is
cut down to the block's nodes (a trigonometric leaf separably).  A block
memoizes, read-only, the jet of every field evaluated on it, so no field is
evaluated twice on a block; `field.jet(grid)` fills (nx, ny) arrays one
block at a time, with the bits of one block of every node.  Off the grid a
field runs its compiled point kernel (`point_kernel`): one straight-line
Python function of (x, y), written once per field on first use, with each
leaf inlined and each node's jet rule traced into plain arithmetic (or
called, where the rule cannot be traced), run with math's cos and sin on int
or float coordinates, and by its array twin with numpy's on coordinate
arrays (`run_kernel` chooses); a kernel that tests the Lambda floor (the
flow's) runs at points only.
It performs the operations of a recursive walk of the tree (the tests'
`recursive_point_jet`) in the same order, so it returns the same bits.
Fields are immutable; evaluation is pure.

Each field carries its torus, and it is the one place that torus is stated:
`same_torus` refuses, with FieldError, to combine fields of different tori,
to evaluate a field on a grid of another torus, or to build an ansatz or a
magnetic system from them.  A field has exact first-derivative rules
(`exact`) unless it is or holds a value field (`value_field`).  A
trigonometric field is refused, with FieldError, when built if its grid
table would exceed MAX_TABLE_CELLS or its coefficients, wavenumbers, values
or first partials may overflow float64: a mode index too large for a float,
or a non-finite bound |c0| + sum(|a| + |b|) on its values or
sum |k_x| (|a| + |b|), sum |k_y| (|a| + |b|) on its first partials.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import types
from collections import namedtuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: Positivity floor for conformal factors; evaluation below it is a domain error.
LAMBDA_FLOOR = 1e-8

#: Most cells, distinct x wavenumbers times distinct y wavenumbers, of the
#: dense complex table a TrigField keeps for grid evaluation: 3 x 2048^2
#: complex cells take about 200 MB.  A field that needs more is refused.
MAX_TABLE_CELLS = 2048 * 2048

#: Most nodes of one grid block: 8192 float64 values are 64 KB, below
#: glibc's 128 KB mmap threshold, so block temporaries come from the heap.
BLOCK_POINTS = 8192


class FieldError(ValueError):
    """Invalid field construction or field specification."""


class DomainError(ValueError):
    """Evaluation left the admissible domain (e.g. conformal factor <= 0)."""


class DerivativeUnavailable(FieldError):
    """The backend holds no exact rule for the requested derivative."""


#: `_make` of a namedtuple subclass whose `__new__` checks its values: it
#: goes through the class, so `_replace`, which calls it, checks them too.
checked_make = classmethod(lambda cls, values: cls(*values))


class TorusGeometry(namedtuple("TorusGeometry", "period_x period_y")):
    """Fundamental domain [0, period_x) x [0, period_y)."""

    __slots__ = ()
    _make = checked_make

    def __new__(cls, period_x: float = TWO_PI, period_y: float = TWO_PI):
        for name, period in (("period_x", period_x), ("period_y", period_y)):
            if not (period > 0.0 and math.isfinite(period)):
                raise FieldError(f"torus {name} must be finite and strictly positive, "
                                 f"got {period!r}")
        return super().__new__(cls, period_x, period_y)

    def wavenumbers(self, m: int, n: int) -> tuple[float, float]:
        return TWO_PI * m / self.period_x, TWO_PI * n / self.period_y


class SamplingGrid:
    """Uniform nodes over one fundamental domain (endpoints excluded), node
    (i, j) at (xs[i], ys[j]) and at flat index i * ny + j.

    Kernels evaluate a grid block by block (`blocks`), so their temporaries
    stay BLOCK_POINTS long whatever the grid size.  The blocks are the leaves
    of numpy's pairwise summation of the nx * ny flat points, cut down to at
    most BLOCK_POINTS points: `fold` adds up per-block `np.sum`s in that
    tree, which gives the bits of one `np.sum` over the whole grid."""

    def __init__(self, nx: int = 64, ny: int = 64, geometry: TorusGeometry | None = None):
        if nx < 4 or ny < 4:
            raise FieldError("sampling grid needs nx, ny >= 4")
        self.nx = int(nx)
        self.ny = int(ny)
        self.geometry = geometry if geometry is not None else TorusGeometry()
        for name, period, nodes in (("period_x", self.geometry.period_x, self.nx),
                                    ("period_y", self.geometry.period_y, self.ny)):
            if not math.isfinite(period * (nodes - 1)):   # the last node, as xs or ys forms it
                raise FieldError(f"torus {name} = {period!r} puts the nodes of a "
                                 f"{self.nx}x{self.ny} grid beyond float64")
        self.xs = self.geometry.period_x * np.arange(self.nx) / self.nx
        self.ys = self.geometry.period_y * np.arange(self.ny) / self.ny
        self.spans = []   # (start, stop) of each block, in order
        self._tree = _pairwise_tree(0, self.nx * self.ny, self.spans)

    def resolves(self, m: int, n: int) -> bool:
        """Whether mode (m, n) lies below the grid's Nyquist limits, |m| <
        nx/2 and |n| < ny/2 (Trefethen, *Spectral Methods in MATLAB*, ch. 3).
        A field with a mode beyond them can hide an error between the nodes."""
        return 2 * abs(m) < self.nx and 2 * abs(n) < self.ny

    def blocks(self):
        """The grid's blocks in flat order, each with an empty memo."""
        return (GridBlock(self, start, stop) for start, stop in self.spans)

    def fold(self, partials):
        """Sum of per-block partial sums, one per block in order, added up
        as numpy's pairwise summation adds them."""
        def add(node):
            return partials[node] if isinstance(node, int) else add(node[0]) + add(node[1])
        return add(self._tree)

    @functools.cached_property
    def _mesh(self):   # for callers; kernels evaluate blocks
        return np.meshgrid(self.xs, self.ys, indexing="ij")

    mesh_x = property(lambda self: self._mesh[0])
    mesh_y = property(lambda self: self._mesh[1])

    def __repr__(self):
        return f"SamplingGrid({self.nx}x{self.ny})"


def _pairwise_tree(start: int, stop: int, spans: list):
    """The split of points start .. stop - 1 by numpy's pairwise summation
    (a run longer than 128 splits after half its length, rounded down to a
    multiple of 8), down to runs of at most BLOCK_POINTS: appends each such
    run to `spans` and returns the tree of their indices in `spans`."""
    if stop - start <= BLOCK_POINTS:
        spans.append((start, stop))
        return len(spans) - 1
    half = (stop - start) // 2
    half -= half % 8
    return (_pairwise_tree(start, start + half, spans),
            _pairwise_tree(start + half, stop, spans))


class GridBlock:
    """Nodes start .. stop - 1 of a grid in flat order, with a memo of the
    jet of every field, leaf or node, evaluated on them.  Jets on a block are
    flat arrays, read-only once kept.  The memo lives as long as the block:
    verify's one pass (`ansatz.streamed_reports`) shares it between every
    report it samples on the block, and drops it with the block."""

    def __init__(self, grid: SamplingGrid, start: int, stop: int):
        self.grid, self.geometry = grid, grid.geometry
        self.start, self.stop = start, stop
        self.rows = slice(start // grid.ny, -(-stop // grid.ny))   # rows it touches
        self.memo = {}

    def cut(self, table: np.ndarray) -> np.ndarray:
        """The block's nodes, flat, out of `table`, shaped (..., rows touched, ny)."""
        offset = self.start - self.rows.start * self.grid.ny
        return table.reshape(*table.shape[:-2], -1)[..., offset:offset + self.stop - self.start]

    def part(self, array: np.ndarray) -> np.ndarray:
        """The block's nodes of a C-contiguous (nx, ny) array, as a flat view."""
        return array.reshape(-1)[self.start:self.stop]

    def __repr__(self):
        return f"GridBlock({self.grid!r} [{self.start}:{self.stop}])"


def same_torus(*items) -> TorusGeometry:
    """The torus that all `items` (fields or sampling grids) lie on: the one
    rule by which fields are combined, evaluated on a grid, or put together
    into an ansatz or a magnetic system.  Raises FieldError if two differ."""
    geometry = items[0].geometry
    for other in items[1:]:
        if other.geometry != geometry:
            raise FieldError(f"{items[0]!r} and {other!r} lie on different tori: "
                             f"{geometry} and {other.geometry}")
    return geometry


#: Value and first partials of a field over a point set: ``v, v_x, v_y``.
Jet = namedtuple("Jet", "v x y")


def power_jet(a: Jet, p: float) -> Jet:
    """Jet of a ** p by the chain rule, slope p a^(p-1): the one power rule,
    for field nodes and for the quasi-linear normalization u_N = Lambda^(N/2)."""
    slope = p * a.v ** (p - 1.0)
    return Jet(a.v ** p, slope * a.x, slope * a.y)


# ---------------------------------------------------------------------------
# Field base class and algebra
# ---------------------------------------------------------------------------


class Field:
    """Value and exact first derivatives; subclasses implement ``_jet``."""

    geometry: TorusGeometry
    periodic: bool = True
    exact = True   # exact first-derivative rules exist (not where a value field is)

    def jet(self, x, y=None) -> Jet:
        """Value and exact first partials on a grid or grid block `x`, or at
        a point or same-shaped coordinate arrays (x, y) by the point kernel."""
        if not self.exact:
            raise DerivativeUnavailable(f"no first-derivative rules for {self!r}")
        return self._evaluate(x, y)

    def _evaluate(self, x, y) -> Jet:
        if isinstance(x, SamplingGrid):
            return self._grid_jet(x)
        if isinstance(x, GridBlock):
            jet = x.memo.get(self)
            if jet is None:
                same_torus(self, x)
                jet = x.memo[self] = self._jet(x)
                for part in jet:   # shared through the block's memo
                    if isinstance(part, np.ndarray):
                        part.flags.writeable = False
            return jet
        return Jet(*run_kernel(self._point_kernel, x, y))

    def _grid_jet(self, grid: SamplingGrid) -> Jet:
        """The jet on every node of `grid`, shaped (nx, ny) and read-only,
        evaluated block by block, so at most one block's memo is alive; a
        value field's NaN slots stay scalars."""
        parts = None
        for block in grid.blocks():
            jet = self._evaluate(block, None)
            parts = parts or [np.empty((grid.nx, grid.ny), p.dtype)
                              if isinstance(p, np.ndarray) else p for p in jet]
            for whole, part in zip(parts, jet):
                if isinstance(whole, np.ndarray):
                    block.part(whole)[:] = part
        for part in parts:
            if isinstance(part, np.ndarray):
                part.flags.writeable = False
        return Jet(*parts)

    @functools.cached_property
    def _point_kernel(self):
        return point_kernel(self)

    def eval(self, x, y):
        return self._evaluate(x, y).v

    def d_dx(self, x, y):
        return self.jet(x, y).x

    def d_dy(self, x, y):
        return self.jet(x, y).y

    def on_grid(self, grid: SamplingGrid):
        return self._evaluate(grid, None).v

    def min_on_grid(self, grid: SamplingGrid) -> float:
        return float(np.min(self.on_grid(grid)))

    # -- algebra: results carry exact first derivatives --------------------

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
        return _Node(functools.partial(power_jet, p=p), (self,))


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
        try:
            self._terms = [(*self.geometry.wavenumbers(m, n), 2.0 * c.real, 2.0 * c.imag)
                           for (m, n), c in self._half.items()]
        except OverflowError:   # an integer mode too large for a float
            raise FieldError("a mode index is too large for float64") from None
        _refuse_overflow(self._c0, self._terms)
        # On grids: Re(E_x @ rows @ E_y), rows = (1, i kx, i ky) (a + i b) over
        # distinct (kx, ky), E_x = exp(i kx x) and E_y = exp(i ky y).
        kx, ky, a, b = np.array([(0.0, 0.0, self._c0, 0.0)] + self._terms).T
        self._grid_kx, mi = np.unique(kx, return_inverse=True)
        self._grid_ky, ni = np.unique(ky, return_inverse=True)
        if self._grid_kx.size * self._grid_ky.size > MAX_TABLE_CELLS:
            raise FieldError(f"trigonometric field needs a grid table of "
                             f"{self._grid_kx.size} x {self._grid_ky.size} distinct "
                             f"wavenumbers, above the limit of {MAX_TABLE_CELLS} "
                             f"(2048x2048) cells")
        self._grid_rows = np.zeros((3, self._grid_kx.size, self._grid_ky.size), dtype=complex)
        self._grid_rows[:, mi, ni] = (a + 1j * b) * np.stack((np.ones_like(kx), 1j * kx, 1j * ky))

    def _jet(self, block):   # on the rows the block touches, then cut
        grid = block.grid
        left = (np.exp(1j * np.multiply.outer(grid.xs[block.rows], self._grid_kx))
                @ self._grid_rows)
        right = np.exp(1j * np.multiply.outer(self._grid_ky, grid.ys))
        return Jet(*block.cut(left.real @ right.real - left.imag @ right.imag))

    # Bound on each concrete class so that per-class wrappers can find them.
    eval, d_dx, d_dy = Field.eval, Field.d_dx, Field.d_dy

    # -- exact spectral differentiation --------------------------------------

    def _derivative(self, axis: int) -> "TrigField":
        """The partial along `axis` (0: x, 1: y): each mode times i k_axis."""
        return TrigField({mn: c * 1j * self.geometry.wavenumbers(*mn)[axis]
                          for mn, c in self._half.items()}, self.geometry)

    dx_field = functools.partialmethod(_derivative, 0)
    dy_field = functools.partialmethod(_derivative, 1)

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

    def __repr__(self):
        return f"TrigField({1 + 2 * len(self._half)} modes)"


def trig_leaves(*fields) -> list:
    """The distinct trigonometric leaves under `fields`, in the order a
    depth-first walk first meets them."""
    seen, leaves = set(), []

    def walk(field):
        if field not in seen:
            seen.add(field)
            if isinstance(field, TrigField):
                leaves.append(field)
            for child in getattr(field, "_children", ()):
                walk(child)

    for field in fields:
        walk(field)
    return leaves


def bandwidth(*fields) -> tuple:
    """The largest |m| and the largest |n| over the modes of the
    trigonometric leaves under `fields`; (0, 0) without any."""
    modes = [mn for leaf in trig_leaves(*fields) for mn in leaf._half]
    return (max((abs(m) for m, _ in modes), default=0),
            max((abs(n) for _, n in modes), default=0))


def _refuse_overflow(c0: float, terms: list):
    """FieldError unless the bounds |c0| + sum (|a| + |b|) on the values and
    sum |kx| (|a| + |b|), sum |ky| (|a| + |b|) on the first partials are
    finite in float64.  Every term has a + i b != 0, so a doubled coefficient
    or a wavenumber that is not finite makes a bound infinite."""
    weights = [abs(a) + abs(b) for _, _, a, b in terms]
    bounds = {"values": abs(c0) + sum(weights),
              "x partials": sum(abs(t[0]) * w for t, w in zip(terms, weights)),
              "y partials": sum(abs(t[1]) * w for t, w in zip(terms, weights))}
    for what, bound in bounds.items():
        if not math.isfinite(bound):
            raise FieldError(f"trigonometric field {what} may overflow float64: "
                             f"their bound from the coefficients and wavenumbers "
                             f"is not finite")


def _canonicalize_table(table: dict):
    """Validate conjugate symmetry and fold the table onto the canonical
    half-spectrum, m > 0 or (m == 0 and n > 0), in one pass: a mode keeps
    its coefficient and its mirror (-m, -n) the conjugate, and of a mirrored
    pair the first is kept once the second is checked against it."""
    c0, half = 0.0, {}
    for key, val in table.items():
        m, n = int(key[0]), int(key[1])
        c = complex(val)
        if not cmath.isfinite(c):
            raise FieldError(f"mode {(m, n)} has non-finite coefficient {val!r}")
        if m == n == 0:
            if abs(c.imag) > 1e-13 * (1.0 + abs(c.real)):
                raise FieldError("mode (0, 0) must be real (it is its own conjugate)")
            c0 = c.real
            continue
        mode = (m, n) if m > 0 or (m == 0 and n > 0) else (-m, -n)
        c = c if mode == (m, n) else c.conjugate()
        if mode not in half:
            half[mode] = c
        elif abs(c - half[mode]) > 1e-13 * (1.0 + abs(half[mode])):
            raise FieldError(f"modes {(-m, -n)} and {(m, n)} are not conjugate")
    # Drop exact zeros to keep tables minimal.
    return c0, {mn: c for mn, c in half.items() if c != 0.0}


class AnalyticField(Field):
    """Base of the fields that are not trigonometric tables: `AffineField`
    and expression nodes.  It has no constructor, and exists only because
    perfbench/tracer.py wraps the `eval`, `d_dx` and `d_dy` it finds in this
    class's own namespace; it can go when the tracer stops wrapping them."""

    eval, d_dx, d_dy = Field.eval, Field.d_dx, Field.d_dy


class AffineField(AnalyticField):
    """offset + slope * x (axis "x") or offset + slope * y (axis "y"),
    periodic only when its slope is 0."""

    def __init__(self, offset: float, slope: float, axis: str, geometry: TorusGeometry):
        self.offset, self.slope, self.axis, self.geometry = offset, slope, axis, geometry
        self.periodic = slope == 0.0

    def _jet_at(self, x, y) -> Jet:
        """The one jet rule of the coordinates: applied to a block's rows
        before the cut, and traced by point kernels (points and arrays)."""
        zero = 0.0 * (x + y)
        if self.axis == "x":
            return Jet(self.offset + self.slope * x + 0.0 * y, self.slope + zero, zero)
        return Jet(self.offset + self.slope * y + 0.0 * x, zero, self.slope + zero)

    def _jet(self, block):   # on the rows the block touches, then cut
        return Jet(*map(block.cut, self._jet_at(block.grid.xs[block.rows, None],
                                                block.grid.ys[None, :])))

    def __repr__(self):
        return f"AffineField(affine_{self.axis})"


class _Node(AnalyticField):
    """Expression node whose jet is `rule` applied to its children's jets."""

    def __init__(self, rule, children, *, label: str = "", exact: bool = True):
        self.geometry = same_torus(*children)
        self.periodic = all(c.periodic for c in children)
        self.label = label
        self.exact = exact and all(c.exact for c in children)
        self._rule, self._children = rule, children

    def _jet(self, block):
        return self._rule(*[c._evaluate(block, None) for c in self._children])

    def __repr__(self):
        return f"AnalyticField({self.label or 'derived'})"


def value_field(rule, fields, *, label: str) -> _Node:
    """Evaluation-only field with value ``rule(*jets of fields)``: its own
    derivatives would need second derivatives, which fields do not carry."""
    for f in fields:
        if not f.exact:
            raise DerivativeUnavailable(f"no first-derivative rules for {f!r}")
    return _Node(lambda *jets: Jet(rule(*jets), math.nan, math.nan), tuple(fields),
                 label=label, exact=False)


# ---------------------------------------------------------------------------
# Compiled point kernels
# ---------------------------------------------------------------------------
#
# At one point, walking the expression tree (a call per node, a memo dict, a
# Jet per node) costs more than the arithmetic it performs.  A point kernel
# walks the tree once and writes one straight-line function of (x, y):
# every leaf and node becomes locals assigned once, trigonometric terms are
# inlined with their coefficients as literals, and the jet rule of each
# affine leaf (on the operands x and y) and of each node (on its children's
# operands) is traced once, so the rules stay the one statement of the
# algebra.  A node rule that does more than arithmetic on its operands (it
# compares them, branches on them or hands them to numpy) cannot be traced
# and is called from the kernel instead.
# Every operation is the one the recursive walk performs, in the same order,
# so a kernel returns the same bits and raises the same errors; lines of
# + - * whose results are never used are left out (at a point they cannot
# raise; on arrays such a line could at most warn).


class _Untraceable(TypeError):
    """A traced rule asked for something a symbolic operand does not have."""


class _Operand:
    """A local of the kernel being written.  Arithmetic with another operand
    or with an int or float constant writes one line and returns its result;
    anything else raises, and the rule is called instead of traced."""

    __slots__ = ("writer", "name")
    __array_ufunc__ = None   # numpy scalars defer to the reflected methods

    def __init__(self, writer, name: str):
        self.writer, self.name = writer, name

    def _binary(self, op: str, other, reflected=False):
        text = self.writer.literal(other)
        left, right = (text, self.name) if reflected else (self.name, text)
        return self.writer.assign(f"{left} {op} {right}", self, other,
                                  pure=op in "+-*")

    __add__ = functools.partialmethod(_binary, "+")
    __radd__ = functools.partialmethod(_binary, "+", reflected=True)
    __sub__ = functools.partialmethod(_binary, "-")
    __rsub__ = functools.partialmethod(_binary, "-", reflected=True)
    __mul__ = functools.partialmethod(_binary, "*")
    __rmul__ = functools.partialmethod(_binary, "*", reflected=True)
    __truediv__ = functools.partialmethod(_binary, "/")
    __rtruediv__ = functools.partialmethod(_binary, "/", reflected=True)
    __pow__ = functools.partialmethod(_binary, "**")
    __rpow__ = functools.partialmethod(_binary, "**", reflected=True)

    def __neg__(self):
        return self.writer.assign(f"-{self.name}", self)

    def _refuse(self, *args):
        raise _Untraceable(f"operand {self.name} has no value while tracing")

    __bool__ = __float__ = __int__ = __index__ = __complex__ = __array__ = _refuse
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _refuse


def _below_floor(lam, x, y):
    raise DomainError(f"conformal factor {lam:g} fell below the positivity floor at "
                      f"({x:g}, {y:g})")


class _KernelWriter:
    """Lines of one point kernel: (targets, code, locals read, pure)."""

    def __init__(self):
        self.lines = []
        self.namespace = {"cos": math.cos, "sin": math.sin, "Jet": Jet,
                          "_below_floor": _below_floor}
        self.jets = {}      # field -> (v, v_x, v_y), each an _Operand or a constant
        self.modes = {}     # (kx, ky) literals -> (cos, sin) of kx x + ky y
        self.seed = None    # 0.0 * (x + y), every trigonometric leaf's start
        self.counts = {"trig_terms": 0, "traced_nodes": 0, "called_rules": 0}
        self._names = itertools.count()

    def assign(self, code: str, *operands, pure=True) -> _Operand:
        target = _Operand(self, f"t{next(self._names)}")
        reads = tuple(o.name for o in operands if isinstance(o, _Operand))
        self.lines.append(((target.name,), f"{target.name} = {code}", reads, pure))
        return target

    def literal(self, value) -> str:
        """An operand's name, or a finite int or float constant as a literal."""
        if isinstance(value, _Operand):
            return value.name
        if type(value) is int or (type(value) is float and math.isfinite(value)):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        raise _Untraceable(f"constant {value!r} has no literal")

    def ref(self, value) -> str:
        """Like `literal`, binding any other constant in the kernel's namespace."""
        try:
            return self.literal(value)
        except _Untraceable:
            name = f"_k{next(self._names)}"
            self.namespace[name] = value
            return name

    def jet(self, field: Field) -> tuple:
        jet = self.jets.get(field)
        if jet is None:
            if isinstance(field, TrigField):
                jet = self._trig(field)
            elif isinstance(field, _Node):
                jet = self._node(field)
            else:   # an affine leaf: its rule of the coordinates, traced
                jet = tuple(field._jet_at(_Operand(self, "x"), _Operand(self, "y")))
            self.jets[field] = jet
        return jet

    def _trig(self, leaf: TrigField) -> tuple:
        """The leaf's terms a cos(kx x + ky y) - b sin(kx x + ky y) unrolled;
        the seed and each mode's cos and sin are shared by every leaf."""
        lit = self.literal
        if self.seed is None:
            self.seed = self.assign("0.0 * (x + y)")
        v = self.assign(f"{lit(leaf._c0)} + {self.seed.name}", self.seed)
        v_x = v_y = self.seed
        for kx, ky, a, b in leaf._terms:
            key = (lit(kx), lit(ky))
            if key not in self.modes:
                theta = self.assign(f"{key[0]} * x + {key[1]} * y")
                self.modes[key] = (self.assign(f"cos({theta.name})", theta, pure=False),
                                   self.assign(f"sin({theta.name})", theta, pure=False))
            c, s = self.modes[key]
            slope = self.assign(f"-({lit(a)} * {s.name} + {lit(b)} * {c.name})", s, c)
            v = self.assign(f"{v.name} + ({lit(a)} * {c.name} - {lit(b)} * {s.name})", v, c, s)
            v_x = self.assign(f"{v_x.name} + {key[0]} * {slope.name}", v_x, slope)
            v_y = self.assign(f"{v_y.name} + {key[1]} * {slope.name}", v_y, slope)
        self.counts["trig_terms"] += len(leaf._terms)
        return v, v_x, v_y

    def _node(self, node: _Node) -> tuple:
        operands = [Jet(*self.jet(child)) for child in node._children]
        mark = len(self.lines)
        try:
            jet = tuple(node._rule(*operands))
            if len(jet) != 3:
                raise _Untraceable(f"rule of {node!r} returned {len(jet)} parts")
        except Exception:   # any failure on symbolic operands: call the rule
            del self.lines[mark:]
            args = ", ".join(f"Jet({', '.join(map(self.ref, o))})" for o in operands)
            jet = tuple(_Operand(self, f"t{next(self._names)}") for _ in range(3))
            names = tuple(t.name for t in jet)
            reads = tuple(p.name for o in operands for p in o if isinstance(p, _Operand))
            self.lines.append((names, f"{', '.join(names)} = {self.ref(node._rule)}({args})",
                               reads, False))
            self.counts["called_rules"] += 1
            return jet
        self.counts["traced_nodes"] += 1
        return jet

    def check_floor(self, lam):
        text = self.ref(lam)
        self.lines.append(((), f"if not {text} > {LAMBDA_FLOOR!r}: _below_floor({text}, x, y)",
                           (lam.name,) if isinstance(lam, _Operand) else (), False))

    def compile(self, outputs):
        live = {o.name for o in outputs if isinstance(o, _Operand)}
        kept = []
        for targets, code, reads, pure in reversed(self.lines):
            if pure and live.isdisjoint(targets):
                continue
            live.update(reads)
            kept.append(code)
        body = "".join(f"    {code}\n" for code in reversed(kept))
        source = (f"def point_kernel(x, y):\n{body}"
                  f"    return ({', '.join(map(self.ref, outputs))},)\n")
        exec(compile(source, "<point kernel>", "exec"), self.namespace)
        kernel = self.namespace["point_kernel"]
        kernel.source, kernel.counts = source, dict(self.counts)
        kernel.on_arrays = types.FunctionType(kernel.__code__,
                                              dict(self.namespace, cos=np.cos, sin=np.sin))
        return kernel


def point_kernel(field: Field, *values: Field, floor: bool = False):
    """Compile `field` and `values` into one function (x, y) -> (v, v_x, v_y)
    of `field` followed by the value of each field in `values`, for plain
    int or float coordinates.  Subgraphs shared between them are evaluated
    once.  With `floor`, `field` is a conformal factor: right after its
    subgraph, before any of the others, the kernel raises DomainError where
    its value is not above LAMBDA_FLOOR, and it runs at points only, since
    that test branches on a scalar.

    The function carries `source` (its text), `counts` (the trigonometric
    terms inlined, the node rules traced and the node rules it calls) and
    `on_arrays`, its array twin: the same code with numpy's cos and sin for
    math's, run on coordinate arrays.  Affine leaves are counted in none.
    """
    writer = _KernelWriter()
    outputs = list(writer.jet(field))
    if floor:
        writer.check_floor(outputs[0])
    outputs += [writer.jet(f)[0] for f in values]
    return writer.compile(outputs)


def run_kernel(kernel, x, y):
    """Run `point_kernel`'s `kernel` at int or float coordinates, or its
    array twin `kernel.on_arrays` on anything else (coordinate arrays)."""
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        return kernel(x, y)
    return kernel.on_arrays(x, y)


def check_conformal_factor(lam: Field):
    """Raise DomainError unless Lambda stays above LAMBDA_FLOOR on its torus.

    An AffineField is bounded by its exact infimum on the closed fundamental
    domain, min(offset, offset + slope * period), rounded down.  For a
    TrigField the claim holds everywhere: it is accepted when c0 - 2 sum|c|
    clears the floor, or when its minimum on the default `SamplingGrid` of
    its torus minus the Lipschitz bound 2 sum |c| |k| times half the cell
    diagonal does (every point lies within half a diagonal of a node).
    Other fields are checked at the nodes of that grid only.
    """
    grid = SamplingGrid(geometry=lam.geometry)
    if isinstance(lam, AffineField):
        bound = lam.offset
        if lam.slope < 0.0:   # the far end, each of its two roundings taken downward
            period = lam.geometry.period_x if lam.axis == "x" else lam.geometry.period_y
            bound = math.nextafter(
                lam.offset + math.nextafter(lam.slope * period, -math.inf), -math.inf)
        claim = f"on the closed fundamental domain (lower bound = {bound:g})"
    elif isinstance(lam, TrigField):
        lam_min = lam.min_on_grid(grid)
        spread = sum(math.hypot(a, b) for _, _, a, b in lam._terms)
        lipschitz = sum(math.hypot(a, b) * math.hypot(kx, ky) for kx, ky, a, b in lam._terms)
        half_diagonal = 0.5 * math.hypot(grid.geometry.period_x / grid.nx,
                                         grid.geometry.period_y / grid.ny)
        bound = max(lam._c0 - spread, lam_min - lipschitz * half_diagonal)
        claim = f"everywhere (lower bound = {bound:g})"
    else:
        bound = lam.min_on_grid(grid)
        claim = f"on the sampling grid (min = {bound:g})"
    if not LAMBDA_FLOOR < bound < math.inf:
        raise DomainError(f"conformal factor must stay finite and above "
                          f"{LAMBDA_FLOOR:g} {claim}")


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


#: make_trig_field(table, geometry=None): the real field of {(m, n): complex
#: coefficient}; a missing conjugate partner is implied, and a pair present
#: but not conjugate raises FieldError.
make_trig_field = TrigField


def constant_field(value: float, geometry: TorusGeometry | None = None) -> TrigField:
    return TrigField({(0, 0): float(value)}, geometry)


def zero_field(geometry: TorusGeometry | None = None) -> TrigField:
    return TrigField({}, geometry)


def random_trig_field(rng, geometry: TorusGeometry | None = None, *,
                      n_modes: int = 5, max_mode: int = 3,
                      amplitude: float = 1.0, offset: float = 0.0) -> TrigField:
    """Random real trig polynomial with n_modes canonical modes, |m|,|n| <= max_mode.

    The modes are drawn by index from the canonical modes in (m, n) order,
    (0, 1) .. (0, M) and then (m, -M) .. (m, M) for m = 1 .. M, M = max_mode;
    each index is turned into its mode by arithmetic, without listing them."""
    width = 2 * max_mode + 1
    pool_size = max_mode + max_mode * width
    idx = rng.choice(pool_size, size=min(n_modes, pool_size), replace=False)
    table = {(0, 0): offset}
    for i in np.sort(idx).tolist():
        if i < max_mode:
            m, n = 0, i + 1
        else:
            m, n = 1 + (i - max_mode) // width, (i - max_mode) % width - max_mode
        table[(m, n)] = amplitude * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return TrigField(table, geometry)
