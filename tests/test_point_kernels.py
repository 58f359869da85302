"""Compiled point kernels against the recursive point evaluator: random
expression graphs, the system kernel's positivity floor, traced and called
rules, and compilation on first use."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import magtorus as mt
from magtorus.fields import point_kernel, value_field
from helpers import (assert_same_outcome, outcome, recursive_lam_omega,
                     recursive_point_jet)

COEF = st.floats(-2.0, 2.0, allow_nan=False)
SCALAR = st.one_of(COEF, st.integers(-3, 3))
POWER = st.sampled_from([-0.5, -1.5, -2.5, -1.0 / 3.0, -0.25, -1.0, 0.5, 1.5, 2.0, 3.0])
# Negative, large and signed-zero coordinates, beside ordinary ones.
COORD = st.one_of(st.floats(-1e6, 1e6, allow_nan=False),
                  st.sampled_from([0.0, -0.0, -7.5, 1e8, -1e8, 2.5, -2.5]))


@st.composite
def trig_leaf(draw, offset=COEF, coef=COEF):
    table = {(0, 0): draw(offset)}
    for m, n in draw(st.lists(st.tuples(st.integers(0, 3), st.integers(-3, 3)), max_size=4)):
        if m > 0 or (m == 0 and n > 0):
            table[(m, n)] = complex(draw(coef), draw(coef))
    return mt.make_trig_field(table)


def affine(axis, offset, slope):
    return mt.analytic_preset(f"affine_{axis}", {"offset": offset, "slope": slope})


LEAF = st.one_of(trig_leaf(), st.builds(mt.constant_field, COEF), st.just(mt.zero_field()),
                 st.builds(affine, st.sampled_from("xy"), COEF, COEF))
# Lambda of an omega_raw ansatz: at least 3 - 4 * 2 * 0.3 * sqrt(2) > 0.
POSITIVE = trig_leaf(offset=st.just(3.0), coef=st.floats(-0.3, 0.3))


def exact(field):
    return field.exact


def binary(args):
    a, b, op = args
    return {"+": lambda: a + b, "-": lambda: a - b, "*": lambda: a * b}[op]()


def with_scalar(args):
    a, c, op = args
    return {"+": lambda: a + c, "-": lambda: a - c, "*": lambda: a * c,
            "r+": lambda: c + a, "r-": lambda: c - a, "r*": lambda: c * a}[op]()


def rescaled_omega(args):
    f, g = args
    if not (exact(f) and exact(g)):
        return f * g
    return mt.omega_rescaled(mt.RescaledAnsatz(1, (f,), (g,), f))


def raw_omega(args):
    n, lam, a, b = args
    if not (exact(a) and exact(b)):
        return a + b
    zero = mt.zero_field()
    ansatz = (mt.Ansatz(1, lam, [a], []) if n == 1
              else mt.Ansatz(2, lam, [zero, a], [b]))
    return mt.omega_raw(ansatz)


def value_only(a):
    """A value field reading only a's value: a's derivative lines are unused."""
    return value_field(lambda jet: jet.v, (a,), label="value") if exact(a) else -a


def extend(kids):
    return st.one_of(
        st.tuples(kids, kids, st.sampled_from(["+", "-", "*"])).map(binary),
        st.tuples(kids, SCALAR, st.sampled_from(["+", "-", "*", "r+", "r-", "r*"])).map(with_scalar),
        st.tuples(kids, POWER).map(lambda args: args[0] ** args[1]),
        kids.map(lambda a: a * a + a),   # one child under two parents
        kids.map(value_only),
        st.tuples(kids, kids).map(rescaled_omega),
        st.tuples(st.sampled_from([1, 2]), POSITIVE, kids, kids).map(raw_omega),
    )


FIELD = st.recursive(LEAF, extend, max_leaves=8)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field=FIELD, other=FIELD, points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=4))
def test_point_kernel_equals_recursive_evaluation(field, other, points):
    one = point_kernel(field)
    pair = point_kernel(field, other, floor=True)
    for x, y in points:
        assert_same_outcome(outcome(lambda: one(x, y)),
                            outcome(lambda: recursive_point_jet(field, x, y)))
        assert_same_outcome(outcome(lambda: pair(x, y)),
                            outcome(lambda: recursive_lam_omega(field, other, x, y)))


def same_array_bits(got, want) -> bool:
    """Arrays of one dtype and shape, NaN at the same places and every other
    element the same bytes (so -0.0 differs from 0.0)."""
    got, want = np.asarray(got), np.asarray(want)
    if got.dtype != want.dtype or got.shape != want.shape:
        return False
    nan = np.isnan(got)
    return np.array_equal(nan, np.isnan(want)) and got[~nan].tobytes() == want[~nan].tobytes()


@settings(derandomize=True, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(field=FIELD, points=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=6))
def test_arrays_run_the_kernel_code_as_the_recursive_walk_with_numpy(field, points):
    # Array bits are compared with the numpy walk only: np.cos and math.cos
    # may differ by an ulp.  Unused kernel lines may skip a warning, not a value.
    xs, ys = np.array(points).T
    walk = lambda: recursive_point_jet(field, xs, ys, cos=np.cos, sin=np.sin)
    with np.errstate(all="ignore"):
        if field.exact:
            got, want = outcome(lambda: field.jet(xs, ys)), outcome(walk)
        else:
            got, want = outcome(lambda: [field.eval(xs, ys)]), outcome(lambda: [walk().v])
    assert got[0] == want[0], (got, want)
    if got[0] == "raise":
        assert got == want
    else:
        assert all(map(same_array_bits, got[1], want[1])), (got, want)


def test_unused_lines_that_raise_are_kept():
    # The value of 0 ** 0.5 is 0, but its slope 0.5 * 0 ** -0.5 divides by
    # zero; reading only the value must still raise, as the rule does.
    root = value_only(mt.zero_field() ** 0.5)
    for x, y in ((0.3, -1.2), (-0.0, 2.0)):
        assert_same_outcome(outcome(lambda: point_kernel(root)(x, y)),
                            outcome(lambda: recursive_point_jet(root, x, y)))
        with pytest.raises(ZeroDivisionError):
            root.eval(x, y)


def test_field_methods_at_points_use_the_kernel():
    rng = np.random.default_rng(7)
    lam = mt.random_trig_field(rng, n_modes=4, max_mode=3, amplitude=0.2, offset=2.0)
    field = lam ** -0.5 * mt.analytic_preset("affine_y", {"offset": 1.0, "slope": 0.3}) + 2.0
    assert "_point_kernel" not in vars(field)
    for x, y in rng.uniform(-20.0, 20.0, (50, 2)).tolist():
        want = recursive_point_jet(field, x, y)
        assert field.jet(x, y) == want
        assert (field.eval(x, y), field.d_dx(x, y), field.d_dy(x, y)) == want
    assert "_point_kernel" in vars(field)


def test_kernel_counts_traced_and_called_rules():
    lam = mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.15, (1, 1): 0.1j})
    u = [mt.make_trig_field({(1, 0): 0.2}), mt.make_trig_field({(0, 2): 0.1 - 0.2j})]
    ansatz = mt.Ansatz(2, lam, u, [mt.make_trig_field({(1, -1): 0.3})])
    # omega_rescaled: Lambda^(-1/2) (one node under both products), u_1 and
    # v_1 times it, and the value rule are arithmetic: all four are traced.
    rescaled = point_kernel(lam, mt.omega_rescaled(mt.rescale(ansatz)), floor=True)
    assert rescaled.counts == {"trig_terms": 2 + 1 + 1, "traced_nodes": 4, "called_rules": 0}
    # omega_raw checks Lambda with numpy before its closed form: it is called.
    raw = point_kernel(lam, mt.omega_raw(ansatz), floor=True)
    assert raw.counts == {"trig_terms": 4, "traced_nodes": 0, "called_rules": 1}
    ramp = mt.analytic_preset("affine_y", {"offset": 1.0, "slope": 0.3})
    assert point_kernel(ramp).counts == {"trig_terms": 0, "traced_nodes": 0, "called_rules": 0}
    for kernel in (rescaled, raw):
        assert "for " not in kernel.source and "while " not in kernel.source


def test_system_kernel_is_compiled_on_first_use():
    ansatz, system = mt.build_linear_family(mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.15}),
                                            mt.make_trig_field({(0, 1): -0.05j}))
    assert "kernel" not in vars(system)
    mt.flow_rhs(system, (0.1, 0.2, 0.3))
    kernel = vars(system)["kernel"]
    mt.cotangent_rhs(system, (0.1, 0.2, 0.3, 0.4))
    assert system.kernel is kernel


@pytest.mark.parametrize("omega", ["rescaled", "raw"])
def test_floor_is_checked_before_a_derived_omega(omega):
    # Lambda = 1 + 0.4 y reaches 0 at y = -2.5, where the powers of Lambda
    # inside the derived Omega divide by zero, and is negative below, where
    # they are complex.  With u_1 = 0 and v_1 = v_1(y) that Omega vanishes, so
    # an orbit heading down runs straight into the floor.
    lam = mt.analytic_preset("affine_y", {"offset": 1.0, "slope": 0.4})
    zero = mt.zero_field()
    ansatz = mt.Ansatz(2, lam, [zero, zero], [mt.make_trig_field({(0, 1): 0.2, (0, 2): 0.1j})])
    derived = (mt.omega_rescaled(mt.rescale(ansatz)) if omega == "rescaled"
               else mt.omega_raw(ansatz))
    system = mt.MagneticSystem(lam, derived)
    assert 1.0 + 0.4 * -2.5 == 0.0
    for y in (-2.5, -5.0):
        for rhs, state in ((mt.flow_rhs, (0.3, y, 0.7)), (mt.cotangent_rhs, (0.3, y, 0.4, 0.5))):
            # The flow's own check, not omega_raw's later one.
            with pytest.raises(mt.DomainError, match="fell below the positivity floor"):
                rhs(system, state)
    for control in (mt.StepControl.fixed(1e-3), mt.StepControl.adaptive(1e-10)):
        traj = mt.integrate(system, mt.PhaseState(0.0, -2.0, 1.5 * math.pi), 5.0, control)
        assert traj.aborted and "fell below the positivity floor" in traj.diagnostic
