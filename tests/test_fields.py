"""Field backends: construction, exact evaluation and spectral derivatives."""

import math

import numpy as np
import pytest

import magtorus as mt
from magtorus.fields import (FieldError, DerivativeUnavailable, TrigField,
                             check_conformal_factor)
from helpers import eval_complex


def direct_trig_sum(table, x, y, geometry=None):
    # Independent oracle: real-arithmetic sum over the full coefficient table.
    geometry = geometry or mt.TorusGeometry()
    total = 0.0
    for (m, n), c in table.items():
        kx, ky = geometry.wavenumbers(m, n)
        theta = kx * x + ky * y
        total += c.real * math.cos(theta) - c.imag * math.sin(theta)
    return total


def random_full_table(rng, n_modes=5, max_mode=3, amplitude=1.0):
    table = {(0, 0): complex(rng.uniform(-1, 1), 0.0)}
    while len(table) < 2 * n_modes + 1:
        m = int(rng.integers(-max_mode, max_mode + 1))
        n = int(rng.integers(-max_mode, max_mode + 1))
        if (m, n) == (0, 0) or (m, n) in table:
            continue
        c = amplitude * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        table[(m, n)] = c
        table[(-m, -n)] = c.conjugate()
    return table


def test_constant_field():
    f = mt.make_trig_field({(0, 0): 2.0})
    assert f.eval(0.3, 1.7) == 2.0
    assert f.d_dx(0.3, 1.7) == 0.0


def test_cosine_from_euler_pair():
    f = mt.make_trig_field({(1, 0): 0.5, (-1, 0): 0.5})
    assert f.eval(0.0, 0.4) == pytest.approx(1.0, abs=1e-15)
    assert f.eval(2 * math.pi, 0.4) == pytest.approx(1.0, abs=1e-13)
    assert f.eval(1.1, 5.0) == pytest.approx(math.cos(1.1), abs=1e-14)
    assert f.d_dx(0.0, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert f.d_dx(math.pi / 2, 0.0) == pytest.approx(-1.0, abs=1e-14)


def test_random_table_matches_direct_sum():
    rng = np.random.default_rng(42)
    table = random_full_table(rng)
    f = mt.make_trig_field(table)
    for _ in range(100):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        assert abs(f.eval(x, y) - direct_trig_sum(table, x, y)) < 1e-13


def test_conjugate_completion_and_real_output():
    # only one of each pair given: completion makes evaluation real
    f = mt.make_trig_field({(1, 2): 0.3 + 0.4j, (0, 1): -0.2j})
    rng = np.random.default_rng(3)
    for _ in range(20):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        z = eval_complex(f, x, y)
        assert abs(z.imag) < 1e-14
        assert abs(z.real - f.eval(x, y)) < 1e-13


def test_inconsistent_conjugate_pair_rejected():
    with pytest.raises(FieldError):
        mt.make_trig_field({(1, 0): 1.0 + 1.0j, (-1, 0): 1.0 + 1.0j})
    with pytest.raises(FieldError):
        mt.make_trig_field({(0, 0): 1.0 + 0.5j})


def test_spectral_derivative_exactness():
    # d/dx must equal the analytically differentiated coefficient table
    rng = np.random.default_rng(7)
    geometry = mt.TorusGeometry()
    table = random_full_table(rng, n_modes=4, max_mode=3, amplitude=0.5)
    dx_table = {}
    for (m, n), c in table.items():
        kx, _ = geometry.wavenumbers(m, n)
        dx_table[(m, n)] = c * 1j * kx
    f = mt.make_trig_field(table)
    for _ in range(50):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        assert abs(f.d_dx(x, y) - direct_trig_sum(dx_table, x, y)) < 1e-13


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(11)
    table = random_full_table(rng, n_modes=5, max_mode=2, amplitude=0.3)
    f = mt.make_trig_field(table)
    h = 1e-5
    for _ in range(25):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        fd_x = (f.eval(x + h, y) - f.eval(x - h, y)) / (2 * h)
        fd_y = (f.eval(x, y + h) - f.eval(x, y - h)) / (2 * h)
        assert abs(f.d_dx(x, y) - fd_x) < 1e-8
        assert abs(f.d_dy(x, y) - fd_y) < 1e-8


def test_shift_invariance():
    rng = np.random.default_rng(13)
    geometry = mt.TorusGeometry()
    for _ in range(5):
        f = mt.random_trig_field(rng)
        x, y = rng.uniform(0, 2 * math.pi, 2)
        assert abs(f.eval(x + geometry.period_x, y) - f.eval(x, y)) < 1e-13
        assert abs(f.eval(x, y + geometry.period_y) - f.eval(x, y)) < 1e-13


def test_non_default_periods():
    geometry = mt.TorusGeometry(1.0, 3.0)
    f = mt.make_trig_field({(1, 0): 0.5}, geometry)  # cos(2 pi x)
    assert f.eval(0.25, 0.0) == pytest.approx(math.cos(math.pi / 2), abs=1e-14)
    assert f.eval(1.25, 2.0) == pytest.approx(f.eval(0.25, 2.0), abs=1e-13)
    assert f.d_dx(0.25, 0.0) == pytest.approx(-2 * math.pi, abs=1e-12)


def test_array_evaluation_matches_scalar():
    rng = np.random.default_rng(17)
    f = mt.random_trig_field(rng)
    grid = mt.SamplingGrid(8, 8)
    vals = f.on_grid(grid)
    assert vals.shape == (8, 8)
    for i in (0, 3, 7):
        for j in (1, 5):
            assert vals[i, j] == pytest.approx(
                f.eval(float(grid.xs[i]), float(grid.ys[j])), abs=1e-14)


def test_analytic_affine_preset():
    # u_0 = -2 B y with B = 0.5 evaluates to -y
    f = mt.analytic_preset("affine_y", {"slope": -1.0})
    assert f.eval(2.2, 3.0) == -3.0
    assert f.d_dy(0.0, 0.0) == -1.0
    assert f.d_dx(0.5, 0.5) == 0.0
    assert not f.periodic


def test_analytic_derivative_unavailable():
    f = mt.AnalyticField(lambda x, y: 0.0 * (x + y))
    with pytest.raises(DerivativeUnavailable):
        f.d_dx(0.0, 0.0)


def test_trig_product_is_exact_convolution():
    rng = np.random.default_rng(19)
    a = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.5)
    b = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.5)
    prod = a * b
    assert isinstance(prod, TrigField)
    for _ in range(20):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        assert abs(prod.eval(x, y) - a.eval(x, y) * b.eval(x, y)) < 1e-13
        expect = a.d_dx(x, y) * b.eval(x, y) + a.eval(x, y) * b.d_dx(x, y)
        assert abs(prod.d_dx(x, y) - expect) < 1e-13


def test_field_algebra_chain_rules():
    rng = np.random.default_rng(23)
    lam = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2, offset=2.0)
    root = lam ** 0.5
    h = 1e-6
    for _ in range(10):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        assert root.eval(x, y) == pytest.approx(math.sqrt(lam.eval(x, y)), abs=1e-14)
        fd = (root.eval(x + h, y) - root.eval(x - h, y)) / (2 * h)
        assert root.d_dx(x, y) == pytest.approx(fd, abs=1e-8)
        combo = 2.0 * lam - root + lam * root
        fd_c = (combo.eval(x, y + h) - combo.eval(x, y - h)) / (2 * h)
        assert combo.d_dy(x, y) == pytest.approx(fd_c, abs=1e-7)


def test_geometry_and_grid_validation():
    with pytest.raises(FieldError):
        mt.TorusGeometry(-1.0, 2.0)
    with pytest.raises(FieldError):
        mt.SamplingGrid(3, 64)
    grid = mt.SamplingGrid(4, 8)
    assert grid.xs[0] == 0.0 and len(grid.xs) == 4
    assert grid.mesh_x.shape == (4, 8)


def test_conformal_factor_check_is_sound_for_trig_fields():
    # 1 + 1.5 cos 64x is 2.5 at every node of the 64x64 grid but dips to -0.5.
    aliased = mt.make_trig_field({(0, 0): 1.0, (64, 0): 0.75})
    assert aliased.min_on_grid(mt.SamplingGrid(64, 64)) == pytest.approx(2.5)
    with pytest.raises(mt.DomainError, match="conformal factor"):
        mt.Ansatz(1, aliased, [mt.zero_field()])
    with pytest.raises(mt.DomainError, match="conformal factor"):
        mt.MagneticSystem(aliased, mt.zero_field())
    # 1 + 0.6 cos x + 0.6 cos 2x has minimum 0.325 although c0 - 2 sum|c|
    # = -0.2: the grid minimum minus the Lipschitz bound certifies it on a
    # fine grid, and a coarse grid is refused rather than trusted.
    dipping = mt.make_trig_field({(0, 0): 1.0, (1, 0): 0.3, (2, 0): 0.3})
    check_conformal_factor(dipping, mt.SamplingGrid(64, 64))
    with pytest.raises(mt.DomainError, match="conformal factor"):
        check_conformal_factor(dipping, mt.SamplingGrid(4, 4))


def test_mixed_geometry_rejected():
    a = mt.constant_field(1.0, mt.TorusGeometry(1.0, 1.0))
    b = mt.constant_field(1.0, mt.TorusGeometry(2.0, 2.0))
    with pytest.raises(FieldError):
        _ = a + b


def test_field_spec_roundtrip():
    rng = np.random.default_rng(29)
    f = mt.random_trig_field(rng, n_modes=4)
    spec = {"type": "trig", "coeffs": mt.trig_records(f)}
    g = mt.field_from_spec(spec)
    for _ in range(10):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        assert abs(f.eval(x, y) - g.eval(x, y)) < 1e-14

    c = mt.field_from_spec({"type": "constant", "value": 2.5})
    assert c.eval(1.0, 1.0) == 2.5
    assert mt.field_from_spec(0.75).eval(0.0, 0.0) == 0.75

    a = mt.field_from_spec({"type": "analytic", "name": "affine_y",
                            "params": {"slope": -2.0}})
    assert a.eval(0.0, 1.5) == -3.0

    r1 = mt.field_from_spec({"type": "random_trig", "seed": 5})
    r2 = mt.field_from_spec({"type": "random_trig", "seed": 5})
    r3 = mt.field_from_spec({"type": "random_trig", "seed": 6})
    assert r1.eval(0.3, 0.4) == r2.eval(0.3, 0.4)
    assert r1.eval(0.3, 0.4) != r3.eval(0.3, 0.4)


def test_field_spec_errors():
    with pytest.raises(FieldError):
        mt.field_from_spec({"type": "nope"})
    with pytest.raises(FieldError):
        mt.field_from_spec({"type": "analytic", "name": "missing-preset"})
    with pytest.raises(FieldError):
        mt.field_from_spec({"type": "random_trig"})  # no seed
    with pytest.raises(FieldError):
        mt.field_from_spec({"type": "trig", "coeffs": [
            {"m": 1, "n": 0, "re": 1.0, "im": 0.0},
            {"m": 1, "n": 0, "re": 2.0, "im": 0.0}]})


def test_register_custom_preset():
    mt.register_analytic_preset(
        "test_quadratic_x",
        lambda params, geometry: mt.AnalyticField(
            lambda x, y: x * x + 0.0 * y,
            lambda x, y: 2.0 * x + 0.0 * y,
            lambda x, y: 0.0 * (x + y),
            geometry=geometry, periodic=False, label="test_quadratic_x"))
    f = mt.analytic_preset("test_quadratic_x")
    assert f.eval(3.0, 0.0) == 9.0
    assert f.d_dx(3.0, 0.0) == 6.0
