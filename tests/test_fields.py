"""Field backends: construction, exact evaluation and spectral derivatives."""

import math
import time

import numpy as np
import pytest

import magtorus as mt
from magtorus.fields import FieldError, TrigField, _Node, check_conformal_factor
from helpers import eval_complex, same_bits, trig_product


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


def pool_table(rng, n_modes, max_mode, amplitude, offset):
    """Reference for `random_trig_field`: draw from the listed pool of
    canonical modes in (m, n) order."""
    pool = [(m, n) for m in range(-max_mode, max_mode + 1)
            for n in range(-max_mode, max_mode + 1) if m > 0 or (m == 0 and n > 0)]
    idx = rng.choice(len(pool), size=min(n_modes, len(pool)), replace=False)
    table = {(0, 0): offset}
    for i in np.sort(idx):
        table[pool[int(i)]] = amplitude * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return table


@pytest.mark.parametrize("max_mode", [0, 1, 2, 3, 4, 7, 11])
def test_random_trig_field_draws_what_the_listed_pool_draws(max_mode):
    # 300 modes exceed every pool here: all modes are drawn, in pool order.
    for seed in (0, 1, 42, 101):
        for n_modes in (0, 1, 3, 5, 300):
            got = mt.random_trig_field(np.random.default_rng(seed), n_modes=n_modes,
                                       max_mode=max_mode, amplitude=0.3, offset=2.0)
            want = TrigField(pool_table(np.random.default_rng(seed), n_modes, max_mode,
                                        0.3, 2.0))
            assert list(got.coefficients().items()) == list(want.coefficients().items())


def test_random_trig_field_with_a_huge_max_mode_returns_promptly():
    # The pool of canonical modes would hold 2 * 10^12 entries.
    start = time.perf_counter()
    f = mt.random_trig_field(np.random.default_rng(5), n_modes=4, max_mode=10 ** 6)
    assert time.perf_counter() - start < 2.0
    modes = [mn for mn in f.coefficients() if mn != (0, 0)]
    assert len(modes) == 8 and max(max(map(abs, mn)) for mn in modes) <= 10 ** 6


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
    # Block and whole-grid jets are the closed form, bit for bit, on a grid
    # of two blocks whose first ends inside a row.
    grid = mt.SamplingGrid(130, 70, mt.TorusGeometry(3.0, 5.0))
    x, y = grid.mesh_x, grid.mesh_y
    zero = 0.0 * (x + y)
    for slope in (-0.7, 0.0, -0.0, 2.5):
        closed = {"x": (1.5 + slope * x + 0.0 * y, slope + zero, zero),
                  "y": (1.5 + slope * y + 0.0 * x, zero, slope + zero)}
        for axis, want in closed.items():
            f = mt.analytic_preset(f"affine_{axis}", {"offset": 1.5, "slope": slope},
                                   grid.geometry)
            assert f.periodic == (slope == 0.0)
            assert [p.tobytes() for p in f.jet(grid)] == [w.tobytes() for w in want]
            for block in grid.blocks():
                assert ([p.tobytes() for p in f.jet(block)]
                        == [block.part(w).tobytes() for w in want])


def test_trig_product_is_exact_convolution():
    rng = np.random.default_rng(19)
    a = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.5)
    b = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.5)
    prod = a * b
    table = trig_product(a, b)
    for _ in range(20):
        x, y = rng.uniform(0, 2 * math.pi, 2)
        assert abs(prod.eval(x, y) - a.eval(x, y) * b.eval(x, y)) < 1e-13
        assert abs(prod.eval(x, y) - table.eval(x, y)) < 1e-13
        expect = a.d_dx(x, y) * b.eval(x, y) + a.eval(x, y) * b.d_dx(x, y)
        assert abs(prod.d_dx(x, y) - expect) < 1e-13
        assert abs(prod.d_dx(x, y) - table.d_dx(x, y)) < 1e-13
        assert abs(prod.d_dy(x, y) - table.d_dy(x, y)) < 1e-13


def test_product_beyond_the_table_cap_is_a_node():
    # 100 modes each on two skewed lattices: the convolution has about
    # 4e4 x 4e4 distinct wavenumbers, far above MAX_TABLE_CELLS.
    a = TrigField({(i, 200 * i): 0.01 * (1 + 1j) for i in range(1, 101)})
    b = TrigField({(200 * j, j): 0.01 * (2 - 1j) for j in range(1, 101)})
    with pytest.raises(FieldError, match="above the limit"):
        trig_product(a, b)
    # A table is a leaf: every combination of tables is a node whose jet is
    # its rule on the leaves' jets, and only the spectral derivatives are tables.
    combinations = {
        "a * b": (a * b, lambda p, q: (p.v * q.v, p.x * q.v + p.v * q.x,
                                       p.y * q.v + p.v * q.y)),
        "a + b": (a + b, lambda p, q: (p.v + q.v, p.x + q.x, p.y + q.y)),
        "a - b": (a - b, lambda p, q: (p.v - q.v, p.x - q.x, p.y - q.y)),
        "-a": (-a, lambda p, q: (-p.v, -p.x, -p.y)),
        "3.0 * a": (3.0 * a, lambda p, q: (3.0 * p.v, 3.0 * p.x, 3.0 * p.y)),
    }
    grid = mt.SamplingGrid(16, 16)
    for name, (field, rule) in combinations.items():
        assert isinstance(field, _Node), name
        got, want = field.jet(grid), rule(a.jet(grid), b.jet(grid))
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want], name
        got, want = field.jet(0.7, 0.3), rule(a.jet(0.7, 0.3), b.jet(0.7, 0.3))
        assert all(map(same_bits, got, want)), name
    assert isinstance(a.dx_field(), TrigField) and isinstance(a.dy_field(), TrigField)


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
    # = -0.2: the grid minimum minus the Lipschitz bound certifies it on the
    # 64x64 check grid.  The same profile 16 times faster, which the check
    # grid samples as coarsely as a 4x4 grid samples the slow one, is
    # refused rather than trusted.
    dipping = mt.make_trig_field({(0, 0): 1.0, (1, 0): 0.3, (2, 0): 0.3})
    check_conformal_factor(dipping)
    fast = mt.make_trig_field({(0, 0): 1.0, (16, 0): 0.3, (32, 0): 0.3})
    assert fast.min_on_grid(mt.SamplingGrid(64, 64)) == pytest.approx(
        dipping.min_on_grid(mt.SamplingGrid(4, 4)), abs=1e-14)
    with pytest.raises(mt.DomainError, match="conformal factor"):
        check_conformal_factor(fast)


def test_mixed_geometry_rejected():
    a = mt.constant_field(1.0, mt.TorusGeometry(1.0, 1.0))
    b = mt.constant_field(1.0, mt.TorusGeometry(2.0, 2.0))
    with pytest.raises(FieldError):
        _ = a + b


def test_evaluation_on_a_grid_of_another_torus_is_refused():
    unit = mt.TorusGeometry(1.0, 1.0)
    trig = mt.make_trig_field({(1, 0): 0.5}, unit)
    analytic = mt.analytic_preset("affine_y", {"slope": 1.0}, unit)
    other = mt.SamplingGrid(8, 8)
    block = next(other.blocks())
    copy = mt.fields.value_field(lambda a: a.v, (trig,), label="copy")
    for field in (trig, analytic, trig * analytic, copy):
        with pytest.raises(FieldError, match="different tori"):
            field.on_grid(other)
        with pytest.raises(FieldError, match="different tori"):
            field.min_on_grid(other)
        with pytest.raises(FieldError, match="different tori"):
            field.on_grid(block)
        if field.exact:
            with pytest.raises(FieldError, match="different tori"):
                field.jet(other)
        field.on_grid(mt.SamplingGrid(8, 8, unit))
    assert not block.memo


def test_trig_field_table_above_the_cap_is_refused():
    # 2049 diagonal modes need 2050 distinct wavenumbers on each axis.
    table = {(m, m): 0.1 for m in range(1, 2050)}
    with pytest.raises(FieldError, match=r"2050 x 2050 distinct wavenumbers, above the "
                                         r"limit of 4194304 \(2048x2048\) cells"):
        mt.make_trig_field(table)
    assert mt.make_trig_field(dict(list(table.items())[:2047])) is not None


@pytest.mark.parametrize("table, period_x, message", [
    ({(0, 1): 1e308}, 1.0, "values may overflow float64"),
    ({(0, 10**400): 1.0}, 1.0, "a mode index is too large for float64"),
    ({(1, 0): 1.0}, 1e-310, "x partials may overflow float64"),
    ({(0, 1): 8.5e307, (0, 2): 8.5e307}, 1.0, "values may overflow float64"),
    ({(10, 0): 1e307}, 1.0, "x partials may overflow float64"),
    ({(0, 10): 1e307}, 1.0, "y partials may overflow float64"),
], ids=["coefficient", "mode-index", "wavenumber", "values", "x-partials", "y-partials"])
def test_trig_field_that_overflows_float64_is_refused(table, period_x, message):
    geometry = mt.TorusGeometry(period_x, 2.0 * math.pi)
    with pytest.raises(FieldError, match=message):
        mt.make_trig_field(table, geometry)


def test_trig_field_at_the_overflow_bounds_is_built():
    field = mt.make_trig_field({(0, 1): 8.5e307, (1, 0): 1e300})
    jet = field.jet(mt.SamplingGrid(8, 8))
    assert all(np.isfinite(part).all() for part in jet)
    assert np.max(np.abs(jet.y)) > 1e308


def test_sampling_grid_builds_its_meshes_on_first_use():
    grid = mt.SamplingGrid(4, 6)
    assert "_mesh" not in vars(grid)
    mt.make_trig_field({(1, 2): 0.5}).on_grid(grid)
    assert "_mesh" not in vars(grid)
    expect_x, expect_y = np.meshgrid(grid.xs, grid.ys, indexing="ij")
    assert np.array_equal(grid.mesh_x, expect_x) and np.array_equal(grid.mesh_y, expect_y)
    assert grid.mesh_x is grid.mesh_x


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

