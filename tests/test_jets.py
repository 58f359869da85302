"""Forward-mode jets: the grid, array and point paths of trigonometric
fields, expression nodes against closed forms, value-only fields, and one
evaluation per trigonometric leaf and grid across the verification checks."""

import collections
import weakref

import numpy as np
import pytest

import magtorus as mt
from magtorus.cli import run_verify_checks
from magtorus.fields import DerivativeUnavailable, TrigField


def assert_close(got, want, rtol=1e-13):
    """max |got - want| <= rtol * max |want| (exact agreement for zero fields)."""
    got, want = np.asarray(got), np.asarray(want)
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


@pytest.mark.parametrize("seed", range(4))
def test_grid_array_and_point_paths_agree(seed):
    rng = np.random.default_rng(seed)
    geometry = mt.TorusGeometry(2.0, 3.0) if seed % 2 else mt.TorusGeometry()
    base = mt.random_trig_field(rng, geometry, n_modes=6, max_mode=3,
                                offset=float(rng.uniform(-1.0, 1.0)))
    grid = mt.SamplingGrid(12, 10, geometry)
    i = rng.integers(0, grid.nx, size=7)
    j = rng.integers(0, grid.ny, size=7)
    for field in (base, base.dx_field(), base.dy_field()):
        separable = field.jet(grid)
        mesh = field.jet(grid.mesh_x, grid.mesh_y)
        samples = field.jet(grid.xs[i], grid.ys[j])   # 1-D, like trajectory samples
        points = [field.jet(float(grid.xs[a]), float(grid.ys[b])) for a, b in zip(i, j)]
        for part in range(3):
            assert not separable[part].flags.writeable
            assert_close(separable[part], mesh[part])
            assert_close(samples[part], mesh[part][i, j])
            assert_close([p[part] for p in points], mesh[part][i, j])
        assert np.array_equal(field.on_grid(grid), separable.v)


def test_expression_nodes_match_closed_forms():
    a = mt.make_trig_field({(0, 0): 2.0, (1, 0): 0.5})                    # 2 + cos x
    b = mt.make_trig_field({(0, 1): -0.5j})                                # sin y
    ramp = mt.analytic_preset("affine_y", {"offset": 1.0, "slope": 0.3})  # 1 + 0.3 y
    cases = {
        "sum": (a + ramp, lambda x, y: (3.0 + np.cos(x) + 0.3 * y,
                                        -np.sin(x) + 0.0 * y, 0.3 + 0.0 * x)),
        "product": (a * ramp, lambda x, y: ((2.0 + np.cos(x)) * (1.0 + 0.3 * y),
                                            -np.sin(x) * (1.0 + 0.3 * y),
                                            0.3 * (2.0 + np.cos(x)))),
        "power": (a ** -1.5, lambda x, y: ((2.0 + np.cos(x)) ** -1.5,
                                           1.5 * np.sin(x) * (2.0 + np.cos(x)) ** -2.5,
                                           0.0 * (x + y))),
        "affine": (2.5 * ramp - 4.0, lambda x, y: (2.5 * (1.0 + 0.3 * y) - 4.0,
                                                   0.0 * (x + y), 0.75 + 0.0 * x)),
        "nested": ((a ** 0.5) * b + ramp,
                   lambda x, y: (np.sqrt(2.0 + np.cos(x)) * np.sin(y) + 1.0 + 0.3 * y,
                                 -np.sin(x) * np.sin(y) / (2.0 * np.sqrt(2.0 + np.cos(x))),
                                 np.sqrt(2.0 + np.cos(x)) * np.cos(y) + 0.3)),
    }
    rng = np.random.default_rng(79)
    grid = mt.SamplingGrid(9, 7)
    xs, ys = rng.uniform(0.0, 2.0 * np.pi, (2, 25))
    for name, (field, closed) in cases.items():
        assert isinstance(field, mt.AnalyticField), name
        for got, want in ((field.jet(grid), closed(grid.mesh_x, grid.mesh_y)),
                          (field.jet(xs, ys), closed(xs, ys)),
                          (field.jet(float(xs[0]), float(ys[0])), closed(xs[0], ys[0]))):
            for part in range(3):
                assert np.max(np.abs(got[part] - want[part])) <= 1e-13 * (
                    1.0 + np.max(np.abs(want[part]))), name


def test_value_only_fields():
    rng = np.random.default_rng(83)
    lam = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.1, offset=2.0)
    u = [mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.3) for _ in range(2)]
    ansatz = mt.Ansatz(2, lam, u, [mt.random_trig_field(rng, n_modes=3, max_mode=2)])
    grid = mt.SamplingGrid(8, 8)
    for omega in (mt.omega_raw(ansatz), mt.omega_rescaled(mt.rescale(ansatz))):
        assert np.all(np.isfinite(omega.on_grid(grid)))
        for call in (omega.d_dx, omega.d_dy, omega.jet):
            with pytest.raises(DerivativeUnavailable):
                call(0.1, 0.2)
    no_rules = mt.AnalyticField(lambda x, y: 0.0 * (x + y))
    zero = mt.zero_field()
    with pytest.raises(DerivativeUnavailable):
        mt.omega_rescaled(mt.RescaledAnsatz(1, (no_rules,), (zero,), lam, lam.geometry))


class CountingMemo(weakref.WeakKeyDictionary):
    """Grid memo that records every leaf it stores (one store per evaluation)."""

    def __init__(self):
        super().__init__()
        self.stored = []   # strong references keep ids unique

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_verify_checks_evaluate_each_leaf_once_per_grid():
    n = 4

    def trig(seed, amplitude):
        return {"type": "random_trig", "seed": seed, "amplitude": amplitude}

    scenario = mt.build_scenario({
        "N": n, "grid": [16, 16],
        "lambda": dict(trig(1, 0.1), offset=2.0),
        "coefficients": [dict({"k": k, "u": trig(10 + k, 0.3)},
                              **({"v": trig(20 + k, 0.3)} if k else {}))
                         for k in range(n)],
    })
    memo = scenario.grid.leaf_jets = CountingMemo()
    payload, _, _ = run_verify_checks(scenario)
    assert [c["check"] for c in payload["checks"]] == list(mt.scenarios.KNOWN_CHECKS)
    counts = collections.Counter(id(leaf) for leaf in memo.stored)
    assert max(counts.values()) == 1
    leaves = [f for f in scenario.ansatz.fields() if isinstance(f, TrigField)]
    # Lambda, u_0..u_3, v_1..v_3 and the zero field v_0 = v_4 (u_4 is a power node)
    assert len({id(f) for f in leaves}) == 2 * n + 1
    assert all(id(f) in counts for f in leaves)
    assert all(isinstance(f, TrigField) for f in memo.keys())
