"""First-integral ansatz: evaluation, residual identities, rescaling,
magnetic-field elimination, conservation laws, exact degree-1 family."""

import math

import numpy as np
import pytest

import magtorus as mt
from magtorus.ansatz import harmonic_residual_values, stationarity_residual_values
from helpers import (exact_family, manufactured_rescaled, stream_pair,
                     top_harmonic_displays)


def random_ansatz(rng, n, amplitude=0.3):
    lam = mt.random_trig_field(rng, n_modes=4, max_mode=2, amplitude=0.1, offset=2.0)
    u = [mt.random_trig_field(rng, n_modes=4, max_mode=2, amplitude=amplitude)
         for _ in range(n)]
    v = [mt.random_trig_field(rng, n_modes=4, max_mode=2, amplitude=amplitude)
         for _ in range(n - 1)]
    return mt.Ansatz(n, lam, u, v)


# ---------------------------------------------------------------------------
# eval_F
# ---------------------------------------------------------------------------


def test_eval_f_constant_cases():
    one = mt.constant_field(1.0)
    anz = mt.Ansatz(1, one, [mt.constant_field(3.0)], [])
    assert mt.eval_F(anz, 0.2, 0.4, 0.0) == pytest.approx(5.0, abs=1e-15)

    # injected v_1 = 1 with the normalization check disabled: sine term only
    anz = mt.Ansatz(1, one, [mt.zero_field()], [], normalize=False,
                    v_top=mt.constant_field(1.0))
    assert mt.eval_F(anz, 0.0, 0.0, math.pi / 2) == pytest.approx(-2.0, abs=1e-14)


def test_eval_f_matches_complex_sum_oracle():
    rng = np.random.default_rng(31)
    anz = random_ansatz(rng, 3)
    for _ in range(50):
        x, y, phi = rng.uniform(0, 2 * math.pi, 3)
        total = 0j
        for k in range(-anz.n, anz.n + 1):
            if k >= 0:
                ak = complex(anz.u[k].eval(x, y), anz.v[k].eval(x, y))
            else:
                ak = complex(anz.u[-k].eval(x, y), -anz.v[-k].eval(x, y))
            total += ak * np.exp(1j * k * phi)
        assert abs(total.imag) < 1e-13
        assert abs(mt.eval_F(anz, x, y, phi) - total.real) < 1e-13


def test_ansatz_validation():
    one = mt.constant_field(1.0)
    with pytest.raises(ValueError):
        mt.Ansatz(0, one, [], [])
    with pytest.raises(ValueError):
        mt.Ansatz(2, one, [mt.zero_field()], [])  # wrong u count
    with pytest.raises(mt.DomainError):
        mt.Ansatz(1, mt.constant_field(-1.0), [mt.zero_field()], [])


# ---------------------------------------------------------------------------
# stationarity residual
# ---------------------------------------------------------------------------


def test_stationarity_constant_integral():
    # all a_k = 0 except a_0 constant: F is constant, residual is zero
    rng = np.random.default_rng(33)
    one = mt.constant_field(1.0)
    anz = mt.Ansatz(1, one, [mt.constant_field(7.0)], [], normalize=False,
                    u_top=mt.zero_field(), v_top=mt.zero_field())
    omega = mt.random_trig_field(rng, n_modes=3, max_mode=2)
    rep = mt.residual_stationarity(anz, omega, mt.SamplingGrid(16, 16))
    assert rep.max_sup == 0.0


def test_stationarity_exact_family():
    ansatz, system = exact_family()
    rep = mt.residual_stationarity(ansatz, system.omega)
    assert rep.max_sup < 1e-11
    assert rep.periodic


def test_stationarity_linear_in_perturbation():
    ansatz, system = exact_family()
    grid = mt.SamplingGrid(64, 64)
    cos_x = mt.make_trig_field({(1, 0): 0.5})
    sups = []
    for eps in (1e-3, 1e-2, 1e-1):
        perturbed = mt.Ansatz(1, ansatz.lam, [ansatz.u[0] + eps * cos_x], [])
        rep = mt.residual_stationarity(perturbed, system.omega, grid)
        sups.append(rep.max_sup)
    assert sups[1] / sups[0] == pytest.approx(10.0, rel=0.1)
    assert sups[2] / sups[1] == pytest.approx(10.0, rel=0.1)


# ---------------------------------------------------------------------------
# harmonic residuals
# ---------------------------------------------------------------------------


def test_harmonic_top_relation_vanishes_under_normalization():
    rng = np.random.default_rng(37)
    for n in (1, 2, 3):
        anz = random_ansatz(rng, n)
        omega = mt.omega_raw(anz)
        rep = mt.residual_harmonic(anz, omega, n + 1, mt.SamplingGrid(16, 16))
        assert rep.max_sup < 1e-13


def test_harmonic_exact_family_all_k():
    ansatz, system = exact_family()
    for k in range(0, 3):
        rep = mt.residual_harmonic(ansatz, system.omega, k)
        assert rep.max_sup < 1e-11


def test_harmonic_index_out_of_range():
    ansatz, system = exact_family()
    with pytest.raises(ValueError):
        mt.residual_harmonic(ansatz, system.omega, 3)
    with pytest.raises(ValueError):
        mt.residual_harmonic(ansatz, system.omega, -1)


def test_stationarity_equals_harmonic_resynthesis():
    # Fourier-synthesis consistency over the angle samples
    rng = np.random.default_rng(41)
    anz = random_ansatz(rng, 3)
    omega = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2)
    grid = mt.SamplingGrid(12, 12)
    n_phi = 4 * anz.n + 4
    phis = 2 * np.pi * np.arange(n_phi) / n_phi
    res, _ = stationarity_residual_values(anz, omega, grid, phis)
    harm = [harmonic_residual_values(anz, omega, k, grid)[0]
            for k in range(anz.n + 2)]
    for i, phi in enumerate(phis):
        synth = harm[0].copy()
        for k in range(1, anz.n + 2):
            synth = synth + harm[k] * np.exp(1j * k * phi) \
                + np.conj(harm[k]) * np.exp(-1j * k * phi)
        assert np.max(np.abs(res[i] - synth.real)) < 1e-12
        assert np.max(np.abs(synth.imag)) < 1e-12


# ---------------------------------------------------------------------------
# magnetic-field elimination
# ---------------------------------------------------------------------------


def test_omega_raw_constant_coefficients():
    one = mt.constant_field(1.0)
    anz = mt.Ansatz(2, one, [mt.constant_field(0.4), mt.constant_field(0.2)],
                    [mt.constant_field(0.1)])
    om = mt.omega_raw(anz)
    assert om.eval(0.3, 0.9) == 0.0


def test_omega_raw_flat_linear_case():
    # N = 1, Lambda = 1, u_0 = -2 B y: only the -2 Lambda (u_0)_y / 4 term
    # survives and Omega = B
    for b in (0.5, 1.0):
        u0 = mt.analytic_preset("affine_y", {"slope": -2.0 * b})
        anz = mt.Ansatz(1, mt.constant_field(1.0), [u0], [])
        om = mt.omega_raw(anz)
        assert om.eval(1.0, 4.0) == pytest.approx(b, abs=1e-15)


def test_omega_formulas_agree():
    rng = np.random.default_rng(43)
    grid = mt.SamplingGrid(24, 24)
    for _ in range(10):
        n = int(rng.integers(1, 5))
        anz = random_ansatz(rng, n)
        raw = mt.omega_raw(anz).on_grid(grid)
        res = mt.omega_rescaled(mt.rescale(anz)).on_grid(grid)
        assert np.max(np.abs(raw - res)) < 1e-12


def test_omega_rescaled_cases():
    one = mt.constant_field(1.0)
    zero = mt.zero_field()
    # constants
    resc = mt.RescaledAnsatz(2, (zero, mt.constant_field(0.3)),
                             (zero, mt.constant_field(0.1)), one, one.geometry)
    assert mt.omega_rescaled(resc).eval(0.2, 0.5) == 0.0
    # N = 1, f_0 = -2 B y
    b = 0.25
    resc = mt.RescaledAnsatz(1, (mt.analytic_preset("affine_y", {"slope": -2 * b}),),
                             (zero,), one, one.geometry)
    assert mt.omega_rescaled(resc).eval(0.0, 2.0) == pytest.approx(b, abs=1e-15)
    # N = 2, f_1 = sin y, g_1 = sin x -> Omega = (cos x - cos y) / 4
    f1 = mt.make_trig_field({(0, 1): -0.5j})
    g1 = mt.make_trig_field({(1, 0): -0.5j})
    resc = mt.RescaledAnsatz(2, (zero, f1), (zero, g1), one, one.geometry)
    om = mt.omega_rescaled(resc)
    grid = mt.SamplingGrid(16, 16)
    expect = (np.cos(grid.mesh_x) - np.cos(grid.mesh_y)) / 4.0
    assert np.max(np.abs(om.on_grid(grid) - expect)) < 1e-14


# ---------------------------------------------------------------------------
# rescaling
# ---------------------------------------------------------------------------


def test_rescale_identity_at_k0():
    ansatz, _ = exact_family()
    resc = mt.rescale(ansatz)
    assert resc.f[0] is ansatz.u[0]


def test_rescale_scalar_case():
    lam = mt.constant_field(4.0)
    anz = mt.Ansatz(2, lam, [mt.zero_field(), mt.constant_field(6.0)],
                    [mt.zero_field()])
    resc = mt.rescale(anz)
    assert resc.f[1].eval(0.1, 0.2) == pytest.approx(3.0, abs=1e-14)


def test_rescale_round_trip():
    rng = np.random.default_rng(47)
    grid = mt.SamplingGrid(16, 16)
    X, Y = grid.mesh_x, grid.mesh_y
    anz = random_ansatz(rng, 3)
    u_back, v_back = mt.unrescale(mt.rescale(anz))
    for k in range(anz.n):
        assert np.max(np.abs(u_back[k].eval(X, Y) - anz.u[k].eval(X, Y))) < 1e-12
        assert np.max(np.abs(v_back[k].eval(X, Y) - anz.v[k].eval(X, Y))) < 1e-12
        assert np.max(np.abs(u_back[k].d_dx(X, Y) - anz.u[k].d_dx(X, Y))) < 1e-12
        assert np.max(np.abs(v_back[k].d_dy(X, Y) - anz.v[k].d_dy(X, Y))) < 1e-12


# ---------------------------------------------------------------------------
# divergence constraint
# ---------------------------------------------------------------------------


def test_constraint_constant_fields():
    one = mt.constant_field(1.0)
    anz = mt.Ansatz(2, one, [mt.constant_field(0.2), mt.constant_field(0.4)],
                    [mt.constant_field(0.3)])
    rep = mt.constraint_residual(anz, mt.SamplingGrid(8, 8))
    assert rep.entry("divergence_unscaled").sup == 0.0
    assert rep.entry("divergence_rescaled").sup == 0.0


def test_constraint_stream_function():
    rng = np.random.default_rng(53)
    psi = mt.random_trig_field(rng, n_modes=4, max_mode=2, amplitude=0.4)
    f, g = stream_pair(psi)
    lam = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.1, offset=2.0)
    zero = mt.zero_field()
    resc = mt.RescaledAnsatz(2, (zero, f), (zero, g), lam, lam.geometry)
    rep = mt.constraint_residual(resc, mt.SamplingGrid(24, 24))
    assert rep.entry("divergence_rescaled").sup < 1e-12


def test_constraint_known_magnitude():
    # f x-independent, g = sin y: the rescaled residual is cos y with sup 1
    one = mt.constant_field(1.0)
    f = mt.make_trig_field({(0, 2): 0.35})
    g = mt.make_trig_field({(0, 1): -0.5j})
    resc = mt.RescaledAnsatz(1, (f,), (g,), one, one.geometry)
    rep = mt.constraint_residual(resc, mt.SamplingGrid(64, 64))
    assert rep.entry("divergence_rescaled").sup == pytest.approx(1.0, abs=1e-12)


def test_constraint_forms_agree_up_to_factor():
    rng = np.random.default_rng(59)
    grid = mt.SamplingGrid(16, 16)
    X, Y = grid.mesh_x, grid.mesh_y
    for n in (1, 2, 3):
        anz = random_ansatz(rng, n)
        lam_v = anz.lam.eval(X, Y)
        u_top, v_top = anz.u[n - 1], anz.v[n - 1]
        res_u = (2.0 * lam_v * (u_top.d_dx(X, Y) + v_top.d_dy(X, Y))
                 - (n - 1) * (v_top.eval(X, Y) * anz.lam.d_dy(X, Y)
                              + u_top.eval(X, Y) * anz.lam.d_dx(X, Y)))
        resc = mt.rescale(anz)
        res_f = resc.f[n - 1].d_dx(X, Y) + resc.g[n - 1].d_dy(X, Y)
        factor = 2.0 * lam_v ** ((n + 1) / 2.0)
        assert np.max(np.abs(res_u - factor * res_f)) < 1e-12


# ---------------------------------------------------------------------------
# conservation laws
# ---------------------------------------------------------------------------


def test_conservation_constant_fields():
    one = mt.constant_field(1.0)
    consts = lambda c: mt.constant_field(c)
    resc = mt.RescaledAnsatz(2, (consts(0.2), consts(0.4)),
                             (consts(0.1), consts(0.3)), one, one.geometry)
    rep = mt.conservation_residuals(resc, mt.SamplingGrid(8, 8))
    assert rep.entry("conservation_1").sup == 0.0
    assert rep.entry("conservation_2").sup == 0.0
    assert not rep.flags


def test_conservation_manufactured_solution():
    rng = np.random.default_rng(61)
    psi = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.3)
    lam = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2, offset=2.0)
    resc = manufactured_rescaled(2, psi, lam)
    rep = mt.conservation_residuals(resc, mt.SamplingGrid(32, 32))
    assert rep.entry("conservation_1").sup < 1e-10
    assert rep.entry("conservation_2").sup < 1e-10


def test_conservation_identity_with_top_harmonics():
    # With the divergence constraint enforced by a stream function, the two
    # conservation-law residuals equal the leading-harmonic displays with the
    # pinned sign pair (+1, -1).
    rng = np.random.default_rng(67)
    grid = mt.SamplingGrid(24, 24)
    X, Y = grid.mesh_x, grid.mesh_y
    for n in (2, 3, 4):
        psi = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2)
        lam = mt.random_trig_field(rng, n_modes=3, max_mode=2,
                                   amplitude=0.15, offset=2.0)
        fm2 = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2)
        gm2 = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2)
        f, g = stream_pair(psi)
        zero = mt.zero_field()
        resc = mt.RescaledAnsatz(n, tuple([zero] * (n - 2) + [fm2, f]),
                                 tuple([zero] * (n - 2) + [gm2, g]),
                                 lam, lam.geometry)
        r_field, flux1, flux2, _ = mt.conservation_flux_fields(resc)
        res1 = r_field.d_dx(X, Y) + flux1.d_dy(X, Y)
        res2 = r_field.d_dy(X, Y) + flux2.d_dx(X, Y)
        disp1, disp2 = top_harmonic_displays(n, f, g, fm2, gm2, lam, X, Y)
        assert np.max(np.abs(res1 - disp1)) < 1e-12
        assert np.max(np.abs(res2 + disp2)) < 1e-12


def test_conservation_degenerate_n1():
    ansatz, _ = exact_family()
    rep = mt.conservation_residuals(mt.rescale(ansatz))
    assert "N=1 degenerate" in rep.flags
    assert rep.entry("conservation_1").sup < 1e-12
    assert rep.entry("conservation_2").sup < 1e-12


def test_residual_report_invariants():
    rng = np.random.default_rng(71)
    anz = random_ansatz(rng, 2)
    omega = mt.random_trig_field(rng, n_modes=3, max_mode=2, amplitude=0.2)
    rep = mt.residual_stationarity(anz, omega, mt.SamplingGrid(16, 16))
    for e in rep.entries:
        assert e.sup >= 0.0 and e.rms >= 0.0
        assert e.rel_sup <= e.sup + 1e-15
        assert e.rel_rms <= e.rms + 1e-15
    with pytest.raises(KeyError):
        rep.entry("missing")


# ---------------------------------------------------------------------------
# exact degree-1 family
# ---------------------------------------------------------------------------


def test_linear_family_cosine_profile():
    # Lambda = 1, A = cos y: Omega = sin y and every harmonic relation holds
    lam = mt.constant_field(1.0)
    a_prof = mt.make_trig_field({(0, 1): 0.5})
    ansatz, system = mt.build_linear_family(lam, a_prof)
    grid = mt.SamplingGrid(32, 32)
    expect = np.sin(grid.mesh_y)
    assert np.max(np.abs(system.omega.on_grid(grid) - expect)) < 1e-13
    for k in range(0, 3):
        assert mt.residual_harmonic(ansatz, system.omega, k, grid).max_sup < 1e-11


def test_linear_family_flat_constant_field():
    b = 1.0
    lam = mt.constant_field(1.0)
    a_prof = mt.analytic_preset("affine_y", {"slope": -b})
    ansatz, system = mt.build_linear_family(lam, a_prof)
    assert system.omega.eval(0.7, 1.3) == pytest.approx(b, abs=1e-15)
    # F = 2 cos(phi) - 2 B y
    assert mt.eval_F(ansatz, 0.0, 2.0, 0.0) == pytest.approx(2.0 - 4.0, abs=1e-14)
    rep = mt.residual_stationarity(ansatz, system.omega, mt.SamplingGrid(16, 16))
    assert rep.max_sup < 1e-13
    assert not rep.periodic  # linear ramp in y: checks are local statements


def test_linear_family_rejects_bad_profiles():
    with pytest.raises(mt.DomainError):
        mt.build_linear_family(mt.constant_field(-2.0), mt.constant_field(0.1))
    x_dep = mt.make_trig_field({(1, 0): 0.5})
    with pytest.raises(ValueError):
        mt.build_linear_family(mt.constant_field(1.0), x_dep)
    with pytest.raises(ValueError):
        mt.build_linear_family(2.0 + x_dep, mt.constant_field(0.1))


def test_dynamical_consistency_bound():
    # residual size bounds the monitored drift; the 1e-12 floor is the
    # integrator's own error scale at default tolerances
    ansatz, system = exact_family()
    eps = max(mt.residual_harmonic(ansatz, system.omega, k).max_sup
              for k in range(0, 3))
    f_obs = mt.first_integral_observable(ansatz)
    traj = mt.integrate(system, mt.PhaseState(0.5, 0.3, 0.7), 10.0,
                        observables={"F": f_obs})
    drift = mt.monitor(traj)["F"].max_abs_drift
    assert drift < 1e3 * max(eps, 1e-12)
