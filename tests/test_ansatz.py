"""First-integral ansatz: evaluation, residual identities, rescaling,
magnetic-field elimination, conservation laws, exact degree-1 family."""

import math

import numpy as np
import pytest

import magtorus as mt
import magtorus.ansatz as ansatz_module
from magtorus.ansatz import harmonic_residual_values, stationarity_residual_values
from magtorus.fields import TrigField, _KernelWriter
from helpers import (exact_family, manufactured_rescaled, power_family, stream_pair,
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

    # v_1 = 1 injected in place of the pinned top coefficient: sine term only
    anz = mt.Ansatz(1, one, [mt.zero_field()], [])
    anz.v = anz.v[:1] + (mt.constant_field(1.0),)
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


def per_field_F(anz, x, y, phi):
    """F summed from each coefficient field's own evaluation."""
    total = anz.u[0].eval(x, y)
    for k in range(1, anz.n + 1):
        total = total + 2.0 * (anz.u[k].eval(x, y) * np.cos(k * phi)
                               - anz.v[k].eval(x, y) * np.sin(k * phi))
    return total


@pytest.mark.parametrize("n", [1, 3])
def test_eval_f_runs_one_kernel_with_the_per_field_bits(monkeypatch, n):
    rng = np.random.default_rng(40 + n)
    anz = random_ansatz(rng, n)
    if n == 1:   # an affine coefficient beside the trigonometric ones
        anz = mt.Ansatz(1, anz.lam, [mt.analytic_preset("affine_x", {"slope": 0.2})])
    compiled = []
    original = _KernelWriter.compile
    monkeypatch.setattr(_KernelWriter, "compile",
                        lambda self, outputs: compiled.append(1) or original(self, outputs))
    x, y, phi = rng.uniform(-10.0, 10.0, (3, 301))
    on_arrays = mt.eval_F(anz, x, y, phi)
    assert len(compiled) == 1
    assert on_arrays.tobytes() == per_field_F(anz, x, y, phi).tobytes()
    for args in zip(x[:40].tolist(), y[:40].tolist(), phi[:40].tolist()):
        assert (np.float64(mt.eval_F(anz, *args)).tobytes()
                == np.float64(per_field_F(anz, *args)).tobytes())
    assert len(compiled) == 1 + (2 * n + 1)   # and the per-field reference's kernels


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


def test_constructors_refuse_fields_on_different_tori():
    unit = mt.TorusGeometry(1.0, 1.0)
    lam = mt.make_trig_field({(0, 0): 2.0, (1, 0): 0.1}, unit)
    zero_unit, zero = mt.zero_field(unit), mt.zero_field()
    with pytest.raises(mt.FieldError, match="different tori"):
        mt.Ansatz(1, lam, [mt.make_trig_field({(0, 1): 0.1})])
    with pytest.raises(mt.FieldError, match="different tori"):
        mt.Ansatz(2, lam, [zero_unit, zero_unit], [zero])
    with pytest.raises(mt.FieldError, match="different tori"):
        mt.RescaledAnsatz(1, (zero,), (zero_unit,), lam)
    with pytest.raises(mt.FieldError, match="different tori"):
        mt.MagneticSystem(lam, zero)
    with pytest.raises(mt.FieldError, match="different tori"):
        mt.build_linear_family(mt.constant_field(2.0, unit), mt.make_trig_field({(0, 1): 0.1}))
    ansatz = mt.Ansatz(2, lam, [zero_unit, zero_unit], [zero_unit])
    assert ansatz.geometry == unit
    assert all(f.geometry == unit for f in ansatz.fields())
    with pytest.raises(mt.FieldError, match="different tori"):
        mt.residual_harmonic(ansatz, zero_unit, 1, mt.SamplingGrid(8, 8))


def test_stationarity_constant_integral():
    # all a_k = 0 except a_0 constant: F is constant, residual is zero
    rng = np.random.default_rng(33)
    one = mt.constant_field(1.0)
    anz = mt.Ansatz(1, one, [mt.constant_field(7.0)], [])
    anz.u = anz.u[:1] + (mt.zero_field(),)   # v_1 is pinned to zero already
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


#: Profiles of the linear family: Lambda = 2 + 0.3 cos y, A = 0.1 sin y.
POWER_LAMBDA = mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.15})
POWER_A = mt.make_trig_field({(0, 1): -0.05j})
#: The x-profile family: Lambda = 2 + 0.3 cos x, A = 0.1 sin x.
POWER_LAMBDA_X = mt.make_trig_field({(0, 0): 2.0, (1, 0): 0.15})
POWER_A_X = mt.make_trig_field({(1, 0): -0.05j})


def assert_power_family_is_exact(n, lam, a, axis):
    # Every residual vanishes to roundoff, the closed form returns Omega
    # (-A'(y) or A'(x)) and the Egorov certificate certifies.
    ansatz = power_family(n, lam, a, axis)
    grid = mt.SamplingGrid(64, 64)
    omega = mt.omega_rescaled(mt.rescale(ansatz))   # what a scenario's "derive" takes
    constraint = mt.constraint_residual(ansatz, grid)
    conservation = mt.conservation_residuals(mt.rescale(ansatz), grid)
    reports = [mt.residual_stationarity(ansatz, omega, grid), constraint, conservation,
               *(mt.residual_harmonic(ansatz, omega, k, grid) for k in range(n + 2))]
    sups = [(entry.label, entry.sup) for report in reports for entry in report.entries]
    assert all(sup <= 1e-10 for _, sup in sups), sups
    minus_omega = a.dy_field() if axis == "y" else -1.0 * a.dx_field()
    gap = mt.omega_raw(ansatz).on_grid(grid) + minus_omega.on_grid(grid)
    assert np.max(np.abs(gap)) <= 1e-12
    unresolved = ansatz_module.unresolved_inputs(ansatz, grid)
    assert mt.certificate_from_reports(constraint, conservation, 1e-10, unresolved).certified


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8])
def test_powers_of_the_linear_integral_are_exact_at_every_degree(n):
    # F_1^n is conserved by the flow with Omega = -A'.
    assert_power_family_is_exact(n, POWER_LAMBDA, POWER_A, "y")


@pytest.mark.parametrize("n", [2, 4, 6])
def test_signed_powers_of_the_x_profile_integral_are_exact(n):
    # (-1)^(n/2) F_1^n of the x-profile has v_k != 0 at odd k and
    # Lambda_x != 0: the one exact test of the t2 term of
    # `harmonic_relation` and of the v-terms.
    assert_power_family_is_exact(n, POWER_LAMBDA_X, POWER_A_X, "x")


def test_certificate_is_withheld_for_a_mode_the_grid_does_not_resolve():
    # Lambda's mode (0, 40) lies beyond a 64x64 grid's |n| < 32.  It is
    # under every f_k = u_k Lambda^(-k/2) as well, and is named once, for
    # Lambda, from the ansatz and from its rescaled form alike.
    lam = mt.make_trig_field({(0, 0): 2.0, (0, 1): 0.15, (0, 40): 0.01})
    ansatz = power_family(2, lam, POWER_A)
    flags = ansatz_module.unresolved_inputs(ansatz, mt.SamplingGrid())
    assert flags == ["Lambda has mode (0, 40), which the 64x64 grid does not resolve "
                     "(|m| < 32 and |n| < 32): an error can hide between its nodes"]
    assert ansatz_module.unresolved_inputs(mt.rescale(ansatz), mt.SamplingGrid()) == flags
    cert = mt.egorov_certificate(mt.rescale(ansatz))
    assert not cert.certified and flags[0] in cert.flags
    assert ansatz_module.unresolved_inputs(ansatz, mt.SamplingGrid(96, 82)) == []


def test_cube_of_the_linear_integral_is_conserved_along_the_flow():
    ansatz = power_family(3, POWER_LAMBDA, POWER_A)
    system = mt.MagneticSystem(POWER_LAMBDA, mt.omega_rescaled(mt.rescale(ansatz)))
    traj = mt.integrate(system, mt.PhaseState(0.5, 0.3, 0.7), 10.0,
                        observables={"F": mt.first_integral_observable(ansatz)})
    assert not traj.aborted
    assert mt.monitor(traj)["F"].relative_drift <= 1e-8


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
                             (zero, mt.constant_field(0.1)), one)
    assert mt.omega_rescaled(resc).eval(0.2, 0.5) == 0.0
    # N = 1, f_0 = -2 B y
    b = 0.25
    resc = mt.RescaledAnsatz(1, (mt.analytic_preset("affine_y", {"slope": -2 * b}),),
                             (zero,), one)
    assert mt.omega_rescaled(resc).eval(0.0, 2.0) == pytest.approx(b, abs=1e-15)
    # N = 2, f_1 = sin y, g_1 = sin x -> Omega = (cos x - cos y) / 4
    f1 = mt.make_trig_field({(0, 1): -0.5j})
    g1 = mt.make_trig_field({(1, 0): -0.5j})
    resc = mt.RescaledAnsatz(2, (zero, f1), (zero, g1), one)
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
    resc = mt.RescaledAnsatz(2, (zero, f), (zero, g), lam)
    rep = mt.constraint_residual(resc, mt.SamplingGrid(24, 24))
    assert rep.entry("divergence_rescaled").sup < 1e-12


def test_constraint_known_magnitude():
    # f x-independent, g = sin y: the rescaled residual is cos y with sup 1
    one = mt.constant_field(1.0)
    f = mt.make_trig_field({(0, 2): 0.35})
    g = mt.make_trig_field({(0, 1): -0.5j})
    resc = mt.RescaledAnsatz(1, (f,), (g,), one)
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
                             (consts(0.1), consts(0.3)), one)
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
                                 lam)
        r_field, flux1, flux2, _ = mt.conservation_flux_fields(resc)
        res1 = r_field.d_dx(X, Y) + flux1.d_dy(X, Y)
        res2 = r_field.d_dy(X, Y) + flux2.d_dx(X, Y)
        disp1, disp2 = top_harmonic_displays(n, f, g, fm2, gm2, lam, X, Y)
        assert np.max(np.abs(res1 - disp1)) < 1e-12
        assert np.max(np.abs(res2 + disp2)) < 1e-12


def trig_leaves(field) -> list:
    """The trigonometric tables reachable from `field` through node children."""
    if isinstance(field, TrigField):
        return [field]
    return [leaf for child in getattr(field, "_children", ()) for leaf in trig_leaves(child)]


@pytest.mark.parametrize("n", [1, 2])
def test_conservation_fluxes_reach_only_the_ansatz_tables(monkeypatch, n):
    # Sums, differences and scalar multiples of tables are nodes, so the flux
    # fields copy no table: their leaves are the ansatz's own fields and, at
    # N = 1, the zero field g_{-1} of the second block.
    ansatz = random_ansatz(np.random.default_rng(71), n)
    made = []
    monkeypatch.setattr(ansatz_module, "zero_field",
                        lambda geometry: made.append(mt.zero_field(geometry)) or made[-1])
    fields = mt.conservation_flux_fields(mt.rescale(ansatz))[:3]
    assert len(made) == (n == 1)
    allowed = {id(f) for f in ansatz.fields() + tuple(made)}
    leaves = [leaf for field in fields for leaf in trig_leaves(field)]
    assert ansatz.lam in leaves
    assert all(id(leaf) in allowed for leaf in leaves)


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


def test_a_nan_chunk_makes_the_sups_nan():
    finite = (np.array([1.0, 2.0]), np.zeros(2))
    nan = (np.array([math.nan, 0.5]), np.zeros(2))

    def entry(label, chunks):
        norms = ansatz_module._Norms(label)
        for residual, mags in chunks:
            norms.add(residual, mags)
        return norms.entry(sum)

    for chunks in ([finite, nan], [nan, finite]):
        got = entry("eq", chunks)
        assert math.isnan(got.sup) and math.isnan(got.rel_sup)
    report = mt.ResidualReport([entry("a", [finite]), entry("b", [finite, nan])])
    assert math.isnan(report.max_sup)


def full_grid_entry(label, samples) -> mt.EquationResidual:
    """Norms from full-grid (residual, magnitude) samples: one np.max and
    one np.sum per sample over the whole grid, the sums added in order."""
    residuals = [res for res, _ in samples]
    rels = [np.abs(res) / (1.0 + mags) for res, mags in samples]
    count = sum(res.size for res in residuals)
    rms = lambda arrays: math.sqrt(sum(np.sum(a * a) for a in arrays) / count)
    return mt.EquationResidual(label, float(max(np.max(np.abs(r)) for r in residuals)),
                               rms(residuals), float(max(np.max(r) for r in rels)),
                               rms(rels))


@pytest.mark.parametrize("shape, degrees", [
    ((16, 16), (1, 2, 3, 4)), ((96, 96), (1, 2, 3, 4)), ((130, 70), (1, 2, 3, 4)),
    ((256, 256), (1, 3)), ((300, 301), (2, 4)),   # the large grids share out the degrees
])
def test_blocked_reports_are_the_full_grid_norms_bit_for_bit(shape, degrees):
    # 96^2 and 130 x 70 make two blocks, 256^2 eight and 300 x 301 sixteen;
    # the blocks of 130 x 70 and 300 x 301 cut rows.
    grid = mt.SamplingGrid(*shape)
    assert all(stop - start <= mt.fields.BLOCK_POINTS for start, stop in grid.spans)
    rng = np.random.default_rng(shape[0] * shape[1])
    for n in degrees:
        anz = random_ansatz(rng, n)
        omega = mt.omega_raw(anz)
        resc = mt.rescale(anz)
        n_phi = mt.ansatz.default_phi_count(n)
        res, mags = stationarity_residual_values(anz, omega, grid,
                                                 2.0 * np.pi * np.arange(n_phi) / n_phi)
        want = {"stationarity": full_grid_entry("stationarity", list(zip(res, mags)))}
        for k in range(n + 2):
            res, mags = harmonic_residual_values(anz, omega, k, grid)
            want[f"harmonic_{k}"] = [full_grid_entry(f"harmonic_{k}_real", [(res.real, mags)]),
                                     full_grid_entry(f"harmonic_{k}_imag", [(res.imag, mags)])]
        lhs, rhs = mt.ansatz.constraint_sides(n, anz.lam.jet(grid), anz.u[n - 1].jet(grid),
                                              anz.v[n - 1].jet(grid))
        tf, tg = resc.f[n - 1].jet(grid).x, resc.g[n - 1].jet(grid).y
        want["constraint"] = [
            full_grid_entry("divergence_unscaled", [(lhs - rhs, np.maximum(abs(lhs), abs(rhs)))]),
            full_grid_entry("divergence_rescaled", [(tf + tg, np.maximum(abs(tf), abs(tg)))])]
        r, f1, f2 = (f.jet(grid) for f in mt.conservation_flux_fields(resc)[:3])
        want["conservation"] = [
            full_grid_entry("conservation_1", [(r.x + f1.y, np.maximum(abs(r.x), abs(f1.y)))]),
            full_grid_entry("conservation_2", [(r.y + f2.x, np.maximum(abs(r.y), abs(f2.x)))])]
        got = {"stationarity": mt.residual_stationarity(anz, omega, grid).entries[0],
               "constraint": mt.constraint_residual(anz, grid).entries,
               "conservation": mt.conservation_residuals(resc, grid).entries}
        got.update((f"harmonic_{k}", mt.residual_harmonic(anz, omega, k, grid).entries)
                   for k in range(n + 2))
        assert got == want, f"N = {n}"


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
